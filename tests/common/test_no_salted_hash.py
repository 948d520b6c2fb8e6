"""No simulator code calls the builtin ``hash()``.

Python salts ``str`` and ``bytes`` hashes per process (``PYTHONHASHSEED``),
so a value derived from ``hash()`` differs between two runs of the same
command.  Anything that reaches the schedule (an address, an id, an order)
must come from a stable digest such as ``zlib.crc32`` instead.
"""

import ast
import os

import repro

SRC = os.path.dirname(os.path.abspath(repro.__file__))


def salted_hash_calls(root: str) -> list[str]:
    """``path:line`` of every call to the builtin ``hash`` under ``root``."""
    found = []
    for folder, _, files in os.walk(root):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path) as handle:
                tree = ast.parse(handle.read(), filename=path)
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "hash"):
                    found.append(f"{os.path.relpath(path, SRC)}:{node.lineno}")
    return sorted(found)


def test_no_builtin_hash_under_src():
    assert salted_hash_calls(SRC) == []


def test_the_check_names_file_and_line(tmp_path):
    (tmp_path / "ok.py").write_text("import zlib\nzlib.crc32(b'x')\n")
    (tmp_path / "bad.py").write_text("x = 1\ny = hash('name') % 1024\n")
    assert salted_hash_calls(str(tmp_path)) == [
        os.path.relpath(str(tmp_path / "bad.py"), SRC) + ":2"]
