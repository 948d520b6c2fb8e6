"""Signal-driven drain/abort for the one-shot sweep (pinned exit codes).

``python -m repro fleet sweep`` installs SIGTERM/SIGINT handlers: the
first signal drains (in-flight attempts stop at a checkpoint boundary,
exit 4), a second aborts (workers SIGKILL'd, exit 5).  Both codes are
part of the CLI contract — operators and CI scripts branch on them.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.fleet.server import JOURNAL_DIR


#: The CLI with ``format_table`` wrapped so that rendering the report
#: sends the process a SIGTERM: a signal that lands after the drain.
LATE_SIGNAL = """
import os, signal, sys
import repro.__main__ as cli
render = cli.format_table
def format_table(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGTERM)
    return render(*args, **kwargs)
cli.format_table = format_table
sys.exit(cli.main(sys.argv[1:]))
"""


def _sweep_process(tmp_path, *, seeds="1,2", frames=300,
                   program=("-m", "repro")):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, *program, "fleet", "sweep",
            "--seeds", seeds, "--frames", str(frames),
            "--workers", "1", "--workdir", str(tmp_path / "work"),
            "--cache-dir", str(tmp_path / "cache")]
    return subprocess.Popen(argv, env=env, cwd=str(tmp_path),
                            stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)


def _journaled(journal_dir, kind) -> bool:
    for path in journal_dir.glob("*"):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue            # sealed away between glob and read
        for line in text.splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue        # a torn tail still being appended
            if record.get("type") == kind:
                return True
    return False


def _await_record(process, tmp_path, kind, deadline=60.0) -> bool:
    """Poll the sweep's journal until it holds a ``kind`` record (True)
    or the sweep exits first (False)."""
    journal_dir = tmp_path / "work" / JOURNAL_DIR
    give_up = time.monotonic() + deadline
    while not _journaled(journal_dir, kind):
        if process.poll() is not None:
            return False
        if time.monotonic() > give_up:
            process.kill()
            pytest.fail(f"no {kind!r} record journaled within {deadline}s")
        time.sleep(0.05)
    return True


def _wait_for_worker_start(process, tmp_path, deadline=60.0):
    """Wait for the sweep's first ``claim`` record.  The sweep installs
    its signal handlers before any slot claims a job, so a signal sent
    after that is handled, not fatal."""
    assert _await_record(process, tmp_path, "claim", deadline), \
        f"sweep finished before the signal: {process.stdout.read()}"


@pytest.mark.slow
class TestSweepSignals:
    def test_sigterm_drains_with_exit_4(self, tmp_path):
        process = _sweep_process(tmp_path)
        _wait_for_worker_start(process, tmp_path)
        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=120)
        assert process.returncode == 4, out
        assert "drained" in out

    def test_second_signal_aborts_with_exit_5(self, tmp_path):
        process = _sweep_process(tmp_path)
        _wait_for_worker_start(process, tmp_path)
        process.send_signal(signal.SIGTERM)
        # The drain record says the first signal was handled and the
        # drain is under way, so the second one lands on it.
        if _await_record(process, tmp_path, "drain") \
                and process.poll() is None:
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=120)
            assert process.returncode == 5, out
            assert "ABORTED" in out
        else:
            # Drained before the second signal landed (fast machine):
            # the drain contract still must hold.
            assert process.returncode == 4

    def test_signal_after_the_drain_aborts_with_exit_5(self, tmp_path):
        """Once the server has drained, the command still owns the
        signals: one that lands while the report renders ends it with
        exit 5, not the default action's death by SIGTERM."""
        process = _sweep_process(tmp_path, program=("-c", LATE_SIGNAL))
        _wait_for_worker_start(process, tmp_path)
        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=120)
        assert process.returncode == 5, out
        assert "ABORTED on SIGTERM" in out
