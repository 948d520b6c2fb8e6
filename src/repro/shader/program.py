"""Shader program container, slot tables, assembler and reconvergence analysis.

A :class:`Program` is a finalized instruction list plus the metadata both
the interpreter and the timing model need: attribute/varying/output slot
tables, the uniform (constant bank) layout, and texture units.

Reconvergence points for divergent branches are computed here as immediate
post-dominators of the instruction-level control-flow graph — the classic
IPDOM mechanism GPGPU-Sim's SIMT stack uses.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Optional

from repro.shader.isa import (
    Imm,
    Instruction,
    Opcode,
    Pred,
    Reg,
    opcode_by_mnemonic,
)


class SlotTable:
    """Ordered name -> (base scalar slot, width) mapping."""

    def __init__(self) -> None:
        self._entries: dict[str, tuple[int, int]] = {}
        self._next = 0

    def allocate(self, name: str, width: int) -> int:
        if name in self._entries:
            raise ValueError(f"slot {name!r} already allocated")
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        base = self._next
        self._entries[name] = (base, width)
        self._next += width
        return base

    def lookup(self, name: str) -> tuple[int, int]:
        if name not in self._entries:
            raise KeyError(f"no slot {name!r}; known: {list(self._entries)}")
        return self._entries[name]

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> list[tuple[str, tuple[int, int]]]:
        return list(self._entries.items())

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    @property
    def total(self) -> int:
        return self._next


@dataclass
class Program:
    """A finalized shader program.

    Vertex stage output slots: 0-3 are ``gl_Position``; varyings follow.
    Fragment stage output slots: 0-3 are ``gl_FragColor``; 4 is
    ``gl_FragDepth`` when written.
    """

    stage: str
    instructions: list[Instruction] = field(default_factory=list)
    attributes: SlotTable = field(default_factory=SlotTable)
    varyings: SlotTable = field(default_factory=SlotTable)
    uniforms: SlotTable = field(default_factory=SlotTable)
    textures: dict[str, int] = field(default_factory=dict)
    num_regs: int = 0
    num_preds: int = 0
    name: str = "shader"
    writes_depth: bool = False

    POSITION_SLOTS = 4      # VS outputs 0-3
    COLOR_SLOTS = 4         # FS outputs 0-3
    DEPTH_SLOT = 4          # FS output 4

    def __post_init__(self) -> None:
        if self.stage not in ("vertex", "fragment"):
            raise ValueError(f"stage must be vertex|fragment, got {self.stage!r}")
        # Lazy caches (not dataclass fields): both are derived from the
        # instruction list, which is immutable once finalized.
        self._digest: Optional[str] = None
        self._has_discard: Optional[bool] = None

    @property
    def has_discard(self) -> bool:
        if self._has_discard is None:
            self._has_discard = any(
                i.op is Opcode.DISCARD for i in self.instructions)
        return self._has_discard

    @property
    def digest(self) -> str:
        """Stable content hash of the finalized program (hex string).

        Computed once and cached on the object — this is the key for the
        compiled dispatch-table cache (DESIGN.md §12), looked up per warp
        launch, so recomputing it per lookup would dominate small warps.
        """
        if self._digest is None:
            hasher = hashlib.sha1()
            hasher.update(
                f"{self.stage}|{self.name}|{self.num_regs}|"
                f"{self.num_preds}|{self.writes_depth}".encode())
            for instr in self.instructions:
                hasher.update(
                    f"{instr!r}|{instr.target}|{instr.reconv}\n".encode())
            self._digest = hasher.hexdigest()
        return self._digest

    def finalize(self) -> "Program":
        """Resolve register counts and reconvergence points; validate."""
        max_reg = -1
        max_pred = -1
        for instr in self.instructions:
            for operand in list(instr.dsts) + list(instr.srcs):
                if isinstance(operand, Reg):
                    max_reg = max(max_reg, operand.index)
                elif isinstance(operand, Pred):
                    max_pred = max(max_pred, operand.index)
            if instr.guard is not None:
                max_pred = max(max_pred, instr.guard.index)
            if instr.op is Opcode.BRA:
                if instr.target is None:
                    raise ValueError(f"unresolved branch target: {instr}")
                if not (0 <= instr.target <= len(self.instructions)):
                    raise ValueError(f"branch target out of range: {instr}")
        self.num_regs = max_reg + 1
        self.num_preds = max_pred + 1
        if not self.instructions or self.instructions[-1].op is not Opcode.EXIT:
            self.instructions.append(Instruction(Opcode.EXIT))
        self.writes_depth = any(
            i.op is Opcode.ST_OUT and i.slot == self.DEPTH_SLOT
            for i in self.instructions
        ) or any(i.op is Opcode.ZWRITE for i in self.instructions)
        compute_reconvergence(self.instructions)
        # The instruction list is final from here on: drop any cache taken
        # from an earlier draft (or copied along from the program it was
        # copied from, as the ROP epilogue does).
        self._digest = None
        self._has_discard = None
        return self


def compute_reconvergence(instructions: list[Instruction]) -> None:
    """Annotate every conditional branch with its IPDOM reconvergence pc.

    Uses instruction-granularity post-dominator analysis; the virtual exit
    node is ``len(instructions)``.
    """
    n = len(instructions)
    exit_node = n
    successors: list[list[int]] = []
    for pc, instr in enumerate(instructions):
        if instr.op is Opcode.EXIT:
            successors.append([exit_node])
        elif instr.op is Opcode.BRA:
            if instr.guard is None:
                successors.append([instr.target])
            else:
                successors.append(sorted({pc + 1, instr.target}))
        else:
            successors.append([pc + 1 if pc + 1 < n else exit_node])
    # Iterative post-dominator sets: pdom(n) = {n} | intersection of succs.
    all_nodes = set(range(n + 1))
    pdom: list[set[int]] = [set(all_nodes) for _ in range(n)] + [{exit_node}]
    changed = True
    while changed:
        changed = False
        for pc in range(n - 1, -1, -1):
            succ_sets = [pdom[s] for s in successors[pc]]
            if succ_sets:
                new = {pc} | set.intersection(*succ_sets)
            else:
                new = {pc}
            if new != pdom[pc]:
                pdom[pc] = new
                changed = True
    for pc, instr in enumerate(instructions):
        if instr.op is Opcode.BRA and instr.guard is not None:
            candidates = pdom[pc] - {pc}
            # The immediate post-dominator is the candidate closest to pc:
            # the one with the largest post-dominator set.
            instr.reconv = max(candidates, key=lambda c: (len(pdom[c]) if c < n else 1, -c))


_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):$")
_GUARD_RE = re.compile(r"^@(!?)p(\d+)$")


def _parse_operand(token: str) -> tuple[str, object]:
    """Classify an assembler operand token.

    Returns (kind, value) where kind is ``reg``/``pred``/``imm``/``slot``/
    ``label``.  Slot tokens: ``a3`` attr, ``v1`` varying, ``c5`` const,
    ``o0`` output, ``t2`` texture unit.
    """
    token = token.strip()
    if re.fullmatch(r"r\d+", token):
        return "reg", Reg(int(token[1:]))
    if re.fullmatch(r"p\d+", token):
        return "pred", Pred(int(token[1:]))
    if re.fullmatch(r"[avcot]\d+", token):
        return "slot", (token[0], int(token[1:]))
    try:
        return "imm", Imm(float(token))
    except ValueError:
        pass
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token):
        return "label", token
    raise ValueError(f"cannot parse operand {token!r}")


# opcode -> (num dsts, num srcs); slot-consuming ops handled specially.
_SHAPES = {
    Opcode.MOV: (1, 1), Opcode.ADD: (1, 2), Opcode.SUB: (1, 2),
    Opcode.MUL: (1, 2), Opcode.DIV: (1, 2), Opcode.MAD: (1, 3),
    Opcode.MIN: (1, 2), Opcode.MAX: (1, 2), Opcode.ABS: (1, 1),
    Opcode.NEG: (1, 1), Opcode.FLOOR: (1, 1), Opcode.FRAC: (1, 1),
    Opcode.RCP: (1, 1), Opcode.RSQRT: (1, 1), Opcode.SQRT: (1, 1),
    Opcode.SIN: (1, 1), Opcode.COS: (1, 1), Opcode.EXP2: (1, 1),
    Opcode.LOG2: (1, 1), Opcode.POW: (1, 2),
    Opcode.SETP_LT: (1, 2), Opcode.SETP_LE: (1, 2), Opcode.SETP_GT: (1, 2),
    Opcode.SETP_GE: (1, 2), Opcode.SETP_EQ: (1, 2), Opcode.SETP_NE: (1, 2),
    Opcode.SEL: (1, 3), Opcode.PAND: (1, 2), Opcode.POR: (1, 2),
    Opcode.PNOT: (1, 1),
    Opcode.ZREAD: (1, 0), Opcode.ZWRITE: (0, 1),
    Opcode.SREAD: (1, 0), Opcode.SWRITE: (0, 1),
    Opcode.FB_READ: (4, 0), Opcode.FB_WRITE: (0, 4),
    Opcode.LD_GLOBAL: (1, 1), Opcode.ST_GLOBAL: (0, 2),
    Opcode.EXIT: (0, 0), Opcode.DISCARD: (0, 0),
}


def assemble(text: str, stage: str = "fragment", name: str = "asm") -> Program:
    """Assemble text into a finalized :class:`Program`.

    Directives: ``.stage``, ``.attr NAME WIDTH``, ``.vary NAME WIDTH``,
    ``.uniform NAME WIDTH``, ``.tex NAME``.  Labels end with ``:``.
    Instructions may carry a guard prefix ``@p0`` / ``@!p1``.
    """
    program = Program(stage=stage, name=name)
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)

    labels: dict[str, int] = {}
    pending: list[tuple[list[str], Optional[Pred], bool]] = []
    for line in lines:
        if line.startswith("."):
            parts = line.split()
            directive = parts[0]
            if directive == ".stage":
                program.stage = parts[1]
            elif directive == ".attr":
                program.attributes.allocate(parts[1], int(parts[2]))
            elif directive == ".vary":
                program.varyings.allocate(parts[1], int(parts[2]))
            elif directive == ".uniform":
                program.uniforms.allocate(parts[1], int(parts[2]))
            elif directive == ".tex":
                program.textures[parts[1]] = len(program.textures)
            else:
                raise ValueError(f"unknown directive {directive!r}")
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            labels[label_match.group(1)] = len(pending)
            continue
        tokens = line.replace(",", " ").split()
        guard = None
        guard_sense = True
        guard_match = _GUARD_RE.match(tokens[0])
        if guard_match:
            guard = Pred(int(guard_match.group(2)))
            guard_sense = not guard_match.group(1)
            tokens = tokens[1:]
        pending.append((tokens, guard, guard_sense))

    for tokens, guard, guard_sense in pending:
        mnemonic, *operand_tokens = tokens
        op = opcode_by_mnemonic(mnemonic)
        instr = Instruction(op, guard=guard, guard_sense=guard_sense)
        operands = [_parse_operand(t) for t in operand_tokens]
        if op is Opcode.BRA:
            kind, value = operands[0]
            if kind != "label":
                raise ValueError(f"bra needs a label, got {operand_tokens[0]!r}")
            if value not in labels:
                raise ValueError(f"undefined label {value!r}")
            instr.target = labels[value]
        elif op in (Opcode.LD_ATTR, Opcode.LD_VARY, Opcode.LD_CONST):
            instr.dsts = [operands[0][1]]
            kind, slot = operands[1]
            if kind != "slot":
                raise ValueError(f"{mnemonic} needs a slot operand")
            instr.slot = slot[1]
        elif op is Opcode.ST_OUT:
            kind, slot = operands[0]
            if kind != "slot":
                raise ValueError("st.out needs an output slot first")
            instr.slot = slot[1]
            instr.srcs = [operands[1][1]]
        elif op is Opcode.TEX:
            # tex r0, r1, r2, r3, tN, rU, rV
            instr.dsts = [o[1] for o in operands[:4]]
            kind, slot = operands[4]
            if kind != "slot" or slot[0] != "t":
                raise ValueError("tex needs a texture unit (tN) operand")
            instr.slot = slot[1]
            instr.srcs = [operands[5][1], operands[6][1]]
        else:
            shape = _SHAPES.get(op)
            if shape is None:
                raise ValueError(f"no operand shape for {op}")
            num_dsts, num_srcs = shape
            if len(operands) != num_dsts + num_srcs:
                raise ValueError(
                    f"{mnemonic} expects {num_dsts + num_srcs} operands, "
                    f"got {len(operands)}"
                )
            instr.dsts = [o[1] for o in operands[:num_dsts]]
            instr.srcs = [o[1] for o in operands[num_dsts:]]
        program.instructions.append(instr)

    return program.finalize()
