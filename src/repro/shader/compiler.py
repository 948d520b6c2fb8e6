"""A small GLSL-like shader language compiled to the shader ISA.

This is the reproduction's TGSItoPTX: workloads write vertex/fragment
shaders in a GLSL subset, the compiler scalarizes vector expressions and
emits ISA instructions.  Supported surface:

* declarations: ``in/out/uniform`` with ``float``, ``vec2/3/4``, ``mat4``
  and ``uniform sampler2D``;
* a single ``void main() { ... }``;
* statements: local declarations, (swizzled) assignment, ``if``/``else``,
  ``discard``;
* expressions: arithmetic (`+ - * /`, including ``mat4 * vec4`` and
  scalar-vector broadcast), comparisons, ``&& || !``, swizzles,
  constructors (``vec3(x)``, ``vec4(v3, 1.0)``), and the builtin calls
  ``texture dot cross normalize length min max clamp mix pow abs floor
  fract sqrt inversesqrt sin cos exp2 log2 reflect``;
* builtins: ``gl_Position`` (vertex), ``gl_FragColor``, ``gl_FragDepth``
  and ``gl_FragCoord`` (fragment).

Vertex-stage ``out`` variables become varyings, matched by name with
fragment-stage ``in`` variables by the rasterizer.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.shader.isa import Imm, Instruction, Opcode, Pred, Reg
from repro.shader.program import Program


class ShaderCompileError(ValueError):
    """Raised for any lexical, syntactic or semantic shader error."""


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<number>\d+\.\d*|\.\d+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|==|!=|&&|\|\||[-+*/<>=!{}();,.])
""", re.VERBOSE)

KEYWORDS = {"in", "out", "uniform", "void", "if", "else", "discard", "return",
            "float", "vec2", "vec3", "vec4", "mat4", "sampler2D"}

VEC_WIDTH = {"float": 1, "vec2": 2, "vec3": 3, "vec4": 4, "mat4": 16}
SWIZZLE_CHARS = {"x": 0, "y": 1, "z": 2, "w": 3,
                 "r": 0, "g": 1, "b": 2, "a": 3,
                 "s": 0, "t": 1, "p": 2, "q": 3}


@dataclass
class Token:
    kind: str       # number | ident | keyword | op | eof
    text: str
    pos: int


def tokenize(source: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if not match:
            raise ShaderCompileError(f"bad character {source[pos]!r} at {pos}")
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        kind = match.lastgroup
        text = match.group()
        if kind == "ident" and text in KEYWORDS:
            kind = "keyword"
        tokens.append(Token(kind, text, match.start()))
    tokens.append(Token("eof", "", pos))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass
class Num:
    value: float


@dataclass
class VarRef:
    name: str


@dataclass
class Swizzle:
    base: "Expr"
    components: list[int]


@dataclass
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass
class Unary:
    op: str
    operand: "Expr"


@dataclass
class Call:
    name: str
    args: list["Expr"]


Expr = Union[Num, VarRef, Swizzle, Binary, Unary, Call]


@dataclass
class Declaration:
    qualifier: str      # in | out | uniform
    type: str
    name: str


@dataclass
class VarDeclStmt:
    type: str
    name: str
    init: Expr


@dataclass
class AssignStmt:
    name: str
    components: Optional[list[int]]     # swizzled write, None = full
    expr: Expr


@dataclass
class IfStmt:
    cond: Expr
    then_body: list
    else_body: list


@dataclass
class DiscardStmt:
    pass


@dataclass
class ReturnStmt:
    pass


@dataclass
class ShaderAST:
    declarations: list[Declaration]
    body: list


class Parser:
    """Recursive-descent parser for the shader subset."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.index = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, text: str) -> Token:
        token = self.advance()
        if token.text != text:
            raise ShaderCompileError(
                f"expected {text!r} at {token.pos}, got {token.text!r}")
        return token

    def parse(self) -> ShaderAST:
        declarations = []
        body = None
        while self.peek().kind != "eof":
            token = self.peek()
            if token.text in ("in", "out", "uniform"):
                declarations.append(self._declaration())
            elif token.text == "void":
                body = self._main()
            else:
                raise ShaderCompileError(
                    f"unexpected {token.text!r} at top level (pos {token.pos})")
        if body is None:
            raise ShaderCompileError("shader has no main()")
        return ShaderAST(declarations, body)

    def _declaration(self) -> Declaration:
        qualifier = self.advance().text
        type_token = self.advance()
        if type_token.text not in VEC_WIDTH and type_token.text != "sampler2D":
            raise ShaderCompileError(f"bad type {type_token.text!r}")
        name = self.advance()
        if name.kind != "ident":
            raise ShaderCompileError(f"bad declaration name {name.text!r}")
        self.expect(";")
        return Declaration(qualifier, type_token.text, name.text)

    def _main(self) -> list:
        self.expect("void")
        name = self.advance()
        if name.text != "main":
            raise ShaderCompileError("only main() is supported")
        self.expect("(")
        self.expect(")")
        return self._block()

    def _block(self) -> list:
        self.expect("{")
        statements = []
        while self.peek().text != "}":
            statements.append(self._statement())
        self.expect("}")
        return statements

    def _statement(self):
        token = self.peek()
        if token.text == "if":
            return self._if()
        if token.text == "discard":
            self.advance()
            self.expect(";")
            return DiscardStmt()
        if token.text == "return":
            self.advance()
            self.expect(";")
            return ReturnStmt()
        if token.text in VEC_WIDTH:
            type_name = self.advance().text
            name = self.advance().text
            self.expect("=")
            init = self._expr()
            self.expect(";")
            return VarDeclStmt(type_name, name, init)
        # assignment: name[.swizzle] = expr ;
        name = self.advance()
        if name.kind != "ident":
            raise ShaderCompileError(f"unexpected {name.text!r} (pos {name.pos})")
        components = None
        if self.peek().text == ".":
            self.advance()
            swizzle = self.advance().text
            components = _parse_swizzle(swizzle)
        self.expect("=")
        expr = self._expr()
        self.expect(";")
        return AssignStmt(name.text, components, expr)

    def _if(self) -> IfStmt:
        self.expect("if")
        self.expect("(")
        cond = self._expr()
        self.expect(")")
        then_body = self._block()
        else_body = []
        if self.peek().text == "else":
            self.advance()
            if self.peek().text == "if":
                else_body = [self._if()]
            else:
                else_body = self._block()
        return IfStmt(cond, then_body, else_body)

    # Expression grammar (low to high precedence).

    def _expr(self) -> Expr:
        return self._or()

    def _or(self) -> Expr:
        left = self._and()
        while self.peek().text == "||":
            self.advance()
            left = Binary("||", left, self._and())
        return left

    def _and(self) -> Expr:
        left = self._comparison()
        while self.peek().text == "&&":
            self.advance()
            left = Binary("&&", left, self._comparison())
        return left

    def _comparison(self) -> Expr:
        left = self._additive()
        while self.peek().text in ("<", "<=", ">", ">=", "==", "!="):
            op = self.advance().text
            left = Binary(op, left, self._additive())
        return left

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            left = Binary(op, left, self._multiplicative())
        return left

    def _multiplicative(self) -> Expr:
        left = self._unary()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            left = Binary(op, left, self._unary())
        return left

    def _unary(self) -> Expr:
        if self.peek().text == "-":
            self.advance()
            return Unary("-", self._unary())
        if self.peek().text == "!":
            self.advance()
            return Unary("!", self._unary())
        return self._postfix()

    def _postfix(self) -> Expr:
        expr = self._primary()
        while self.peek().text == ".":
            self.advance()
            swizzle = self.advance().text
            expr = Swizzle(expr, _parse_swizzle(swizzle))
        return expr

    def _primary(self) -> Expr:
        token = self.advance()
        if token.kind == "number":
            return Num(float(token.text))
        if token.text == "(":
            expr = self._expr()
            self.expect(")")
            return expr
        if token.kind in ("ident", "keyword"):
            if self.peek().text == "(":
                self.advance()
                args = []
                if self.peek().text != ")":
                    args.append(self._expr())
                    while self.peek().text == ",":
                        self.advance()
                        args.append(self._expr())
                self.expect(")")
                return Call(token.text, args)
            if token.kind == "keyword":
                raise ShaderCompileError(
                    f"unexpected keyword {token.text!r} in expression")
            return VarRef(token.text)
        raise ShaderCompileError(f"unexpected {token.text!r} (pos {token.pos})")


def _parse_swizzle(text: str) -> list[int]:
    if not text or len(text) > 4 or any(c not in SWIZZLE_CHARS for c in text):
        raise ShaderCompileError(f"bad swizzle {text!r}")
    return [SWIZZLE_CHARS[c] for c in text]


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

@dataclass
class Value:
    """A typed, scalarized rvalue: float components or a bool predicate."""

    type: str                       # float | vec2 | vec3 | vec4 | mat4 | bool
    comps: list = field(default_factory=list)   # Reg/Imm, or [Pred] for bool

    @property
    def width(self) -> int:
        return len(self.comps)


class CodeGenerator:
    def __init__(self, stage: str, name: str) -> None:
        self.program = Program(stage=stage, name=name)
        self.instructions = self.program.instructions
        self._next_reg = 0
        self._next_pred = 0
        self.variables: dict[str, Value] = {}
        self.samplers: dict[str, int] = {}
        self._const_cache: dict[int, Reg] = {}
        self._out_values: dict[str, Value] = {}
        self._vs_out_order: list[str] = []

    # -- low-level emitters -------------------------------------------------

    def fresh_reg(self) -> Reg:
        reg = Reg(self._next_reg)
        self._next_reg += 1
        return reg

    def fresh_pred(self) -> Pred:
        pred = Pred(self._next_pred)
        self._next_pred += 1
        return pred

    def emit(self, op: Opcode, dsts=(), srcs=(), slot=None) -> Instruction:
        instr = Instruction(op, dsts=list(dsts), srcs=list(srcs), slot=slot)
        self.instructions.append(instr)
        return instr

    def emit_branch(self, guard: Optional[Pred], sense: bool = True) -> Instruction:
        instr = Instruction(Opcode.BRA, guard=guard, guard_sense=sense, target=-1)
        self.instructions.append(instr)
        return instr

    def here(self) -> int:
        return len(self.instructions)

    # -- declarations --------------------------------------------------------

    def declare(self, decl: Declaration) -> None:
        stage = self.program.stage
        if decl.type == "sampler2D":
            if decl.qualifier != "uniform":
                raise ShaderCompileError("sampler2D must be uniform")
            self.samplers[decl.name] = len(self.program.textures)
            self.program.textures[decl.name] = self.samplers[decl.name]
            return
        width = VEC_WIDTH[decl.type]
        if decl.qualifier == "uniform":
            self.program.uniforms.allocate(decl.name, width)
            self.variables[decl.name] = Value("uniform:" + decl.type, [])
        elif decl.qualifier == "in":
            if stage == "vertex":
                base = self.program.attributes.allocate(decl.name, width)
                regs = [self.fresh_reg() for _ in range(width)]
                for i, reg in enumerate(regs):
                    self.emit(Opcode.LD_ATTR, dsts=[reg], slot=base + i)
                self.variables[decl.name] = Value(decl.type, regs)
            else:
                base = self.program.varyings.allocate(decl.name, width)
                regs = [self.fresh_reg() for _ in range(width)]
                for i, reg in enumerate(regs):
                    self.emit(Opcode.LD_VARY, dsts=[reg], slot=base + i)
                self.variables[decl.name] = Value(decl.type, regs)
        elif decl.qualifier == "out":
            if stage == "vertex":
                self.program.varyings.allocate(decl.name, width)
                self._vs_out_order.append(decl.name)
            regs = [self.fresh_reg() for _ in range(width)]
            # Outputs default to zero.
            for reg in regs:
                self.emit(Opcode.MOV, dsts=[reg], srcs=[Imm(0.0)])
            value = Value(decl.type, regs)
            self.variables[decl.name] = value
            self._out_values[decl.name] = value
        else:  # pragma: no cover - parser restricts qualifiers
            raise ShaderCompileError(f"bad qualifier {decl.qualifier!r}")

    def ensure_builtin(self, name: str) -> Value:
        """Materialize gl_* builtins on first reference."""
        stage = self.program.stage
        if name == "gl_Position" and stage == "vertex":
            value = Value("vec4", [self.fresh_reg() for _ in range(4)])
        elif name == "gl_FragColor" and stage == "fragment":
            value = Value("vec4", [self.fresh_reg() for _ in range(4)])
        elif name == "gl_FragDepth" and stage == "fragment":
            value = Value("float", [self.fresh_reg()])
        elif name == "gl_FragCoord" and stage == "fragment":
            base = self.program.varyings.allocate("gl_FragCoord", 4)
            regs = [self.fresh_reg() for _ in range(4)]
            for i, reg in enumerate(regs):
                self.emit(Opcode.LD_VARY, dsts=[reg], slot=base + i)
            value = Value("vec4", regs)
        else:
            raise ShaderCompileError(f"undefined variable {name!r}")
        self.variables[name] = value
        self._out_values[name] = value
        return value

    # -- uniforms ------------------------------------------------------------

    def load_uniform(self, name: str) -> Value:
        base, width = self.program.uniforms.lookup(name)
        declared = self.variables[name].type.split(":", 1)[1]
        regs = []
        for i in range(width):
            slot = base + i
            if slot not in self._const_cache:
                reg = self.fresh_reg()
                self.emit(Opcode.LD_CONST, dsts=[reg], slot=slot)
                self._const_cache[slot] = reg
            regs.append(self._const_cache[slot])
        return Value(declared, regs)

    # -- expressions ----------------------------------------------------------

    def gen_expr(self, expr: Expr) -> Value:
        if isinstance(expr, Num):
            return Value("float", [Imm(expr.value)])
        if isinstance(expr, VarRef):
            return self.read_var(expr.name)
        if isinstance(expr, Swizzle):
            base = self.gen_expr(expr.base)
            if base.type == "bool":
                raise ShaderCompileError("cannot swizzle a bool")
            for c in expr.components:
                if c >= base.width:
                    raise ShaderCompileError(
                        f"swizzle component out of range for {base.type}")
            comps = [base.comps[c] for c in expr.components]
            return Value(_type_of_width(len(comps)), comps)
        if isinstance(expr, Unary):
            return self.gen_unary(expr)
        if isinstance(expr, Binary):
            return self.gen_binary(expr)
        if isinstance(expr, Call):
            return self.gen_call(expr)
        raise ShaderCompileError(f"cannot generate {expr!r}")  # pragma: no cover

    def read_var(self, name: str) -> Value:
        if name in self.variables:
            value = self.variables[name]
            if value.type.startswith("uniform:"):
                return self.load_uniform(name)
            return value
        if name.startswith("gl_"):
            return self.ensure_builtin(name)
        raise ShaderCompileError(f"undefined variable {name!r}")

    def gen_unary(self, expr: Unary) -> Value:
        operand = self.gen_expr(expr.operand)
        if expr.op == "!":
            if operand.type != "bool":
                raise ShaderCompileError("! needs a bool")
            dst = self.fresh_pred()
            self.emit(Opcode.PNOT, dsts=[dst], srcs=[operand.comps[0]])
            return Value("bool", [dst])
        # numeric negation
        regs = []
        for comp in operand.comps:
            reg = self.fresh_reg()
            self.emit(Opcode.NEG, dsts=[reg], srcs=[comp])
            regs.append(reg)
        return Value(operand.type, regs)

    def gen_binary(self, expr: Binary) -> Value:
        op = expr.op
        if op in ("&&", "||"):
            left = self.gen_expr(expr.left)
            right = self.gen_expr(expr.right)
            if left.type != "bool" or right.type != "bool":
                raise ShaderCompileError(f"{op} needs bools")
            dst = self.fresh_pred()
            opcode = Opcode.PAND if op == "&&" else Opcode.POR
            self.emit(opcode, dsts=[dst], srcs=[left.comps[0], right.comps[0]])
            return Value("bool", [dst])
        if op in ("<", "<=", ">", ">=", "==", "!="):
            left = self.gen_expr(expr.left)
            right = self.gen_expr(expr.right)
            if left.width != 1 or right.width != 1:
                raise ShaderCompileError("comparisons need scalars")
            opcode = {"<": Opcode.SETP_LT, "<=": Opcode.SETP_LE,
                      ">": Opcode.SETP_GT, ">=": Opcode.SETP_GE,
                      "==": Opcode.SETP_EQ, "!=": Opcode.SETP_NE}[op]
            dst = self.fresh_pred()
            self.emit(opcode, dsts=[dst], srcs=[left.comps[0], right.comps[0]])
            return Value("bool", [dst])
        left = self.gen_expr(expr.left)
        right = self.gen_expr(expr.right)
        if op == "*" and left.type == "mat4" and right.type == "vec4":
            return self.gen_mat4_vec4(left, right)
        if left.type == "mat4" or right.type == "mat4":
            raise ShaderCompileError("mat4 only supports mat4 * vec4")
        left, right = _broadcast(left, right)
        opcode = {"+": Opcode.ADD, "-": Opcode.SUB,
                  "*": Opcode.MUL, "/": Opcode.DIV}[op]
        regs = []
        for lc, rc in zip(left.comps, right.comps):
            reg = self.fresh_reg()
            self.emit(opcode, dsts=[reg], srcs=[lc, rc])
            regs.append(reg)
        return Value(left.type, regs)

    def gen_mat4_vec4(self, matrix: Value, vector: Value) -> Value:
        """Row-major mat4 times column vec4 (matches numpy ``M @ v``)."""
        regs = []
        for row in range(4):
            acc = self.fresh_reg()
            self.emit(Opcode.MUL, dsts=[acc],
                      srcs=[matrix.comps[row * 4], vector.comps[0]])
            for col in range(1, 4):
                nxt = self.fresh_reg()
                self.emit(Opcode.MAD, dsts=[nxt],
                          srcs=[matrix.comps[row * 4 + col],
                                vector.comps[col], acc])
                acc = nxt
            regs.append(acc)
        return Value("vec4", regs)

    def gen_call(self, expr: Call) -> Value:
        name = expr.name
        if name in VEC_WIDTH and name != "float" and name != "mat4":
            return self.gen_constructor(name, [self.gen_expr(a) for a in expr.args])
        if name == "float":
            value = self.gen_expr(expr.args[0])
            if value.width != 1:
                raise ShaderCompileError("float() needs a scalar")
            return value
        if name == "texture":
            return self.gen_texture(expr)
        args = [self.gen_expr(a) for a in expr.args]
        return self.gen_builtin_function(name, args)

    def gen_constructor(self, type_name: str, args: list[Value]) -> Value:
        width = VEC_WIDTH[type_name]
        comps = []
        for arg in args:
            comps.extend(arg.comps)
        if len(comps) == 1 and width > 1:
            comps = comps * width
        if len(comps) != width:
            raise ShaderCompileError(
                f"{type_name} constructor needs {width} components, "
                f"got {len(comps)}")
        return Value(type_name, comps)

    def gen_texture(self, expr: Call) -> Value:
        if len(expr.args) != 2 or not isinstance(expr.args[0], VarRef):
            raise ShaderCompileError("texture(sampler, uv) expected")
        sampler_name = expr.args[0].name
        if sampler_name not in self.samplers:
            raise ShaderCompileError(f"unknown sampler {sampler_name!r}")
        uv = self.gen_expr(expr.args[1])
        if uv.width != 2:
            raise ShaderCompileError("texture() needs vec2 coordinates")
        dsts = [self.fresh_reg() for _ in range(4)]
        self.emit(Opcode.TEX, dsts=dsts, srcs=[uv.comps[0], uv.comps[1]],
                  slot=self.samplers[sampler_name])
        return Value("vec4", dsts)

    def gen_builtin_function(self, name: str, args: list[Value]) -> Value:
        unary_ops = {"abs": Opcode.ABS, "floor": Opcode.FLOOR,
                     "fract": Opcode.FRAC, "sqrt": Opcode.SQRT,
                     "inversesqrt": Opcode.RSQRT, "sin": Opcode.SIN,
                     "cos": Opcode.COS, "exp2": Opcode.EXP2,
                     "log2": Opcode.LOG2}
        if name in unary_ops:
            (value,) = args
            regs = []
            for comp in value.comps:
                reg = self.fresh_reg()
                self.emit(unary_ops[name], dsts=[reg], srcs=[comp])
                regs.append(reg)
            return Value(value.type, regs)
        if name in ("min", "max"):
            left, right = _broadcast(args[0], args[1])
            opcode = Opcode.MIN if name == "min" else Opcode.MAX
            regs = []
            for lc, rc in zip(left.comps, right.comps):
                reg = self.fresh_reg()
                self.emit(opcode, dsts=[reg], srcs=[lc, rc])
                regs.append(reg)
            return Value(left.type, regs)
        if name == "pow":
            left, right = _broadcast(args[0], args[1])
            regs = []
            for lc, rc in zip(left.comps, right.comps):
                reg = self.fresh_reg()
                self.emit(Opcode.POW, dsts=[reg], srcs=[lc, rc])
                regs.append(reg)
            return Value(left.type, regs)
        if name == "clamp":
            value = self.gen_builtin_function("max", [args[0], args[1]])
            return self.gen_builtin_function("min", [value, args[2]])
        if name == "dot":
            left, right = args
            if left.width != right.width or left.width < 2:
                raise ShaderCompileError("dot() needs equal-width vectors")
            acc = self.fresh_reg()
            self.emit(Opcode.MUL, dsts=[acc],
                      srcs=[left.comps[0], right.comps[0]])
            for i in range(1, left.width):
                nxt = self.fresh_reg()
                self.emit(Opcode.MAD, dsts=[nxt],
                          srcs=[left.comps[i], right.comps[i], acc])
                acc = nxt
            return Value("float", [acc])
        if name == "length":
            squared = self.gen_builtin_function("dot", [args[0], args[0]])
            reg = self.fresh_reg()
            self.emit(Opcode.SQRT, dsts=[reg], srcs=[squared.comps[0]])
            return Value("float", [reg])
        if name == "normalize":
            (value,) = args
            squared = self.gen_builtin_function("dot", [value, value])
            inv = self.fresh_reg()
            self.emit(Opcode.RSQRT, dsts=[inv], srcs=[squared.comps[0]])
            regs = []
            for comp in value.comps:
                reg = self.fresh_reg()
                self.emit(Opcode.MUL, dsts=[reg], srcs=[comp, inv])
                regs.append(reg)
            return Value(value.type, regs)
        if name == "cross":
            a, b = args
            if a.width != 3 or b.width != 3:
                raise ShaderCompileError("cross() needs vec3 operands")
            regs = []
            for (i, j) in ((1, 2), (2, 0), (0, 1)):
                t1 = self.fresh_reg()
                self.emit(Opcode.MUL, dsts=[t1], srcs=[a.comps[i], b.comps[j]])
                t2 = self.fresh_reg()
                self.emit(Opcode.MUL, dsts=[t2], srcs=[a.comps[j], b.comps[i]])
                out = self.fresh_reg()
                self.emit(Opcode.SUB, dsts=[out], srcs=[t1, t2])
                regs.append(out)
            return Value("vec3", regs)
        if name == "mix":
            a, b, t = args
            a, b = _broadcast(a, b)
            regs = []
            for i, (ac, bc) in enumerate(zip(a.comps, b.comps)):
                diff = self.fresh_reg()
                self.emit(Opcode.SUB, dsts=[diff], srcs=[bc, ac])
                out = self.fresh_reg()
                t_comp = t.comps[0] if t.width == 1 else t.comps[i]
                self.emit(Opcode.MAD, dsts=[out], srcs=[diff, t_comp, ac])
                regs.append(out)
            return Value(a.type, regs)
        if name == "reflect":
            incident, normal = args
            d = self.gen_builtin_function("dot", [normal, incident])
            two_d = self.fresh_reg()
            self.emit(Opcode.ADD, dsts=[two_d], srcs=[d.comps[0], d.comps[0]])
            regs = []
            for ic, nc in zip(incident.comps, normal.comps):
                scaled = self.fresh_reg()
                self.emit(Opcode.MUL, dsts=[scaled], srcs=[nc, two_d])
                out = self.fresh_reg()
                self.emit(Opcode.SUB, dsts=[out], srcs=[ic, scaled])
                regs.append(out)
            return Value(incident.type, regs)
        raise ShaderCompileError(f"unknown function {name!r}")

    # -- statements ------------------------------------------------------------

    def gen_body(self, body: list) -> None:
        for statement in body:
            self.gen_statement(statement)

    def gen_statement(self, statement) -> None:
        if isinstance(statement, VarDeclStmt):
            if statement.name in self.variables:
                raise ShaderCompileError(f"redeclaration of {statement.name!r}")
            value = self.gen_expr(statement.init)
            width = VEC_WIDTH[statement.type]
            value = _coerce_width(self, value, width, statement.type)
            regs = []
            for comp in value.comps:
                reg = self.fresh_reg()
                self.emit(Opcode.MOV, dsts=[reg], srcs=[comp])
                regs.append(reg)
            self.variables[statement.name] = Value(statement.type, regs)
        elif isinstance(statement, AssignStmt):
            self.gen_assign(statement)
        elif isinstance(statement, IfStmt):
            self.gen_if(statement)
        elif isinstance(statement, DiscardStmt):
            if self.program.stage != "fragment":
                raise ShaderCompileError("discard only valid in fragment shaders")
            self.emit(Opcode.DISCARD)
        elif isinstance(statement, ReturnStmt):
            pass    # main() return: no-op (outputs flushed in epilogue)
        else:  # pragma: no cover
            raise ShaderCompileError(f"cannot generate {statement!r}")

    def gen_assign(self, statement: AssignStmt) -> None:
        name = statement.name
        if name not in self.variables:
            if name.startswith("gl_"):
                self.ensure_builtin(name)
            else:
                raise ShaderCompileError(f"assignment to undeclared {name!r}")
        target = self.variables[name]
        if target.type.startswith("uniform:"):
            raise ShaderCompileError(f"cannot assign to uniform {name!r}")
        value = self.gen_expr(statement.expr)
        if statement.components is None:
            value = _coerce_width(self, value, target.width, target.type)
            for dst, src in zip(target.comps, value.comps):
                self.emit(Opcode.MOV, dsts=[dst], srcs=[src])
        else:
            if len(statement.components) != value.width:
                raise ShaderCompileError(
                    f"swizzled assignment width mismatch on {name!r}")
            for c, src in zip(statement.components, value.comps):
                if c >= target.width:
                    raise ShaderCompileError(
                        f"swizzle component out of range on {name!r}")
                self.emit(Opcode.MOV, dsts=[target.comps[c]], srcs=[src])

    def gen_if(self, statement: IfStmt) -> None:
        cond = self.gen_expr(statement.cond)
        if cond.type != "bool":
            raise ShaderCompileError("if condition must be boolean")
        pred = cond.comps[0]
        skip_then = self.emit_branch(pred, sense=False)
        self.gen_body(statement.then_body)
        if statement.else_body:
            skip_else = self.emit_branch(None)
            skip_then.target = self.here()
            self.gen_body(statement.else_body)
            skip_else.target = self.here()
        else:
            skip_then.target = self.here()

    # -- epilogue ---------------------------------------------------------------

    def flush_outputs(self) -> None:
        stage = self.program.stage
        if stage == "vertex":
            if "gl_Position" not in self._out_values:
                raise ShaderCompileError("vertex shader never wrote gl_Position")
            position = self._out_values["gl_Position"]
            for i, comp in enumerate(position.comps):
                self.emit(Opcode.ST_OUT, srcs=[comp], slot=i)
            for name in self._vs_out_order:
                base, _ = self.program.varyings.lookup(name)
                value = self._out_values[name]
                for i, comp in enumerate(value.comps):
                    self.emit(Opcode.ST_OUT, srcs=[comp],
                              slot=Program.POSITION_SLOTS + base + i)
        else:
            if "gl_FragColor" not in self._out_values:
                raise ShaderCompileError("fragment shader never wrote gl_FragColor")
            color = self._out_values["gl_FragColor"]
            for i, comp in enumerate(color.comps):
                self.emit(Opcode.ST_OUT, srcs=[comp], slot=i)
            if "gl_FragDepth" in self._out_values:
                depth = self._out_values["gl_FragDepth"]
                self.emit(Opcode.ST_OUT, srcs=[depth.comps[0]],
                          slot=Program.DEPTH_SLOT)


def _type_of_width(width: int) -> str:
    return {1: "float", 2: "vec2", 3: "vec3", 4: "vec4"}[width]


def _broadcast(left: Value, right: Value) -> tuple[Value, Value]:
    """Scalar-vector broadcasting for componentwise operations."""
    if left.width == right.width:
        return left, right
    if left.width == 1:
        return Value(right.type, left.comps * right.width), right
    if right.width == 1:
        return left, Value(left.type, right.comps * left.width)
    raise ShaderCompileError(
        f"width mismatch: {left.type} vs {right.type}")


def _coerce_width(gen: CodeGenerator, value: Value, width: int,
                  type_name: str) -> Value:
    if value.width == width:
        return value
    if value.width == 1 and width > 1:
        return Value(type_name, value.comps * width)
    raise ShaderCompileError(
        f"cannot assign {value.type} to {type_name}")


@functools.lru_cache(maxsize=512)
def compile_shader(source: str, stage: str, name: str = "shader") -> Program:
    """Compile shader source to a finalized :class:`Program` (memoized)."""
    if stage not in ("vertex", "fragment"):
        raise ShaderCompileError(f"bad stage {stage!r}")
    ast = Parser(tokenize(source)).parse()
    gen = CodeGenerator(stage, name)
    for decl in ast.declarations:
        gen.declare(decl)
    gen.gen_body(ast.body)
    gen.flush_outputs()
    return gen.program.finalize()


# ---------------------------------------------------------------------------
# Compiled dispatch-table cache (DESIGN.md §12)
# ---------------------------------------------------------------------------

# Keyed by (Program.digest, warp size): the digest is cached on the program
# object, so a per-warp-launch lookup is one dict probe — instruction decode
# happens once per program, not once per fragment warp.  Assembled and
# GLSL-compiled programs alike land here (the key is content, not source).
_DISPATCH_CACHE: dict = {}
_DISPATCH_CACHE_MAX = 512


def dispatch_for(program: Program, warp_size: int):
    """The cached :class:`repro.shader.dispatch.CompiledProgram` for
    ``program`` at ``warp_size`` lanes (built on first use)."""
    key = (program.digest, warp_size)
    compiled = _DISPATCH_CACHE.get(key)
    if compiled is None:
        from repro.shader.dispatch import CompiledProgram
        if len(_DISPATCH_CACHE) >= _DISPATCH_CACHE_MAX:
            _DISPATCH_CACHE.clear()     # unbounded-growth backstop
        compiled = _DISPATCH_CACHE[key] = CompiledProgram(program, warp_size)
    return compiled
