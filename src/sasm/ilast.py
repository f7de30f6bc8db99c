"""Abstract syntax for the IL stack-machine language.

Programs are expressions in administrative normal form.  Control flow is
first-order: functions are named, never values.  Every expression ends
syntactically in a function application or a stack pop; non-tail calls go
through explicit push/pop pairs.

Nodes use identity equality (they carry positions and stable ids); use
``ast_equal`` for structural comparison.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterator, Optional, Union

# A value is a 64-bit integer literal or a variable name.
Value = Union[int, str]

INT64_MIN = -(1 << 63)
INT64_MASK = (1 << 64) - 1

PRIMOPS = (
    "add", "sub", "mul", "div", "mod",
    "eq", "neq", "lt", "leq", "max", "min", "not",
)

PRIMOP_ARITY = {name: (1 if name == "not" else 2) for name in PRIMOPS}


def wrap64(n: int) -> int:
    """Wrap an integer into signed 64-bit range."""
    if -(1 << 63) <= n <= (1 << 63) - 1:
        return n
    n &= INT64_MASK
    return n - (1 << 64) if n > (1 << 63) - 1 else n


@dataclass(eq=False)
class Pos:
    line: int = 0
    col: int = 0


@dataclass(eq=False)
class Expr:
    """Base class; every node carries a position and a pre-order id."""

    pos: Optional[Pos] = field(default=None, kw_only=True)
    eid: int = field(default=-1, kw_only=True)
    # The command's compiled steps (refmachine.compile_step), made on its
    # first run: `rstep` the reference machine's, `tstep` the tracing
    # engines'.  number_exprs drops them, and a copy leaves them behind:
    # they run this node's operands and continuation, not the copy's.
    rstep: Optional[Callable] = field(default=None, init=False, repr=False)
    tstep: Optional[Callable] = field(default=None, init=False, repr=False)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "rstep": None, "tstep": None}


@dataclass(eq=False)
class Instruction:
    """An instruction's operands are its fields other than `pos`, in source
    order (`operands`); `keyword` names it in the concrete syntax."""

    pos: Optional[Pos] = field(default=None, kw_only=True)


@dataclass(eq=False)
class Alloc(Instruction):
    keyword: ClassVar[str] = "alloc"
    size: Value = 0

    @property
    def operands(self) -> tuple[Value, ...]:
        return (self.size,)


@dataclass(eq=False)
class Read(Instruction):
    keyword: ClassVar[str] = "read"
    loc: Value = ""
    off: Value = 0

    @property
    def operands(self) -> tuple[Value, ...]:
        return (self.loc, self.off)


@dataclass(eq=False)
class Write(Instruction):
    keyword: ClassVar[str] = "write"
    loc: Value = ""
    off: Value = 0
    val: Value = 0

    @property
    def operands(self) -> tuple[Value, ...]:
        return (self.loc, self.off, self.val)


# The instruction class of each keyword; its operands are its positional
# constructor arguments, e.g. INSTRUCTIONS["read"](loc, off).
INSTRUCTIONS = {c.keyword: c for c in (Alloc, Read, Write)}


@dataclass(eq=False)
class FunDef(Expr):
    """let fun f(xs) = body in cont"""

    fname: str = ""
    params: tuple[str, ...] = ()
    body: Expr = None  # type: ignore[assignment]
    cont: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class PrimOp(Expr):
    """let x = prim op(vs) in cont"""

    var: str = ""
    op: str = ""
    args: tuple[Value, ...] = ()
    cont: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class If(Expr):
    cond: str = ""
    then: Expr = None  # type: ignore[assignment]
    els: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class App(Expr):
    fname: str = ""
    args: tuple[Value, ...] = ()


@dataclass(eq=False)
class Inst(Expr):
    """let x = <alloc|read|write>(..) in cont"""

    var: str = ""
    inst: Instruction = None  # type: ignore[assignment]
    cont: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class Memo(Expr):
    body: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class Update(Expr):
    body: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class Push(Expr):
    fname: str = ""
    body: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class Pop(Expr):
    vals: tuple[Value, ...] = ()


# The let forms: each binds a name (or a function) and goes on to `cont`.
LETS = (FunDef, PrimOp, Inst)


@dataclass(eq=False)
class Program:
    """Top-level function definitions, an entry expression and the declared
    arity (length of the vector popped at termination).

    ``inputs`` names free variables bound externally (by an input builder);
    ``labels`` names the result vector of a builder program, positionally.
    """

    defs: list[FunDef] = field(default_factory=list)
    entry: Expr = None  # type: ignore[assignment]
    arity: int = 0
    inputs: tuple[str, ...] = ()
    labels: tuple[str, ...] = ()
    dps_marker: bool = False
    # (fun_index, LiveSet), stored by analyses.step_data; see number_exprs.
    step_data: Optional[tuple] = field(default=None, init=False, repr=False)

    def fun_index(self) -> dict[str, FunDef]:
        """Map every function name (at any nesting depth) to its definition."""
        index: dict[str, FunDef] = {}
        for e in walk_program(self):
            if isinstance(e, FunDef):
                index[e.fname] = e
        return index

    def expr_index(self) -> dict[int, Expr]:
        return {e.eid: e for e in walk_program(self)}


def children(e: Expr) -> tuple[Expr, ...]:
    t = type(e)
    if t is PrimOp or t is Inst:
        return (e.cont,)
    if t is FunDef:
        return (e.body, e.cont)
    if t is If:
        return (e.then, e.els)
    if t is Memo or t is Update or t is Push:
        return (e.body,)
    return ()


def operands(e: Expr) -> tuple[Value, ...]:
    """The values a command reads, in source order."""
    t = type(e)
    if t is PrimOp or t is App:
        return e.args
    if t is Inst:
        return e.inst.operands
    if t is Pop:
        return e.vals
    if t is If:
        return (e.cond,)
    return ()


def binders(e: Expr) -> tuple[str, ...]:
    """The names a command binds: a function and its parameters, or a let's
    variable."""
    t = type(e)
    if t is FunDef:
        return (e.fname, *e.params)
    if t is PrimOp or t is Inst:
        return (e.var,)
    return ()


def _head(e: Expr):
    """What names a command besides its binders, operands and children:
    the primitive, the instruction, or the function called or pushed."""
    t = type(e)
    if t is PrimOp:
        return e.op
    if t is Inst:
        return type(e.inst)
    if t is App or t is Push:
        return e.fname
    return None


def walk(e: Expr) -> Iterator[Expr]:
    """Pre-order traversal."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def walk_program(p: Program) -> Iterator[Expr]:
    for d in p.defs:
        yield d
        yield from walk(d.body)
        # Top-level defs have no cont; the shared entry plays that role.
    yield from walk(p.entry)


def number_exprs(p: Program) -> Program:
    """Assign stable pre-order expression ids and drop the stored step data
    and compiled steps.  Mutates in place, returns p.  Every producer of a
    program calls it after building or editing one."""
    n = 0
    for e in walk_program(p):
        e.eid = n
        e.rstep = e.tstep = None
        n += 1
    p.step_data = None
    return p


def copy_expr(e: Expr) -> Expr:
    """deepcopy(e), bottom-up so that a let chain does not recurse."""
    memo: dict = {}
    for sub in reversed(list(walk(e))):
        deepcopy(sub, memo)
    return deepcopy(e, memo)


def ast_equal(a, b) -> bool:
    """Structural equality ignoring positions and expression ids: equal
    kinds, heads, binders and operands, node by node (a work list, as
    builders run thousands deep)."""
    work = [(a, b)]
    while work:
        a, b = work.pop()
        if type(a) is not type(b):
            return False
        if a is None:  # top-level defs carry no continuation
            continue
        if not isinstance(a, Expr):
            raise TypeError(f"not an AST node: {a!r}")
        if _head(a) != _head(b) or binders(a) != binders(b) \
                or operands(a) != operands(b):
            return False
        work.extend(zip(children(a), children(b)))
    return True


def program_equal(a: Program, b: Program) -> bool:
    if a.arity != b.arity or a.inputs != b.inputs or a.labels != b.labels:
        return False
    if len(a.defs) != len(b.defs):
        return False
    return all(ast_equal(x, y) for x, y in zip(a.defs, b.defs)) and ast_equal(a.entry, b.entry)


def ends_properly(e: Expr) -> bool:
    """Every expression ends syntactically in an application or a pop."""
    work = [e]
    while work:
        e = work.pop()
        kids = children(e)
        if not kids and not isinstance(e, (App, Pop)):
            raise TypeError(f"not an expression: {e!r}")
        work.extend(kids)
    return True
