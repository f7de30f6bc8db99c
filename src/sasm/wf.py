"""Well-formedness diagnostics and the syntactic arity analysis.

An expression's arity is the length of the value vector its region-ending pop
produces.  Arities must be determinable syntactically: both branches of a
conditional agree, a push body's arity equals the pushed function's parameter
count, and the entry expression's arity equals the program's declared arity.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ilast as A


@dataclass(frozen=True)
class Diagnostic:
    message: str
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        if self.line:
            return f"{self.line}:{self.col}: {self.message}"
        return self.message


class ArityError(Exception):
    pass


def _pos(e) -> tuple[int, int]:
    p = getattr(e, "pos", None)
    return (p.line, p.col) if p else (0, 0)


class _ArityCheck:
    """Solves each function's region-ending pop by fixpoint: an arity is
    that pop's length, and a diagnostic names that pop's position."""

    def __init__(self, prog: A.Program):
        self.prog = prog
        self.funs = prog.fun_index()
        self.fn_pop: dict[str, A.Pop | None] = {f: None for f in self.funs}
        self.errors: list[Diagnostic] = []

    def pop_of(self, e: A.Expr) -> A.Pop | None:
        while True:
            if isinstance(e, A.Pop):
                return e
            if isinstance(e, (A.App, A.Push)):
                return self.fn_pop.get(e.fname)
            if isinstance(e, A.If):
                a, b = self.pop_of(e.then), self.pop_of(e.els)
                return a if a is not None else b
            kids = A.children(e)  # a let's continuation, a point's body
            if not kids:
                raise TypeError(f"not an expression: {e!r}")
            e = kids[-1]

    def solve(self) -> None:
        changed = True
        while changed:
            changed = False
            for name, fdef in self.funs.items():
                pop = self.pop_of(fdef.body)
                if pop is not None and self.fn_pop[name] is None:
                    self.fn_pop[name] = pop
                    changed = True

    def _conflict(self, what: str, pop: A.Pop, other: A.Pop | int) -> None:
        """Report `pop` against another pop or an expected arity."""
        l1, c1 = _pos(pop)
        msg = f"{what}: pop of {len(pop.vals)} values at {l1}:{c1}"
        if isinstance(other, A.Pop):
            l2, c2 = _pos(other)
            msg += (f" conflicts with pop of {len(other.vals)} values at "
                    f"{l2}:{c2}")
        else:
            msg += f" but {other} expected"
        self.errors.append(Diagnostic(msg, l1, c1))

    def verify(self) -> list[Diagnostic]:
        self.solve()
        for e in A.walk_program(self.prog):
            if isinstance(e, A.If):
                a, b = self.pop_of(e.then), self.pop_of(e.els)
                if a is not None and b is not None and \
                        len(a.vals) != len(b.vals):
                    self._conflict("branch arity mismatch", a, b)
            elif isinstance(e, A.Push):
                f = self.funs.get(e.fname)
                if f is None:
                    continue
                body = self.pop_of(e.body)
                if body is not None and len(body.vals) != len(f.params):
                    self._conflict(
                        f"push body arity mismatch for {e.fname!r} "
                        f"(takes {len(f.params)})",
                        body, len(f.params))
        entry = self.pop_of(self.prog.entry)
        if entry is not None and len(entry.vals) != self.prog.arity:
            self._conflict("program arity mismatch", entry,
                           self.prog.arity)
        return self.errors


def check_arity(prog: A.Program) -> None:
    """Raise ArityError on the first arity inconsistency."""
    errs = _ArityCheck(prog).verify()
    if errs:
        raise ArityError(str(errs[0]))


def check_wf(prog: A.Program) -> list[Diagnostic]:
    """Return diagnostics; an empty list means the program is well formed."""
    diags: list[Diagnostic] = []

    # Globally distinct names.
    seen: dict[str, tuple[int, int]] = {}

    def declare(name: str, node) -> None:
        if name in seen:
            l, c = _pos(node)
            diags.append(Diagnostic(f"duplicate name {name!r}", l, c))
        else:
            seen[name] = _pos(node)

    for node in A.walk_program(prog):
        for name in A.binders(node):
            declare(name, node)
    for name in prog.inputs:
        declare(name, prog.entry)

    # Lexical scoping: vars and function names live in separate namespaces.
    toplevel = frozenset(d.fname for d in prog.defs)
    # Names are globally distinct, so a name resolves to one definition.
    fun_index = prog.fun_index()

    def use_var(v: A.Value, vars_: frozenset[str], node) -> None:
        if isinstance(v, str) and v not in vars_:
            l, c = _pos(node)
            diags.append(Diagnostic(f"unbound variable {v!r}", l, c))

    def use_fun(f: str, funs: frozenset[str], node) -> None:
        if f not in funs:
            l, c = _pos(node)
            diags.append(Diagnostic(f"unbound function {f!r}", l, c))

    def scope(e0: A.Expr, vars0: frozenset[str], funs0: frozenset[str]) -> None:
        work: list[tuple[A.Expr, frozenset[str], frozenset[str]]] = [
            (e0, vars0, funs0)]
        while work:
            e, vars_, funs = work.pop()
            while True:
                t = type(e)
                if t is A.FunDef:
                    funs = funs | {e.fname}
                    work.append((e.body, vars_ | set(e.params), funs))
                    e = e.cont
                    continue
                if t is A.PrimOp:
                    if e.op not in A.PRIMOPS:
                        l, c = _pos(e)
                        diags.append(Diagnostic(
                            f"unknown primitive {e.op!r}", l, c))
                    elif len(e.args) != A.PRIMOP_ARITY[e.op]:
                        l, c = _pos(e)
                        diags.append(Diagnostic(
                            f"primitive {e.op!r} takes "
                            f"{A.PRIMOP_ARITY[e.op]} args", l, c))
                elif t is A.App or t is A.Push:
                    use_fun(e.fname, funs, e)
                    if t is A.App and e.fname in funs:
                        takes = len(fun_index[e.fname].params)
                        if takes != len(e.args):
                            l, c = _pos(e)
                            diags.append(Diagnostic(
                                f"call of {e.fname!r} passes {len(e.args)} "
                                f"args, it takes {takes}", l, c))
                for v in A.operands(e):
                    use_var(v, vars_, e)
                bound = A.binders(e)
                if bound:
                    vars_ = vars_.union(bound)
                kids = A.children(e)
                if not kids:
                    break
                if len(kids) == 2:  # an if: its else branch after its then
                    work.append((kids[1], vars_, funs))
                e = kids[0]

    inputs = frozenset(prog.inputs)
    for d in prog.defs:
        scope(d.body, inputs | set(d.params), toplevel)
    scope(prog.entry, inputs, toplevel)

    diags.extend(_ArityCheck(prog).verify())
    return diags


__all__ = ["check_wf", "check_arity", "ArityError", "Diagnostic"]
