"""Live-variable and update-reachability analyses.

Memo and update points save the environment restricted to the live names of
their body; liveness is interprocedural because IL resolves names in the
dynamic environment: a call site needs every name the callee's body looks up
beyond its parameters, transitively.  The result is a sound
over-approximation of the names actually read (checked dynamically in the
test suite).

Update reachability drives selective destination passing: a push body that
cannot reach an update point never re-evaluates during propagation, so its
pops always replay unchanged and the region needs no conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ilast as A


def _vals_vars(vs) -> set[str]:
    return {v for v in vs if isinstance(v, str)}


def _inst_vars(inst: A.Instruction) -> set[str]:
    if isinstance(inst, A.Alloc):
        return _vals_vars((inst.size,))
    if isinstance(inst, A.Read):
        return _vals_vars((inst.loc, inst.off))
    return _vals_vars((inst.loc, inst.off, inst.val))


@dataclass
class LiveSet:
    """Per-expression-id live names (variables and function names), and for
    each memo and update eid the names its saved environment keeps: the
    variables, sorted, and the function names."""

    live: dict[int, frozenset[str]]
    fn_names: frozenset[str]
    saved: dict[int, tuple[tuple[str, ...], frozenset[str]]]

    def at(self, eid: int) -> frozenset[str]:
        return self.live[eid]

    def vars_at(self, eid: int) -> frozenset[str]:
        return self.live[eid] - self.fn_names


def live_vars(prog: A.Program) -> LiveSet:
    funs = prog.fun_index()
    fns = frozenset(funs)
    needs: dict[str, frozenset[str]] = {f: frozenset() for f in funs}
    saved: dict[int, tuple[tuple[str, ...], frozenset[str]]] = {}

    def live_of(e: A.Expr, record: dict[int, frozenset[str]] | None) -> frozenset[str]:
        # A let chain (FunDef, PrimOp, Inst) is walked in a loop down to
        # its first other expression, then folded back, so a long
        # straight-line program does not recurse once per let.
        chain = []
        while isinstance(e, A.LETS):
            chain.append(e)
            e = e.cont
        if isinstance(e, A.If):
            out = {e.cond} | live_of(e.then, record) | live_of(e.els, record)
            out = frozenset(out)
        elif isinstance(e, A.App):
            out = (frozenset({e.fname}) | frozenset(_vals_vars(e.args))
                   | needs.get(e.fname, frozenset()))
        elif isinstance(e, (A.Memo, A.Update)):
            out = live_of(e.body, record)
            if record is not None:
                saved[e.eid] = (tuple(sorted(out - fns)), out & fns)
        elif isinstance(e, A.Push):
            out = (frozenset({e.fname}) | needs.get(e.fname, frozenset())
                   | live_of(e.body, record))
        elif isinstance(e, A.Pop):
            out = frozenset(_vals_vars(e.vals))
        else:
            raise TypeError(f"not an expression: {e!r}")
        if record is not None:
            record[e.eid] = out
        for let in reversed(chain):
            if isinstance(let, A.FunDef):
                out = out - {let.fname}
            elif isinstance(let, A.PrimOp):
                out = frozenset(_vals_vars(let.args)) | (out - {let.var})
            else:
                out = frozenset(_inst_vars(let.inst)) | (out - {let.var})
            if record is not None:
                record[let.eid] = out
        return out

    changed = True
    while changed:
        changed = False
        for name, fdef in funs.items():
            n = live_of(fdef.body, None) - set(fdef.params)
            if n != needs[name]:
                needs[name] = n
                changed = True

    record: dict[int, frozenset[str]] = {}
    for fdef in funs.values():
        live_of(fdef.body, record)
        record[fdef.eid] = needs[fdef.fname]
    live_of(prog.entry, record)
    return LiveSet(record, fns, saved)


def step_data(prog: A.Program) -> tuple[dict[str, A.FunDef], LiveSet]:
    """The function index and live sets every engine steps `prog` with,
    computed on first use and stored on the program (`number_exprs` clears
    them).  Every run of the program shares them, so no caller may mutate
    them."""
    if prog.step_data is None:
        prog.step_data = (prog.fun_index(), live_vars(prog))
    return prog.step_data


@dataclass
class RegionUpdateInfo:
    """Which push-body regions can reach an update point."""

    push_reaches: dict[int, bool]  # push expression eid -> reaches update
    fn_reaches: dict[str, bool]

    def region_no_update(self, push_eid: int) -> bool:
        return not self.push_reaches[push_eid]


def expr_reaches_update(e: A.Expr, fn_reaches: dict[str, bool]) -> bool:
    while isinstance(e, A.LETS):
        e = e.cont
    if isinstance(e, A.Update):
        return True
    if isinstance(e, A.If):
        return (expr_reaches_update(e.then, fn_reaches)
                or expr_reaches_update(e.els, fn_reaches))
    if isinstance(e, A.App):
        return fn_reaches.get(e.fname, False)
    if isinstance(e, A.Memo):
        return expr_reaches_update(e.body, fn_reaches)
    if isinstance(e, A.Push):
        # The pushed function's body continues the enclosing region.
        return (expr_reaches_update(e.body, fn_reaches)
                or fn_reaches.get(e.fname, False))
    if isinstance(e, A.Pop):
        return False
    raise TypeError(f"not an expression: {e!r}")


def region_no_update(prog: A.Program) -> RegionUpdateInfo:
    funs = prog.fun_index()
    fn_reaches: dict[str, bool] = {f: False for f in funs}

    changed = True
    while changed:
        changed = False
        for name, fdef in funs.items():
            r = expr_reaches_update(fdef.body, fn_reaches)
            if r and not fn_reaches[name]:
                fn_reaches[name] = True
                changed = True

    # A push-body region spans the body expression itself, including any
    # nested pushes' functions (they continue the body's evaluation); the
    # outermost pushed function runs after the region pops and is analyzed
    # separately.
    push_reaches = {
        e.eid: expr_reaches_update(e.body, fn_reaches)
        for e in A.walk_program(prog) if isinstance(e, A.Push)
    }
    return RegionUpdateInfo(push_reaches, fn_reaches)


__all__ = ["LiveSet", "RegionUpdateInfo", "live_vars", "step_data",
           "region_no_update", "expr_reaches_update"]
