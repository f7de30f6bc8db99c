"""Destination-passing-style conversion.

The conversion threads an allocated destination through every region so that
pops return fixed locations instead of computed values, which makes programs
compositionally store agnostic:

* every function gains a trailing destination parameter, every call passes
  the current destination along;
* a push gains a wrapper function that reads the callee's values back out of
  the destination under an update point, and the push body allocates a fresh
  destination under a memo point (the memo associates local input state with
  the chosen destination so reuse survives re-evaluation);
* a pop writes its values into the destination and pops the destination.

Selective conversion leaves push bodies alone when they cannot reach an
update point (their pops replay identically, so they are already store
agnostic); only a thin forwarding wrapper is inserted so the pushed function
can keep its uniform converted signature.  If nothing in the program can
reach an update point, the program is returned unchanged.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field, replace

from . import ilast as A
from .analyses import expr_reaches_update, region_no_update


class UnknownArity(Exception):
    pass


class AlreadyConverted(Exception):
    pass


@dataclass
class DpsContext:
    """Used-name set, arity table and selectivity for one conversion run."""

    used: set[str]
    arity: dict[str, int]
    skip_pushes: set[int] = field(default_factory=set)
    plain_funs: set[str] = field(default_factory=set)
    dest_counter: int = 0

    @classmethod
    def for_program(cls, prog: A.Program) -> "DpsContext":
        used = set(prog.inputs)
        for e in A.walk_program(prog):
            used.update(A.binders(e))
        arity = {d.fname: len(d.params) for d in prog.fun_index().values()}
        return cls(used=used, arity=arity)

    def fresh(self, base: str) -> str:
        name = base
        k = 2
        while name in self.used:
            name = f"{base}_{k}"
            k += 1
        self.used.add(name)
        return name

    def fresh_dest(self) -> str:
        while True:
            self.dest_counter += 1
            name = f"d${self.dest_counter}"
            if name not in self.used:
                self.used.add(name)
                return name


def dps_convert(e: A.Expr | None, dest: str | None,
                ctx: DpsContext) -> A.Expr | None:
    """Convert one expression against a destination variable (None, the
    continuation of a top-level definition, stays None).  A let chain is
    converted link by link in a loop, so a long straight-line program does
    not recurse once per let."""
    links: list[A.Expr] = []
    while isinstance(e, A.LETS):
        if isinstance(e, A.FunDef):
            if e.fname in ctx.plain_funs:
                params, body = e.params, A.copy_expr(e.body)
            else:
                z = ctx.fresh_dest()
                params, body = e.params + (z,), dps_convert(e.body, z, ctx)
            links.append(A.FunDef(fname=e.fname, params=params, body=body,
                                  pos=e.pos))
        elif isinstance(e, A.PrimOp):
            links.append(A.PrimOp(var=e.var, op=e.op, args=e.args, pos=e.pos))
        else:
            links.append(A.Inst(var=e.var, inst=deepcopy(e.inst), pos=e.pos))
        e = e.cont
    if e is None:
        out = None
    elif isinstance(e, A.If):
        out = A.If(cond=e.cond, then=dps_convert(e.then, dest, ctx),
                   els=dps_convert(e.els, dest, ctx), pos=e.pos)
    elif isinstance(e, A.App):
        out = A.App(fname=e.fname, args=e.args + (dest,), pos=e.pos)
    elif isinstance(e, A.Memo):
        out = A.Memo(body=dps_convert(e.body, dest, ctx), pos=e.pos)
    elif isinstance(e, A.Update):
        out = A.Update(body=dps_convert(e.body, dest, ctx), pos=e.pos)
    elif isinstance(e, A.Push):
        if e.fname not in ctx.arity:
            raise UnknownArity(f"pushed function {e.fname!r} has no arity entry")
        n = ctx.arity[e.fname]
        if e.eid in ctx.skip_pushes:
            # Selective skip: the body stays in its original form; a thin
            # wrapper forwards the popped values plus the ambient destination.
            w = ctx.fresh(f"{e.fname}$sel")
            params = tuple(ctx.fresh(f"{w}$x{i}") for i in range(1, n + 1))
            out = A.FunDef(
                fname=w, params=params,
                body=A.App(fname=e.fname, args=params + (dest,)),
                cont=A.Push(fname=w, body=A.copy_expr(e.body), pos=e.pos),
                pos=e.pos)
        else:
            w = ctx.fresh(f"{e.fname}$dps")
            zr = ctx.fresh(f"{w}$z")
            zb = ctx.fresh_dest()
            xs = tuple(ctx.fresh(f"{w}$x{i}") for i in range(1, n + 1))
            # Wrapper: update; read the destination entries; call e.fname.
            body: A.Expr = A.App(fname=e.fname, args=xs + (dest,))
            for i in range(n, 0, -1):
                body = A.Inst(var=xs[i - 1], inst=A.Read(loc=zr, off=i),
                              cont=body)
            pushed = A.Push(
                fname=w,
                body=A.Memo(body=A.Inst(var=zb, inst=A.Alloc(size=n),
                                        cont=dps_convert(e.body, zb, ctx))),
                pos=e.pos)
            out = A.FunDef(fname=w, params=(zr,), body=A.Update(body=body),
                           cont=pushed, pos=e.pos)
    elif isinstance(e, A.Pop):
        out = A.Pop(vals=(dest,), pos=e.pos)
        for i in range(len(e.vals), 0, -1):
            v = ctx.fresh(f"w${i}")
            out = A.Inst(var=v, inst=A.Write(loc=dest, off=i, val=e.vals[i - 1]),
                         cont=out)
    else:
        raise TypeError(f"not an expression: {e!r}")
    for link in reversed(links):
        link.cont = out
        out = link
    return out


def dps_convert_env(defs: list[A.FunDef], ctx: DpsContext) -> list[A.FunDef]:
    """Convert top-level bindings: each function gains a destination param."""
    return [dps_convert(d, None, ctx) for d in defs]


def _convert_program(prog: A.Program, ctx: DpsContext) -> A.Program:
    if prog.dps_marker:
        raise AlreadyConverted("program is already in destination-passing style")
    defs = dps_convert_env(prog.defs, ctx)
    top = ctx.fresh_dest()
    entry = A.Inst(var=top, inst=A.Alloc(size=prog.arity),
                   cont=dps_convert(prog.entry, top, ctx))
    out = A.Program(defs=defs, entry=entry, arity=1, inputs=prog.inputs,
                    labels=prog.labels, dps_marker=True)
    A.number_exprs(out)
    return out


def dps_convert_program(prog: A.Program) -> A.Program:
    return _convert_program(prog, DpsContext.for_program(prog))


def _fn_refs(e: A.Expr) -> set[str]:
    return {n.fname for n in A.walk(e) if isinstance(n, (A.App, A.Push))}


def dps_selective(prog: A.Program) -> A.Program:
    """Convert, skipping push bodies that cannot reach an update point.

    A skipped body, and the body of every function it reaches through calls
    and pushes, stays unconverted (`plain`).  All other code is converted,
    and it passes a destination to every function it calls or pushes; a
    skipped push does too, through its `$sel` wrapper.  A skip whose
    reachable functions include one that receives a destination is
    cancelled, and the rule is applied again until no skip is cancelled.
    A program with no reachable update point at all is returned unchanged
    (renumbered copy).
    """
    if prog.dps_marker:
        raise AlreadyConverted("program is already in destination-passing style")
    info = region_no_update(prog)
    if not expr_reaches_update(prog.entry, info.fn_reaches) and not any(
            info.fn_reaches.values()):
        return A.number_exprs(replace(
            prog, defs=[A.copy_expr(d) for d in prog.defs],
            entry=A.copy_expr(prog.entry)))

    funs = prog.fun_index()

    def reach(names: set[str]) -> set[str]:
        seen: set[str] = set()
        work = list(names)
        while work:
            f = work.pop()
            if f in funs and f not in seen:
                seen.add(f)
                work.extend(_fn_refs(funs[f].body))
        return seen

    bodies = {e.eid: e.body for e in A.walk_program(prog)
              if isinstance(e, A.Push) and not info.push_reaches[e.eid]}
    reaches = {eid: reach(_fn_refs(body)) for eid, body in bodies.items()}
    skip = set(bodies)
    while True:
        plain = set().union(*(reaches[eid] for eid in skip))
        unconverted = {n.eid for root in [bodies[eid] for eid in skip]
                       + [funs[f].body for f in plain] for n in A.walk(root)}
        takers = {n.fname for n in A.walk_program(prog)
                  if isinstance(n, (A.App, A.Push))
                  and n.eid not in unconverted}
        cancelled = {eid for eid in skip if reaches[eid] & takers}
        if not cancelled:
            break
        skip -= cancelled
    ctx = DpsContext.for_program(prog)
    ctx.skip_pushes = skip
    ctx.plain_funs = plain
    return _convert_program(prog, ctx)


def extensionally_preserved(orig_result, conv_result, arity: int,
                            initial_store) -> bool:
    """Check the conversion's extensional-preservation contract, modulo
    allocation renaming: dereferencing the converted result recovers the
    original values; initial-store locations map to themselves; the store
    graph reachable from the results and the initial locations is isomorphic
    under an injective location pairing (destinations stay disjoint)."""
    from .store import Loc, UNINIT

    if len(conv_result.values) != 1 or not isinstance(conv_result.values[0],
                                                      Loc):
        return False
    dest = conv_result.values[0]
    try:
        derefed = tuple(conv_result.store.read(dest, i)
                        for i in range(1, arity + 1))
    except Exception:
        return False
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    work: list[tuple[Loc, Loc]] = []

    def pair(a, b) -> bool:
        la, lb = isinstance(a, Loc), isinstance(b, Loc)
        if la != lb:
            return False
        if not la:
            return a == b
        if a.id in initial_store.sizes and b.id != a.id:
            return False
        if a.id in fwd:
            return fwd[a.id] == b.id
        if b.id in bwd:
            return False
        fwd[a.id], bwd[b.id] = b.id, a.id
        work.append((a, b))
        return True

    for va, vb in zip(orig_result.values, derefed):
        if not pair(va, vb):
            return False
    for lid in initial_store.sizes:
        if not pair(Loc(lid), Loc(lid)):
            return False
    while work:
        a, b = work.pop()
        if orig_result.store.sizes.get(a.id) != conv_result.store.sizes.get(b.id):
            return False
        for off in range(1, orig_result.store.sizes.get(a.id, 0) + 1):
            ca = orig_result.store.cells.get((a.id, off))
            cb = conv_result.store.cells.get((b.id, off))
            if ca is UNINIT or cb is UNINIT:
                if ca is not cb:
                    return False
            elif not pair(ca, cb):
                return False
    return True


__all__ = ["DpsContext", "dps_convert", "dps_convert_env",
           "dps_convert_program", "dps_selective", "UnknownArity",
           "AlreadyConverted", "extensionally_preserved"]
