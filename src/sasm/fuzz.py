"""Random well-formed IL programs and edit sets for the equivalence oracles.

Programs terminate by construction: recursion decrements a counter parameter
under a positive guard, and all other calls go to strictly later functions.
Every read is guarded: read clusters are emitted directly under an update
point with no intervening push, pop or update, so the dirty-read lookahead
is complete for these programs.  Values are typed (int vs location) during
generation so primitive applications never get stuck.

Edits write fresh values into labeled input cells; a fresh value always
differs from the current one, so every edit is guaranteed dirty.
"""

from __future__ import annotations

import random
from copy import deepcopy
from dataclasses import dataclass

from . import ilast as A
from .store import Loc, MachineValue, Store
from .wf import check_wf

INT, LOC = "int", "loc"


@dataclass
class FuzzCase:
    program: A.Program
    input_size: int
    input_values: list[int]
    edit_slots: list[tuple[str, int]]

    def build(self) -> tuple[Store, dict[str, MachineValue], dict[str, MachineValue]]:
        store = Store()
        inp = store.alloc(self.input_size)
        for i, v in enumerate(self.input_values, start=1):
            store.write(inp, i, v)
        labels = {"inp": inp}
        return store, labels, {"inp": inp}


@dataclass
class _FnSig:
    name: str
    params: tuple[str, ...]      # param types, counter first when recursive
    ret: tuple[str, ...]         # popped value types
    recursive: bool


class _Gen:
    def __init__(self, seed: int, memo_density: float):
        self.rng = random.Random(seed)
        self.memo_density = memo_density
        self.counter = 0
        self.input_size = self.rng.randrange(4, 9)

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def pick_val(self, scope: dict[str, str], ty: str):
        names = [x for x, t in scope.items() if t == ty]
        if ty == INT and (not names or self.rng.random() < 0.4):
            return self.rng.randrange(-9, 10)
        if not names:
            return None
        return self.rng.choice(names)

    def gen(self) -> FuzzCase:
        rng = self.rng
        nfuns = rng.randrange(2, 6)
        sigs: list[_FnSig] = []
        for i in range(nfuns):
            recursive = rng.random() < 0.6
            nparams = rng.randrange(0, 3)
            params = (("int",) if recursive else ()) + tuple(
                rng.choice((INT, INT, LOC)) for _ in range(nparams))
            roll = rng.random()
            if roll < 0.4:
                ret: tuple[str, ...] = ()
            elif roll < 0.8:
                ret = (INT,)
            elif roll < 0.95:
                ret = (INT, INT)
            else:
                ret = (LOC,)
            sigs.append(_FnSig(self.fresh("f"), params, ret, recursive))
        self.sigs = sigs

        defs: list[A.FunDef] = []
        for i, sig in enumerate(sigs):
            pnames = tuple(self.fresh(f"{sig.name}_p") for _ in sig.params)
            scope = {"inp": LOC}
            scope.update(zip(pnames, sig.params))
            body = self.body(i, scope, sig.ret, depth=0,
                             ctr=pnames[0] if sig.recursive else None,
                             pself=pnames)
            defs.append(A.FunDef(fname=sig.name, params=pnames, body=body,
                                 cont=None))
        ret = rng.choice([(), (INT,), (INT,), (INT, INT)])
        self.entry_ret = ret
        entry = self.body(-1, {"inp": LOC}, ret, depth=0, ctr=None, pself=())
        prog = A.Program(defs=defs, entry=entry, arity=len(ret),
                         inputs=("inp",))
        A.number_exprs(prog)
        values = [rng.randrange(-50, 51) for _ in range(self.input_size)]
        return FuzzCase(prog, self.input_size, values,
                        [("inp", i) for i in range(1, self.input_size + 1)])

    # -- body generation -------------------------------------------------

    def body(self, idx: int, scope: dict[str, str], ret: tuple[str, ...],
             depth: int, ctr: str | None, pself: tuple[str, ...]) -> A.Expr:
        rng = self.rng
        scope = dict(scope)
        chain: list[A.Expr] = []
        # Locally allocated cells with at least one written offset.
        local_cells: list[tuple[str, int, set[int]]] = []
        for _ in range(rng.randrange(1, 5)):
            kind = rng.random()
            if kind < 0.35:
                a = self.pick_val(scope, INT)
                b = self.pick_val(scope, INT)
                v = self.fresh("v")
                op = rng.choice(("add", "sub", "mul", "eq", "lt", "leq",
                                 "max", "min"))
                chain.append(A.PrimOp(var=v, op=op, args=(a, b), cont=None))
                scope[v] = INT
            elif kind < 0.6:
                size = rng.randrange(1, 4)
                c = self.fresh("c")
                chain.append(A.Inst(var=c, inst=A.Alloc(size=size), cont=None))
                scope[c] = LOC
                written: dict[int, str] = {}
                for off in range(1, size + 1):
                    if rng.random() < 0.8:
                        w = self.fresh("w")
                        ty = rng.choice((INT, INT, LOC))
                        val = self.pick_val(scope, ty)
                        if val is None:
                            val, ty = rng.randrange(-9, 10), INT
                        if isinstance(val, int):
                            ty = INT
                        chain.append(A.Inst(
                            var=w, inst=A.Write(loc=c, off=off, val=val),
                            cont=None))
                        written[off] = ty
                if written:
                    local_cells.append((c, size, written))
            else:
                # A guarded read cluster under one update point.
                reads: list[A.Inst] = []
                for _ in range(rng.randrange(1, 3)):
                    r = self.fresh("r")
                    if local_cells and rng.random() < 0.4:
                        cell, _, written = rng.choice(local_cells)
                        off = rng.choice(sorted(written))
                        reads.append(A.Inst(var=r,
                                            inst=A.Read(loc=cell, off=off),
                                            cont=None))
                        scope[r] = written[off]
                    else:
                        off = rng.randrange(1, self.input_size + 1)
                        reads.append(A.Inst(var=r,
                                            inst=A.Read(loc="inp", off=off),
                                            cont=None))
                        scope[r] = INT  # input cells hold ints
                chain.append(("update-cluster", reads))
        tail = self.terminator(idx, scope, ret, depth, ctr, pself, local_cells)
        for item in reversed(chain):
            if isinstance(item, tuple):
                _, reads = item
                for rd in reversed(reads):
                    rd.cont = tail
                    tail = rd
                tail = A.Update(body=tail)
            else:
                item.cont = tail
                tail = item
        if rng.random() < self.memo_density:
            tail = A.Memo(body=tail)
        return tail

    def terminator(self, idx: int, scope: dict[str, str],
                   ret: tuple[str, ...], depth: int, ctr: str | None,
                   pself: tuple[str, ...],
                   local_cells: list) -> A.Expr:
        rng = self.rng

        def pop_expr() -> A.Expr:
            vals = []
            for ty in ret:
                v = self.pick_val(scope, ty)
                if v is None:
                    v = "inp" if ty == LOC else rng.randrange(-9, 10)
                vals.append(v)
            return A.Pop(vals=tuple(vals))

        int_vars = [x for x, t in scope.items() if t == INT]
        choices = ["pop"]
        # The later functions that may be called or pushed here.
        callees = [s for s in self.sigs[idx + 1:] if s.ret == ret]
        if depth < 3:
            if callees:
                choices += ["call", "push"]
            if ctr is not None and 0 <= idx and self.sigs[idx].ret == ret:
                choices.append("recur")
            if int_vars:
                choices.append("if")
        # Bias away from ending the region when other options exist, and
        # toward pushes (the trace machinery of interest lives there).
        interesting = [c for c in choices if c != "pop"]
        if "push" in interesting and rng.random() < 0.45:
            pick = "push"
        elif interesting and rng.random() < 0.8:
            pick = rng.choice(interesting)
        else:
            pick = "pop"

        if pick == "if":
            cond = rng.choice(int_vars)
            return A.If(cond=cond,
                        then=self.body(idx, scope, ret, depth + 1, ctr, pself),
                        els=self.body(idx, scope, ret, depth + 1, ctr, pself))
        if pick == "call":
            sig = rng.choice(callees)
            args = self.call_args(sig, scope)
            if args is None:
                return pop_expr()
            return A.App(fname=sig.name, args=args)
        if pick == "recur":
            sig = self.sigs[idx]
            assert sig.ret == ret
            c = self.fresh("cnd")
            c2 = self.fresh("ctr")
            args = self.call_args(sig, scope, counter_var=c2)
            if args is None:
                return pop_expr()
            return A.PrimOp(
                var=c, op="lt", args=(0, ctr),
                cont=A.If(cond=c,
                          then=A.PrimOp(var=c2, op="sub", args=(ctr, 1),
                                        cont=A.App(fname=sig.name, args=args)),
                          els=pop_expr()))
        if pick == "push":
            sig = rng.choice(callees)
            # The push body is still function idx's syntax: its calls and
            # pushes keep pointing strictly later, so the runtime call graph
            # stays acyclic.
            inner = self.body(idx, scope, sig.params, depth + 1, ctr, pself)
            return A.Push(fname=sig.name, body=inner)
        return pop_expr()

    def call_args(self, sig: _FnSig, scope: dict[str, str],
                  counter_var: str | None = None):
        rng = self.rng
        args: list[A.Value] = []
        for k, ty in enumerate(sig.params):
            if k == 0 and sig.recursive:
                args.append(counter_var if counter_var is not None
                            else rng.randrange(1, 4))
                continue
            v = self.pick_val(scope, ty)
            if v is None:
                if ty == LOC:
                    v = "inp"
                else:
                    v = rng.randrange(-9, 10)
            args.append(v)
        return tuple(args)


def gen_program(seed: int, memo_density: float = 0.4) -> FuzzCase:
    """Deterministic random program; always well formed, always terminates."""
    case = _Gen(seed, memo_density).gen()
    diags = check_wf(case.program)
    assert not diags, f"fuzz generator produced ill-formed program: {diags[0]}"
    return case


def gen_edits(seed: int, store: Store, labels: dict[str, MachineValue],
              slots: list[tuple[str, int]], k: int) -> list:
    """k random single-cell writes with fresh values (never the current one,
    so every edit dirties its cell); never targets garbage locations."""
    from .corpus import Edit
    rng = random.Random(seed)
    out = []
    chosen = rng.sample(slots, min(k, len(slots)))
    for label, off in chosen:
        loc = labels[label]
        assert isinstance(loc, Loc) and loc.id not in store.garbage
        cur = store.peek(loc, off)
        while True:
            v = rng.randrange(-99, 100)
            if v != cur:
                break
        out.append(Edit(label, off, v))
    return out


# -- shrinking -----------------------------------------------------------


def _shrink_candidates(prog: A.Program):
    """Structural shrinks: collapse conditionals, unwrap memo/update points,
    shrink recursion counters, drop unused top-level defs."""
    index = prog.expr_index()
    for eid, node in index.items():
        if isinstance(node, A.If):
            yield (eid, "then")
            yield (eid, "els")
        elif isinstance(node, (A.Memo, A.Update)):
            yield (eid, "unwrap")
        elif isinstance(node, A.App):
            for k, v in enumerate(node.args):
                if isinstance(v, int) and v > 0:
                    yield (eid, ("dec", k))
    used = set()
    for node in A.walk_program(prog):
        if isinstance(node, (A.App, A.Push)):
            used.add(node.fname)
    for d in prog.defs:
        if d.fname not in used:
            yield (d.fname, "drop-def")


def _apply_shrink(prog: A.Program, cand) -> A.Program | None:
    out = deepcopy(prog)
    key, action = cand
    if action == "drop-def":
        out.defs = [d for d in out.defs if d.fname != key]
        A.number_exprs(out)
        return out
    index = out.expr_index()
    node = index.get(key)
    if node is None:
        return None

    def replace(old: A.Expr, new: A.Expr) -> None:
        for parent in A.walk_program(out):
            for attr in ("body", "cont", "then", "els"):
                if getattr(parent, attr, None) is old:
                    setattr(parent, attr, new)
                    return
        if out.entry is old:
            out.entry = new

    if action in ("then", "els"):
        replace(node, getattr(node, action))
    elif action == "unwrap":
        replace(node, node.body)
    elif isinstance(action, tuple) and action[0] == "dec":
        k = action[1]
        args = list(node.args)
        args[k] = args[k] - 1
        node.args = tuple(args)
    A.number_exprs(out)
    return out


def shrink(case: FuzzCase, failing) -> FuzzCase:
    """Greedy shrink: apply candidate reductions while the predicate keeps
    failing and the program stays well formed."""
    current = case
    improved = True
    while improved:
        improved = False
        for cand in list(_shrink_candidates(current.program)):
            smaller_prog = _apply_shrink(current.program, cand)
            if smaller_prog is None or check_wf(smaller_prog):
                continue
            smaller = FuzzCase(smaller_prog, current.input_size,
                               current.input_values, current.edit_slots)
            try:
                still_failing = failing(smaller)
            except Exception:
                still_failing = True
            if still_failing:
                current = smaller
                improved = True
                break
    return current


__all__ = ["FuzzCase", "gen_program", "gen_edits", "shrink"]
