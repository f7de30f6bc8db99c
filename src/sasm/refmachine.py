"""The reference (non-self-adjusting) abstract machine: rules R.1-R.11.

Memo and update points are no-ops here (R.7, R.8).  The machine is
deterministic: rule selection is syntax-directed on the command, with the
single values-command split between applying the top stack frame (R.11) and
terminating on an empty stack.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable

from . import ilast as A
from .errors import DEFAULT_FUEL, FuelExhausted, Stuck, StuckAlloc
from .store import Loc, MachineValue, Store, classify, lookup, values
from .trace import TAlloc, TMemo, TPop, TRead, TUpdate, TWrite


@dataclass(slots=True)
class Frame:
    """A stack frame <env, fname>; prints as the spec's <env-size, fname>."""

    env: dict
    fname: str

    def __repr__(self) -> str:
        return f"⟨{len(self.env)}, {self.fname}⟩"


@dataclass
class Values:
    """The value-vector command."""

    vals: tuple[MachineValue, ...]


def _div(a: int, b: int) -> int:
    if b == 0:
        raise Stuck("R.2", "division by zero")
    q = abs(a) // abs(b)
    return A.wrap64(q if (a >= 0) == (b >= 0) else -q)


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise Stuck("R.2", "modulo by zero")
    return A.wrap64(a - _div(a, b) * b)


# The primitives, by name.  Each takes (a, b), with b None for the unary
# `not`; only eq and neq accept a location.
PRIMS = {
    "eq": lambda a, b: 1 if a == b else 0,
    "neq": lambda a, b: 0 if a == b else 1,
    "not": lambda a, b: 1 if a == 0 else 0,
    "add": lambda a, b: A.wrap64(a + b),
    "sub": lambda a, b: A.wrap64(a - b),
    "mul": lambda a, b: A.wrap64(a * b),
    "div": _div,
    "mod": _mod,
    "lt": lambda a, b: 1 if a < b else 0,
    "leq": lambda a, b: 1 if a <= b else 0,
    "max": lambda a, b: a if a >= b else b,
    "min": lambda a, b: a if a <= b else b,
}


def lookup_fun(env: dict, fname: str) -> A.FunDef:
    f = env.get(fname)
    if not isinstance(f, A.FunDef):
        raise Stuck("R.5", f"unbound function {fname!r}")
    return f


# The rule compilers: the IL's step semantics, written once.  Given a
# command, a compiler returns its step, with its operands classified as
# literals or variables and its primitive bound.  Without a LiveSet that is
# the reference machine's step (R.1-R.8, R.10).  With one it is the tracing
# engines': R.1-R.5, logged E.0, or a step recording a trace action
# (E.1-E.5, E.7), where a memo or update point saves its `live.saved`
# variables.  A step takes (store, env) and returns (rule tag, action or
# None, env, next command); `store` needs only alloc, read and write
# (S.1-S.3).  The machine owns its environment, so a step may mutate `env`
# and return it; the one copy is made at a push (R.9/E.6), which stays with
# each machine, as value commands do.  A step binds what it was compiled
# from as default arguments, which cost a tuple slot each and read as
# locals: a program's steps stay small and quick to make, which matters
# where each command runs once, as in an input builder.


def _fundef(e: A.FunDef, live):  # R.1
    # A weak reference: the step is stored on its own node.
    def step(store, env, fname=e.fname, node=weakref.ref(e), cont=e.cont):
        env[fname] = node()
        return "R.1", None, env, cont
    return step


def _primop(e: A.PrimOp, live):  # R.2
    op, n = e.op, len(e.args)
    prim, arity = PRIMS.get(op), A.PRIMOP_ARITY.get(op)
    if prim is None or n != arity:
        why = (f"unknown primitive {op!r}" if prim is None else
               f"{op} takes {arity} operand{'s' * (arity > 1)}, got {n}")

        def stuck(store, env, ops=classify(e.args)):
            values(env, ops)
            raise Stuck("R.2", why)
        return stuck
    a, b = (*e.args, None)[:2]  # b is None for the unary `not`

    def step(store, env, a=a, av=type(a) is str, b=b, bv=type(b) is str,
             prim=prim, var=e.var, cont=e.cont, op=op,
             checked=op != "eq" and op != "neq"):  # they accept a location
        x = lookup(env, a) if av else a
        y = lookup(env, b) if bv else b
        if checked and (type(x) is Loc or type(y) is Loc):
            raise Stuck("R.2", "not of a location" if op == "not" else
                        f"arithmetic on a location: {op}({x!r}, {y!r})")
        env[var] = prim(x, y)
        return "R.2", None, env, cont
    return step


def _if(e: A.If, live):  # R.3 / R.4
    def step(store, env, a=e.cond, av=type(e.cond) is str, then=e.then,
             els=e.els):
        if (lookup(env, a) if av else a) != 0:
            return "R.3", None, env, then
        return "R.4", None, env, els
    return step


def _app(e: A.App, live):  # R.5
    def step(store, env, fname=e.fname, ops=classify(e.args)):
        fdef = lookup_fun(env, fname)
        if len(fdef.params) != len(ops):
            raise Stuck("R.5", f"{fname!r} takes {len(fdef.params)} args")
        # Every argument is resolved before any parameter is bound, so that
        # f(y, x) with parameters (x, y) swaps.
        env.update(zip(fdef.params, values(env, ops)))
        return "R.5", None, env, fdef.body
    return step


def _inst(e: A.Inst, live):  # R.6 via S.1-S.3, or E.1-E.3
    ins, var, cont, traced = e.inst, e.var, e.cont, live is not None
    t = type(ins)
    if t is A.Read:
        def read(store, env, a=ins.loc, av=type(ins.loc) is str, b=ins.off,
                 bv=type(ins.off) is str, var=var, cont=cont, traced=traced,
                 tag="E.2" if traced else "R.6/S.2"):
            loc = lookup(env, a) if av else a
            off = lookup(env, b) if bv else b
            env[var] = v = store.read(loc, off)
            return tag, TRead(v, loc, off) if traced else None, env, cont
        return read
    if t is A.Write:
        def write(store, env, a=ins.loc, av=type(ins.loc) is str, b=ins.off,
                  bv=type(ins.off) is str, c=ins.val, cv=type(ins.val) is str,
                  var=var, cont=cont, traced=traced,
                  tag="E.3" if traced else "R.6/S.3"):
            loc = lookup(env, a) if av else a
            off = lookup(env, b) if bv else b
            v = lookup(env, c) if cv else c
            env[var] = store.write(loc, off, v)
            return tag, TWrite(v, loc, off) if traced else None, env, cont
        return write
    if t is A.Alloc:
        def alloc(store, env, a=ins.size, av=type(ins.size) is str, var=var,
                  cont=cont, traced=traced,
                  tag="E.1" if traced else "R.6/S.1"):
            n = lookup(env, a) if av else a
            if type(n) is not int:
                raise StuckAlloc(f"allocation size is a location: {n!r}")
            env[var] = loc = store.alloc(n)
            return tag, TAlloc(loc, n) if traced else None, env, cont
        return alloc
    raise TypeError(f"not an instruction: {ins!r}")


def _memo(e: A.Memo, live):  # R.7, or E.4
    if live is None:
        return lambda store, env, body=e.body: ("R.7", None, env, body)

    def step(store, env, eid=e.eid, names=live.saved[e.eid][0], body=e.body):
        # ρ|live: the live names env binds; a name unbound here (only in a
        # program check_wf rejects) is left out.
        return ("E.4", TMemo(eid, tuple([(x, env[x]) for x in names
                                         if x in env])), env, body)
    return step


def _update(e: A.Update, live):  # R.8, or E.5
    if live is None:
        return lambda store, env, body=e.body: ("R.8", None, env, body)

    names, fnames = live.saved[e.eid]

    def step(store, env, eid=e.eid, names=names, fnames=fnames, body=e.body):
        return ("E.5", TUpdate(eid, tuple([(x, env[x]) for x in names
                                           if x in env]), body, fnames),
                env, body)
    return step


def _pop(e: A.Pop, live):  # R.10, or E.7
    def step(store, env, ops=classify(e.vals), traced=live is not None):
        v = values(env, ops)
        return ("E.7", TPop(v), {}, Values(v)) if traced else (
            "R.10", None, {}, Values(v))
    return step


CONTROL_RULES = {A.FunDef: _fundef, A.PrimOp: _primop, A.If: _if,
                 A.App: _app}
RULES = {**CONTROL_RULES, A.Inst: _inst, A.Memo: _memo, A.Update: _update,
         A.Pop: _pop}


def compile_step(e, live=None) -> Callable:
    """Command e's step, compiled once and stored on e: the reference
    machine's (`e.rstep`), or with a LiveSet the tracing engines'
    (`e.tstep`)."""
    rule = RULES.get(type(e))
    if rule is None:
        raise Stuck("R" if live is None else "E", f"no rule for command {e!r}")
    step = rule(e, live)
    if live is None:
        e.rstep = step
    else:
        e.tstep = step
    return step


def apply_frame(frame: Frame,
                vals: tuple[MachineValue, ...]) -> tuple[dict, A.Expr]:
    """Rule R.11 (the tracing machine's E.8): apply a popped frame's
    function to the popped values; returns (env, body).  The parameters
    are bound in the frame's own environment, which the push copied."""
    env = frame.env
    fdef = lookup_fun(env, frame.fname)
    if len(fdef.params) != len(vals):
        raise Stuck("R.11", f"{frame.fname!r} takes {len(fdef.params)} "
                            f"values, popped {len(vals)}")
    env.update(zip(fdef.params, vals))
    return env, fdef.body


@dataclass
class RefResult:
    values: tuple[MachineValue, ...]
    store: Store
    steps: int
    log: list[str] = field(default_factory=list)


def initial_env(prog: A.Program, inputs: dict[str, MachineValue] | None = None) -> dict:
    env: dict = {d.fname: d for d in prog.defs}
    if inputs:
        env.update(inputs)
    return env


def ref_run(prog: A.Program, init_store: Store | None = None,
            fuel: int = DEFAULT_FUEL,
            inputs: dict[str, MachineValue] | None = None,
            keep_log: bool = True) -> RefResult:
    """Step from <init_store, empty stack, rho0, entry> until a value
    vector meets the empty stack, applying the unique applicable rule each
    step; raises Stuck when none applies."""
    store = init_store if init_store is not None else Store()
    env, cmd, stack = initial_env(prog, inputs), prog.entry, []
    log: list[str] = []
    steps = 0
    while True:
        if type(cmd) is Values:
            if not stack:
                return RefResult(cmd.vals, store, steps, log)
            env, cmd = apply_frame(stack.pop(), cmd.vals)
            tag = "R.11"
        elif type(cmd) is A.Push:
            stack.append(Frame(dict(env), cmd.fname))
            tag, cmd = "R.9", cmd.body
        else:
            tag, _, env, cmd = (cmd.rstep or compile_step(cmd))(store, env)
        steps += 1
        if keep_log:
            log.append(tag)
        if steps >= fuel:
            raise FuelExhausted(fuel)


__all__ = ["Frame", "Values", "RefResult", "ref_run", "PRIMS",
           "CONTROL_RULES", "RULES", "compile_step", "apply_frame",
           "initial_env"]
