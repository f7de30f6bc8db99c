"""The reference (non-self-adjusting) abstract machine: rules R.1-R.11.

Memo and update points are no-ops here (R.7, R.8).  The machine is
deterministic: rule selection is syntax-directed on the command, with the
single values-command split between applying the top stack frame (R.11) and
terminating on an empty stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ilast as A
from .errors import DEFAULT_FUEL, FuelExhausted, Stuck
from .store import Loc, MachineValue, Store, resolve, step_store


@dataclass(frozen=True)
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


def apply_prim(op: str, args: list[MachineValue]) -> MachineValue:
    prim = PRIMS.get(op)
    if prim is None:
        raise Stuck("R.2", f"unknown primitive {op!r}")
    a = args[0]
    b = args[1] if len(args) > 1 else None
    if (type(a) is Loc or type(b) is Loc) and op != "eq" and op != "neq":
        raise Stuck("R.2", "not of a location" if op == "not" else
                    f"arithmetic on a location: {op}({a!r}, {b!r})")
    return prim(a, b)


def lookup_fun(env: dict, fname: str) -> A.FunDef:
    f = env.get(fname)
    if not isinstance(f, A.FunDef):
        raise Stuck("R.5", f"unbound function {fname!r}")
    return f


@dataclass
class RefConfig:
    store: Store
    stack: list[Frame]
    env: dict
    command: object  # A.Expr | Values


TERMINATED = "terminated"


def _fundef(env: dict, e: A.FunDef):  # R.1
    env[e.fname] = e
    return "R.1", env, e.cont


def _primop(env: dict, e: A.PrimOp):  # R.2
    env[e.var] = apply_prim(e.op, [resolve(env, v) for v in e.args])
    return "R.2", env, e.cont


def _if(env: dict, e: A.If):  # R.3 / R.4
    if resolve(env, e.cond) != 0:
        return "R.3", env, e.then
    return "R.4", env, e.els


def _app(env: dict, e: A.App):  # R.5
    fdef = lookup_fun(env, e.fname)
    if len(fdef.params) != len(e.args):
        raise Stuck("R.5", f"{e.fname!r} takes {len(fdef.params)} args")
    # Every argument is resolved before any parameter is bound, so that
    # f(y, x) with parameters (x, y) swaps.
    env.update(zip(fdef.params, [resolve(env, a) for a in e.args]))
    return "R.5", env, fdef.body


# Rules R.1-R.5 by command type, the steps no engine records in a trace.
# Each takes (env, command) and returns (rule tag, env, command).  The
# running machine owns its environment: a rule may mutate the `env` it is
# given and return it.  The one copy is made at a push (R.9/E.6), whose
# frame keeps the environment its function sees after the pop.  The tracing
# machine logs these steps as E.0; the Runtime takes them without recording
# an action.
CONTROL_RULES = {A.FunDef: _fundef, A.PrimOp: _primop, A.If: _if,
                 A.App: _app}


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


def ref_step(c: RefConfig) -> str:
    """Apply the unique applicable rule; mutate c; return the rule tag.

    Returns TERMINATED when the command is a value vector and the stack is
    empty.  Raises Stuck when no rule applies.
    """
    cmd = c.command
    if isinstance(cmd, Values):
        if not c.stack:
            return TERMINATED
        c.env, c.command = apply_frame(c.stack.pop(), cmd.vals)
        return "R.11"
    e = cmd
    rule = CONTROL_RULES.get(type(e))
    if rule is not None:
        tag, c.env, c.command = rule(c.env, e)
        return tag
    if isinstance(e, A.Inst):  # R.6 via S.1-S.3
        v, s_tag, _ = step_store(c.store, c.env, e.inst)
        c.env[e.var] = v
        c.command = e.cont
        return f"R.6/{s_tag}"
    if isinstance(e, A.Memo):  # R.7
        c.command = e.body
        return "R.7"
    if isinstance(e, A.Update):  # R.8
        c.command = e.body
        return "R.8"
    if isinstance(e, A.Push):  # R.9
        c.stack.append(Frame(dict(c.env), e.fname))
        c.command = e.body
        return "R.9"
    if isinstance(e, A.Pop):  # R.10
        vals = tuple(resolve(c.env, v) for v in e.vals)
        c.env = {}
        c.command = Values(vals)
        return "R.10"
    raise Stuck("R", f"no rule for command {e!r}")


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
    """Iterate ref_step from <init_store, empty stack, rho0, entry>."""
    store = init_store if init_store is not None else Store()
    c = RefConfig(store=store, stack=[], env=initial_env(prog, inputs),
                  command=prog.entry)
    log: list[str] = []
    steps = 0
    while True:
        tag = ref_step(c)
        if tag == TERMINATED:
            assert isinstance(c.command, Values)
            return RefResult(c.command.vals, c.store, steps, log)
        steps += 1
        if keep_log:
            log.append(tag)
        if steps >= fuel:
            raise FuelExhausted(fuel)


__all__ = ["Frame", "Values", "RefConfig", "RefResult", "ref_step", "ref_run",
           "apply_prim", "PRIMS", "CONTROL_RULES", "apply_frame", "initial_env",
           "TERMINATED"]
