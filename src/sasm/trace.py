"""Execution traces, trace contexts and the trace zipper.

Traces are cons chains (nested 2-tuples ending in None) of trace actions, so
the machine can move single actions between focus and context in O(1) with
structural sharing.  A push action nests a complete subtrace; a pop action,
when present, is always the last action of its sequence.

The context records the path from the focus back to the start of the trace;
marks record how the machine entered a subtrace: a push mark (evaluation), a
propagation mark carrying the unconsumed tail, or an undo mark carrying the
tail saved while discarding a subtrace.  Rewinding moves the focus backwards,
gathering actions into a completed subtrace; it stops at push and propagation
marks, and restores undo-mark tails into the focus on the way.  The relation
is written once, as one loop: `rewind_step` is its one-step case.

`flatten` is the one walk over a nested trace: it lists the atomic actions
in pre-order, each push's contents between "(" and ")", and `from_flat`
nests such a list back into a trace.  Counting, dumping, canonicalizing and
the other whole-trace passes read its list, so none of them recurses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from . import ilast as A
from .store import Loc, MachineValue, fmt_value

# Trace / context chains: None is the empty sequence.
Trace = Optional[tuple]  # (action, Trace)
Ctx = Optional[tuple]    # (entry, Ctx)

SavedEnv = tuple[tuple[str, MachineValue], ...]


@dataclass(slots=True)
class TAlloc:
    loc: Loc
    size: int


@dataclass(slots=True)
class TRead:
    val: MachineValue
    loc: Loc
    off: int


@dataclass(slots=True)
class TWrite:
    val: MachineValue
    loc: Loc
    off: int


@dataclass(slots=True)
class TMemo:
    """A memo point: expression id plus the live-restricted environment."""

    eid: int
    env: SavedEnv


@dataclass(slots=True)
class TUpdate:
    eid: int
    env: SavedEnv
    expr: A.Expr = field(compare=False, repr=False)
    fnames: frozenset = field(compare=False, repr=False, default=frozenset())


@dataclass(frozen=True)
class TPush:
    sub: Trace


@dataclass(slots=True)
class TPop:
    vals: tuple[MachineValue, ...]


Action = Union[TAlloc, TRead, TWrite, TMemo, TUpdate, TPush, TPop]


class _PushMark:
    def __repr__(self) -> str:
        return "□"


PUSH_MARK = _PushMark()


@dataclass(frozen=True)
class PropMark:
    sub: Trace

    def __repr__(self) -> str:
        return "⊞"


@dataclass(frozen=True)
class UndoMark:
    sub: Trace

    def __repr__(self) -> str:
        return "⊟"


@dataclass(frozen=True)
class TraceZipper:
    ctx: Ctx
    focus: Trace


# -- chain helpers ------------------------------------------------------

def from_list(actions: list) -> Trace:
    t: Trace = None
    for a in reversed(actions):
        t = (a, t)
    return t


def to_list(t: Trace) -> list:
    out = []
    while t is not None:
        out.append(t[0])
        t = t[1]
    return out


def iter_chain(t: Trace) -> Iterator:
    while t is not None:
        yield t[0]
        t = t[1]


def flatten(t: Trace) -> list:
    """The trace's atomic actions in pre-order, with each push's contents
    between "(" and ")"."""
    out: list = []
    todo: list[Trace] = []  # the tails after each open push
    while True:
        while t is not None:
            a, t = t
            if type(a) is TPush:
                out.append("(")
                todo.append(t)
                t = a.sub
            else:
                out.append(a)
        if not todo:
            return out
        out.append(")")
        t = todo.pop()


def from_flat(flat: list) -> Trace:
    """The trace `t` with `flatten(t) == flat`: the inverse of `flatten`."""
    stack: list[list] = [[]]
    for a in flat:
        if type(a) is not str:
            stack[-1].append(a)
        elif a == "(":
            stack.append([])
        elif a == ")" and len(stack) > 1:
            sub = stack.pop()
            stack[-1].append(TPush(from_list(sub)))
        else:
            raise ValueError(f"unbalanced {a!r} in a flat trace")
    if len(stack) != 1:
        raise ValueError("unbalanced '(' in a flat trace")
    return from_list(stack[0])


def action_count(t: Trace) -> int:
    """Atomic actions in a trace (push wrappers contribute their contents
    only; rewinding may rewrap leftovers into fresh push actions, so wrapper
    counts are not conserved but atomic counts are)."""
    return sum(type(a) is not str for a in flatten(t))


def ctx_action_count(ctx: Ctx) -> int:
    """Atomic actions held in a context, including those saved under marks."""
    n = 0
    for entry in iter_chain(ctx):
        if isinstance(entry, (PropMark, UndoMark)):
            n += action_count(entry.sub)
        elif entry is not PUSH_MARK:
            if isinstance(entry, TPush):
                n += action_count(entry.sub)
            else:
                n += 1
    return n


def last_action(t: Trace):
    """The last action of a nonempty trace; None for the empty trace."""
    last = None
    for a in iter_chain(t):
        last = a
    return last


# -- rewinding ----------------------------------------------------------

@dataclass(frozen=True)
class Blocked:
    mark: str  # "push" | "prop" | "none"


def _rewind(ctx: Ctx, focus: Trace, gathered: Trace, limit: int):
    """Rewind until a push or propagation mark heads the context, it is
    empty, or `limit` steps are taken (a negative limit never runs out).
    Builds no zipper.  Returns (ctx, focus, gathered)."""
    while limit and ctx is not None:
        head, rest = ctx
        t = type(head)
        if head is PUSH_MARK or t is PropMark:
            break
        if t is UndoMark:
            focus = head.sub if focus is None else (TPush(focus), head.sub)
        else:
            gathered = (head, gathered)
        ctx = rest
        limit -= 1
    return ctx, focus, gathered


def rewind_step(z: TraceZipper, gathered: Trace):
    """One step of the trace rewinding relation: `_rewind` with limit 1.

    Returns (zipper', gathered') or Blocked at a push/prop mark or an empty
    context.
    """
    ctx, focus, gathered = _rewind(z.ctx, z.focus, gathered, 1)
    if ctx is not z.ctx:
        return TraceZipper(ctx, focus), gathered
    if ctx is None:
        return Blocked("none")
    return Blocked("push" if ctx[0] is PUSH_MARK else "prop")


@dataclass
class RewindResult:
    ctx: Ctx          # context strictly below the mark
    mark: str         # "push" | "prop" | "none"
    gathered: Trace   # completed subtrace assembled while rewinding
    focus: Trace      # reuse trace at the stop point
    prop_tail: Trace = None  # the tail carried by a propagation mark


def rewind_to_mark(z: TraceZipper) -> RewindResult:
    """Iterate rewind_step until blocked, in one run of `_rewind`.

    mark == "none" means the context was exhausted: the gathered trace is the
    whole completed program trace (top-of-program completion).
    """
    ctx, focus, gathered = _rewind(z.ctx, z.focus, None, -1)
    if ctx is None:
        return RewindResult(None, "none", gathered, focus)
    head, rest = ctx
    if head is PUSH_MARK:
        return RewindResult(rest, "push", gathered, focus)
    return RewindResult(rest, "prop", gathered, focus, head.sub)


# -- the okay invariant ---------------------------------------------------

def check_okay(z: TraceZipper, fsc_oracle) -> bool:
    """The weaker trace invariant preserved by undoing.

    fsc_oracle decides from-scratch consistency of a subtrace; the trace rules
    are: the empty trace is okay; fsc traces are okay; a push-headed trace is
    okay when both the subtrace and the tail are.  Context entries are okay
    action-wise, with propagation marks requiring fsc tails and undo marks
    requiring okay tails.
    """

    def okay_trace(t: Trace) -> bool:
        if t is None:
            return True
        if fsc_oracle(t):
            return True
        head, tail = t
        if isinstance(head, TPush):
            return okay_trace(head.sub) and okay_trace(tail)
        return False

    def okay_ctx(ctx: Ctx) -> bool:
        while ctx is not None:
            head, ctx = ctx
            if isinstance(head, PropMark):
                if not fsc_oracle(head.sub) and head.sub is not None:
                    return False
            elif isinstance(head, UndoMark):
                if not okay_trace(head.sub):
                    return False
        return True

    return okay_ctx(z.ctx) and okay_trace(z.focus)


# -- text dump ------------------------------------------------------------

def _env_str(env: SavedEnv) -> str:
    return "{" + ",".join(f"{k}={fmt_value(v)}" for k, v in env) + "}"


def dump_lines(t: Trace) -> list[str]:
    out: list[str] = []
    pad = ""
    for a in flatten(t):
        k = type(a)
        if k is TAlloc:
            out.append(f"{pad}A {a.loc!r} {a.size}")
        elif k is TRead:
            out.append(f"{pad}R {fmt_value(a.val)} {a.loc!r} {a.off}")
        elif k is TWrite:
            out.append(f"{pad}W {fmt_value(a.val)} {a.loc!r} {a.off}")
        elif k is TMemo:
            out.append(f"{pad}M #{a.eid} {_env_str(a.env)}")
        elif k is TUpdate:
            out.append(f"{pad}U #{a.eid} {_env_str(a.env)}")
        elif k is TPop:
            vals = ",".join(fmt_value(v) for v in a.vals)
            out.append(f"{pad}P ⟨{vals}⟩")
        elif a == "(":
            out.append(f"{pad}(")
            pad += "  "
        elif a == ")":
            pad = pad[2:]
            out.append(f"{pad})")
        else:
            raise TypeError(f"not a trace action: {a!r}")
    return out


def dump(t: Trace) -> str:
    return "\n".join(dump_lines(t)) + "\n"


__all__ = [
    "TAlloc", "TRead", "TWrite", "TMemo", "TUpdate", "TPush", "TPop",
    "Action", "Trace", "Ctx", "TraceZipper", "PUSH_MARK", "PropMark",
    "UndoMark", "Blocked", "RewindResult", "rewind_step", "rewind_to_mark",
    "check_okay", "from_list", "to_list", "iter_chain", "flatten",
    "from_flat", "action_count", "ctx_action_count", "last_action",
    "dump", "dump_lines",
]
