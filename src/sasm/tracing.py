"""The tracing abstract machine: evaluation, propagation, undoing, memoization.

The machine mirrors the reference machine while recording a trace, and can
replay a previously recorded trace (change propagation), re-evaluating from
update points whose guarded reads became inconsistent and reusing matching
memo points.

The stepping relation is nondeterministic; the machine resolves each choice
one way:

* at a memo expression the machine searches the focused reuse trace for a
  matching memo action, scanning its top-level actions monotonically forward,
  and takes any match it finds: taking a match undoes everything before it
  (whole nested subtraces are drained) and switches to propagation;
* at an update action during propagation the machine re-evaluates exactly
  when the reads between the update and the next update/push/pop boundary
  disagree with the current store;
* a leftover reuse trace is undone when the machine reaches a value command
  over an empty stack, so that rewinding to a propagation mark (or program
  completion) always sees an empty focus.

`seek_memo` and `window_dirty` are the only two choice points; the schedule
enumerator in `tests/machine_checks.py` explores the other resolutions by
wrapping them on its own machine instance.

Every step appends one rule tag to the log; realized cost is the number of
evaluation plus undo steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from . import ilast as A
from .analyses import LiveSet, step_data
from .errors import DEFAULT_FUEL, FuelExhausted, Stuck
from .refmachine import Frame, Values, apply_frame, compile_step, initial_env
from .store import Loc, MachineValue, Store, UNINIT
from .trace import (
    PUSH_MARK, PropMark, TAlloc, TMemo, TPop, TPush, TRead, TUpdate, TWrite,
    Trace, TraceZipper, UndoMark, flatten, rewind_to_mark,
)


class _Prop:
    def __repr__(self) -> str:
        return "prop"


PROP = _Prop()

TERMINATED = "terminated"


@dataclass
class BalancedResult:
    values: tuple[MachineValue, ...]
    store: Store
    trace: Trace
    log: list[str]

    @property
    def steps(self) -> int:
        return len(self.log)


class TracingMachine:
    def __init__(self, store: Store, env: dict, command,
                 reuse: Trace = None, *,
                 fun_index: dict[str, A.FunDef],
                 live: LiveSet):
        self.store = store
        self.ctx = None
        self.focus: Trace = reuse
        self.stack: list[Frame] = []
        self.env = env
        self.command = command
        self.fun_index = fun_index
        self.live = live
        self.log: list[str] = []
        self.final_trace: Trace = None
        # A taken memo match drains the prefix one undo step per machine
        # step, then switches via E.P at the matched action itself: an equal
        # memo action in a subtrace on the way is undone like any other.
        self._seek_target: Optional[TMemo] = None

    # -- helpers ---------------------------------------------------------

    def _emit(self, tag: str) -> str:
        self.log.append(tag)
        return tag

    def zipper(self) -> TraceZipper:
        return TraceZipper(self.ctx, self.focus)

    # -- memo seeking ------------------------------------------------------

    def seek_memo(self, memo: TMemo) -> Optional[TMemo]:
        """Scan the focused reuse trace (top level, monotone forward) for a
        memo action matching the one the memo step made.  Returns it or
        None; performs no undo steps itself."""
        t = self.focus
        while t is not None:
            a, t = t
            if type(a) is TMemo and a.eid == memo.eid and a.env == memo.env:
                return a
            if type(a) is TPop:
                break
        return None

    def _undo_one(self) -> str:
        if self.focus is not None:
            a, tail = self.focus
            if type(a) is TAlloc:
                self.store.mark_garbage(a.loc)
                self.focus = tail
                return self._emit("U.1")
            if type(a) is TPush:
                self.ctx = (UndoMark(tail), self.ctx)
                self.focus = a.sub
                return self._emit("U.3")
            self.focus = tail
            return self._emit("U.2")
        if self.ctx is not None and type(self.ctx[0]) is UndoMark:
            self.focus = self.ctx[0].sub
            self.ctx = self.ctx[1]
            return self._emit("U.4")
        raise Stuck("U", "nothing to undo")

    def _seek_step(self) -> str:
        """A step of a taken memo match: undo the reuse trace up to the
        matching memo action, then switch to propagating after it."""
        head = self.focus[0] if self.focus is not None else None
        if head is self._seek_target:
            # E.P: matched; switch to propagation over the reused tail.
            self._seek_target = None
            self.ctx = (head, self.ctx)
            self.focus = self.focus[1]
            self.env = {}
            self.command = PROP
            return self._emit("E.P")
        return self._undo_one()

    # -- value-command steps -------------------------------------------------

    def _values_step(self, cmd: Values) -> str:
        if self.stack:
            # E.8: rewind to the innermost push mark, rebuild the push action,
            # pop the frame and apply its function.
            r = rewind_to_mark(self.zipper())
            if r.mark != "push":
                raise Stuck("E.8", f"expected push mark, found {r.mark}")
            self.env, self.command = apply_frame(self.stack.pop(), cmd.vals)
            self.ctx = (TPush(r.gathered), r.ctx)
            self.focus = r.focus
            return self._emit("E.8")

        # Empty stack: drain any leftover reuse trace, then rewind to a
        # propagation mark (P.8) or complete the run.
        if self.focus is not None or (
                self.ctx is not None and type(self.ctx[0]) is UndoMark):
            return self._undo_one()
        r = rewind_to_mark(self.zipper())
        if r.mark == "prop":
            if r.focus is not None:
                raise Stuck("P.8", "rewound focus not empty at propagation mark")
            self.ctx = (TPush(r.gathered), r.ctx)
            self.focus = r.prop_tail
            self.env = {}
            self.command = PROP
            return self._emit("P.8")
        if r.mark == "none":
            if r.focus is not None:
                raise Stuck("finish", "rewound focus not empty at completion")
            self.final_trace = r.gathered
            return TERMINATED
        raise Stuck("E.8", "push mark with empty stack")

    # -- propagation steps -----------------------------------------------------

    def window_dirty(self, tail: Trace) -> bool:
        """True iff a read between here and the next update/push/pop boundary
        disagrees with the store the replay will see at that point."""
        pending: dict[tuple[int, int], object] = {}
        while tail is not None:
            a, tail = tail
            t = type(a)
            if t is TUpdate or t is TPush or t is TPop:
                break
            if t is TWrite:
                pending[(a.loc.id, a.off)] = a.val
            elif t is TAlloc:
                for i in range(1, a.size + 1):
                    pending[(a.loc.id, i)] = UNINIT
            elif t is TRead:
                key = (a.loc.id, a.off)
                cur = pending[key] if key in pending else self.store.peek(a.loc, a.off)
                if cur is None or cur is UNINIT or cur != a.val:
                    return True
        return False

    def _prop_step(self) -> str:
        if self.focus is None:
            raise Stuck("P", "propagation over an empty reuse trace")
        a, tail = self.focus
        t = type(a)
        if t is TAlloc:
            self.store.alloc(a.size, a.loc.id)
            self.ctx = (a, self.ctx)
            self.focus = tail
            return self._emit("P.1")
        if t is TRead:
            v = self.store.read(a.loc, a.off)
            if v != a.val:
                raise Stuck("P.2", f"read of {a.loc!r}[{a.off}] sees "
                                   f"{v!r}, trace recorded {a.val!r}")
            self.ctx = (a, self.ctx)
            self.focus = tail
            return self._emit("P.2")
        if t is TWrite:
            self.store.write(a.loc, a.off, a.val)
            self.ctx = (a, self.ctx)
            self.focus = tail
            return self._emit("P.3")
        if t is TMemo:
            self.ctx = (a, self.ctx)
            self.focus = tail
            return self._emit("P.4")
        if t is TUpdate:
            if self.window_dirty(tail):
                env = dict(a.env)
                env.update((f, self.fun_index[f]) for f in a.fnames)
                self.ctx = (a, self.ctx)
                self.focus = tail
                self.env = env
                self.command = a.expr
                return self._emit("P.E")
            self.ctx = (a, self.ctx)
            self.focus = tail
            return self._emit("P.5")
        if t is TPush:
            self.ctx = (PropMark(tail), self.ctx)
            self.focus = a.sub
            return self._emit("P.6")
        if t is TPop:
            if tail is not None:
                raise Stuck("P.7", "pop action not final in its subtrace")
            self.ctx = (a, self.ctx)
            self.focus = None
            self.command = Values(a.vals)
            return self._emit("P.7")
        raise Stuck("P", f"no rule for action {a!r}")

    # -- driver ------------------------------------------------------------

    def step(self) -> str:
        e = self.command
        if e is PROP:
            return self._prop_step()
        if type(e) is Values:
            return self._values_step(e)
        if self._seek_target is not None:
            return self._seek_step()
        if type(e) is A.Push:
            self.ctx = (PUSH_MARK, self.ctx)
            self.stack.append(Frame(dict(self.env), e.fname))
            self.command = e.body
            return self._emit("E.6")
        tag, action, env, command = (
            e.tstep or compile_step(e, self.live))(self.store, self.env)
        if action is None:
            # E.0: the untraced steps are the reference machine's R.1-R.5.
            self.env, self.command = env, command
            self.log.append("E.0")
            return "E.0"
        # Matches are only taken with no evaluation frames open: a match
        # under an open frame would let the frame's rewind swallow the
        # replayed tail into its push subtrace, restructuring the trace.
        # A memo step changes nothing, so it is dropped for a match.
        if type(action) is TMemo and not self.stack:
            match = self.seek_memo(action)
            if match is not None:
                self._seek_target = match
                return self._seek_step()
        self.ctx = (action, self.ctx)
        self.env, self.command = env, command
        self.log.append(tag)
        return tag

    def run(self, fuel: int = DEFAULT_FUEL) -> BalancedResult:
        step = self.step
        steps = 0
        while True:
            tag = step()
            if tag == TERMINATED:
                assert isinstance(self.command, Values)
                return BalancedResult(self.command.vals, self.store,
                                      self.final_trace, self.log)
            steps += 1
            if steps >= fuel:
                raise FuelExhausted(fuel)


# -- public operations ------------------------------------------------------


def run_from_scratch(prog: A.Program, store: Store | None = None,
                     inputs: dict[str, MachineValue] | None = None,
                     fuel: int = DEFAULT_FUEL) -> BalancedResult:
    """Evaluate from an empty trace; the resulting trace is from-scratch
    consistent by construction."""
    store = store if store is not None else Store()
    fun_index, live = step_data(prog)
    m = TracingMachine(store, initial_env(prog, inputs), prog.entry, None,
                       fun_index=fun_index, live=live)
    return m.run(fuel)


def _max_loc_id(t: Trace) -> int:
    return max((a.loc.id for a in flatten(t) if type(a) is TAlloc),
               default=0)


def propagation_machine(prog: A.Program, reuse: Trace,
                        store: Store) -> TracingMachine:
    """A machine set up to replay a from-scratch trace over a (possibly
    edited) initial store.

    Fresh allocations during re-evaluation must not collide with locations
    the replay will re-mint, so every location named in the reuse trace is
    reserved up front.
    """
    store.reserve(_max_loc_id(reuse))
    fun_index, live = step_data(prog)
    return TracingMachine(store, {}, PROP, reuse, fun_index=fun_index,
                          live=live)


def propagate(prog: A.Program, reuse: Trace, store: Store,
              fuel: int = DEFAULT_FUEL) -> BalancedResult:
    return propagation_machine(prog, reuse, store).run(fuel)


def non_garbage(store: Store) -> Store:
    return store.non_garbage()


def _locs_of_action(a) -> list[Loc]:
    locs = []
    if isinstance(a, (TAlloc, TRead, TWrite)):
        locs.append(a.loc)
    for v in getattr(a, "vals", ()):
        if isinstance(v, Loc):
            locs.append(v)
    if isinstance(a, TRead) and isinstance(a.val, Loc):
        locs.append(a.val)
    if isinstance(a, TWrite) and isinstance(a.val, Loc):
        locs.append(a.val)
    if isinstance(a, (TMemo, TUpdate)):
        locs.extend(v for _, v in a.env if isinstance(v, Loc))
    return locs


def check_garbage_unreachable(result: BalancedResult) -> bool:
    """No garbage-marked location is live in the result: not among the
    returned values, not mentioned by any final-trace action and not stored
    in any non-garbage cell."""
    garbage = result.store.garbage
    if not garbage:
        return True
    if any(isinstance(v, Loc) and v.id in garbage for v in result.values):
        return False
    # A bracket string names no location.
    if any(loc.id in garbage for a in flatten(result.trace)
           for loc in _locs_of_action(a)):
        return False
    # Garbage locations have no cells (`Store.mark_garbage` drops them).
    return not any(isinstance(v, Loc) and v.id in garbage
                   for v in result.store.cells.values())


# -- canonical comparison -----------------------------------------------------


def canonicalize(values, trace: Trace, store: Store,
                 initial_store: Store | None = None):
    """Rename run-minted locations by first occurrence so results that differ
    only in allocator choices compare equal.  Locations of the shared initial
    store map to themselves.

    Returns (values, trace, store items).  The trace is `flatten(trace)`
    as a tuple, its actions renamed; the items are the store's live cells
    sorted on their canonical (location, offset)."""
    mapping: dict[int, tuple] = {}
    if initial_store is not None:
        for i in (*initial_store.sizes, *initial_store.garbage):
            mapping[i] = ("i", i)
    fixed = len(mapping)

    def loc(i: int) -> tuple:
        c = mapping.get(i)
        if c is None:
            c = mapping[i] = ("c", len(mapping) - fixed)
        return c

    def val(v):
        return loc(v.id) if type(v) is Loc else v

    out: list = []
    for a in flatten(trace):
        k = type(a)
        if k is TRead:
            out.append(("R", val(a.val), loc(a.loc.id), a.off))
        elif k is TWrite:
            out.append(("W", val(a.val), loc(a.loc.id), a.off))
        elif k is TAlloc:
            out.append(("A", loc(a.loc.id), a.size))
        elif k is str:
            out.append(a)
        elif k is TMemo or k is TUpdate:
            out.append(("M" if k is TMemo else "U", a.eid,
                        tuple([(x, val(v)) for x, v in a.env])))
        elif k is TPop:
            out.append(("P", tuple([val(v) for v in a.vals])))
        else:
            raise TypeError(f"not an atomic action: {a!r}")
    cv = tuple([val(v) for v in values])
    items = [(loc(lid), off, "⊥" if v is UNINIT else val(v))
             for (lid, off), v in store.entries()]
    items.sort(key=itemgetter(0, 1))
    return (cv, tuple(out), tuple(items))


def canonical_result(result: BalancedResult,
                     initial_store: Store | None = None):
    return canonicalize(result.values, result.trace, result.store, initial_store)


__all__ = [
    "PROP", "TERMINATED", "BalancedResult", "TracingMachine",
    "run_from_scratch", "propagate", "non_garbage",
    "check_garbage_unreachable", "canonicalize", "canonical_result",
]
