"""The faithful machine's lemma checks, as an observer of its public steps.

`checked_run` drives a `TracingMachine` through `step()` as
`TracingMachine.run` does and, around each step, asserts what the paper's
lemmas say of it:

* a propagation step (command PROP) runs under an empty environment;
* stack parametricity: each E.6 push and each P.6 propagation mark is
  matched by an E.8 or P.8 rewind of the same kind, over the stack the mark
  was made on;
* the CSA proxy: a P.8 rewind re-pops the value vector that the replayed
  push subtrace recorded (a mismatch is collected, not asserted, since only
  converted programs promise it);
* each P.E re-evaluation segment records its start configuration and the
  evaluation, undo and E.P tags that follow it, for replay on the
  reference machine.

`enumerate_schedules` explores the machine's other resolutions of its two
choice points, `seek_memo` and `window_dirty`, by wrapping them on each
machine it runs.
"""

from __future__ import annotations

from typing import NamedTuple

from sasm.analyses import step_data
from sasm.cost import EVAL_TAGS, UNDO_TAGS
from sasm.errors import DEFAULT_FUEL, FuelExhausted, Stuck
from sasm.refmachine import Values, initial_env
from sasm.store import Store
from sasm.trace import TPop, last_action
from sasm.tracing import (PROP, TERMINATED, BalancedResult, TracingMachine,
                          canonicalize, propagation_machine)


class CheckedRun(NamedTuple):
    result: BalancedResult
    marks: list[tuple]  # (kind, stack snapshot, recorded pop) left open
    csa_violations: list[tuple]  # (recorded pop, re-popped values)
    segments: list[dict]  # store, env, expr, tags, done


def _record_tag(segments: list[dict], tag: str) -> None:
    if segments and not segments[-1]["done"]:
        if tag in EVAL_TAGS or tag in UNDO_TAGS:  # E.P among EVAL_TAGS
            segments[-1]["tags"].append(tag)
            if tag == "E.P":
                segments[-1]["done"] = True
        else:
            segments[-1]["done"] = True


def checked_run(m: TracingMachine, fuel: int = DEFAULT_FUEL) -> CheckedRun:
    marks: list[tuple] = []
    csa_violations: list[tuple] = []
    segments: list[dict] = []
    steps = 0
    while True:
        cmd = m.command
        if cmd is PROP:
            assert not m.env, "propagation requires an empty environment"
        stack = tuple(m.stack)
        head = m.focus[0] if m.focus is not None else None
        tag = m.step()
        if tag == TERMINATED:
            assert isinstance(m.command, Values)
            result = BalancedResult(m.command.vals, m.store, m.final_trace,
                                    m.log)
            return CheckedRun(result, marks, csa_violations, segments)
        if tag == "E.6":
            marks.append(("push", tuple(m.stack), None))
        elif tag == "P.6":
            orig = last_action(head.sub)
            marks.append(("prop", tuple(m.stack),
                          orig.vals if isinstance(orig, TPop) else None))
        elif tag == "E.8" or tag == "P.8":
            kind, snap, orig_pop = marks.pop()
            assert kind == ("push" if tag == "E.8" else "prop") \
                and snap == stack, f"stack parametricity violated at {tag}"
            if orig_pop is not None and orig_pop != cmd.vals:
                csa_violations.append((orig_pop, cmd.vals))
        _record_tag(segments, tag)
        if tag == "P.E":
            segments.append({"store": m.store.copy(), "env": dict(m.env),
                             "expr": m.command, "tags": [], "done": False})
        steps += 1
        if steps >= fuel:
            raise FuelExhausted(fuel)


def scratch_machine(prog, store: Store | None = None,
                    inputs: dict | None = None) -> TracingMachine:
    """The machine `run_from_scratch` builds and runs."""
    store = store if store is not None else Store()
    fun_index, live = step_data(prog)
    return TracingMachine(store, initial_env(prog, inputs), prog.entry, None,
                          fun_index=fun_index, live=live)


class BoundExceeded(Exception):
    pass


def enumerate_schedules(prog, store: Store, bound: int = 2000, reuse=None,
                        inputs: dict | None = None) -> tuple[set, int]:
    """Exhaust the machine's nondeterminism on a tiny program.

    Explores every take/skip choice at memo matches (E.P vs E.4) and every
    re-evaluate/skip choice at update actions during propagation (P.E vs
    P.5).  Returns the set of observable outcomes as canonical
    (values, non-garbage store) fingerprints, and the number of schedules
    run; stuck schedules contribute no outcome.
    """
    outcomes = set()
    worklist: list[tuple[bool, ...]] = [()]
    seen: set[tuple[bool, ...]] = set()

    while worklist:
        script = worklist.pop()
        if script in seen:
            continue
        seen.add(script)
        if len(script) > 14:
            raise BoundExceeded("more than 14 choice points")
        used = 0

        def choose() -> bool:
            nonlocal used
            v = script[used] if used < len(script) else True
            used += 1
            return v

        s = store.copy()
        if reuse is not None:
            m = propagation_machine(prog, reuse, s)
        else:
            m = scratch_machine(prog, s, inputs)

        def seek_memo(memo, seek=m.seek_memo):
            match = seek(memo)
            return match if match is not None and choose() else None

        def window_dirty(tail, dirty=m.window_dirty):
            dirty(tail)
            return choose()

        m.seek_memo, m.window_dirty = seek_memo, window_dirty
        try:
            result = m.run(fuel=bound)
        except FuelExhausted:
            raise BoundExceeded(f"run exceeded {bound} steps") from None
        except Stuck:
            result = None
        if used > len(script):
            # The run hit choice points beyond the script: branch on the next.
            worklist.append(script + (True,))
            worklist.append(script + (False,))
        elif result is not None:
            cv, _, items = canonicalize(result.values, None, result.store,
                                        initial_store=store)
            outcomes.add((cv, items))
    return outcomes, len(seen)
