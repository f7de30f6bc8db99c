"""The okay invariant and the atomic action counts of traces and zipper
contexts: the definitions the zipper tests check rewinding against
(`tests/test_trace.py`, criterion 8 of `tests/test_acceptance.py`)."""

from __future__ import annotations

from sasm.trace import (Ctx, PUSH_MARK, PropMark, TPush, Trace, TraceZipper,
                        UndoMark, flatten, iter_chain)


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


def check_okay(z: TraceZipper, fsc_oracle) -> bool:
    """The weaker trace invariant preserved by undoing.

    fsc_oracle decides from-scratch consistency of a subtrace; the trace rules
    are: the empty trace is okay; fsc traces are okay; a push-headed trace is
    okay when both the subtrace and the tail are.  Context entries are okay
    action-wise, with propagation marks requiring fsc tails and undo marks
    requiring okay tails.
    """

    def okay_trace(t: Trace) -> bool:
        # Subtraces still to check, the next one last: a push's subtrace
        # is checked before its tail.
        todo = [t]
        while todo:
            t = todo.pop()
            if t is None or fsc_oracle(t):
                continue
            head, tail = t
            if not isinstance(head, TPush):
                return False
            todo += (tail, head.sub)
        return True

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
