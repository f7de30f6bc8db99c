"""Cost models over machine step logs.

A cost model is (cost type, zero, per-step transition); the cost of a run is
the left fold of the transition over the rule tags in order.  Concrete
models: step count, store usage (allocs, reads, writes), stack usage
(pushes, pops, height, max height) and the tracing partition
(evaluation, propagation, undo), whose realized cost is evaluation plus undo
steps (propagation replay is free in the efficient runtime).  `cost_vector`
gives all four from one count of the log's tags; the folds that define them
are written out in `tests/cost_folds.py`, and `tests/test_cost.py` checks
`cost_vector` against them.

The stack model charges the pop at the frame application (R.11/E.8), not at
the pop expression (R.10/E.7), which merely forms the value vector one step
earlier.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

REF_TAGS = frozenset(
    ["R.1", "R.2", "R.3", "R.4", "R.5", "R.6/S.1", "R.6/S.2", "R.6/S.3",
     "R.7", "R.8", "R.9", "R.10", "R.11"])
TRACE_TAGS = frozenset(
    ["E.0", "E.1", "E.2", "E.3", "E.4", "E.5", "E.6", "E.7", "E.8",
     "E.P", "P.E", "P.1", "P.2", "P.3", "P.4", "P.5", "P.6", "P.7", "P.8",
     "U.1", "U.2", "U.3", "U.4"])
ALL_TAGS = REF_TAGS | TRACE_TAGS


class UnknownTag(KeyError):
    pass


_ALLOC = {"R.6/S.1", "E.1", "P.1"}
_READ = {"R.6/S.2", "E.2", "P.2"}
_WRITE = {"R.6/S.3", "E.3", "P.3"}
_PUSH = {"R.9", "E.6"}
_POP = {"R.11", "E.8"}


@dataclass
class CostVector:
    """All four models folded over one step log."""

    steps: int
    store: tuple[int, int, int]       # (a, r, w)
    stack: tuple[int, int, int, int]  # (u, d, h, m)
    tracing: tuple[int, int, int]     # (e, p, u)

    @property
    def realized(self) -> int:
        e, _, u = self.tracing
        return e + u

    def table(self) -> str:
        a, r, w = self.store
        u, d, h, m = self.stack
        e, p, uu = self.tracing
        return (f"s={self.steps}  store=(a={a}, r={r}, w={w})  "
                f"stack=(u={u}, d={d}, h={h}, m={m})  "
                f"tracing=(e={e}, p={p}, u={uu})  realized={self.realized}")


# The tracing partition's rule families: evaluation (E.0-E.8 and E.P, the
# switch to propagation at a memo match), propagation and undo.
EVAL_TAGS = frozenset(t for t in TRACE_TAGS if t[0] == "E")
PROP_TAGS = frozenset(t for t in TRACE_TAGS if t[0] == "P")
UNDO_TAGS = frozenset(t for t in TRACE_TAGS if t[0] == "U")
_HEIGHT = {**dict.fromkeys(_PUSH, 1), **dict.fromkeys(_POP, -1)}


def cost_vector(log: Iterable[str]) -> CostVector:
    """The four models' costs, counted in one pass over the log's tags.

    Each entry equals the model's fold: steps, store and tracing costs are
    tag counts, and the stack's max height m is the largest prefix sum of +1
    per push and -1 per pop, starting at 0."""
    log = list(log)
    n = Counter(log)
    if n.keys() - ALL_TAGS:
        raise UnknownTag(next(t for t in log if t not in ALL_TAGS))

    def count(tags) -> int:
        return sum(n[t] for t in tags)

    u, d = count(_PUSH), count(_POP)
    m = max(accumulate(filter(None, map(_HEIGHT.get, log)), initial=0))
    return CostVector(
        steps=len(log),
        store=(count(_ALLOC), count(_READ), count(_WRITE)),
        stack=(u, d, u - d, m),
        tracing=(count(EVAL_TAGS), count(PROP_TAGS), count(UNDO_TAGS)),
    )


class BoundViolated(AssertionError):
    pass


@dataclass
class DpsOverheadReport:
    pushes: int
    pop_arity: int
    stack_equal: bool
    alloc_delta: int
    read_delta: int
    write_delta: int
    step_delta: int
    wrapper_allocs_excluded: int = 1

    def lines(self) -> list[str]:
        a, u = self.pop_arity, self.pushes
        return [
            f"stack quadruples equal: {self.stack_equal}",
            f"alloc delta {self.alloc_delta} == pushes {u} "
            f"(excluding {self.wrapper_allocs_excluded} entry wrapper alloc)",
            f"read delta {self.read_delta} <= {a}*{u} = {a * u}",
            f"write delta {self.write_delta} <= {a}*({u}+1) = {a * (u + 1)}",
            f"step delta {self.step_delta} <= (2*{a}+5)*{u} + {a} = "
            f"{(2 * a + 5) * u + a} "
            f"(entry wrapper alloc step excluded)",
        ]


def check_dps_overhead(orig_log: list[str], dps_log: list[str],
                       pop_arity: int) -> DpsOverheadReport:
    """Verify the conversion overhead bounds against two matched runs.

    The converted run allocates exactly one extra location per push (its
    destinations); reads grow by at most arity per push, writes by at most
    arity per pop, and steps by at most (2*arity + 5) per push plus arity for
    the final pop.  The entry wrapper allocation (one alloc, one step) is
    excluded from the alloc and step deltas and flagged in the report.
    """
    orig = cost_vector(orig_log)
    dps = cost_vector(dps_log)
    u = orig.stack[0]
    a = pop_arity
    report = DpsOverheadReport(
        pushes=u,
        pop_arity=a,
        stack_equal=orig.stack == dps.stack,
        alloc_delta=dps.store[0] - orig.store[0] - 1,
        read_delta=dps.store[1] - orig.store[1],
        write_delta=dps.store[2] - orig.store[2],
        step_delta=dps.steps - orig.steps - 1,
    )
    if not report.stack_equal:
        raise BoundViolated(f"stack usage differs: {orig.stack} vs {dps.stack}")
    if report.alloc_delta != u:
        raise BoundViolated(f"alloc delta {report.alloc_delta} != pushes {u}")
    if report.read_delta > a * u:
        raise BoundViolated(f"read delta {report.read_delta} > {a * u}")
    if report.write_delta > a * (u + 1):
        raise BoundViolated(f"write delta {report.write_delta} > {a * (u + 1)}")
    if report.step_delta > (2 * a + 5) * u + a:
        raise BoundViolated(
            f"step delta {report.step_delta} > {(2 * a + 5) * u + a}")
    return report


def max_pop_arity(prog) -> int:
    """Maximum arity over the program's pop expressions (a static over-bound
    for the maximum pop arity any run can take)."""
    from . import ilast as A
    worst = 0
    for e in A.walk_program(prog):
        if isinstance(e, A.Pop):
            worst = max(worst, len(e.vals))
    return worst


__all__ = ["CostVector", "cost_vector", "check_dps_overhead",
           "DpsOverheadReport", "BoundViolated", "UnknownTag", "REF_TAGS",
           "TRACE_TAGS", "EVAL_TAGS", "PROP_TAGS", "UNDO_TAGS",
           "max_pop_arity"]
