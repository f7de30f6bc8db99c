"""The four cost models as folds over a machine step log: the definitions
that `sasm.cost.cost_vector` is checked against (`tests/test_cost.py`).

A cost model is (cost type, zero, per-step transition); the cost of a run is
the left fold of the transition over the rule tags in order.  Each
transition rejects a tag outside `ALL_TAGS` with `UnknownTag`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from sasm.cost import (ALL_TAGS, UnknownTag, _ALLOC, _POP, _PUSH, _READ,
                       _WRITE)


@dataclass(frozen=True)
class CostModel:
    name: str
    zero: object
    gamma: Callable[[str, object], object]


def _check(tag: str) -> None:
    if tag not in ALL_TAGS:
        raise UnknownTag(tag)


def _steps(tag: str, n: int) -> int:
    _check(tag)
    return n + 1


M_STEPS = CostModel("M_s", 0, _steps)


def _store(tag: str, c: tuple[int, int, int]):
    _check(tag)
    a, r, w = c
    if tag in _ALLOC:
        return (a + 1, r, w)
    if tag in _READ:
        return (a, r + 1, w)
    if tag in _WRITE:
        return (a, r, w + 1)
    return c


M_STORE = CostModel("M_sigma", (0, 0, 0), _store)


def _stack(tag: str, c: tuple[int, int, int, int]):
    _check(tag)
    u, d, h, m = c
    if tag in _PUSH:
        return (u + 1, d, h + 1, max(m, h + 1))
    if tag in _POP:
        return (u, d + 1, h - 1, m)
    return c


M_STACK = CostModel("M_kappa", (0, 0, 0, 0), _stack)


def _tracing(tag: str, c: tuple[int, int, int]):
    _check(tag)
    e, p, u = c
    if tag.startswith("E"):
        return (e + 1, p, u)
    if tag.startswith("P"):
        return (e, p + 1, u)
    if tag.startswith("U"):
        return (e, p, u + 1)
    return c  # reference tags carry no tracing classification


M_TRACING = CostModel("M_t", (0, 0, 0), _tracing)


def cost_apply(model: CostModel, tag: str, cost):
    return model.gamma(tag, cost)


def cost_of_run(log: Iterable[str], model: CostModel):
    cost = model.zero
    for tag in log:
        cost = model.gamma(tag, cost)
    return cost
