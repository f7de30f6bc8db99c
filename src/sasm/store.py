"""The machine store: location/offset entries, garbage marks, allocation.

A location allocated with size m has offsets 1..m, each initially
uninitialized.  Garbage-marked locations have no readable entries.  Machine
values are 64-bit integers or locations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import ilast as A
from .errors import StuckAlloc, StuckRead, StuckWrite


@dataclass(frozen=True)
class Loc:
    id: int

    def __repr__(self) -> str:
        return f"ℓ{self.id}"


MachineValue = Union[int, Loc]


class _Uninit:
    def __repr__(self) -> str:
        return "⊥"


UNINIT = _Uninit()


def fmt_value(v) -> str:
    return repr(v) if isinstance(v, (Loc, _Uninit)) else str(v)


class Store:
    __slots__ = ("cells", "sizes", "garbage", "next_id")

    def __init__(self):
        self.cells: dict[tuple[int, int], object] = {}
        self.sizes: dict[int, int] = {}
        self.garbage: set[int] = set()
        self.next_id: int = 1

    def copy(self) -> "Store":
        s = Store()
        s.cells = dict(self.cells)
        s.sizes = dict(self.sizes)
        s.garbage = set(self.garbage)
        s.next_id = self.next_id
        return s

    def reserve(self, loc_id: int) -> None:
        """Ensure future fresh allocations mint ids above loc_id."""
        if loc_id >= self.next_id:
            self.next_id = loc_id + 1

    def alloc(self, size: int, loc_id: int | None = None) -> Loc:
        """Rule S.1: fresh location with entries 1..size uninitialized.

        An explicit loc_id replays a recorded allocation; it must be fresh.
        """
        if isinstance(size, Loc) or size < 0:
            raise StuckAlloc(f"bad allocation size {size!r}")
        if loc_id is None:
            loc_id = self.next_id
        elif loc_id in self.sizes or loc_id in self.garbage:
            raise StuckAlloc(f"location ℓ{loc_id} already in store")
        self.reserve(loc_id)
        self.sizes[loc_id] = size
        for i in range(1, size + 1):
            self.cells[(loc_id, i)] = UNINIT
        return Loc(loc_id)

    def read(self, loc, off) -> MachineValue:
        if not isinstance(loc, Loc):
            raise StuckRead(f"read from non-location {loc!r}")
        if loc.id in self.garbage:
            raise StuckRead(f"read from garbage location {loc!r}")
        v = self.cells.get((loc.id, off)) if isinstance(off, int) else None
        if v is None:
            raise StuckRead(f"read of {loc!r}[{off!r}] out of range")
        if v is UNINIT:
            raise StuckRead(f"read of uninitialized {loc!r}[{off}]")
        return v

    def write(self, loc, off, val) -> int:
        if not isinstance(loc, Loc):
            raise StuckWrite(f"write to non-location {loc!r}")
        if loc.id in self.garbage:
            raise StuckWrite(f"write to garbage location {loc!r}")
        if not isinstance(off, int) or (loc.id, off) not in self.cells:
            raise StuckWrite(f"write of {loc!r}[{off!r}] out of range")
        self.cells[(loc.id, off)] = val
        return 0

    def mark_garbage(self, loc: Loc) -> None:
        for i in range(1, self.sizes.get(loc.id, 0) + 1):
            self.cells.pop((loc.id, i), None)
        self.sizes.pop(loc.id, None)
        self.garbage.add(loc.id)

    def non_garbage(self) -> "Store":
        """The restriction to locations not marked garbage."""
        s = self.copy()
        s.garbage = set()
        return s

    def peek(self, loc: Loc, off: int):
        """Current cell contents without stuck checks; None if absent."""
        if loc.id in self.garbage:
            return None
        return self.cells.get((loc.id, off))

    def entries(self):
        return sorted(self.cells.items())

    def dump_lines(self) -> list[str]:
        return [f"ℓ{k}[{i}] = {fmt_value(v)}" for (k, i), v in self.entries()]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Store) and self.cells == other.cells
                and self.sizes == other.sizes and self.garbage == other.garbage)

    def __repr__(self) -> str:
        return f"Store({len(self.sizes)} locs, {len(self.garbage)} garbage)"


def lookup(env: dict, name: str) -> MachineValue:
    """The paper's rho(x) for a variable x.  A literal is its own value, so
    a compiled step looks up only the operands it classified as variables."""
    try:
        return env[name]
    except KeyError:
        raise StuckRead(f"unbound name {name!r}") from None


def classify(vs: tuple[A.Value, ...]) -> tuple[tuple[A.Value, bool], ...]:
    """A value vector, each operand paired with whether it is a variable."""
    return tuple([(v, type(v) is str) for v in vs])


def values(env: dict, ops: tuple[tuple[A.Value, bool], ...]) -> tuple:
    """The values of a classified value vector."""
    return tuple([lookup(env, v) if var else v for v, var in ops])


__all__ = ["Loc", "MachineValue", "Store", "UNINIT", "classify",
           "fmt_value", "lookup", "values"]
