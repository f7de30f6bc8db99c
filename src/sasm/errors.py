"""Machine failure modes shared by both abstract machines."""

from __future__ import annotations


class Stuck(Exception):
    """No stepping rule applies; carries the rule family that failed."""

    def __init__(self, family: str, reason: str):
        super().__init__(f"stuck at {family}: {reason}")
        self.family = family
        self.reason = reason


class StuckRead(Stuck):
    def __init__(self, reason: str):
        super().__init__("S.2", reason)


class StuckWrite(Stuck):
    def __init__(self, reason: str):
        super().__init__("S.3", reason)


class StuckAlloc(Stuck):
    def __init__(self, reason: str):
        super().__init__("S.1", reason)


class StaleResult(Exception):
    """A retained run's result was asked for its trace or store after the
    run moved on to a later edit batch."""


class BrokenRuntime(Exception):
    """A Runtime was used after one of its propagations raised: that
    propagation left the retained run half re-evaluated."""

    def __init__(self, cause: BaseException):
        super().__init__(f"Runtime unusable: an earlier propagate raised "
                         f"{type(cause).__name__}: {cause}")
        self.cause = cause


class FuelExhausted(Exception):
    def __init__(self, fuel: int):
        super().__init__(f"fuel exhausted after {fuel} steps")
        self.fuel = fuel


DEFAULT_FUEL = 10_000_000
