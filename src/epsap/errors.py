"""Shared exception types, the work budget that raises one with its default
cap, and the size test of a materialize cap."""

__all__ = ["SearchCapExceeded", "Budget", "DEFAULT_WORK_CAP", "MemoryGuardExceeded",
           "check_work_cap", "power_exceeds"]

DEFAULT_WORK_CAP = 20_000_000  # the default Budget of every search


class SearchCapExceeded(RuntimeError):
    """A search exceeded its configured node/work budget."""


class Budget:
    """A work cap spent one unit per search node or listed item."""

    __slots__ = ("cap", "left")

    def __init__(self, cap: int):
        check_work_cap(cap)
        self.cap = cap
        self.left = cap

    @property
    def spent(self) -> int:
        return self.cap - self.left

    def spend(self, units: int = 1):
        """Take `units` units (one search node, by default), or raise without
        taking any when fewer are left, so that `spent` never exceeds `cap`."""
        if self.left < units:
            raise SearchCapExceeded(f"search work cap of {self.cap} exceeded")
        self.left -= units


class MemoryGuardExceeded(RuntimeError):
    """Materializing an object would exceed its fixed size cap."""


def check_work_cap(limit: int) -> None:
    """Refuse a negative work cap, also where a search returns before it
    builds its Budget."""
    if limit < 0:
        raise ValueError(f"work cap must be >= 0, got {limit}")


def power_exceeds(base: int, exp: int, bound: int) -> bool:
    """Whether base ** exp > bound, for base, exp >= 0, decided without
    building a power larger than bound, in at most log_base(bound) + 1 steps
    whatever exp is."""
    if base < 2:
        return base ** min(exp, 1) > bound
    power = 1
    for _ in range(exp):
        if power > bound // base:
            return True
        power *= base
    return power > bound
