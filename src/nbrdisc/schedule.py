"""Slotted wake-up schedules: construction and duty-cycle queries.

A schedule is a periodic binary wake/sleep pattern: a period length and the
set of slot indices inside one period in which the radio is awake.  The
pattern repeats forever, so activity at any slot index is answered by
reducing modulo the period.  Clock drift between two nodes is modelled as a
whole-slot cyclic rotation of one schedule.

Schedules are immutable; every operation returns a new value and is safe to
call concurrently.  Only the active slots of a single period are stored,
never the unrolled sequence, so periods in the tens of millions stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable


@dataclass(frozen=True)
class Schedule:
    """Periodic wake-up pattern: ``period`` slots, awake on ``active``."""

    period: int
    active: frozenset[int]

    def __post_init__(self) -> None:
        if not isinstance(self.period, int) or self.period < 1:
            raise ValueError(f"period must be a positive integer, got {self.period!r}")
        object.__setattr__(self, "active", frozenset(self.active))
        for slot in self.active:
            if not isinstance(slot, int) or not 0 <= slot < self.period:
                raise ValueError(
                    f"active slot {slot!r} outside [0, {self.period})"
                )


def make_schedule(period: int, active_slots: Iterable[int]) -> Schedule:
    """Build a schedule from a period and active slot indices.

    Duplicate indices are tolerated (the active set is deduplicated);
    a period of zero or an index outside [0, period) is rejected.
    """
    return Schedule(period, frozenset(active_slots))


def duty_cycle(s: Schedule) -> Fraction:
    """Fraction of awake slots per period, as an exact rational."""
    return Fraction(len(s.active), s.period)

