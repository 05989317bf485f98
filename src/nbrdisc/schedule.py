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

from fractions import Fraction
from typing import Iterable


class Frozen:
    """Immutable value whose fields are its ``__slots__``.

    A subclass names its fields, in order, as ``__slots__ = __match_args__``.
    Its ``__init__`` takes them positionally or by keyword, checks them and
    passes them in field order to ``Frozen.__init__``, which stores them.
    Values compare and hash by exact type plus fields, and any assignment
    raises :class:`AttributeError`.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__match_args__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return other is self or self._values() == other._values()

    def __hash__(self) -> int:
        return hash((type(self), self._values()))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Schedule(Frozen):
    """Periodic wake-up pattern: ``period`` slots, awake on ``active``."""

    __slots__ = __match_args__ = ("period", "active")

    def __init__(self, period: int, active: Iterable[int]) -> None:
        if not isinstance(period, int) or period < 1:
            raise ValueError(f"period must be a positive integer, got {period!r}")
        active = frozenset(active)
        for slot in active:
            if not isinstance(slot, int) or not 0 <= slot < period:
                raise ValueError(f"active slot {slot!r} outside [0, {period})")
        super().__init__(period, active)


def make_schedule(period: int, active_slots: Iterable[int]) -> Schedule:
    """Build a schedule from a period and active slot indices.

    Duplicate indices are tolerated (the active set is deduplicated);
    a period of zero or an index outside [0, period) is rejected.
    """
    return Schedule(period, active_slots)


def duty_cycle(s: Schedule) -> Fraction:
    """Fraction of awake slots per period, as an exact rational."""
    return Fraction(len(s.active), s.period)

