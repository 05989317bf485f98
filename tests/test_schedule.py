"""Schedule construction and duty-cycle behavior."""

from fractions import Fraction

import pytest

from nbrdisc.protocols import HedisParams, TodisParams
from nbrdisc.schedule import duty_cycle, make_schedule


def test_make_schedule_basic():
    s = make_schedule(6, [5])
    assert s.period == 6
    assert s.active == frozenset({5})

    s = make_schedule(9, [1, 8])
    assert s.period == 9
    assert s.active == frozenset({1, 8})

    always = make_schedule(1, [0])
    assert duty_cycle(always) == 1


def test_make_schedule_deduplicates():
    s = make_schedule(4, [1, 1, 3, 3, 3])
    assert s.active == frozenset({1, 3})


def test_make_schedule_rejects_bad_input():
    with pytest.raises(ValueError):
        make_schedule(0, [])
    with pytest.raises(ValueError):
        make_schedule(6, [6])
    with pytest.raises(ValueError):
        make_schedule(6, [-1])


def test_duty_cycle_exact():
    assert duty_cycle(make_schedule(6, [5])) == Fraction(1, 6)
    assert duty_cycle(make_schedule(9, [1, 8])) == Fraction(2, 9)
    assert duty_cycle(make_schedule(1, [0])) == 1


def test_round_trip_fields():
    s = make_schedule(12, [0, 3, 7])
    assert make_schedule(s.period, s.active) == s


def test_frozen_equality_is_by_type_and_fields():
    a, b = make_schedule(12, [0, 3, 7]), make_schedule(12, [7, 3, 0])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a == a and not a != a
    assert a != make_schedule(12, [0, 3])
    n, m = HedisParams(40), HedisParams(40)
    assert n is not m and n == m and hash(n) == hash(m)
    # equal fields of another type are not equal
    assert HedisParams(5).__eq__(TodisParams(5)) is NotImplemented
    assert HedisParams(5) != TodisParams(5)
    assert a.__eq__((12, frozenset({0, 3, 7}))) is NotImplemented
