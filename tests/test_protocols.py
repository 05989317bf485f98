"""Schedule generators, closed-form duty cycles and parameter selection."""

import bisect
import itertools
import random
import sys
import tracemalloc
from decimal import Context, Decimal
from fractions import Fraction

import pytest

from nbrdisc import protocols
from nbrdisc.numtheory import lcm, primes_up_to
from nbrdisc.protocols import (
    PRIME_POOL_LIMIT,
    PROTOCOLS,
    DiscoParams,
    HedisParams,
    NotationError,
    ParameterError,
    SearchlightParams,
    SelectionError,
    SelectionOptions,
    TodisParams,
    UConnectParams,
    build_schedule,
    coprimality_schedule,
    format_params,
    parse_params,
    protocol_tag,
    select_params,
)
from nbrdisc.schedule import duty_cycle


# --------------------------------------------------------------------------
# Divisibility schedules
# --------------------------------------------------------------------------


def test_coprimality_schedule_triple_odd_prefix():
    s = coprimality_schedule({13, 15, 17})
    expected = [t for t in range(71) if any(t % d == 0 for d in (13, 15, 17))]
    assert expected == [0, 13, 15, 17, 26, 30, 34, 39, 45, 51, 52, 60, 65, 68]
    assert sorted(t for t in s.active if t < 71) == expected


def test_coprimality_schedule_small_cases():
    s = coprimality_schedule({2})
    assert s.period == 2 and s.active == frozenset({0})
    assert duty_cycle(s) == Fraction(1, 2)

    s = coprimality_schedule({3, 5})
    assert s.period == 15
    assert s.active == frozenset({0, 3, 5, 6, 9, 10, 12})
    assert duty_cycle(s) == Fraction(7, 15)
    assert duty_cycle(s) == Fraction(1, 3) + Fraction(1, 5) - Fraction(1, 15)


def test_coprimality_schedule_rejects_bad_input():
    with pytest.raises(ValueError):
        coprimality_schedule(set())
    with pytest.raises(ValueError):
        coprimality_schedule({0, 3})


def test_coprimality_schedule_refuses_a_huge_period_before_building():
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="^coprimality schedule has over 10000000 wake"):
            coprimality_schedule([2, 10**9 + 7])
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def _inclusion_exclusion_duty(divisors):
    total = Fraction(0)
    for size in range(1, len(divisors) + 1):
        for combo in itertools.combinations(sorted(divisors), size):
            period = 1
            for d in combo:
                period = lcm(period, d)
            total += Fraction((-1) ** (size + 1), period)
    return total


def test_coprimality_duty_matches_inclusion_exclusion():
    pool = range(2, 13)
    subsets = [
        set(combo)
        for size in (1, 2, 3)
        for combo in itertools.combinations(pool, size)
    ]
    for divisors in subsets:
        s = coprimality_schedule(divisors)
        assert s.period <= 10**4
        assert duty_cycle(s) == _inclusion_exclusion_duty(divisors)


# --------------------------------------------------------------------------
# hedis
# --------------------------------------------------------------------------


def test_hedis_examples():
    s = HedisParams(4).build()
    assert s.period == 12
    assert s.active == frozenset({0, 1, 4, 6, 8, 11})
    assert duty_cycle(s) == Fraction(1, 2)

    s = HedisParams(6).build()
    assert s.period == 30
    assert s.active == frozenset({0, 1, 6, 8, 12, 15, 18, 22, 24, 29})
    assert duty_cycle(s) == Fraction(1, 3)

    s = HedisParams(3).build()
    assert s.period == 6
    assert s.active == frozenset({0, 1, 3, 5})
    assert duty_cycle(s) == Fraction(2, 3)


def test_hedis_rejects_small_n():
    with pytest.raises(ParameterError):
        HedisParams(2).build()


def test_hedis_slot_count_and_duty():
    # anchors {n*i} and probes {(n+1)*i + 1} never collide, so the count and
    # duty cycle are exact for every n; the acceptance suite pushes to 300.
    for n in range(3, 61):
        s = HedisParams(n).build()
        anchors = {n * i for i in range(n - 1)}
        probes = {(n + 1) * i + 1 for i in range(n - 1)}
        assert not anchors & probes
        assert s.active == anchors | probes
        assert len(s.active) == 2 * (n - 1)
        assert duty_cycle(s) == Fraction(2, n)


# --------------------------------------------------------------------------
# todis
# --------------------------------------------------------------------------


def test_todis_examples():
    assert duty_cycle(TodisParams(15).build()) == Fraction(209, 1105)
    assert abs(float(Fraction(209, 1105)) - 0.189) < 1e-3

    s = TodisParams(5).build()
    assert s.period == 105
    assert duty_cycle(s) == Fraction(57, 105)
    assert duty_cycle(s) == Fraction(3 * (25 - 5 - 1), 5 * 21)

    assert duty_cycle(TodisParams(7).build()) == Fraction(123, 315)


def test_todis_rejects_bad_n():
    for n in (3, 4, 6, 1):
        with pytest.raises(ParameterError):
            TodisParams(n).build()


# --------------------------------------------------------------------------
# disco
# --------------------------------------------------------------------------


def test_disco_examples():
    s = DiscoParams(3, 5).build()
    assert s.period == 15
    assert duty_cycle(s) == Fraction(7, 15)

    s = DiscoParams(2, 3).build()
    assert s.period == 6
    assert s.active == frozenset({0, 2, 3, 4})
    assert duty_cycle(s) == Fraction(2, 3)

    duty = duty_cycle(DiscoParams(37, 43).build())
    assert duty == Fraction(1, 37) + Fraction(1, 43) - Fraction(1, 37 * 43)


def test_disco_rejects_bad_primes():
    with pytest.raises(ParameterError):
        DiscoParams(5, 5).build()
    with pytest.raises(ParameterError):
        DiscoParams(4, 7).build()


# --------------------------------------------------------------------------
# uconnect
# --------------------------------------------------------------------------


def test_uconnect_layout():
    s = UConnectParams(3).build()
    assert s.period == 9
    assert s.active == frozenset({0, 1, 3, 6})
    assert duty_cycle(s) == Fraction(4, 9)

    s = UConnectParams(5).build()
    assert s.active == frozenset({0, 1, 2, 5, 10, 15, 20})
    assert len(s.active) == 5 + 3 - 1
    assert duty_cycle(s) == Fraction(7, 25)


def test_uconnect_measured_duty_near_stride_formula():
    # The half-row shares slot 0 with the stride, so the measured duty
    # (3p - 1) / (2 p^2) sits within 1/p^2 of the pure count (3p + 1) / (2 p^2).
    for p in (3, 5, 7, 11, 31):
        measured = duty_cycle(UConnectParams(p).build())
        assert measured == Fraction(3 * p - 1, 2 * p * p)
        assert abs(measured - Fraction(3 * p + 1, 2 * p * p)) <= Fraction(1, p * p)


def test_uconnect_rejects_two_and_composites():
    with pytest.raises(ParameterError):
        UConnectParams(2).build()
    with pytest.raises(ParameterError):
        UConnectParams(9).build()


# --------------------------------------------------------------------------
# searchlight
# --------------------------------------------------------------------------


def test_searchlight_examples():
    s = SearchlightParams(2, 1).build()
    assert s.period == 2 and s.active == frozenset({0, 1})
    assert duty_cycle(s) == 1

    s = SearchlightParams(2, 2).build()
    assert s.period == 8
    assert s.active == frozenset({0, 1, 4, 6})
    assert duty_cycle(s) == Fraction(1, 2)

    assert duty_cycle(SearchlightParams(2, 3).build()) == Fraction(1, 4)


def test_searchlight_duty_is_two_over_stride():
    for t, i in [(2, 4), (2, 7), (3, 2), (3, 3), (5, 2)]:
        assert duty_cycle(SearchlightParams(t, i).build()) == Fraction(2, t**i)


def test_searchlight_rejects_bad_params():
    with pytest.raises(ParameterError):
        SearchlightParams(1, 3).build()
    with pytest.raises(ParameterError):
        SearchlightParams(2, 0).build()


def test_searchlight_refuses_a_stride_past_the_digit_limit_before_computing_it():
    # 3**10**9 alone would take about 200 MB, before the period's product started
    with pytest.raises(ParameterError, match=r"stride 3\*\*1000000000 passes the integer string"):
        SearchlightParams(3, 10**9)
    # 2**14284 (4,300 digits) is the largest stride of base 2
    assert SearchlightParams(2, 14284).duty == Fraction(2, 2**14284)
    with pytest.raises(ParameterError, match=r"stride 2\*\*14285 passes"):
        SearchlightParams(2, 14285)


# --------------------------------------------------------------------------
# Derived quantities shared by selection and the simulator
# --------------------------------------------------------------------------


def test_achieved_duty_and_period_match_built_schedules():
    cases = [
        HedisParams(7),
        TodisParams(9),
        DiscoParams(3, 7),
        UConnectParams(5),
        SearchlightParams(2, 3),
        SearchlightParams(3, 2),
    ]
    for params in cases:
        s = params.build()
        assert duty_cycle(s) == params.duty
        assert s.period == params.period


def test_divisor_and_parameter_sets():
    assert TodisParams(9).divisors == frozenset({7, 9, 11})
    assert DiscoParams(3, 7).divisors == frozenset({3, 7})
    assert UConnectParams(5).divisors is None
    assert HedisParams(6).divisors is None
    assert UConnectParams(5).rendezvous == frozenset({5})
    assert SearchlightParams(2, 3).rendezvous == frozenset({8})
    assert HedisParams(6).rendezvous == frozenset({6})


def _reference_awake(params, t):
    """Whether slot t wakes, from the class docstring alone (not from ``ranges()``)."""
    match params:
        case DiscoParams(p1, p2):
            return t % p1 == 0 or t % p2 == 0
        case TodisParams(n):
            return any(t % x == 0 for x in (n - 2, n, n + 2))
        case UConnectParams(p):
            return t % p == 0 or t < (p + 1) / 2
        case SearchlightParams(base, i):
            # sub-period j wakes at its anchor and 1 + j past it
            j, offset = divmod(t, base**i)
            return offset in (0, 1 + j)
        case HedisParams(n):
            return t % n == 0 or (t % (n + 1) == 1 and (t - 1) // (n + 1) <= n - 2)


_RANGE_GRID = [
    *(DiscoParams(a, b) for a, b in [(2, 3), (3, 5), (5, 7), (7, 11)]),
    *(TodisParams(n) for n in (5, 7, 9, 11)),
    *(UConnectParams(p) for p in (3, 5, 7, 11)),
    *(SearchlightParams(t, i) for t, i in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]),
    *(HedisParams(n) for n in (3, 4, 5, 6, 9)),
]


@pytest.mark.parametrize("params", _RANGE_GRID, ids=format_params)
def test_ranges_match_the_documented_slots(params):
    s = params.build()
    assert s.period == params.period
    assert s.active == {t for t in range(params.period) if _reference_awake(params, t)}
    for stop in (1, params.period // 2, params.period, params.period + 7):
        assert params.wake_slots(stop) == sorted(t for t in s.active if t < stop)
    assert all(params.period % x == 0 for x in params.rendezvous)
    assert params.divisors in (None, params.rendezvous)
    match params:
        case DiscoParams(p1, p2):
            assert params.divisors == {p1, p2}
        case TodisParams(n):
            assert params.divisors == {n - 2, n, n + 2}
        case UConnectParams(p) | HedisParams(p):
            assert params.divisors is None and params.rendezvous == {p}
        case SearchlightParams(base, i):
            assert params.divisors is None and params.rendezvous == {base**i}


@pytest.mark.parametrize("cls", PROTOCOLS.values(), ids=PROTOCOLS)
def test_each_protocol_is_described_by_its_ranges_alone(cls):
    assert "ranges" in vars(cls)
    assert not {"build", "divisors", "rendezvous"} & vars(cls).keys()


# hedis n=4 wakes at 0, 4, 8 and 1, 6, 11: three slots below 5, six below 12.
# {2, 29} wakes at 0, 2, ..., 56 and 0, 29: 31 by the bound sum(len), 30 in fact.
_HEDIS_4 = [0, 1, 4, 6, 8, 11]
_CAPPED = {
    "build": ("hedis:n=4", 6, lambda: HedisParams(4).build().active, _HEDIS_4),
    "build_schedule": ("hedis:n=4", 6, lambda: build_schedule(HedisParams(4)).active, _HEDIS_4),
    "wake_slots": ("hedis:n=4", 6, lambda: HedisParams(4).wake_slots(12), _HEDIS_4),
    "wake_slots-cut": ("hedis:n=4", 3, lambda: HedisParams(4).wake_slots(5), [0, 1, 4]),
    "coprimality_schedule": ("coprimality schedule", 31,
                             lambda: coprimality_schedule([2, 29]).active,
                             [*range(0, 58, 2), 29]),
}


@pytest.mark.parametrize("what, bound, make, slots", _CAPPED.values(), ids=_CAPPED)
def test_one_cap_counts_the_ranges_of_every_build(what, bound, make, slots, monkeypatch):
    monkeypatch.setattr(protocols, "MAX_WAKE_SLOTS", bound - 1)
    with pytest.raises(ParameterError, match=f"^{what} has over {bound - 1} wake slots$"):
        make()
    monkeypatch.setattr(protocols, "MAX_WAKE_SLOTS", bound)
    assert sorted(make()) == sorted(slots)


# --------------------------------------------------------------------------
# Parameter selection
# --------------------------------------------------------------------------


def test_selection_options_bound_todis_max_n_by_sys_maxsize():
    # range() lengths stop at sys.maxsize: 2**70 once raised OverflowError in _closest
    with pytest.raises(ValueError, match=rf"todis_max_n must be <= {sys.maxsize}, got {2**70}$"):
        SelectionOptions(todis_max_n=2**70)
    cfg = select_params("todis", "1/100", SelectionOptions(todis_max_n=sys.maxsize))
    assert format_params(cfg.params) == "todis:n=299"


def _candidate_pools(options):
    """Each protocol's candidate field values, from the parameter ranges the
    selection docs state: consecutive prime pairs and odd primes below
    PRIME_POOL_LIMIT, and odd todis n up to ``todis_max_n``.  hedis and
    searchlight have unbounded pools; their listed prefix supplies the test
    duty cycles, and the reference widens them per duty cycle."""
    primes = primes_up_to(PRIME_POOL_LIMIT)
    n_min = 4 if options.hedis_parity == "even" else 3
    return {
        "disco": list(zip(primes, primes[1:])),
        "uconnect": [(p,) for p in primes[1:]],
        "searchlight": [(options.searchlight_t, i) for i in range(1, 30)],
        "hedis": [(n,) for n in range(n_min, 400, 2)],
        "todis": [(n,) for n in range(5, options.todis_max_n + 1, 2)],
    }


def _reference_pick(protocol, delta, options, ascending):
    """The field values closest to ``delta``, by exact comparison of every
    candidate that can be closest.

    ``ascending`` is a bounded pool as (duty, values) sorted by exact duty,
    so only the two candidates bracketing ``delta`` can be closest.  Of the
    unbounded pools, every searchlight i up to the bit length of 2/delta + 1
    is tried (t**i beyond it only moves further below delta), and every
    hedis n of the right parity within 4 of 2/delta.  A tie goes to the
    higher duty cycle, except for disco, where it goes to the lower.
    """
    cls = PROTOCOLS[protocol]
    if protocol == "searchlight":
        top = (2 * delta.denominator // delta.numerator).bit_length()
        candidates = [(options.searchlight_t, i) for i in range(1, top + 2)]
    elif protocol == "hedis":
        c, n_min = 2 * delta.denominator // delta.numerator, 4 - (options.hedis_parity == "odd")
        candidates = [(n,) for n in range(max(c - 4, n_min), c + 5) if n % 2 == n_min % 2]
    else:
        j = bisect.bisect_left(ascending, delta, key=lambda item: item[0])
        candidates = [values for _, values in ascending[max(j - 1, 0) : j + 1]]

    def rank(values):
        duty = Fraction(*cls.ratio(*values))
        return abs(duty - delta), duty if protocol == "disco" else -duty

    return min(candidates, key=rank)


@pytest.mark.parametrize(
    "options",
    [SelectionOptions(), SelectionOptions(hedis_parity="odd", searchlight_t=3, todis_max_n=15)],
    ids=["default", "odd-t3-n15"],
)
def test_selection_matches_exhaustive_reference(options):
    rng = random.Random(4)
    seeded = [Fraction(rng.randint(1, 10_000), 10_000) for _ in range(1000)]
    tiny = Fraction(1, 10**30)
    for protocol, pool in _candidate_pools(options).items():
        cls = PROTOCOLS[protocol]
        ascending = sorted((Fraction(*cls.ratio(*values)), values) for values in pool)
        duties = [duty for duty, _ in ascending]
        assert all(lo < hi for lo, hi in zip(duties, duties[1:]))  # no two candidates tie
        mids = [(lo + hi) / 2 for lo, hi in zip(duties, duties[1:])]
        deltas = [*duties, *mids, *(m - tiny for m in mids), *(m + tiny for m in mids)]
        deltas += [Fraction(1, 10**400), Fraction(1), *seeded]
        for delta in deltas:
            expected = _reference_pick(protocol, delta, options, ascending)
            assert cls(*cls.pick(delta, options))._values() == expected, (protocol, delta)


def test_select_params_rejects_out_of_range_delta():
    for delta in ("0", "-1/2", "3/2"):
        with pytest.raises(SelectionError) as exc:
            select_params("hedis", Fraction(delta))
        assert str(exc.value) == f"duty cycle must be in (0, 1], got {delta}"


def test_select_params_signals_unreachable_delta():
    with pytest.raises(SelectionError):
        select_params("todis", Fraction(1, 100000))
    # the message names the best candidate and its exact duty cycle
    best = {
        "disco": "disco:p1=9967,p2=9973 achieves 19939/99400891",
        "uconnect": "uconnect:p=9973 achieves 14959/99460729",
        "todis": "todis:n=1201 achieves 1441199/577439599",
    }
    for protocol, candidate in best.items():
        with pytest.raises(SelectionError) as exc:
            select_params(protocol, Fraction(1, 10**6))
        assert str(exc.value) == (
            f"{protocol} cannot approximate duty cycle 1/1000000 (best candidate {candidate})"
        )


# --------------------------------------------------------------------------
# Exact decimal text
# --------------------------------------------------------------------------


def test_decimal_text_matches_decimal_division():
    rng = random.Random(6)
    ctx = Context(prec=12)
    values = [Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40)) for _ in range(500)]
    for _ in range(500):
        # exactly halfway between two 12-digit values, and 1e-30 of a unit either side
        half = Fraction(2 * rng.randint(10**11, 10**12 - 1) + 1, 2)
        half *= Fraction(10) ** rng.randint(-400, 400)
        for nudge in (0, Fraction(1, 10**30), Fraction(-1, 10**30)):
            v = half * (1 + nudge)
            values += [v, -v]
    values += [Fraction(0), Fraction(1), Fraction(10**12 - 1), Fraction(10**100), Fraction(1, 3)]
    for v in values:
        quotient = ctx.divide(Decimal(v.numerator), Decimal(v.denominator))
        assert protocols.decimal_text(v) == format(quotient.normalize(ctx), ".12g"), v


def test_decimal_text_hands_decimal_few_digits(monkeypatch):
    # a work count: converting a 100,001-digit integer to Decimal is quadratic
    bits = []

    def recording_decimal(value):
        bits.append(abs(value).bit_length())
        return Decimal(value)

    monkeypatch.setattr(protocols, "Decimal", recording_decimal)
    assert protocols.decimal_text(Fraction(10**100000)) == "1e+100000"
    assert protocols.decimal_text(Fraction(-1, 3 * 10**100000)) == "-3.33333333333e-100001"
    assert protocols.decimal_text(Fraction(2**400000 + 1, 7)) == "1.42287763285e+120411"
    assert bits and max(bits) <= 64, bits


def test_decimal_text_past_the_default_decimal_exponent_range():
    # decimal's default context stops at exponent 999999: params --delta 1e1000000
    # once ended in decimal.Overflow, and the tiny side lost digits as subnormals
    assert protocols.format_rational(Fraction(2**3400000)) == "9.66623915795e+1023501"
    assert protocols.format_rational(Fraction(3, 2**3321930)) == "8.00986516996e-1000001"


# --------------------------------------------------------------------------
# Textual notation
# --------------------------------------------------------------------------


def test_notation_round_trip():
    cases = [
        HedisParams(40),
        TodisParams(59),
        DiscoParams(37, 43),
        UConnectParams(31),
        SearchlightParams(2, 5),
    ]
    for params in cases:
        assert parse_params(format_params(params)) == params
        assert format_params(params).startswith(protocol_tag(params) + ":")


def test_notation_examples():
    assert format_params(HedisParams(40)) == "hedis:n=40"
    assert format_params(DiscoParams(37, 43)) == "disco:p1=37,p2=43"
    assert parse_params("searchlight:t=2,i=5") == SearchlightParams(2, 5)


def test_notation_errors_name_the_token():
    with pytest.raises(NotationError, match="frisbee"):
        parse_params("frisbee:n=4")
    with pytest.raises(NotationError, match="n=x"):
        parse_params("hedis:n=x")
    with pytest.raises(NotationError, match="p2"):
        parse_params("disco:p1=3")
    with pytest.raises(NotationError, match="k"):
        parse_params("hedis:k=4")


# --------------------------------------------------------------------------
# Primality of disco and uconnect parameters
# --------------------------------------------------------------------------


def test_is_prime_agrees_with_the_sieve():
    assert [n for n in range(-3, 10**5 + 1) if protocols._is_prime(n)] == primes_up_to(10**5)


@pytest.mark.parametrize(
    "n, bases",
    [(2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
     (3474749660383, 6), (341550071728321, 8), (3825123056546413051, 11),
     (318665857834031151167461, 12)],
)
def test_is_prime_rejects_strong_pseudoprimes_to_the_first_prime_bases(n, bases):
    # n is a strong pseudoprime to each of the first ``bases`` primes
    def strong_probable_prime(a):
        s = ((n - 1) & (1 - n)).bit_length() - 1
        x = pow(a, (n - 1) >> s, n)
        return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))

    assert all(map(strong_probable_prime, primes_up_to(41)[:bases]))
    assert not protocols._is_prime(n)


def test_is_prime_accepts_large_primes():
    primes = [2**31 - 1, 10**12 + 39, 10**16 + 61, 2**61 - 1, 10**18 + 3]
    assert all(map(protocols._is_prime, primes))
    assert not protocols._is_prime((10**6 + 3) * (10**12 + 39))


@pytest.mark.parametrize("cls", [DiscoParams, UConnectParams])
def test_prime_parameters_past_the_exact_test_are_refused(cls):
    limit = protocols.PRIME_TEST_LIMIT
    assert limit == 3317044064679887385961981
    with pytest.raises(ParameterError, match=f"^{limit} is too large to test for primality "
                       rf"\(limit {limit}\)$"):
        cls(*[limit, 3][: len(cls.__match_args__)])
