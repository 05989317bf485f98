"""Relative-error records, sweeps and the todis error envelope."""

import hashlib
import math
import random
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from nbrdisc import granularity, protocols
from nbrdisc.cli import parse_sweep
from nbrdisc.granularity import (
    BoundDomainError,
    GranularityRecord,
    granularity_csv_rows,
    relative_error,
    sweep,
    todis_error_upper_bound,
)
from nbrdisc.numtheory import primes_up_to
from nbrdisc.protocols import (
    PROTOCOL_ORDER,
    PROTOCOLS,
    DiscoParams,
    HedisParams,
    SearchlightParams,
    SelectionOptions,
    TodisParams,
    UConnectParams,
    select_params,
)


def test_relative_error_examples():
    rec = relative_error("hedis", Fraction(1, 50))
    assert rec.params == HedisParams(100)
    assert rec.relative_error == 0

    rec = relative_error("searchlight", Fraction(375, 1000))
    assert rec.relative_error == Fraction(1, 3)

    rec = relative_error("todis", Fraction(57, 105))
    assert rec.relative_error == 0


def test_relative_error_is_exact_ratio():
    rec = relative_error("disco", Fraction(1, 10))
    assert (
        rec.relative_error
        == abs(rec.achieved_delta - rec.desired_delta) / rec.desired_delta
    )


def test_envelope_reference_points():
    assert abs(todis_error_upper_bound(Fraction(1, 5)) - 0.0671) <= 0.0005
    assert todis_error_upper_bound(Fraction(1, 10)) <= 0.0334 + 0.0005


def test_envelope_asymptote():
    for delta in (Fraction(1, 100), Fraction(1, 500)):
        ratio = todis_error_upper_bound(delta) / (float(delta) / 3.0)
        assert 0.85 <= ratio <= 1.15


def test_envelope_monotone_on_samples():
    values = [todis_error_upper_bound(Fraction(k, 100)) for k in range(1, 51)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_envelope_domain_errors():
    with pytest.raises(ValueError):
        todis_error_upper_bound(Fraction(0))
    with pytest.raises(ValueError):
        todis_error_upper_bound(Fraction(1))
    with pytest.raises(BoundDomainError):
        todis_error_upper_bound(Fraction(9, 10))


def test_envelope_domain_edges_are_exact():
    tiny = Fraction(1, 10**40)
    assert todis_error_upper_bound(Fraction(81, 105) - tiny) > 0
    message = r"^no admissible envelope root for duty cycle 27/35 >= 81/105$"
    with pytest.raises(BoundDomainError, match=message):
        todis_error_upper_bound(Fraction(81, 105))
    assert todis_error_upper_bound(Fraction(1, 10**7)) > 0
    message = r"^no float-accurate envelope for duty cycles below 1e-7$"
    with pytest.raises(BoundDomainError, match=message):
        todis_error_upper_bound(Fraction(1, 10**7) - tiny)
    for delta in (Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(3, 2)):
        with pytest.raises(ValueError, match=rf"^duty cycle must be in \(0, 1\), got {delta}$"):
            todis_error_upper_bound(delta)


def _envelope_reference(delta: Fraction) -> Decimal:
    """The same quartic root and envelope, in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(delta.numerator) / delta.denominator

        def quartic(k: Decimal) -> Decimal:
            return (((16 * d * k - 24) * k + (12 - 40 * d)) * k + 36) * k + 9 * d - 9

        lo, hi = Decimal(2), Decimal("1.5") / d + 2
        for _ in range(300):
            mid = (lo + hi) / 2
            if quartic(mid) < 0:
                lo = mid
            else:
                hi = mid
        x = lo + hi - 1  # 2k - 1 at the bracket's midpoint k
        return (3 * (x * x - x - 1) / (x * (x * x - 4)) - d) / d


def test_envelope_matches_exact_quartic_down_to_float_edge():
    # log grid from the 1e-7 domain edge up to 0.5
    grid = [Fraction(m, 10**e) for e in range(7, 0, -1) for m in (1, 2, 3, 5, 7)]
    for delta in [d for d in grid if d <= Fraction(1, 2)]:
        exact = _envelope_reference(delta)
        assert abs(Decimal(todis_error_upper_bound(delta)) - exact) <= exact * Decimal("1e-6")
    for delta in (Fraction(99, 10**9), Fraction(1, 10**200), Fraction(1, 10**400)):
        with pytest.raises(BoundDomainError):
            todis_error_upper_bound(delta)


# float.hex of the envelope on a log grid from the 1e-7 domain edge to 0.77.
# Any change in the order of the bisection's float operations shows here,
# where the 1e-6 tolerance of the decimal reference above would let it pass.
ENVELOPE_BITS = [
    (1, 10000000, "0x1.1e54b83c33f00p-25"),
    (1, 5000000, "0x1.1e54c1ebc1900p-24"),
    (3, 10000000, "0x1.ad7f29c5ee800p-24"),
    (1, 2000000, "0x1.65e9f7822ec00p-23"),
    (7, 10000000, "0x1.f5145ddd40e93p-23"),
    (1, 1000000, "0x1.65e9f938df700p-22"),
    (1, 500000, "0x1.65e9f7ae0d380p-21"),
    (3, 1000000, "0x1.0c6f7a19ccc80p-20"),
    (1, 200000, "0x1.bf6475cd8a2ffp-20"),
    (7, 1000000, "0x1.392cb935f1180p-19"),
    (1, 100000, "0x1.bf647628545ffp-19"),
    (1, 50000, "0x1.bf6475fdcbb3fp-18"),
    (3, 100000, "0x1.4f8b588e5a455p-17"),
    (1, 20000, "0x1.179ec9d047940p-16"),
    (7, 100000, "0x1.8777e7526c06ep-16"),
    (1, 10000, "0x1.179ec9ce72d40p-15"),
    (1, 5000, "0x1.179ec9dff7b10p-14"),
    (3, 10000, "0x1.a36e2ef6d24d6p-14"),
    (1, 2000, "0x1.5d867ce2ac3c0p-13"),
    (7, 10000, "0x1.e955e2e3fedd2p-13"),
    (1, 1000, "0x1.5d867ecc26e00p-12"),
    (1, 500, "0x1.5d8686776ef90p-11"),
    (3, 1000, "0x1.0624ee778d4d5p-10"),
    (1, 200, "0x1.b4e86ba3b8080p-10"),
    (7, 1000, "0x1.31d61b5ed90b9p-9"),
    (1, 100, "0x1.b4e95fd718110p-9"),
    (1, 50, "0x1.b4ed473057268p-8"),
    (3, 100, "0x1.47b6fa50bbe43p-7"),
    (1, 20, "0x1.112676da13a68p-6"),
    (7, 100, "0x1.7e8809ee24304p-6"),
    (1, 10, "0x1.116edfdfce708p-5"),
    (1, 7, "0x1.873f154677ad8p-5"),
    (1, 5, "0x1.12cd6ecb5733ap-4"),
    (3, 10, "0x1.a06a9c4b60b28p-4"),
    (1, 3, "0x1.d0e7f3a05f28cp-4"),
    (1, 2, "0x1.696639f00c0e0p-3"),
    (19, 35, "0x1.8d38dad6d3036p-3"),
    (7, 10, "0x1.0d590accf38bdp-2"),
    (3, 4, "0x1.2520aca3a4a08p-2"),
    (77, 100, "0x1.2eb89e76108fdp-2"),
]


def test_envelope_bits_are_pinned():
    for num, den, bits in ENVELOPE_BITS:
        assert float.hex(todis_error_upper_bound(Fraction(num, den))) == bits, (num, den)


def test_envelope_bits_are_pinned_on_every_ten_thousandth():
    # SHA-256 of the float.hex lines of every k/10000 in the domain (k < 7715)
    digest = hashlib.sha256()
    for k in range(1, 7715):
        digest.update(float.hex(todis_error_upper_bound(Fraction(k, 10000))).encode() + b"\n")
    assert digest.hexdigest() == "92e9dd18e4897c7b16d7ea29aa674802bb2d9d6a7c195b8ee0c346addb00c671"
    with pytest.raises(BoundDomainError):
        todis_error_upper_bound(Fraction(7715, 10000))


def test_envelope_dominates_measured_error():
    # Sampled version of the acceptance property: the envelope stays above
    # the measured error everywhere in the practical range.
    for i in range(1, 41):
        delta = Fraction(i, 200)  # 0.5% .. 20%
        measured = float(relative_error("todis", delta).relative_error)
        assert measured <= todis_error_upper_bound(delta) + 1e-9


def test_envelope_tight_at_midpoints():
    # Between consecutive supported duty cycles the worst case sits at the
    # midpoint, where measured error and envelope agree.
    from nbrdisc.protocols import TodisParams

    for n in (7, 15, 29):
        mid = (TodisParams(n).duty + TodisParams(n + 2).duty) / 2
        measured = float(relative_error("todis", mid).relative_error)
        assert abs(measured - todis_error_upper_bound(mid)) <= 1e-9


def test_hedis_exact_on_reciprocal_grid():
    # every 1/k with an even n = 2k >= 4 is hit exactly
    for k in range(2, 101):
        assert relative_error("hedis", Fraction(1, k)).relative_error == 0


def test_small_duty_cycle_protocol_ordering():
    # hedis <= todis <= searchlight pointwise on the reciprocal grid, except
    # where searchlight is exact because 1/k is itself 2/2**i.
    searchlight_exact = {2**i for i in range(1, 7)}
    for k in range(3, 101):
        delta = Fraction(1, k)
        hedis = relative_error("hedis", delta).relative_error
        todis = relative_error("todis", delta).relative_error
        searchlight = relative_error("searchlight", delta).relative_error
        assert hedis <= todis
        if k not in searchlight_exact:
            assert todis <= searchlight


def test_full_reciprocal_sweep_has_no_error_rows():
    deltas = [Fraction(1, k) for k in range(1, 101)]
    records = sweep(list(PROTOCOL_ORDER), deltas)
    assert len(records) == 500
    assert all(rec.error is None for rec in records)


def test_full_percent_sweep_has_no_error_rows():
    deltas = [Fraction(p, 100) for p in range(1, 101)]
    records = sweep(list(PROTOCOL_ORDER), deltas)
    assert len(records) == 500
    assert all(rec.error is None for rec in records)


def test_sweep_shape_and_order():
    deltas = [Fraction(1, k) for k in range(1, 11)]
    records = sweep(list(PROTOCOL_ORDER), deltas)
    assert len(records) == 50
    # protocol-major, duty cycles ascending within each protocol
    assert [r.protocol for r in records[:10]] == ["disco"] * 10
    assert records[0].desired_delta == Fraction(1, 10)
    assert records[9].desired_delta == Fraction(1, 1)
    for a, b in zip(records, records[1:]):
        if a.protocol == b.protocol:
            assert a.desired_delta < b.desired_delta


def test_sweep_single_cell_matches_relative_error():
    (record,) = sweep(["todis"], [Fraction(1, 7)])
    assert record == relative_error("todis", Fraction(1, 7))


def test_sweep_records_errors_in_row():
    records = sweep(["todis"], [Fraction(1, 100000), Fraction(1, 10)])
    assert len(records) == 2
    assert records[0].error is not None
    assert records[0].achieved_delta is None
    assert records[1].error is None


def test_sweep_rejects_empty_input():
    with pytest.raises(ValueError):
        sweep([], [Fraction(1, 2)])
    with pytest.raises(ValueError):
        sweep(["hedis"], [])


def test_csv_rows_shape():
    records = sweep(["hedis", "disco"], [Fraction(1, 10), Fraction(1, 20)])
    rows = list(granularity_csv_rows(records))
    assert rows[0] == "protocol,desired_delta,achieved_delta,relative_error,params,todis_bound"
    assert len(rows) == 5
    # the quoted params field keeps the column count stable even for disco
    for row in rows[1:]:
        head, _, tail = row.partition('"')
        params, _, bound = tail.rpartition('"')
        assert head.count(",") == 4
        assert bound.startswith(",")


def test_csv_error_rows_carry_message():
    records = [
        GranularityRecord("todis", Fraction(1, 100000), None, None, None, "no fit, sorry")
    ]
    rows = list(granularity_csv_rows(records))
    assert rows[1].count('"') == 2
    assert "error:no fit; sorry" in rows[1]


# --------------------------------------------------------------------------
# The integer path against a Fraction-arithmetic reference
# --------------------------------------------------------------------------


def _reference_record(protocol, delta, options):
    """One sweep cell settled in Fraction arithmetic, field by field."""
    if not 0 < delta <= 1:
        message = f"duty cycle must be in (0, 1], got {delta}"
        return GranularityRecord(protocol, delta, None, None, None, message)
    cls = PROTOCOLS[protocol]
    params = cls(*cls.pick(delta, options))
    values = [getattr(params, name) for name in params.__match_args__]
    duty = Fraction(*params.ratio(*values))
    assert duty == params.duty
    if abs(duty - delta) >= delta:
        notation = ",".join(f"{name}={v}" for name, v in zip(params.__match_args__, values))
        message = (
            f"{protocol} cannot approximate duty cycle {delta} "
            f"(best candidate {params.name}:{notation} achieves {duty})"
        )
        return GranularityRecord(protocol, delta, None, None, None, message)
    return GranularityRecord(protocol, delta, duty, abs(duty - delta) / delta, params)


def _reference_rational(value):
    """Rendering through ``float()`` before ``.12g``, the reference for format_rational.

    Below the float range the 12-digit decimal quotient is rendered instead,
    with the trailing zeros of its mantissa dropped as ``.12g`` drops them.
    """
    x = float(value)
    if x == 0 and value:
        with localcontext(prec=12):
            text = format(Decimal(value.numerator) / value.denominator, ".12g")
        mantissa, e, exponent = text.partition("e")
        if "." in mantissa:
            mantissa = mantissa.rstrip("0").rstrip(".")
        return mantissa + e + exponent
    return f"{x:.12g}"


def _equivalence_deltas(options):
    """Candidate duties, midpoints of neighbouring candidates, edges, random values."""
    primes = primes_up_to(200)
    candidates = [
        [DiscoParams.ratio(p, q) for p, q in zip(primes, primes[1:])],
        [UConnectParams.ratio(p) for p in primes[1:]],
        [SearchlightParams.ratio(t, i) for t in (2, 3) for i in range(1, 9)],
        [HedisParams.ratio(n) for n in range(3, 80)],
        [TodisParams.ratio(n) for n in range(5, 80, 2)],
    ]
    deltas = {Fraction(1), Fraction(1, 10**400), Fraction(1, 10**6), Fraction(0), Fraction(3, 2)}
    # the 100 % edge: half the lowest duty each selector reaches
    deltas.update(
        cls(*cls.pick(Fraction(1, 10**9), options)).duty / 2 for cls in PROTOCOLS.values()
    )
    for ratios in candidates:
        duties = sorted({Fraction(a, b) for a, b in ratios})
        deltas.update(duties)
        deltas.update((lo + hi) / 2 for lo, hi in zip(duties, duties[1:]))
    rng = random.Random(8)
    deltas.update(Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(300))
    deltas.update(Fraction(rng.randint(1, 10**4), 10**4) for _ in range(300))
    return sorted(deltas)


@pytest.mark.parametrize(
    "options",
    [SelectionOptions(), SelectionOptions(hedis_parity="odd", searchlight_t=3, todis_max_n=15)],
    ids=["default", "odd-t3-n15"],
)
def test_sweep_and_csv_match_fraction_reference(options, monkeypatch):
    deltas = _equivalence_deltas(options)
    records = sweep(list(PROTOCOL_ORDER), deltas, options)
    expected = [_reference_record(p, d, options) for p in PROTOCOL_ORDER for d in deltas]
    assert records == expected
    assert {rec.error is None for rec in records} == {True, False}
    lines = list(granularity_csv_rows(records))
    monkeypatch.setattr(granularity, "format_rational", _reference_rational)
    assert lines == list(granularity_csv_rows(expected))


@pytest.mark.parametrize(
    "options",
    [SelectionOptions(), SelectionOptions(hedis_parity="odd", searchlight_t=3, todis_max_n=15)],
    ids=["default", "odd-t3-n15"],
)
def test_pick_is_monotone_in_the_duty_cycle(options):
    # what lets sweep fill the cells between two equal selections unselected
    deltas = [d for d in _equivalence_deltas(options) if 0 < d <= 1]
    for cls in PROTOCOLS.values():
        duties = [Fraction(*cls.ratio(*cls.pick(d, options))) for d in deltas]
        assert duties == sorted(duties), cls.name


def _per_cell(protocol, delta):
    """One sweep cell settled on its own: its record, or the in-row error record."""
    try:
        return relative_error(protocol, delta)
    except ValueError as exc:
        return GranularityRecord(protocol, delta, None, None, None, str(exc))


def _counting_sweep(protocols, deltas):
    """``sweep(protocols, deltas)`` and the number of selections it made."""
    calls = []

    def counting_select(*args):
        calls.append(args)
        return select_params(*args)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(granularity, "select_params", counting_select)
        records = sweep(protocols, deltas)
    return records, len(calls)


# the duty cycles the default selection can choose, a few dozen per protocol
DEFAULT_CANDIDATES = {
    "disco": [DiscoParams.ratio(p, q) for p, q in zip(primes_up_to(200), primes_up_to(200)[1:])],
    "uconnect": [UConnectParams.ratio(p) for p in primes_up_to(200)[1:]],
    "searchlight": [SearchlightParams.ratio(2, i) for i in range(1, 12)],
    "hedis": [HedisParams.ratio(n) for n in range(4, 80, 2)],
    "todis": [TodisParams.ratio(n) for n in range(5, 80, 2)],
}


def test_sweep_selects_every_cell_when_all_choices_differ():
    # the worst case: every cell chooses a parameter of its own
    for protocol, ratios in DEFAULT_CANDIDATES.items():
        deltas = [Fraction(a, b) for a, b in ratios]
        records, calls = _counting_sweep([protocol], deltas)
        assert records == [_per_cell(protocol, d) for d in sorted(deltas)]
        assert calls == len(records) == len({rec.params for rec in records}), protocol


def test_sweep_fill_matches_per_cell_records():
    duties = {Fraction(a, b) for ratios in DEFAULT_CANDIDATES.values() for a, b in ratios}
    errors = [
        Fraction(0), Fraction(-1, 2), Fraction(3, 2), Fraction(1, 10**400),
        Fraction(1, 10**5000),  # hedis: n beyond the integer string limit
        Fraction(1, 100000), Fraction(1, 1000),  # todis: n=1201 misses by 100 % or more
    ]
    # todis chooses n=1201 at 1/100000, 1/1000, 1/600 and 1/500, and meets it
    # within 100 % only at the last two: error cells inside a would-be run
    deltas = 2 * [*duties, *errors, Fraction(1, 600), Fraction(1, 500)]
    random.Random(5).shuffle(deltas)
    records, calls = _counting_sweep(list(PROTOCOL_ORDER), deltas)
    ordered = sorted(deltas)
    assert records == [_per_cell(p, d) for p in PROTOCOL_ORDER for d in ordered]
    assert calls < len(records)
    todis = {rec.desired_delta: rec for rec in records if rec.protocol == "todis"}
    assert todis[Fraction(1, 1000)].error and todis[Fraction(1, 600)].params == TodisParams(1201)
    hedis = {rec.desired_delta: rec for rec in records if rec.protocol == "hedis"}
    assert "integer string limit" in hedis[Fraction(1, 10**5000)].error
    assert hedis[Fraction(1, 10**400)].params == HedisParams(2 * 10**400)


def test_sweep_fill_builds_exact_records():
    # the filled cells of a seeded 1,000-duty list: sweep are plain records with exact errors
    rng = random.Random(1)
    deltas = parse_sweep("list:" + ",".join(f"{rng.randint(100, 10000)}/10000" for _ in range(1000)))
    records = sweep(list(PROTOCOL_ORDER), deltas)
    assert len(records) == 5000
    for rec in records:
        assert type(rec) is GranularityRecord and rec.error is None
        err = rec.relative_error
        assert type(err) is Fraction and math.gcd(err.numerator, err.denominator) == 1
        assert err == abs(rec.achieved_delta - rec.desired_delta) / rec.desired_delta


def test_sweep_orders_duty_cycles_exactly():
    # values whose floats tie, overflow or fall below the float range
    deltas = [
        Fraction(1, 3), Fraction(333333333333333333, 10**18), Fraction(1, 3),
        Fraction(1, 10**400), Fraction(2, 10**400), Fraction(0), Fraction(-1, 10**400),
        Fraction(-1, 2), Fraction(-1, 3), Fraction(1), Fraction(10**17 + 1, 10**17),
        Fraction(10**400), Fraction(10**400 + 1), Fraction(-(10**400)), Fraction(3, 2),
    ]
    assert float(deltas[0]) == float(deltas[1]) and float(deltas[3]) == float(deltas[4])
    random.Random(3).shuffle(deltas)
    records = sweep(["hedis"], deltas)
    assert [rec.desired_delta for rec in records] == sorted(deltas)


def test_sweep_work_counts(monkeypatch):
    # work counts, not timing bounds, over a seeded 1,000-duty five-protocol sweep
    rng = random.Random(1)
    deltas = [Fraction(rng.randint(100, 10000), 10000) for _ in range(1000)]
    protocols._chosen.cache_clear()
    constructed, fractions, ratios, per_cell = Counter(), [0], [0], []

    def counting_init(init):
        def counting(self, *values):
            constructed[type(self), values] += 1
            init(self, *values)

        return counting

    def counting_ratio(ratio):
        def counting(*values):
            ratios[0] += 1
            return ratio(*values)

        return staticmethod(counting)

    for cls in PROTOCOLS.values():
        monkeypatch.setattr(cls, "__init__", counting_init(cls.__init__))
        monkeypatch.setattr(cls, "ratio", counting_ratio(cls.ratio))
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        fractions[0] += 1
        return new(cls, *args, **kwargs)

    def counting_select(*args):
        before = ratios[0]
        try:
            return select_params(*args)
        finally:
            per_cell.append(ratios[0] - before)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(granularity, "select_params", counting_select)
    records = sweep(list(PROTOCOL_ORDER), deltas)
    in_sweep = fractions[0]
    lines = list(granularity_csv_rows(records))
    assert len(lines) == len(records) + 1 == 5001
    assert all(rec.error is None for rec in records)
    # each distinct chosen parameter is built and validated once
    assert max(constructed.values()) == 1
    assert len({rec.params for rec in records}) == len(constructed)
    # bisection selects about one cell in ten; a selection bisects a pool
    # of at most 1,228 keys (11 duty evaluations), compares two neighbours
    # and builds its pick's exact duty once
    pool = len(protocols._prime_pool()) - 1
    assert len(per_cell) <= 600 and max(per_cell) <= pool.bit_length() + 2 + 1
    # one relative error per cell, one achieved duty per distinct parameter
    assert in_sweep <= len(records) + len(constructed)
    assert fractions[0] == in_sweep
