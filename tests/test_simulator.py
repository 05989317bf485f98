"""Discovery engines, drift verification, latency trials and CDFs."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from nbrdisc import protocols, simulator
from nbrdisc.numtheory import lcm, primes_up_to, solve_congruence_pair, worst_case_bound
from nbrdisc.protocols import (
    PROTOCOL_ORDER,
    DiscoParams,
    HedisParams,
    SearchlightParams,
    SelectionOptions,
    TodisParams,
    UConnectParams,
    as_fraction,
    build_schedule,
    coprimality_schedule,
    select_params,
)
from nbrdisc.schedule import make_schedule
from nbrdisc.simulator import (
    DiscoveryResult,
    DriftedPair,
    DriftVerification,
    LatencyDistribution,
    ScanBudgetError,
    cdf,
    cdf_csv_rows,
    first_discovery,
    first_discovery_analytic,
    latency_trials,
    trial_drift,
    trials_csv_rows,
    verify_all_drifts,
)

SRC = Path(__file__).resolve().parents[1] / "src"
S_A = make_schedule(6, [5])
S_B = make_schedule(9, [1, 8])


def test_first_discovery_example_pair():
    res = first_discovery(DriftedPair(S_A, S_B, 0), horizon=18)
    assert res.found and res.slot == 17

    # one slot of drift and the same pair never meets inside the hyperperiod
    res = first_discovery(DriftedPair(S_A, S_B, 1), horizon=18)
    assert not res.found and res.slot is None


def test_first_discovery_always_awake():
    always = make_schedule(1, [0])
    for d in (0, 3, 12345):
        res = first_discovery(DriftedPair(always, always, d))
        assert res.found and res.slot == 0


def test_first_discovery_default_horizon_is_hyperperiod():
    assert first_discovery(DriftedPair(S_A, S_B, 0)).slot == 17


def test_drift_normalization():
    pair = DriftedPair(S_A, S_B, 18 + 1)
    assert pair.drift == 1
    pair = DriftedPair(S_A, S_B, -17)
    assert pair.drift == 1


def test_drift_equals_rotation():
    rng = random.Random(3)
    for _ in range(100):
        pa = rng.randint(1, 1000)
        pb = rng.randint(1, 1000)
        a = make_schedule(pa, [rng.randrange(pa) for _ in range(rng.randint(1, 6))])
        b = make_schedule(pb, [rng.randrange(pb) for _ in range(rng.randint(1, 6))])
        d = rng.randint(0, 4 * pb)
        horizon = min(lcm(pa, pb), 5000)
        rotated = make_schedule(pb, [(s - d) % pb for s in b.active])
        assert first_discovery(DriftedPair(a, b, d), horizon) == first_discovery(
            DriftedPair(a, rotated, 0), horizon
        )


def test_analytic_examples():
    res = first_discovery_analytic({3}, {5}, 1)
    assert res.found and res.slot == 9

    res = first_discovery_analytic({13, 15, 17}, {13, 15, 17}, 0)
    assert res.found and res.slot == 0


def test_analytic_counterexample_sets_fail_for_some_drift():
    # {33,35} vs {75,77} has no co-prime cross pair; drifts co-prime to
    # 3*5*7*11 defeat every congruence pair.
    assert not first_discovery_analytic({33, 35}, {75, 77}, 1).found
    assert first_discovery_analytic({33, 35}, {75, 77}, 3).found
    failing = [
        d
        for d in range(lcm(lcm(33, 35), lcm(75, 77)))
        if not first_discovery_analytic({33, 35}, {75, 77}, d).found
    ]
    assert failing  # at least one failing drift exists


def test_analytic_matches_scan_on_random_configs():
    rng = random.Random(17)
    checked = 0
    while checked < 120:
        na = {rng.randint(2, 40) for _ in range(rng.randint(1, 3))}
        nb = {rng.randint(2, 40) for _ in range(rng.randint(1, 3))}
        a = coprimality_schedule(na)
        b = coprimality_schedule(nb)
        if lcm(a.period, b.period) > 10**5:
            continue
        d = rng.randrange(lcm(a.period, b.period))
        assert first_discovery_analytic(na, nb, d) == first_discovery(
            DriftedPair(a, b, d)
        )
        checked += 1


def _per_drift_analytic(na, nb, drift):
    """Reference: every cross pair solved afresh for this one drift."""
    bases = [
        sol.base
        for x in set(na)
        for y in set(nb)
        if (sol := solve_congruence_pair(0, x, -drift, y))
    ]
    return min(bases, default=None)


def test_analytic_matches_per_drift_solver():
    rng = random.Random(29)
    # never-meeting sets, gcd > 1 pairs, singletons and sets holding 1
    cases = [({33, 35}, {75, 77}), ({6}, {4}), ({7}, {7}), ({1}, {12}), ({9, 1}, {6})]
    for _ in range(300):
        cases.append((
            {rng.randint(1, 60) for _ in range(rng.randint(1, 4))},
            {rng.randint(1, 60) for _ in range(rng.randint(1, 4))},
        ))
    misses = 0
    for na, nb in cases:
        span = 1
        for v in na | nb:
            span = lcm(span, v)
        drifts = [0, 1, -1, span, -span] + [
            rng.randint(-3 * span, 3 * span) for _ in range(20)
        ]
        for d in drifts:
            ref = _per_drift_analytic(na, nb, d)
            misses += ref is None
            assert first_discovery_analytic(na, nb, d) == DiscoveryResult(
                ref is not None, ref
            )
    assert misses  # the never-meeting cases were exercised


@pytest.mark.parametrize("protocol", ["disco", "todis"])
def test_latency_trials_analytic_matches_per_drift_solver(protocol):
    # both orders: at 5%/1% todis b's divisors reach 301, so its residue
    # tables hold up to 301 entries instead of at most 61
    for delta_a, delta_b in ((1, 5), (5, 1)):
        cfg_a = select_params(protocol, Fraction(delta_a, 100))
        cfg_b = select_params(protocol, Fraction(delta_b, 100))
        na, nb = cfg_a.params.divisors, cfg_b.params.divisors
        horizon = lcm(cfg_a.params.period, cfg_b.params.period)
        dist = latency_trials(cfg_a, cfg_b, 500, seed=5)
        assert len(dist.drifts) == len(dist.slots) == 500
        for i, (drift, slot) in enumerate(zip(dist.drifts, dist.slots)):
            assert drift == trial_drift(5, i, horizon)
            assert slot == _per_drift_analytic(na, nb, drift), (delta_a, delta_b, drift)


@pytest.mark.parametrize("count", [1, 5000])
def test_analytic_solves_each_cross_pair_once_per_call(monkeypatch, count):
    # a work count: one congruence per cross pair, however many drifts are asked
    solves = []

    def counting_solve(*args):
        solves.append(args)
        return solve_congruence_pair(*args)

    monkeypatch.setattr(simulator, "solve_congruence_pair", counting_solve)
    rng = random.Random(count)
    cases = [({6, 10}, {4, 9, 15}), ({7}, {7})]
    for protocol in ("disco", "todis"):
        cases.append((select_params(protocol, Fraction(1, 100)).params.divisors,
                      select_params(protocol, Fraction(5, 100)).params.divisors))
    for na, nb in cases:
        drifts = [rng.randrange(10**12) for _ in range(count)]
        solves.clear()
        assert len(simulator._analytic_latency(na, nb, drifts)) == count
        assert len(solves) == len(na) * len(nb), (na, nb)


def test_batched_analytic_matches_per_drift_solver():
    # one call over a long drift list, against a fresh solve per drift
    rng = random.Random(41)
    cases = [({7}, {12}), ({6}, {4}), ({33, 35}, {75, 77}), ({1}, {9}), ({1, 4}, {6, 1})]
    cases += [
        ({rng.randint(1, 60) for _ in range(rng.randint(1, 4))},
         {rng.randint(1, 60) for _ in range(rng.randint(1, 4))})
        for _ in range(60)
    ]
    misses = 0
    for na, nb in cases:
        span = 1
        for v in na | nb:
            span = lcm(span, v)
        drifts = [0, 1, -1, span, -span, 10**30 + 1, -(10**30)]
        drifts += [rng.randint(-5 * span, 5 * span) for _ in range(300)]
        expected = [_per_drift_analytic(na, nb, d) for d in drifts]
        misses += expected.count(None)
        assert simulator._analytic_latency(na, nb, drifts) == expected, (na, nb)
    assert misses  # the never-meeting drifts were exercised


def test_analytic_rejects_empty_divisor_sets():
    with pytest.raises(ValueError, match="non-empty"):
        first_discovery_analytic(set(), {3}, 0)
    with pytest.raises(ValueError, match="non-empty"):
        first_discovery_analytic({3}, [], 5)


def test_verify_all_drifts_hedis_pair():
    result = verify_all_drifts(HedisParams(4).build(), HedisParams(6).build())
    assert result.exhaustive
    assert result.drifts_checked == lcm(12, 30)
    assert result.all_discover


def test_verify_all_drifts_failing_pair():
    result = verify_all_drifts(S_A, S_B)
    assert not result.all_discover
    assert result.max_latency == 17


def test_verify_all_drifts_todis_bound():
    bound = worst_case_bound({3, 5, 7}, {5, 7, 9})
    assert bound == 15
    result = verify_all_drifts(TodisParams(5).build(), TodisParams(7).build())
    assert result.all_discover
    assert result.max_latency <= bound


def test_verify_all_drifts_budget_guard():
    with pytest.raises(ScanBudgetError):
        verify_all_drifts(HedisParams(4).build(), HedisParams(6).build(), max_work=10)
    # sampling ignores the exhaustive guard
    result = verify_all_drifts(
        HedisParams(4).build(), HedisParams(6).build(), max_work=10, sample=5, seed=1
    )
    assert not result.exhaustive and result.drifts_checked == 5


def test_verify_all_drifts_sweep_budget_guard():
    # The horizon (8) passes the drift-count check, but the sweep walks all
    # four wake slots of a against four of b (16 probes) without a meeting.
    a = make_schedule(8, [0, 2, 4, 6])
    b = make_schedule(8, [1, 3, 5, 7])
    with pytest.raises(ScanBudgetError):
        verify_all_drifts(a, b, max_work=10)
    assert not verify_all_drifts(a, b, max_work=16).all_discover


def _verification(slots, exhaustive):
    """Summary of per-drift first discovery slots (None: never met)."""
    found = [t for t in slots if t is not None]
    return DriftVerification(
        all_discover=len(found) == len(slots),
        max_latency=max(found) if found else None,
        mean_latency=sum(found) / len(found) if found else None,
        exhaustive=exhaustive,
        drifts_checked=len(slots),
    )


def _per_drift_verification(a, b, drifts, exhaustive):
    """Reference: one independent one-drift walk per drift, summarised per drift."""
    return _verification(
        [first_discovery(DriftedPair(a, b, d)).slot for d in drifts], exhaustive
    )


def _brute_first(a, b, drift, horizon):
    """Reference: test every slot below ``horizon`` in turn, drift unreduced."""
    return next(
        (
            t
            for t in range(horizon)
            if t % a.period in a.active and (t + drift) % b.period in b.active
        ),
        None,
    )


def _random_schedule(rng):
    period = rng.randint(1, 36)
    return make_schedule(
        period, [rng.randrange(period) for _ in range(rng.randint(0, 6))]
    )


def test_verify_all_drifts_matches_per_drift_scan():
    rng = random.Random(23)
    pairs = [(S_A, S_B), (S_B, S_A), (make_schedule(5, []), S_B)]
    pairs += [(_random_schedule(rng), _random_schedule(rng)) for _ in range(300)]
    assert any(not a.active or not b.active for a, b in pairs)
    for a, b in pairs:
        horizon = lcm(a.period, b.period)
        assert verify_all_drifts(a, b) == _per_drift_verification(
            a, b, range(horizon), True
        )
        # both walk modes: probing fewer classes than b has wake slots, crossing otherwise
        for sample in (1, b.period - 1, b.period, 2 * b.period + 3):
            if sample < 1:
                continue
            drifts = [trial_drift(4, i, horizon) for i in range(sample)]
            assert verify_all_drifts(
                a, b, sample=sample, seed=4
            ) == _per_drift_verification(a, b, drifts, False)


def test_first_discovery_matches_slot_by_slot_reference():
    rng = random.Random(31)
    pairs = [(S_A, S_B), (S_B, S_A), (make_schedule(5, []), S_B), (S_A, make_schedule(4, []))]
    pairs += [(_random_schedule(rng), _random_schedule(rng)) for _ in range(400)]
    for a, b in pairs:
        span = lcm(a.period, b.period)
        drift = rng.randint(-3 * span, 3 * span)
        for horizon in (1, rng.randint(1, span), span, span + rng.randint(1, 2 * span)):
            ref = _brute_first(a, b, drift, horizon)
            assert first_discovery(DriftedPair(a, b, drift), horizon) == DiscoveryResult(
                ref is not None, ref
            ), (a, b, drift, horizon)


def test_first_discovery_walks_the_sparser_schedule():
    # walking the always-awake a would visit every slot up to the meeting
    dense, sparse = make_schedule(1, [0]), make_schedule(10**7, [10**7 - 1])
    for drift, slot in ((0, 10**7 - 1), (3, 10**7 - 4)):
        start = time.perf_counter()
        res = first_discovery(DriftedPair(dense, sparse, drift))
        assert time.perf_counter() - start < 0.5
        assert res == DiscoveryResult(True, slot)


def test_verify_all_drifts_matches_slot_by_slot_reference():
    rng = random.Random(37)
    pairs = [(S_A, S_B), (make_schedule(5, []), S_B)]
    pairs += [(_random_schedule(rng), _random_schedule(rng)) for _ in range(150)]
    for a, b in pairs:
        span = lcm(a.period, b.period)
        for sample in {1, len(b.active) - 1, len(b.active), 2 * b.period + 3} - {0, -1}:
            drifts = [trial_drift(9, i, span) for i in range(sample)]
            expected = _verification([_brute_first(a, b, d, span) for d in drifts], False)
            assert verify_all_drifts(a, b, sample=sample, seed=9) == expected
        if span <= 300:
            expected = _verification([_brute_first(a, b, d, span) for d in range(span)], True)
            assert verify_all_drifts(a, b) == expected


@pytest.mark.parametrize("protocol", ["hedis", "uconnect", "searchlight"])
def test_latency_trials_class_table_matches_first_discovery(protocol):
    cfg_a = select_params(protocol, Fraction(1, 10))
    cfg_b = select_params(protocol, Fraction(1, 4))
    sched_a, sched_b = build_schedule(cfg_a.params), build_schedule(cfg_b.params)
    trials = sched_b.period + 50  # more classes than b's wake slots: the crossing walk
    dist = latency_trials(cfg_a, cfg_b, trials, seed=5)
    assert len(dist.drifts) == len(dist.slots) == trials
    for drift, slot in zip(dist.drifts, dist.slots):
        res = first_discovery(DriftedPair(sched_a, sched_b, drift))
        assert (res.found, res.slot) == (slot is not None, slot)


@pytest.mark.parametrize(
    "a, b",
    [
        (DiscoParams(3, 5), DiscoParams(5, 7)),
        (DiscoParams(7, 11), DiscoParams(3, 5)),
        (TodisParams(5), TodisParams(7)),
        (TodisParams(13), TodisParams(9)),
        (UConnectParams(5), UConnectParams(7)),
        (SearchlightParams(2, 3), SearchlightParams(2, 5)),
        (HedisParams(4), HedisParams(7)),
        (TodisParams(9), HedisParams(4)),
        (HedisParams(5), TodisParams(7)),
        (DiscoParams(3, 5), UConnectParams(7)),
        (UConnectParams(5), DiscoParams(5, 7)),
        (DiscoParams(3, 5), TodisParams(9)),
        (SearchlightParams(2, 4), TodisParams(5)),
    ],
    ids=protocols.format_params,
)
def test_verify_all_drifts_params_match_built_schedules(a, b):
    # parameters take the pair engine's choice (analytic for two divisor
    # sets), built schedules always the sweep; every answer must agree
    built_a, built_b = a.build(), b.build()
    assert verify_all_drifts(a, b) == verify_all_drifts(built_a, built_b)
    for seed in (1, 7):
        assert verify_all_drifts(a, b, sample=60, seed=seed) == verify_all_drifts(
            built_a, built_b, sample=60, seed=seed
        )


def test_todis_exhaustive_drifts_within_bound():
    # Exhaustive companion to the sampled todis grid in test_protocols.py.
    odd = range(5, 30, 2)
    schedules = {n: TodisParams(n).build() for n in odd}
    for n in odd:
        for m in odd:
            result = verify_all_drifts(schedules[n], schedules[m])
            bound = worst_case_bound({n - 2, n, n + 2}, {m - 2, m, m + 2})
            assert result.exhaustive and result.all_discover, (n, m)
            assert result.max_latency <= bound, (n, m)


def test_hedis_same_parity_exhaustive_guarantee():
    pairs = [(n, m) for n in range(3, 31) for m in range(3, 31) if n % 2 == m % 2]
    assert len(pairs) == 392
    worst = []
    for n, m in pairs:
        result = verify_all_drifts(HedisParams(n).build(), HedisParams(m).build())
        assert result.all_discover, (n, m)
        assert result.mean_latency <= 4 * n * m, (n, m)
        assert 100 * result.max_latency <= 227 * n * m, (n, m)
        worst.append((Fraction(result.max_latency, n * m), n, m))
    assert max(worst) == (Fraction(633, 20 * 14), 20, 14)


def test_hedis_mixed_parity_exhaustive_discovery():
    # the parity rule is not what makes these meet: every mixed pair does,
    # in either order, as a swap only negates the drift
    schedules = {n: HedisParams(n).build() for n in range(3, 41)}
    pairs = [(n, m) for n in schedules for m in schedules if n < m and n % 2 != m % 2]
    assert len(pairs) == 361
    worst = []
    for n, m in pairs:
        result = verify_all_drifts(schedules[n], schedules[m])
        assert result.exhaustive and result.all_discover, (n, m)
        assert 100 * result.max_latency <= 267 * n * m, (n, m)
        worst.append((Fraction(result.max_latency, n * m), n, m))
    assert max(worst) == (Fraction(1055, 12 * 33), 12, 33)


def test_hedis_coprime_anchors_bound_every_drift():
    # anchors at multiples of n and m meet within n*m slots when gcd(n, m) = 1
    params = {n: HedisParams(n) for n in range(3, 41)}
    schedules = {n: p.build() for n, p in params.items()}
    pairs = [(n, m) for n in params for m in params if math.gcd(n, m) == 1]
    assert len(pairs) == 862
    worst = []
    for n, m in pairs:
        result = verify_all_drifts(schedules[n], schedules[m])
        bound = worst_case_bound(params[n].rendezvous, params[m].rendezvous)
        assert result.exhaustive and result.all_discover, (n, m)
        assert result.max_latency < bound == n * m, (n, m)
        worst.append((Fraction(result.max_latency, bound), n, m))
    assert max(worst) == (Fraction(1520, 40 * 39), 40, 39)


def test_uconnect_exhaustive_guarantee():
    primes = [p for p in primes_up_to(41) if p > 2]
    pairs = [(p, q) for p in primes for q in primes if p <= q]
    assert len(pairs) == 78
    schedules = {p: UConnectParams(p).build() for p in primes}
    for p, q in pairs:
        result = verify_all_drifts(schedules[p], schedules[q])
        assert result.exhaustive and result.all_discover, (p, q)
        if p < q:
            assert result.max_latency <= worst_case_bound({p}, {q}), (p, q)
        else:
            # equal primes share no co-prime pair; the half-row meets by p*(p-1)
            assert result.max_latency == p * (p - 1), p


def test_disco_exhaustive_drifts_within_bound():
    primes = primes_up_to(41)
    configs = [DiscoParams(p1, p2) for p1, p2 in zip(primes, primes[1:])]
    pairs = [(a, b) for i, a in enumerate(configs) for b in configs[i:]]
    assert len(pairs) == 78
    for a, b in pairs:
        result = verify_all_drifts(a.build(), b.build())
        assert result.exhaustive and result.all_discover, (a, b)
        assert result.max_latency <= worst_case_bound(a.divisors, b.divisors), (a, b)


def test_searchlight_exhaustive_coverage():
    schedules = {i: SearchlightParams(2, i).build() for i in range(1, 8)}
    pairs = [(i, j) for i in schedules for j in schedules if i <= j]
    assert len(pairs) == 28
    maxima = {}
    for i, j in pairs:
        result = verify_all_drifts(schedules[i], schedules[j])
        assert result.exhaustive and result.all_discover, (i, j)
        assert result.max_latency < 2**i * 2**j, (i, j)
        maxima[i, j] = result.max_latency
    assert maxima == {
        (1, 1): 0, (1, 2): 2, (1, 3): 6, (1, 4): 14, (1, 5): 30, (1, 6): 62, (1, 7): 126,
        (2, 2): 4, (2, 3): 16, (2, 4): 44, (2, 5): 92, (2, 6): 188, (2, 7): 380,
        (3, 3): 24, (3, 4): 120, (3, 5): 240, (3, 6): 424, (3, 7): 872,
        (4, 4): 112, (4, 5): 496, (4, 6): 992, (4, 7): 1984,
        (5, 5): 480, (5, 6): 2016, (5, 7): 4032,
        (6, 6): 1984, (6, 7): 8128,
        (7, 7): 8064,
    }


def test_searchlight_coprime_anchors_bound_every_drift():
    # t=2 against t=3: the anchor strides 2**i and 3**j are co-prime
    base2 = [SearchlightParams(2, i) for i in range(1, 6)]
    base3 = [SearchlightParams(3, j) for j in range(1, 5)]
    pairs = [*itertools.product(base2, base3), *itertools.product(base3, base2)]
    assert len(pairs) == 40
    assert max(lcm(a.period, b.period) for a, b in pairs) <= 2 * 10**6
    maxima = []
    for a, b in pairs:
        result = verify_all_drifts(a, b)
        bound = worst_case_bound(a.rendezvous, b.rendezvous)
        assert result.exhaustive and result.all_discover, (a, b)
        assert result.max_latency < bound == (a.t**a.i) * (b.t**b.i), (a, b)
        maxima.append((result.max_latency, bound, (a.t, a.i), (b.t, b.i)))
    assert max(maxima) == (2528, 2592, (2, 5), (3, 4))


def test_latency_trials_builds_each_grid_schedule_once(monkeypatch):
    # a work count, not a timing bound: reading a config builds nothing
    built = []
    build = protocols.build_schedule

    def counting_build(params):
        built.append(params)
        return build(params)

    monkeypatch.setattr(protocols, "build_schedule", counting_build)
    cfg = select_params("hedis", Fraction(1, 100))
    latency_trials(cfg, cfg, 100, 1)
    assert built == [cfg.params, cfg.params]


def test_trial_drift_is_deterministic_and_in_range():
    values = [trial_drift(42, i, 1000) for i in range(200)]
    assert values == [trial_drift(42, i, 1000) for i in range(200)]
    assert all(0 <= v < 1000 for v in values)
    assert len(set(values)) > 100  # spread, not constant
    assert values != [trial_drift(43, i, 1000) for i in range(200)]
    # the word is SHA-256 of "seed:index", however it is computed
    for i in (0, 7, 10**20):
        word = int.from_bytes(hashlib.sha256(b"42:%d" % i).digest(), "big")
        assert trial_drift(42, i, 10**9 + 7) == word % (10**9 + 7)


def test_trial_words_are_hashlib_sha256_words():
    for seed in (0, 1, 42, 2**31 - 1):
        expected = tuple(
            int.from_bytes(hashlib.sha256(b"%d:%d" % (seed, i)).digest(), "big")
            for i in range(1000)
        )
        assert simulator._words(seed, range(1000)) == expected


def test_hashlib_fallback_writes_the_same_simulate_bytes(tmp_path):
    # without CPython's built-in SHA-256 modules, trial words come from hashlib
    script = """
import sys
import hashlib
if sys.argv[1] == "hashlib":
    sys.modules["_sha2"] = sys.modules["_sha256"] = None
from nbrdisc import cli, simulator
if sys.argv[1] == "hashlib":
    assert simulator._sha256 is hashlib.sha256
sys.exit(cli.main(["simulate", "--protocols", "all", "--delta-a", "2%", "--delta-b", "5%",
                   "--trials", "200", "--seed", "7", "--out", "out"]))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    outputs = []
    for mode in ("built-in", "hashlib"):
        cwd = tmp_path / mode
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-c", script, mode], cwd=cwd, env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        files = {p.name: p.read_bytes() for p in sorted((cwd / "out").iterdir())}
        outputs.append((proc.stdout, files))
    assert len(outputs[0][1]) == 10
    assert outputs[0] == outputs[1]


def test_latency_trials_hash_each_trial_once_across_protocols(monkeypatch):
    # a work count, not a timing bound: one word per trial index, shared
    hashed = []
    words = simulator._words

    def counting_words(seed, indices):
        indices = list(indices)
        hashed.extend(indices)
        return words(seed, indices)

    monkeypatch.setattr(simulator, "_words", counting_words)
    simulator._trial_words.cache_clear()
    seed, trials = 61, 300
    runs = []
    for protocol in PROTOCOL_ORDER:
        cfg_a = select_params(protocol, Fraction(1, 10))
        cfg_b = select_params(protocol, Fraction(1, 4))
        horizon = lcm(cfg_a.params.period, cfg_b.params.period)
        runs.append((protocol, horizon, latency_trials(cfg_a, cfg_b, trials, seed)))
    assert len(hashed) == trials  # not 5 * trials
    assert set(hashed) == set(range(trials))
    for protocol, horizon, dist in runs:
        drifts = [trial_drift(seed, i, horizon) for i in range(trials)]
        assert list(dist.drifts) == drifts, protocol


def test_latency_trials_deterministic():
    cfg = select_params("hedis", Fraction(1, 10))
    one = latency_trials(cfg, cfg, 40, seed=7)
    two = latency_trials(cfg, cfg, 40, seed=7)
    assert one == two
    assert latency_trials(cfg, cfg, 40, seed=8) != one


def test_latency_trials_counts_are_consistent():
    cfg_a = select_params("todis", Fraction(1, 10))
    cfg_b = select_params("todis", Fraction(1, 20))
    dist = latency_trials(cfg_a, cfg_b, 60, seed=3)
    assert dist.trial_count == 60
    assert len(dist.latencies) + dist.undiscovered_count == 60
    assert list(dist.latencies) == sorted(dist.latencies)
    assert dist.undiscovered_count == 0
    bound = worst_case_bound({55, 57, 59}, {27, 29, 31})
    assert max(dist.latencies) <= bound


def test_latency_trials_analytic_agrees_with_scan():
    # Force the scan path through a mixed pair and compare a divisibility
    # pair against per-trial scans of the built schedules.
    cfg_a = select_params("disco", Fraction(1, 5))
    cfg_b = select_params("todis", Fraction(1, 5))
    dist = latency_trials(cfg_a, cfg_b, 25, seed=11)
    sched_a, sched_b = build_schedule(cfg_a.params), build_schedule(cfg_b.params)
    horizon = lcm(sched_a.period, sched_b.period)
    assert len(dist.drifts) == len(dist.slots) == 25
    for drift, slot in zip(dist.drifts, dist.slots):
        scan = first_discovery(DriftedPair(sched_a, sched_b, drift), horizon)
        assert scan.found == (slot is not None)
        assert scan.slot == slot


def test_mixed_protocol_latencies_respect_bound():
    # Cross-protocol pairs whose parameter sets are co-prime stay within the
    # smallest co-prime cross product; uconnect pairs force the scan path.
    combos = [("uconnect", "disco"), ("uconnect", "todis"), ("disco", "todis")]
    for proto_a, proto_b in combos:
        cfg_a = select_params(proto_a, Fraction(1, 10))
        cfg_b = select_params(proto_b, Fraction(1, 10))
        bound = worst_case_bound(
            cfg_a.params.rendezvous, cfg_b.params.rendezvous
        )
        assert bound is not None
        dist = latency_trials(cfg_a, cfg_b, 200, seed=2)
        assert dist.undiscovered_count == 0
        assert max(dist.latencies) <= bound


def test_cdf_basic():
    dist = LatencyDistribution((0, 1, 2, 3), (5, 5, 5, 5), (5, 5, 5, 5))
    assert cdf(dist, [5]) == [(5, 1.0)]

    dist = LatencyDistribution((0, 1, 2, 3), (4, 2, 1, 3), (1, 2, 3, 4))
    assert cdf(dist, [2]) == [(2, 0.5)]
    assert cdf(dist, [0, 4]) == [(0, 0.0), (4, 1.0)]


def test_cdf_counts_undiscovered_in_denominator():
    dist = LatencyDistribution((0, 1, 2, 3), (2, None, 1, None), (1, 2))
    assert (dist.trial_count, dist.undiscovered_count) == (4, 2)
    assert cdf(dist, [100])[0][1] == 0.5


def test_csv_rows():
    dist = LatencyDistribution((5, 9), (12, None), (12,))
    rows = list(trials_csv_rows(dist))
    assert rows == ["trial,drift,latency,discovered", "0,5,12,1", "1,9,,0"]
    rows = list(cdf_csv_rows(dist))
    assert rows == ["latency,fraction", "12,0.5"]


_HEDIS = select_params("hedis", Fraction(1, 20))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: select_params("foo", Fraction(1, 20)), "unknown protocol 'foo'"),
        (lambda: SelectionOptions(todis_max_n=3), "todis_max_n must be >= 5, got 3"),
        (lambda: solve_congruence_pair(0, 0, 1, 3), "moduli must be positive, got (0, 3)"),
        (lambda: worst_case_bound([], [3]), "worst_case_bound needs two non-empty sets"),
        (lambda: first_discovery(DriftedPair(S_A, S_B, 0), horizon=0),
         "horizon must be >= 1, got 0"),
        (lambda: trial_drift(1, 0, 0), "bound must be >= 1, got 0"),
        (lambda: latency_trials(_HEDIS, _HEDIS, trials=0, seed=1), "trials must be >= 1, got 0"),
        (lambda: cdf(LatencyDistribution((), (), ()), [1]), "distribution has no trials"),
    ],
    ids=["select-protocol", "todis-max-n", "modulus", "bound-sets", "horizon", "drift-bound",
         "trials", "cdf-empty"],
)
def test_library_refuses_bad_input(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_as_fraction_reads_ints_and_strings():
    assert as_fraction(3) == Fraction(3) and type(as_fraction(3)) is Fraction
    assert as_fraction("1/20") == Fraction(1, 20)
