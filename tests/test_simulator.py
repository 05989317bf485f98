"""Discovery engines, drift verification, latency trials and CDFs."""

import functools
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from nbrdisc import protocols, simulator
from nbrdisc.numtheory import lcm, primes_up_to, solve_congruence_pair, worst_case_bound
from nbrdisc.protocols import (
    PROTOCOL_ORDER,
    DiscoParams,
    HedisParams,
    NodeConfig,
    ProtocolParams,
    SearchlightParams,
    SelectionOptions,
    TodisParams,
    UConnectParams,
    as_fraction,
    coprimality_schedule,
    select_params,
)
from nbrdisc.schedule import Schedule, duty_cycle, make_schedule
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


def test_drift_normalization():
    pair = DriftedPair(S_A, S_B, 18 + 1)
    assert pair.drift == 1
    pair = DriftedPair(S_A, S_B, -17)
    assert pair.drift == 1


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
        if math.lcm(*nb) == math.prod(nb):  # b pairwise co-prime: every class of b, counted
            solves.clear()
            simulator._class_counts(na, nb)
            assert len(solves) == len(na) * len(nb), (na, nb)


def test_class_counts_refuse_b_not_pairwise_coprime():
    # the residue tuples of 4 and 6 are not b's classes: (1, 0) is no class mod 12
    with pytest.raises(ValueError, match="not pairwise co-prime"):
        simulator._class_counts({1}, {4, 6})


def test_analytic_rejects_empty_divisor_sets():
    with pytest.raises(ValueError, match="non-empty"):
        first_discovery_analytic(set(), {3}, 0)
    with pytest.raises(ValueError, match="non-empty"):
        first_discovery_analytic({3}, [], 5)


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


@pytest.mark.parametrize(
    "a, b, price, unit",
    # todis 5/7: 3 x 3 solves, 3 x (5 + 7 + 9) table entries; hedis 4/11: T_b classes
    [(TodisParams(5), TodisParams(7), 72, "solves and table entries"),
     (HedisParams(4), HedisParams(11), 110, "drift classes")],
    ids=["divisibility", "grid"],
)
def test_verify_all_drifts_caps_drift_classes_before_building(monkeypatch, a, b, price, unit):
    # exhaustive mode prices its engine: a price at MAX_WAKE_SLOTS is
    # answered, one past it is refused before anything is built or listed
    expected = verify_all_drifts(a, b)
    monkeypatch.setattr(protocols, "MAX_WAKE_SLOTS", price)
    assert verify_all_drifts(a, b) == expected
    monkeypatch.setattr(protocols, "MAX_WAKE_SLOTS", price - 1)
    # sampling lists no classes, so the cap does not bind it
    assert verify_all_drifts(a, b, sample=3).drifts_checked == 3

    def no_build(params):
        pytest.fail(f"built {params} before the drift-class cap")

    monkeypatch.setattr(protocols, "build_schedule", no_build)
    message = (f"^{price} {unit} exceed {price - 1}, the lesser of --max-work "
               f"and the {price - 1}-class cap; pass --sample N ")
    with pytest.raises(ScanBudgetError, match=message):
        verify_all_drifts(a, b)


def test_exhaustive_verify_holds_each_drift_class_once():
    # b's 32,768 classes are settled once, into the sweep's list indexed by
    # class; a class-keyed dict of them reads about 99 bytes per class, and
    # one more copy passes 120
    a, b = SearchlightParams(2, 2), SearchlightParams(2, 8)
    tracemalloc.start()
    try:
        assert verify_all_drifts(a, b).max_latency == 764
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / b.period < 120


def test_exhaustive_verify_holds_one_slot_per_class():
    # about 8.7 bytes per class: the sweep's list is the answer; a copy of it
    # (say, of the latencies that met) reads 16.6, a class-keyed dict 98.7
    a, b = SearchlightParams(2, 2), SearchlightParams(2, 8)
    tracemalloc.start()
    try:
        assert verify_all_drifts(a, b).all_discover
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / b.period < 12


def test_exhaustive_divisibility_verify_lists_no_class():
    # b's 969,903 classes are counted from three residue tables of 97, 99 and
    # 101 slots; listing them, one slot per class, peaked at 42.3 MB
    tracemalloc.start()
    try:
        result = verify_all_drifts(TodisParams(101), TodisParams(99))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.all_discover, result.max_latency) == (True, 5049)
    assert peak < 10**6


def test_first_discovery_walks_the_sparser_schedule():
    # walking the always-awake a would visit every slot up to the meeting
    dense, sparse = make_schedule(1, [0]), make_schedule(10**7, [10**7 - 1])
    for drift, slot in ((0, 10**7 - 1), (3, 10**7 - 4)):
        start = time.perf_counter()
        res = first_discovery(DriftedPair(dense, sparse, drift))
        assert time.perf_counter() - start < 0.5
        assert res == DiscoveryResult(True, slot)


# --------------------------------------------------------------------------
# One seeded oracle: every discovery engine against slot-by-slot search
# --------------------------------------------------------------------------

WALK_SPAN = 10**6  # the largest hyperperiod the oracle builds nodes for and walks
BRUTE_SPAN = 2000  # past it, two divisor sets are checked against _per_drift_analytic
WALK_WORK = 10**5  # past BRUTE_SPAN, the most hyperperiod x drifts walked for divisor sets
EXHAUSTIVE_CLASSES = 700  # the most drift classes of b verified exhaustively: todis:n=9 has 693
ALWAYS = make_schedule(1, [0])
NEVER_MEETING = [({33, 35}, {75, 77}), ({6}, {4})]  # divisor sets with drifts that never meet


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


def _per_drift_analytic(na, nb, drift):
    """Reference for divisor sets: every cross pair solved afresh for this one drift."""
    bases = [
        sol.base
        for x in set(na)
        for y in set(nb)
        if (sol := solve_congruence_pair(0, x, -drift, y))
    ]
    return min(bases, default=None)


def _found(slot):
    return DiscoveryResult(slot is not None, slot)


def _verification(slots, exhaustive, drifts_checked):
    """Summary of per-drift first discovery slots (None: never met)."""
    found = [t for t in slots if t is not None]
    return DriftVerification(
        all_discover=len(found) == len(slots),
        max_latency=max(found) if found else None,
        mean_latency=sum(found) / len(found) if found else None,
        exhaustive=exhaustive,
        drifts_checked=drifts_checked,
    )


class _Divisors(NamedTuple):
    """A divisor set as a node: what the engines read of divisibility parameters."""

    divisors: frozenset
    period: int


def _config(node):
    """A node as a NodeConfig; latency_trials reads only its ``params``."""
    duty = duty_cycle(node) if isinstance(node, Schedule) else node.duty
    return NodeConfig(duty, node, duty)


class _Case:
    """One oracle case: nodes a and b, and what is asked of them.

    A node is a divisor set, a built ``Schedule`` or parameters.  Every
    engine answers ``drifts`` at the hyperperiod, one call per drift for
    those that take one, and ``hand`` adds the hand-written drifts;
    ``batch`` is asked in one call only.  ``probes`` adds (drift, horizon)
    questions for the engines that take a horizon.  Each sample size runs
    with each seed, and ``exhaustive`` asks for every drift.  Nodes are
    built and walked while the hyperperiod is at most WALK_SPAN; divisor
    sets past BRUTE_SPAN only while it times the drifts asked is at most
    WALK_WORK, as a drift that never meets walks the whole hyperperiod.
    Built parameters also run unbuilt, and in both mixes of the two.
    """

    def __init__(self, a, b, drifts=(), batch=(), probes=(), samples=(), seeds=(0,),
                 exhaustive=False, hand=True):
        sets = [n if isinstance(n, frozenset) else getattr(n, "divisors", None) for n in (a, b)]
        self.periods = [math.lcm(*n) if isinstance(n, frozenset) else n.period for n in (a, b)]
        self.span = span = lcm(*self.periods)
        self.sets = None if None in sets else sets
        self.drifts = (*((0, 1, -1, span, -span, 10**30 + 1, -(10**30)) if hand else ()), *drifts)
        self.batch = (*self.drifts, *batch)
        self.probes = {}  # horizon -> drifts asked below it, besides the hyperperiod
        for drift, horizon in probes:
            self.probes.setdefault(horizon, []).append(drift)
        self.samples, self.seeds = sorted({k for k in samples if k > 0}), seeds
        self.classes = self.periods[1] if exhaustive else 0
        params = isinstance(a, ProtocolParams)
        self.walk, self.nodes = (), [(a, b)] if params else []
        work = span * len(self.batch) if isinstance(a, frozenset) and span > BRUTE_SPAN else 0
        if span <= WALK_SPAN and work <= WALK_WORK:
            self.walk = A, B = [
                coprimality_schedule(n) if isinstance(n, frozenset)
                else n if isinstance(n, Schedule) else n.build()
                for n in (a, b)
            ]
            self.nodes += [(a, B), (A, b), (A, B)] if params else [(A, B)]
        self.name = f"{a!r} / {b!r}"
        self.refs = {}  # (drift class, horizon, swapped) -> first meeting

    def __repr__(self):
        return self.name

    def asked(self, drifts):
        """(horizon, drifts asked below it) pairs: ``drifts`` at the hyperperiod, then the probes."""
        return [(self.span, drifts), *self.probes.items()]

    def ref(self, drift, horizon=None, swapped=False):
        """First meeting below ``horizon`` (the hyperperiod by default), of b
        and a under the same drift when ``swapped``.  It depends on the drift
        only through its class modulo the second node's period, so each class
        is worked out once."""
        horizon = horizon or self.span
        key = drift % self.periods[not swapped], horizon, swapped
        if key not in self.refs:
            if self.sets and horizon >= self.span > BRUTE_SPAN:
                na, nb = self.sets[::-1] if swapped else self.sets
                self.refs[key] = _per_drift_analytic(na, nb, drift)
            else:
                a, b = self.walk[::-1] if swapped else self.walk
                self.refs[key] = _brute_first(a, b, drift, horizon)
        return self.refs[key]

    @functools.cached_property
    def sampled(self):
        """Each sampled run: its seed, its size and its drifts."""
        runs = []
        for seed in self.seeds:
            words = [trial_drift(seed, i, self.span) for i in range(max(self.samples))]
            runs += [(seed, k, words[:k]) for k in self.samples]
        return runs


def _random_set(rng, low, high, most):
    return frozenset({rng.randint(low, high) for _ in range(rng.randint(1, most))})


def _random_schedule(rng):
    period = rng.randint(1, 36)
    return make_schedule(
        period, [rng.randrange(period) for _ in range(rng.randint(0, 6))]
    )


def _random_pairs(rng, count):
    return [(_random_schedule(rng), _random_schedule(rng)) for _ in range(count)]


# parameter pairs in each protocol and across protocols, divisor sets or not
PROTOCOL_PAIRS = [
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
]
# six specs over the five protocols, paired every way for the mixed node kinds
MIXED_SPECS = [DiscoParams(3, 5), UConnectParams(5), SearchlightParams(2, 3), HedisParams(4),
               HedisParams(5), TodisParams(5)]


@functools.cache
def _grid():
    """The oracle's cases.  Each seeded generator keeps its seed, its count
    and its order of draws, its hand-written pairs first."""
    empty5, empty4 = make_schedule(5, []), make_schedule(4, [])
    hand = [(S_A, S_B), (S_B, S_A), (empty5, S_B), (S_A, empty4), (ALWAYS, ALWAYS),
            (ALWAYS, S_B), (S_A, ALWAYS)]
    cases = [_Case(a, b, samples=(1, 2 * b.period + 3), exhaustive=True) for a, b in hand]
    # schedules: horizons of 1, below, at and above the hyperperiod
    rng = random.Random(31)
    pairs = hand[:4] + _random_pairs(rng, 400)
    for a, b in pairs:
        span = lcm(a.period, b.period)
        drift = rng.randint(-3 * span, 3 * span)
        horizons = (1, rng.randint(1, span), span, span + rng.randint(1, 2 * span))
        cases.append(_Case(a, b, probes=[(drift, h) for h in horizons], hand=False))
    # schedules: every drift, and samples on either side of |b.active| and of T_b
    pairs = hand[:3] + _random_pairs(random.Random(23), 300)
    cases += [_Case(a, b, samples=(1, b.period - 1, b.period, 2 * b.period + 3), seeds=(4,),
                    exhaustive=True, hand=False) for a, b in pairs]
    pairs = [hand[0], hand[2], *_random_pairs(random.Random(37), 150)]
    cases += [_Case(a, b, samples=(1, len(b.active) - 1, len(b.active), 2 * b.period + 3),
                    seeds=(9,), exhaustive=True, hand=False) for a, b in pairs]
    # divisor sets: never-meeting sets, gcd > 1 pairs, singletons and sets holding 1
    rng = random.Random(29)
    pairs = [*NEVER_MEETING, ({7}, {7}), ({1}, {12}), ({9, 1}, {6})]
    pairs += [(_random_set(rng, 1, 60, 4), _random_set(rng, 1, 60, 4)) for _ in range(300)]
    for na, nb in pairs:
        span = math.lcm(*na, *nb)
        drifts = [rng.randint(-3 * span, 3 * span) for _ in range(20)]
        cases.append(_Case(frozenset(na), frozenset(nb), drifts))
    # divisor sets: one long drift list, asked in one call
    rng = random.Random(41)
    pairs = [({7}, {12}), ({6}, {4}), ({33, 35}, {75, 77}), ({1}, {9}), ({1, 4}, {6, 1})]
    pairs += [(_random_set(rng, 1, 60, 4), _random_set(rng, 1, 60, 4)) for _ in range(60)]
    for na, nb in pairs:
        span = math.lcm(*na, *nb)
        batch = [rng.randint(-5 * span, 5 * span) for _ in range(300)]
        cases.append(_Case(frozenset(na), frozenset(nb), batch=batch))
    # divisor sets whose hyperperiod is at most 10**5
    rng = random.Random(17)
    count = 0
    while count < 120:
        na, nb = _random_set(rng, 2, 40, 3), _random_set(rng, 2, 40, 3)
        span = math.lcm(*na, *nb)
        if span <= 10**5:
            cases.append(_Case(na, nb, [rng.randrange(span)], hand=False))
            count += 1
    # parameters, and the seeded trials of latency_trials
    cases += [_Case(a, b, samples=(60,), seeds=(1, 7), exhaustive=True) for a, b in PROTOCOL_PAIRS]
    cases += [_Case(a, b, samples=(40,), exhaustive=True)
              for a, b in itertools.product(MIXED_SPECS, repeat=2)]
    for protocol, (delta_a, delta_b) in itertools.product(("disco", "todis"), ((1, 5), (5, 1))):
        a, b = (select_params(protocol, Fraction(d, 100)).params for d in (delta_a, delta_b))
        cases.append(_Case(a, b, samples=(500,), seeds=(5,)))
    for protocol in ("hedis", "uconnect", "searchlight"):
        a, b = (select_params(protocol, Fraction(1, k)).params for k in (10, 4))
        cases.append(_Case(a, b, samples=(b.period + 50,), seeds=(5,), exhaustive=True))
    a, b = (select_params(p, Fraction(1, 5)).params for p in ("disco", "todis"))
    cases.append(_Case(a, b, samples=(25,), seeds=(11,)))
    return cases


def _check_reference(case):
    for drift in case.batch:  # case.ref walks these spans slot by slot
        assert _per_drift_analytic(*case.sets, drift) == case.ref(drift), drift


def _check_analytic(case):
    assert simulator._analytic_latency(*case.sets, case.batch) == list(map(case.ref, case.batch))


def _counted(case):
    """Divisor sets whose b is pairwise co-prime, with few classes or never-meeting ones."""
    nb = case.sets and case.sets[1]
    return (nb and math.lcm(*nb) == math.prod(nb)
            and (case.periods[1] <= EXHAUSTIVE_CLASSES or tuple(case.sets) in NEVER_MEETING))


def _check_class_counts(case):
    expected = Counter(map(case.ref, range(case.periods[1])))
    assert simulator._class_counts(*case.sets) == expected


def _check_first_discovery_analytic(case):
    for drift in case.drifts:
        assert first_discovery_analytic(*case.sets, drift) == _found(case.ref(drift)), drift


def _check_sweep_probe(case):
    a, b = case.walk
    size = len(b.active) - 1  # fewer classes than b's wake slots: the probing walk
    for horizon, drifts in case.asked(case.batch):
        for i in range(0, len(drifts), size):
            chunk = drifts[i:i + size]
            first = simulator._sweep(a, b, [d % b.period for d in chunk], horizon)
            assert len(first) == len({d % b.period for d in chunk})
            expected = [case.ref(d, horizon) for d in chunk]
            assert [first[d % b.period] for d in chunk] == expected, horizon


def _check_sweep_cross(case):
    a, b = case.walk
    start = min(a.active, default=0)
    for horizon, drifts in case.asked(case.batch):
        # the |b.active| classes that meet at a's first wake slot ask for the
        # crossing walk; the classes it meets that were not asked stay out
        classes = {(s - start) % b.period for s in b.active} | {d % b.period for d in drifts}
        first = simulator._sweep(a, b, classes, horizon)
        assert first.keys() == classes
        expected = [case.ref(d, horizon) for d in drifts]
        assert [first[d % b.period] for d in drifts] == expected, horizon


def _check_sweep_every(case):
    # every class of b, as exhaustive verify asks: one list, indexed by class
    a, b = case.walk
    assert simulator._sweep(a, b, range(b.period)) == list(map(case.ref, range(b.period)))


def _check_scan(case):
    for swapped in (False, True):
        a, b = case.walk[::-1] if swapped else case.walk
        for horizon, drifts in case.asked(case.drifts):
            for drift in drifts:
                expected = _found(case.ref(drift, horizon, swapped))
                assert simulator._scan(a, b, drift, horizon) == expected, (swapped, drift, horizon)


def _check_first_discovery(case):
    a, b = case.walk
    for i, (horizon, drifts) in enumerate(case.asked(case.drifts)):
        for drift in drifts:
            # the hyperperiod's drifts take the default horizon
            result = first_discovery(DriftedPair(a, b, drift), horizon if i else None)
            assert result == _found(case.ref(drift, horizon)), (drift, horizon)


def _check_drift_slots(case):
    expected = list(map(case.ref, case.batch))
    for a, b in case.nodes:
        assert simulator._drift_slots(a, b, case.batch) == expected, (a, b)


def _check_verify_exhaustive(case):
    # each of b's T_b drift classes holds span / T_b drifts, so the summary
    # over the classes is the one over every drift, its mean included
    expected = _verification(list(map(case.ref, range(case.classes))), True, case.span)
    for a, b in case.nodes:
        assert verify_all_drifts(a, b) == expected, (a, b)


def _check_profile(case):
    # every class of b, counted per first meeting: for parameters (two divisor sets
    # or not), built schedules, each mix of the two, and divisor sets as nodes
    expected = Counter(map(case.ref, range(case.periods[1])))
    nodes = case.nodes if case.classes else []
    if _counted(case):
        nodes = [*nodes, tuple(map(_Divisors, case.sets, case.periods))]
    for a, b in nodes:
        assert simulator._profile(a, b, protocols.MAX_WORK) == expected, (a, b)


def _check_verify_sampled(case):
    for seed, k, drifts in case.sampled:
        expected = _verification(list(map(case.ref, drifts)), False, k)
        for a, b in case.nodes:
            assert verify_all_drifts(a, b, sample=k, seed=seed) == expected, (a, b, seed, k)


def _check_latency_trials(case):
    # trial i's drift does not depend on the trial count, so each seed's
    # largest run holds its smaller ones
    a, b = case.nodes[0]  # parameters when the case has them
    for seed, k, drifts in case.sampled:
        if k == case.samples[-1]:
            slots = tuple(map(case.ref, drifts))
            found = tuple(sorted(t for t in slots if t is not None))
            dist = latency_trials(_config(a), _config(b), k, seed)
            assert dist == LatencyDistribution(tuple(drifts), slots, found), (seed, k)


# engine -> (the cases it accepts, its check against the references)
ENGINES = {
    "per_drift_analytic": (lambda c: c.sets and c.span <= BRUTE_SPAN, _check_reference),
    "_analytic_latency": (lambda c: c.sets, _check_analytic),
    "_class_counts": (_counted, _check_class_counts),
    "first_discovery_analytic": (lambda c: c.sets, _check_first_discovery_analytic),
    "_sweep-probe": (lambda c: c.walk and len(c.walk[1].active) > 1, _check_sweep_probe),
    "_sweep-cross": (lambda c: c.walk, _check_sweep_cross),
    "_sweep-every": (
        lambda c: c.walk and c.walk[1].period <= EXHAUSTIVE_CLASSES, _check_sweep_every),
    "_scan": (lambda c: c.walk, _check_scan),
    "first_discovery": (lambda c: c.walk, _check_first_discovery),
    "_drift_slots": (lambda c: c.nodes, _check_drift_slots),
    "verify_all_drifts-exhaustive": (
        lambda c: c.nodes and 0 < c.classes <= EXHAUSTIVE_CLASSES, _check_verify_exhaustive),
    "_profile": (lambda c: c.nodes and 0 < c.classes <= EXHAUSTIVE_CLASSES or _counted(c),
                 _check_profile),
    "verify_all_drifts-sampled": (lambda c: c.nodes and c.samples, _check_verify_sampled),
    "latency_trials": (lambda c: c.nodes and c.samples, _check_latency_trials),
}


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_matches_the_oracle(engine):
    accepts, check = ENGINES[engine]
    cases = [case for case in _grid() if accepts(case)]
    assert cases
    for case in cases:
        try:
            check(case)
        except AssertionError as error:
            raise AssertionError(f"{engine} on {case!r}: {error}") from None
    assert any(None in case.refs.values() for case in cases)  # never-meeting drifts were asked


# eleven specs over the five protocols, each paired with each
ORDER_SPECS = [DiscoParams(3, 5), DiscoParams(5, 7), UConnectParams(5), UConnectParams(7),
               SearchlightParams(2, 2), SearchlightParams(2, 3), HedisParams(4), HedisParams(5),
               HedisParams(7), TodisParams(5), TodisParams(7)]


def test_meeting_does_not_depend_on_node_order():
    # drift d meets for (a, b) exactly when -d meets for (b, a): only the latency moves
    pairs = [*_random_pairs(random.Random(23), 300), *itertools.product(ORDER_SPECS, repeat=2)]
    assert len(pairs) == 421
    for a, b in pairs:
        span = lcm(a.period, b.period)
        forward = simulator._drift_slots(a, b, range(span))
        backward = simulator._drift_slots(b, a, range(0, -span, -1))
        assert [t is None for t in forward] == [t is None for t in backward], (a, b)
        assert verify_all_drifts(a, b).all_discover == verify_all_drifts(b, a).all_discover, (a, b)


# --------------------------------------------------------------------------
# Protocol guarantees: each protocol's worst drift against its bound, from parameter values
# --------------------------------------------------------------------------


def test_todis_exhaustive_drifts_within_bound():
    # every drift class of every odd pair, counted from the divisor sets
    odd = range(5, 42, 2)
    worst, means = [], []
    for n in odd:
        for m in odd:
            a, b = TodisParams(n), TodisParams(m)
            result = verify_all_drifts(a, b)
            bound = worst_case_bound(a.divisors, b.divisors)
            assert result.exhaustive and result.all_discover, (n, m)
            assert result.max_latency <= bound, (n, m)
            worst.append((Fraction(result.max_latency, bound), n, m))
            means.append((result.mean_latency / bound, n, m))
    assert max(w for w in worst if max(w[1:]) <= 29) == (Fraction(598, 621), 25, 29)  # 26/27
    assert max(worst) == (Fraction(1330, 1365), 37, 41)  # 38/39 of the bound
    assert max(means) == (304 / 105 / 15, 5, 7)  # the highest mean, under a fifth of the bound


def test_hedis_same_parity_exhaustive_guarantee():
    pairs = [(n, m) for n in range(3, 31) for m in range(3, 31) if n % 2 == m % 2]
    assert len(pairs) == 392
    worst = []
    for n, m in pairs:
        result = verify_all_drifts(HedisParams(n), HedisParams(m))
        assert result.all_discover, (n, m)
        assert result.mean_latency <= 4 * n * m, (n, m)
        assert 100 * result.max_latency <= 227 * n * m, (n, m)
        worst.append((Fraction(result.max_latency, n * m), n, m))
    assert max(worst) == (Fraction(633, 20 * 14), 20, 14)


def test_hedis_mixed_parity_exhaustive_discovery():
    # the parity rule is not what makes these meet: every mixed pair does,
    # in either order, as a swap only negates the drift
    pairs = [(n, m) for n in range(3, 41) for m in range(n + 1, 41) if n % 2 != m % 2]
    assert len(pairs) == 361
    worst = []
    for n, m in pairs:
        result = verify_all_drifts(HedisParams(n), HedisParams(m))
        assert result.exhaustive and result.all_discover, (n, m)
        assert 100 * result.max_latency <= 267 * n * m, (n, m)
        worst.append((Fraction(result.max_latency, n * m), n, m))
    assert max(worst) == (Fraction(1055, 12 * 33), 12, 33)


def test_hedis_coprime_anchors_bound_every_drift():
    # anchors at multiples of n and m meet within n*m slots when gcd(n, m) = 1
    params = {n: HedisParams(n) for n in range(3, 41)}
    pairs = [(n, m) for n in params for m in params if math.gcd(n, m) == 1]
    assert len(pairs) == 862
    worst = []
    for n, m in pairs:
        result = verify_all_drifts(params[n], params[m])
        bound = worst_case_bound(params[n].rendezvous, params[m].rendezvous)
        assert result.exhaustive and result.all_discover, (n, m)
        assert result.max_latency < bound == n * m, (n, m)
        worst.append((Fraction(result.max_latency, bound), n, m))
    assert max(worst) == (Fraction(1520, 40 * 39), 40, 39)


def test_uconnect_exhaustive_guarantee():
    primes = [p for p in primes_up_to(41) if p > 2]
    pairs = [(p, q) for p in primes for q in primes if p <= q]
    assert len(pairs) == 78
    worst = []
    for p, q in pairs:
        result = verify_all_drifts(UConnectParams(p), UConnectParams(q))
        assert result.exhaustive and result.all_discover, (p, q)
        if p < q:
            bound = worst_case_bound({p}, {q})
            assert result.max_latency <= bound, (p, q)
            worst.append((Fraction(result.max_latency, bound), p, q))
        else:
            # equal primes share no co-prime pair; the half-row meets by p*(p-1)
            assert result.max_latency == p * (p - 1), p
    assert max(worst) == (Fraction(920, 943), 23, 41)  # 40/41 of the bound


def test_disco_exhaustive_drifts_within_bound():
    primes = primes_up_to(41)
    configs = [DiscoParams(p1, p2) for p1, p2 in zip(primes, primes[1:])]
    pairs = [(a, b) for i, a in enumerate(configs) for b in configs[i:]]
    assert len(pairs) == 78
    worst = []
    for a, b in pairs:
        result = verify_all_drifts(a, b)
        bound = worst_case_bound(a.divisors, b.divisors)
        assert result.exhaustive and result.all_discover, (a, b)
        assert result.max_latency <= bound, (a, b)
        worst.append((Fraction(result.max_latency, bound), (a.p1, a.p2), (b.p1, b.p2)))
    assert max(worst) == (Fraction(1476, 1517), (37, 41), (37, 41))  # 36/37 of the bound


def test_searchlight_exhaustive_coverage():
    pairs = [(i, j) for i in range(1, 8) for j in range(i, 8)]
    assert len(pairs) == 28
    maxima = {}
    for i, j in pairs:
        result = verify_all_drifts(SearchlightParams(2, i), SearchlightParams(2, j))
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


def test_sampled_verify_hashes_its_seed_prefix_once(monkeypatch):
    # a work count, not a timing bound: one prefix hasher for the whole sample
    prefixes = []
    sha256 = simulator._sha256

    def counting_sha256(data):
        prefixes.append(data)
        return sha256(data)

    monkeypatch.setattr(simulator, "_sha256", counting_sha256)
    result = verify_all_drifts(HedisParams(4), HedisParams(7), sample=500, seed=3)
    assert prefixes == [b"3:"]  # not one per sampled drift
    assert result.drifts_checked == 500


def test_sampled_verify_streams_its_words():
    # each word is reduced as it is drawn: the drifts, classes and slots read
    # about 92 bytes per sample, and holding the 256-bit words (as a cached
    # tuple does) adds about 68
    sample = 50_000
    tracemalloc.start()
    try:
        verify_all_drifts(HedisParams(40), HedisParams(60), sample=sample, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / sample < 120


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
        assert tuple(simulator._words(seed, range(1000))) == expected


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: latency_trials(_HEDIS, _HEDIS, trials=10**7 + 1, seed=1),
         "trials must be <= 10000000, got 10000001"),
        (lambda: verify_all_drifts(HedisParams(4), HedisParams(6), sample=10**30),
         f"sample must be <= 10000000, got {10**30}"),
    ],
    ids=["trials", "sample"],
)
def test_library_refuses_counts_past_the_cap_before_drawing_words(call, message):
    # 10**6 trials take about 250 MB of words, drifts and slots
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            call()
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert str(info.value) == message


def test_as_fraction_reads_ints_and_strings():
    assert as_fraction(3) == Fraction(3) and type(as_fraction(3)) is Fraction
    assert as_fraction("1/20") == Fraction(1, 20)
    assert as_fraction("5%") == as_fraction(0.05) == Fraction(1, 20)
