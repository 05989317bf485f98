"""Pairwise discovery engine.

Given two wake-up schedules and an integer clock drift d, a discovery slot
is the first global slot t (on node a's clock) in which a is awake and b is
awake at its local slot t + d.  Time zero is slot 0 of a's period, so
swapping the nodes can change the answer.  If the pair is ever going to meet,
it meets inside the joint hyperperiod lcm(T_a, T_b), so that is the default
search horizon.

:func:`_drift_slots` picks the engine for listed drifts of a node pair: the analytic
one (:func:`_analytic_latency`) for two divisor sets, else the walk over built schedules
(:func:`_sweep`); :func:`_profile` counts every drift class of a divisor-set b, whatever
a is (:func:`_class_counts`), and sweeps those of any other b.  Seeded trials and CDFs
sit on top, byte-identical on rerun.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import protocols
from .numtheory import lcm, solve_congruence_pair
from .protocols import ScanBudgetError
from .schedule import Frozen, Schedule, duty_cycle

try:
    # hashlib is heavy to load (OpenSSL), so try CPython's lean built-in
    # SHA-256 first, as random.py does for SHA-512; the digests are the same
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256


# A node of a pair: a built schedule, or parameters that describe one
Node = Schedule | protocols.ProtocolParams
_SAMPLE_HINT = "pass --sample N (sample=N in the library) to verify a seeded subset"


class DriftedPair(Frozen):
    """Two schedules under an integer clock drift.

    Drift d means node b's local slot index for global slot t is t + d;
    it is normalized into [0, lcm(T_a, T_b)).
    """

    __slots__ = __match_args__ = ("a", "b", "drift")

    def __init__(self, a: Schedule, b: Schedule, drift: int) -> None:
        super().__init__(a, b, drift % lcm(a.period, b.period))


class DiscoveryResult(NamedTuple):
    """First discovery slot, or not-found within the horizon."""

    found: bool
    slot: Optional[int]


def _sweep(
    a: Schedule,
    b: Schedule,
    classes: Iterable[int],
    horizon: Optional[int] = None,
    max_work: Optional[int] = None,
) -> dict[int, Optional[int]] | list[Optional[int]]:
    """First discovery slot below ``horizon`` of each drift class asked, or None.

    Drift d meets at slot t iff (t + d) mod T_b is a wake slot of b, so the
    answer depends only on the class d mod T_b; ``classes`` may repeat, and
    each distinct one is settled once: in a dict, or in a list indexed by
    class when ``classes`` is range(T_b).  One walk visits a's wake slots t in
    time order up to min(horizon, lcm(T_a, T_b)), and the first t at which a
    class meets is its first discovery.  With fewer classes asked than b has
    wake slots, each a slot probes the unsettled classes c (is (t + c) mod T_b
    awake?); otherwise it crosses b's wake slots sb, settling class
    (sb - t) mod T_b.  Raises :class:`ScanBudgetError` past ``max_work`` probes.
    """
    every = classes == range(b.period)  # every class asked, as exhaustive verify does
    first = [None] * b.period if every else dict.fromkeys(classes)
    unsettled = len(first)
    end = lcm(a.period, b.period)
    if horizon is not None:
        end = min(end, horizon)
    if not unsettled or not a.active or not b.active:
        return first
    period_b, active_b = b.period, b.active
    cross = unsettled >= len(active_b)
    # what each a slot is checked against: b's wake slots, or the unsettled classes
    row = sorted(active_b) if cross else list(first)
    walk = sorted(a.active)
    probes = 0
    for base in range(0, end, a.period):
        for s in walk:
            t = base + s
            if t >= end:
                return first
            probes += len(row)
            if max_work is not None and probes > max_work:
                raise ScanBudgetError(
                    f"drift-class sweep exceeded the work guard {max_work}; {_SAMPLE_HINT}"
                )
            before = unsettled
            if cross:
                for sb in row:
                    c = (sb - t) % period_b
                    if (first[c] if every else first.get(c, t)) is None:  # not asked: settled
                        first[c] = t
                        unsettled -= 1
            else:
                for c in row:
                    if (t + c) % period_b in active_b:
                        first[c] = t
                        unsettled -= 1
            if unsettled < before:
                if not unsettled:
                    return first
                if not cross:
                    row = [c for c in row if first[c] is None]
    return first


def _drift_slots(
    a: Node, b: Node, drifts: Sequence[int], max_work: Optional[int] = None
) -> list[Optional[int]]:
    """First discovery slot (or None) of each drift between two nodes.

    The one place that picks the engine for listed drifts.  Two parameter values with
    ``divisors`` are answered analytically and nothing is built; else parameters are
    built and one sweep, refused past ``max_work`` probes, settles each drift class once.
    """
    sets = getattr(a, "divisors", None), getattr(b, "divisors", None)
    if None not in sets:
        return _analytic_latency(*sets, drifts)
    build = protocols.build_schedule  # via the module: the traced replay rebinds it
    a, b = (n if isinstance(n, Schedule) else build(n) for n in (a, b))
    if drifts == range(b.period):  # every class of b: the sweep's list, as it is
        return _sweep(a, b, drifts, max_work=max_work)
    classes = [d % b.period for d in drifts]
    first = _sweep(a, b, classes, max_work=max_work)
    return list(map(first.__getitem__, classes))


def _scan(a: Schedule, b: Schedule, drift: int, horizon: Optional[int] = None) -> DiscoveryResult:
    """First discovery of one drift below ``horizon`` or the hyperperiod: a one-class sweep.

    The sweep walks its first schedule's wake slots, so when b wakes less
    often than a it walks b shifted back by the drift, against a as class 0.
    """
    c = drift % b.period
    if len(b.active) * a.period < len(a.active) * b.period:
        a, b, c = Schedule(b.period, frozenset((s - c) % b.period for s in b.active)), a, 0
    slot = _sweep(a, b, (c,), horizon)[c]
    return DiscoveryResult(slot is not None, slot)


def first_discovery(pair: DriftedPair, horizon: Optional[int] = None) -> DiscoveryResult:
    """Smallest t in [0, horizon) with both nodes awake, or not-found.

    The default horizon is the joint hyperperiod lcm(T_a, T_b).
    """
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return _scan(pair.a, pair.b, pair.drift, horizon)


def _analytic_latency(
    na: Iterable[int], nb: Iterable[int], drifts: Sequence[int]
) -> list[Optional[int]]:
    """First discovery slot (or None) of each drift, between divisibility schedules.

    Solves each cross pair (x, y) once, for drift g = gcd(x, y): the pair
    meets under drift d iff g divides d, and (d/g) times the solution for
    g is then the solution for d, unique modulo lcm(x, y).  As g divides y
    and (y/g) * x is a multiple of lcm(x, y), that depends on d only through
    r = d mod y: each y tabulates the residues present (earliest meeting over
    a's divisors, or the largest modulus where none meets), and each drift
    takes the minimum of its |ys| lookups.
    """
    xs, ys = set(na), set(nb)
    if not xs or not ys:
        raise ValueError("divisor sets must be non-empty")
    pairs_of = {y: [] for y in ys}
    for x in xs:
        for y in ys:
            g = math.gcd(x, y)
            sol = solve_congruence_pair(0, x, -g, y)
            pairs_of[y].append((g, sol.base, sol.modulus))
    never = max(modulus for pairs in pairs_of.values() for _, _, modulus in pairs)
    cols = []
    for y, pairs in pairs_of.items():
        rs = [d % y for d in drifts]
        table = {r: min([r // g * base % m if r % g == 0 else never for g, base, m in pairs])
                 for r in set(rs)}
        cols.append(list(map(table.__getitem__, rs)))
    firsts = map(min, *cols) if len(cols) > 1 else cols[0]
    return [None if t == never else t for t in firsts]


def _class_counts(a: Iterable[int] | Schedule, nb: Iterable[int]) -> dict[Optional[int], int]:
    """How many drift classes of b first meet at each slot (None: never), for divisor set nb.

    b's divisors y are pairwise co-prime, so by the Chinese remainder theorem its classes
    d mod T_b are the tuples of residues d mod y, each once.  A class meets at the least of
    its residues' slots in y's table: :func:`_analytic_latency`'s for a divisor set ``a``,
    else a :func:`_sweep` of the built ``a`` against y's multiples, a one-slot schedule of
    period y.  So the classes meeting at v or later number the product of the residues that do.
    """
    if math.lcm(*nb) != math.prod(ys := set(nb)):
        raise ValueError(f"divisors {sorted(ys)} are not pairwise co-prime")
    tables = [sorted(math.inf if t is None else t for t in (
        _sweep(a, Schedule(y, (0,)), range(y)) if isinstance(a, Schedule)
        else _analytic_latency(a, (y,), range(y)))) for y in ys]  # never meeting as infinity
    slots = sorted(set().union(*tables), reverse=True)
    at_least = [math.prod(len(table) - bisect_left(table, v) for table in tables) for v in slots]
    return {None if v == math.inf else v: k - k_after
            for v, k, k_after in zip(slots, at_least, [0, *at_least]) if k > k_after}


def _profile(a: Node, b: Node, max_work: int) -> dict[Optional[int], int]:
    """How many drift classes of b first meet at each slot (None: never): the entry point
    for every drift, as :func:`_drift_slots` is for listed ones.  A divisor-set b is counted
    (:func:`_class_counts`) whatever a is, at a price summed over its divisors y: |xs|·(1 + y)
    solves and table entries for a divisor-set a, else duty_a·lcm(T_a, y) wake slots walked.
    Any other b has its T_b classes swept.  A price past the lesser of ``max_work`` and
    ``MAX_WAKE_SLOTS`` raises :class:`ScanBudgetError` before anything is built."""
    bound = min(max_work, cap := protocols.MAX_WAKE_SLOTS)
    xs, ys = getattr(a, "divisors", None), getattr(b, "divisors", None)
    if ys is None:
        price, unit = b.period, "drift classes"
    elif xs is None:
        duty = duty_cycle(a) if isinstance(a, Schedule) else a.duty
        price, unit = sum(duty * lcm(a.period, y) for y in ys), "wake slots walked"
    else:
        price, unit = sum(len(xs) * (1 + y) for y in ys), "solves and table entries"
    if price > bound:
        raise ScanBudgetError(f"{price} {unit} exceed {bound}, the lesser of --max-work and the "
                              f"{cap}-class cap; {_SAMPLE_HINT}")
    if ys is None:
        return Counter(_drift_slots(a, b, range(b.period), max_work))
    build = protocols.build_schedule  # via the module: the traced replay rebinds it
    return _class_counts(a if isinstance(a, Schedule) else build(a) if xs is None else xs, ys)


def first_discovery_analytic(
    na: Iterable[int], nb: Iterable[int], drift: int
) -> DiscoveryResult:
    """First discovery between two divisibility schedules under drift: the one-drift
    view of :func:`_analytic_latency`, slot for slot :func:`first_discovery`'s answer."""
    slot = _analytic_latency(na, nb, [drift])[0]
    return DiscoveryResult(slot is not None, slot)


class DriftVerification(NamedTuple):
    """Outcome of verifying discovery across clock drifts."""

    all_discover: bool
    max_latency: Optional[int]
    mean_latency: Optional[float]
    exhaustive: bool
    drifts_checked: int


def verify_all_drifts(
    a: Node,
    b: Node,
    *,
    max_work: int = protocols.MAX_WORK,
    sample: Optional[int] = None,
    seed: int = 0,
) -> DriftVerification:
    """Check that every drift (or a seeded sample of drifts) yields discovery.

    Each node is a built schedule or parameters.  Exhaustive mode covers every drift in
    [0, lcm(T_a, T_b)) through the :func:`_profile` of b's T_b classes, refused as priced
    there and past ``max_work`` sweep probes (a wake slots walked times b's wake slots).
    Each class holds lcm(T_a, T_b) / T_b drifts, so the per-class maximum and mean (int/int,
    correctly rounded) are the per-drift ones.  ``sample`` switches to seeded sampling,
    flagged by ``exhaustive=False``, which ``max_work`` does not bind.
    """
    if max_work < 1:
        raise ValueError(f"max_work must be >= 1, got {max_work}")
    horizon = lcm(a.period, b.period)
    if sample is None:
        profile = _profile(a, b, max_work)
    else:
        protocols.check_count("sample", sample)
        profile = Counter(_drift_slots(a, b, [w % horizon for w in _words(seed, range(sample))]))
    never = profile.pop(None, 0)
    met = sum(profile.values())
    try:
        mean = sum(t * k for t, k in profile.items()) / met if met else None
    except OverflowError:
        raise ValueError(f"the mean latency of {met} drifts is beyond the float range") from None
    return DriftVerification(
        all_discover=not never,
        max_latency=max(profile, default=None),
        mean_latency=mean,
        exhaustive=sample is None,
        drifts_checked=horizon if sample is None else sample,
    )


# --------------------------------------------------------------------------
# Monte-Carlo latency trials
# --------------------------------------------------------------------------


def _words(seed: int, indices: Iterable[int]) -> Iterator[int]:
    """SHA-256 of ``seed:index`` as a big-endian integer, yielded per index: the one word
    stream, read by :func:`_trial_words`, :func:`trial_drift` and sampled verification."""
    copy = _sha256(b"%d:" % seed).copy  # hash the shared prefix once
    for i in indices:
        h = copy()
        h.update(b"%d" % i)
        yield int.from_bytes(h.digest(), "big")


@lru_cache(maxsize=1)
def _trial_words(seed: int, count: int) -> tuple[int, ...]:
    """Words of trials 0..count-1, drawn once and shared by every protocol of a run."""
    return tuple(_words(seed, range(count)))


def trial_drift(seed: int, index: int, bound: int) -> int:
    """Deterministic drift for one trial: its 256-bit word mod ``bound``.

    Counter-based (SHA-256 of seed and trial index), so any subset of trials can be
    evaluated in any order and still agree.  Near uniform over [0, bound) for a bound far
    below 2**256; past it, every drift is below 2**256, so a 310-bit bound samples only its
    lowest 2**-54.  The one-index view of :func:`_words`: a replay seam, and the reference
    for the streams that :func:`latency_trials` and sampled :func:`verify_all_drifts` read.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    return next(_words(seed, (index,))) % bound


class LatencyDistribution(NamedTuple):
    """Per-trial discovery latencies of one simulated node pair, as columns.

    Trial i ran under drift ``drifts[i]`` and first met at ``slots[i]``, None
    when it never met; ``latencies`` holds the slots that met, sorted.
    """

    drifts: tuple[int, ...]
    slots: tuple[Optional[int], ...]
    latencies: tuple[int, ...]

    @property
    def trial_count(self) -> int:
        return len(self.slots)

    @property
    def undiscovered_count(self) -> int:
        return len(self.slots) - len(self.latencies)


def latency_trials(
    cfg_a: protocols.NodeConfig, cfg_b: protocols.NodeConfig, trials: int, seed: int
) -> LatencyDistribution:
    """Simulate ``trials`` independent drifts and collect first-discovery latencies.

    Trial i's drift is the :func:`trial_drift` of (seed, i) below lcm(T_a, T_b):
    its word is drawn once per (seed, i), shared across protocols, and reduced
    by each protocol's horizon, so past 2**256 every drift is below 2**256.  The
    exact first discovery with that horizon comes analytically for two
    divisibility schedules (whose hyperperiods can make a slot walk
    infeasible), else from one walk that settles the drift classes of all
    trials.  Identical inputs give identical output.
    """
    protocols.check_count("trials", trials)
    horizon = lcm(cfg_a.params.period, cfg_b.params.period)
    drifts = [w % horizon for w in _trial_words(seed, trials)]
    slots = _drift_slots(cfg_a.params, cfg_b.params, drifts)
    latencies = sorted([t for t in slots if t is not None])
    return LatencyDistribution(tuple(drifts), tuple(slots), tuple(latencies))


def cdf(
    dist: LatencyDistribution, points: Iterable[int]
) -> list[tuple[int, float]]:
    """Cumulative fractions: share of all trials with latency <= each point.

    Undiscovered trials count toward the denominator but are never <= any
    finite point.
    """
    if dist.trial_count < 1:
        raise ValueError("distribution has no trials")
    return [(p, bisect_right(dist.latencies, p) / dist.trial_count) for p in points]


# --------------------------------------------------------------------------
# CSV rendering
# --------------------------------------------------------------------------

TRIALS_CSV_HEADER = "trial,drift,latency,discovered"
CDF_CSV_HEADER = "latency,fraction"


def trials_csv_rows(dist: LatencyDistribution) -> Iterable[str]:
    """Yield CSV lines (header first), one row per trial."""
    yield TRIALS_CSV_HEADER
    for trial, drift, slot in zip(range(len(dist.slots)), dist.drifts, dist.slots):
        yield f"{trial},{drift},,0" if slot is None else f"{trial},{drift},{slot},1"


def cdf_csv_rows(dist: LatencyDistribution) -> Iterable[str]:
    """Yield CSV lines (header first) of the latency CDF at each observed
    latency, giving the full step function; ``latencies`` is sorted."""
    yield CDF_CSV_HEADER
    for latency, fraction in cdf(dist, dict.fromkeys(dist.latencies)):
        yield f"{latency},{fraction:.10g}"
