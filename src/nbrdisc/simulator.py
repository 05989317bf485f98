"""Pairwise discovery engine.

Given two wake-up schedules and an integer clock drift d, a discovery slot
is the first global slot t (on node a's clock) in which a is awake and b is
awake at its local slot t + d.  Time zero is slot 0 of a's period, so
swapping the nodes can change the answer.  If the pair is ever going to meet,
it meets inside the joint hyperperiod lcm(T_a, T_b), so that is the default
search horizon.

:func:`_drift_slots` answers listed drifts and :func:`_profile` every drift by one rule: a
divisor-set b is read from one column per divisor (:func:`_table`), any other b is built and
swept (:func:`_sweep`, in the order asked), and a divisor-set a is never built: it is solved,
or walked as its divisors' multiples.  Seeded trials and CDFs sit on top, byte-identical on rerun.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import lru_cache
from heapq import merge
from itertools import chain, groupby, pairwise, repeat
from operator import sub
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
_in_order = lru_cache(maxsize=1)(sorted)  # a's wake slots in time order, read only, once per a


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
    a: Schedule | frozenset[int],
    b: Schedule,
    classes: Sequence[int],
    horizon: Optional[int] = None,
    max_work: Optional[int] = None,
) -> list[Optional[int]]:
    """First discovery slot below ``horizon`` (or None) of each drift class, in the order asked.

    Drift d meets at slot t iff (t + d) mod T_b is a wake slot of b, so the answer depends only
    on the class d mod T_b; ``classes`` may repeat, and each distinct one is settled once: in a
    dict, or in a list indexed by class when ``classes`` is range(T_b).  One loop reads a's wake
    slots t below min(horizon, lcm(T_a, T_b)) as one time-ordered stream, a built ``a`` period by
    period and a divisor set ``a``, never built, as its divisors' multiples merged, each slot
    once; the first t at which a class meets is its first discovery.  With fewer classes asked
    than b has wake slots, each a slot probes the unsettled classes c (is (t + c) mod T_b
    awake?); otherwise it crosses b's wake slots sb, settling class (sb - t) mod T_b.  Raises
    :class:`ScanBudgetError` past ``max_work`` probes.
    """
    every = classes == range(b.period)  # every class asked, as exhaustive verify does
    first = [None] * b.period if every else dict.fromkeys(classes)
    period_b, active_b = b.period, b.active
    built = isinstance(a, Schedule)
    unsettled = len(first) if active_b and (a.active if built else a) else 0  # 0: walk nothing
    end = lcm(a.period if built else math.lcm(*a), period_b) if unsettled else 0
    if horizon is not None:
        end = min(end, horizon)
    cross = unsettled >= len(active_b)
    # what each a slot is checked against: b's wake slots, or the unsettled classes
    row = sorted(active_b) if cross else list(first)
    if built:  # whole periods, so the last one may pass the end
        order = _in_order(a.active)
        slots = (base + s for base in range(0, end, a.period) for s in order)
    else:
        slots = (t for t, _ in groupby(merge(*(range(0, end, x) for x in a))))
    probes = 0
    for t in slots:
        if t >= end:
            break
        probes += len(row)
        if max_work is not None and probes > max_work:
            advice = f"; {_SAMPLE_HINT}" if every else ""  # every class: exhaustive verify
            raise ScanBudgetError(f"drift-class sweep against period {period_b} exceeded "
                                  f"the work guard {max_work}{advice}")
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
                break
            if not cross:
                row = [c for c in row if first[c] is None]
    return first if every else list(map(first.__getitem__, classes))


def _built(node: Node) -> Schedule:
    """A node as a schedule, built through the module: the traced replay rebinds build_schedule."""
    return node if isinstance(node, Schedule) else protocols.build_schedule(node)


def _drift_slots(
    a: Node, b: Node, drifts: Sequence[int], max_work: Optional[int] = None
) -> list[Optional[int]]:
    """First discovery slot (or None) of each drift between two nodes, the entry point for listed
    drifts: a divisor-set b answers from its divisors' columns, any other b is built and swept, a
    divisor-set a enters either as its divisors (never built), refused past ``max_work`` probes.
    """
    a, ys = getattr(a, "divisors", None) or _built(a), getattr(b, "divisors", None)
    if ys is not None:
        return _analytic_latency(a, ys, drifts)
    b = _built(b)
    classes = drifts if drifts == range(b.period) else [d % b.period for d in drifts]
    return _sweep(a, b, classes, max_work=max_work)


def _scan(a: Schedule, b: Schedule, drift: int, horizon: Optional[int] = None) -> DiscoveryResult:
    """First discovery of one drift below ``horizon`` or the hyperperiod: a one-class sweep.

    The sweep walks its first schedule's wake slots, so when b wakes less
    often than a it walks b shifted back by the drift, against a as class 0.
    """
    c = drift % b.period
    if len(b.active) * a.period < len(a.active) * b.period:
        a, b, c = Schedule(b.period, frozenset((s - c) % b.period for s in b.active)), a, 0
    slot = _sweep(a, b, (c,), horizon)[0]
    return DiscoveryResult(slot is not None, slot)


def first_discovery(pair: DriftedPair, horizon: Optional[int] = None) -> DiscoveryResult:
    """Smallest t in [0, horizon) with both nodes awake, or not-found.

    The default horizon is the joint hyperperiod lcm(T_a, T_b).
    """
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return _scan(pair.a, pair.b, pair.drift, horizon)


def _table(a: Iterable[int] | Schedule, y: int, residues: Sequence[int]) -> list[int | float]:
    """Divisor y's column: the first slot at which a meets y's multiples under each residue
    r = d mod y asked, in the order asked, math.inf for never.

    A divisor set ``a`` solves each pair (x, y) once, for drift g = gcd(x, y): it meets iff g
    divides r, at r/g times g's slot, modulo lcm(x, y).  A built ``a`` is swept against a
    one-slot schedule of period y, refused past ``MAX_WAKE_SLOTS`` probes.
    """
    if isinstance(a, Schedule):
        first = _sweep(a, Schedule(y, (0,)), residues, max_work=protocols.MAX_WAKE_SLOTS)
        return [math.inf if t is None else t for t in first]
    pairs = [(g := math.gcd(x, y), *solve_congruence_pair(0, x, -g, y)[:2]) for x in a]
    table = {r: min([r // g * base % m if r % g == 0 else math.inf for g, base, m in pairs])
             for r in set(residues)}
    return list(map(table.__getitem__, residues))


def _analytic_latency(
    a: Iterable[int] | Schedule, nb: Iterable[int], drifts: Sequence[int]
) -> list[Optional[int]]:
    """First discovery slot (or None) of each drift against a b with divisor set ``nb``.

    b wakes at t + d iff a divisor y of b divides t + d, so a meets y's multiples first at a
    slot set by r = d mod y alone: each drift takes the least of its lookups in the columns of
    the divisors (:func:`_table`), built from the least up, as a refused walk names it.
    """
    xs, ys = a if isinstance(a, Schedule) else set(a), sorted(set(nb))
    if not xs or not ys:
        raise ValueError("divisor sets must be non-empty")
    cols = [_table(xs, y, drifts if drifts == range(y) else [d % y for d in drifts]) for y in ys]
    return [None if t == math.inf else t for t in map(min, zip(*cols))]


def _class_counts(a: Iterable[int] | Schedule, nb: Iterable[int]) -> dict[Optional[int], int]:
    """How many drift classes of b first meet at each slot (None: never), for divisor set nb.

    b's divisors y are pairwise co-prime, so by the Chinese remainder theorem its classes
    d mod T_b are the tuples of residues d mod y, each once.  A class meets at the least of
    its residues' slots in y's column (:func:`_table`), so the classes meeting at v or later
    number the product of the residues that do: one C-level bisect per column and slot, streamed.
    """
    if math.lcm(*nb) != math.prod(ys := set(nb)):
        raise ValueError(f"divisors {sorted(ys)} are not pairwise co-prime")
    cols = [sorted(_table(a, y, range(y))) for y in ys]
    slots = sorted(set().union(*cols), reverse=True)
    at_least = map(math.prod, zip(*[map(sub, repeat(len(col)), map(bisect_left, repeat(col), slots))
                                    for col in cols]))
    return {None if v == math.inf else v: k - k_after
            for v, (k_after, k) in zip(slots, pairwise(chain((0,), at_least))) if k > k_after}


def _profile(a: Node, b: Node, max_work: int) -> dict[Optional[int], int]:
    """How many drift classes of b first meet at each slot (None: never): the entry point
    for every drift, as :func:`_drift_slots` is for listed ones.  A divisor-set b is counted
    (:func:`_class_counts`) at a price summed over its divisors y: |xs|·(1 + y) solves and
    table entries for a divisor-set a, else duty_a·lcm(T_a, y) wake slots walked.  Any other
    b has its T_b classes swept.  A price past the lesser of ``max_work`` and
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
    return _class_counts(xs or _built(a), ys)


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
