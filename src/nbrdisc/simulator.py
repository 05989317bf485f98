"""Pairwise discovery engine.

Given two wake-up schedules and an integer clock drift d, a discovery slot
is the first global slot t (on node a's clock) in which a is awake and b is
awake at its local slot t + d.  Time zero is slot 0 of a's period, so
swapping the nodes can change the answer.  If the pair is ever going to meet,
it meets inside the joint hyperperiod lcm(T_a, T_b), so that is the default
search horizon.

:func:`_drift_slots` picks the engine for each node pair: the analytic one
(:func:`_analytic_latency`) for two divisor sets, else the walk over built
schedules (:func:`_sweep`).  Drift verification, seeded latency trials and
CDFs sit on top; identical inputs give byte-identical results.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from . import protocols
from .numtheory import lcm, solve_congruence_pair
from .protocols import ScanBudgetError
from .schedule import Frozen, Schedule

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
) -> dict[int, Optional[int]]:
    """First discovery slot below ``horizon`` of each drift class asked, or None.

    Drift d meets at slot t iff (t + d) mod T_b is a wake slot of b, so the
    answer depends only on the class d mod T_b.  One walk visits a's wake
    slots t in time order up to min(horizon, lcm(T_a, T_b)), and the first
    t at which a class meets is its first discovery.  With fewer classes
    asked than b has wake slots, each a slot probes the unsettled classes c
    (is slot (t + c) mod T_b awake?); otherwise it crosses b's wake slots
    sb, settling class (sb - t) mod T_b.  Raises :class:`ScanBudgetError`
    once more than ``max_work`` probes were spent.
    """
    first: dict[int, Optional[int]] = dict.fromkeys(classes)
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
                    if first.get(c, t) is None:  # classes not asked read as settled
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

    The one place that picks the engine for a node pair.  Two parameter
    values with ``divisors`` are answered analytically and nothing is built;
    otherwise each parameter value is built and one sweep settles the
    drifts' classes, refused past ``max_work`` probes.
    """
    div_a, div_b = getattr(a, "divisors", None), getattr(b, "divisors", None)
    if div_a is not None and div_b is not None:
        return _analytic_latency(div_a, div_b, drifts)
    build = protocols.build_schedule  # via the module: the traced replay rebinds it
    a, b = (n if isinstance(n, Schedule) else build(n) for n in (a, b))
    classes = [d % b.period for d in drifts]
    first = _sweep(a, b, set(classes), max_work=max_work)
    return list(map(first.__getitem__, classes))


def _scan(a: Schedule, b: Schedule, drift: int, horizon: int) -> DiscoveryResult:
    """First discovery of one drift below ``horizon``: a one-class sweep.

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
    if horizon is None:
        horizon = lcm(pair.a.period, pair.b.period)
    if horizon < 1:
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


def first_discovery_analytic(
    na: Iterable[int], nb: Iterable[int], drift: int
) -> DiscoveryResult:
    """First discovery between two divisibility schedules under drift.

    Each cross pair (x, y) is solved once for drift gcd(x, y) and scaled
    linearly by drift / gcd(x, y); the answer is the smallest slot over the
    pairs that meet.  Agrees slot for slot with :func:`first_discovery` on
    the equivalent schedules.
    """
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

    Each node is a built schedule or parameters.  Exhaustive mode covers
    every drift in [0, lcm(T_a, T_b)).  It raises :class:`ScanBudgetError`,
    before anything is built, when the number of drifts exceeds
    ``max_work``; a sweep over built schedules is also refused once it spent
    more than ``max_work`` probes (a wake slots walked times b's wake-slot
    count).  Passing ``sample`` switches to seeded sampling instead, flagged
    by ``exhaustive=False`` in the result.  Two divisibility parameter
    values are answered analytically in either mode, building nothing.
    """
    if max_work < 1:
        raise ValueError(f"max_work must be >= 1, got {max_work}")
    horizon = lcm(a.period, b.period)
    if sample is None:
        if horizon > max_work:
            raise ScanBudgetError(
                f"{horizon} drifts exceed the work guard {max_work}; {_SAMPLE_HINT}"
            )
        # Each class holds horizon // T_b drifts, so the per-class maximum
        # and mean are the per-drift ones; int/int division is correctly
        # rounded, so the mean is bit-identical to a per-drift average.
        slots = _drift_slots(a, b, range(b.period), max_work)
    elif sample < 1:
        raise ValueError(f"sample must be >= 1, got {sample}")
    else:
        slots = _drift_slots(a, b, [trial_drift(seed, i, horizon) for i in range(sample)])
    latencies = [t for t in slots if t is not None]
    try:
        mean = sum(latencies) / len(latencies) if latencies else None
    except OverflowError:
        raise ValueError(f"the mean latency of {len(latencies)} drifts is beyond "
                         "the float range") from None
    return DriftVerification(
        all_discover=len(latencies) == len(slots),
        max_latency=max(latencies) if latencies else None,
        mean_latency=mean,
        exhaustive=sample is None,
        drifts_checked=horizon if sample is None else sample,
    )


# --------------------------------------------------------------------------
# Monte-Carlo latency trials
# --------------------------------------------------------------------------


def _words(seed: int, indices: Iterable[int]) -> tuple[int, ...]:
    """SHA-256 of ``seed:index`` as a big-endian integer: each trial's random word."""
    copy = _sha256(b"%d:" % seed).copy  # hash the shared prefix once
    words = []
    for i in indices:
        h = copy()
        h.update(b"%d" % i)
        words.append(int.from_bytes(h.digest(), "big"))
    return tuple(words)


@lru_cache(maxsize=1)
def _trial_words(seed: int, count: int) -> tuple[int, ...]:
    """Words of trials 0..count-1, drawn once and shared by every protocol of a run."""
    return _words(seed, range(count))


def trial_drift(seed: int, index: int, bound: int) -> int:
    """Deterministic drift for one trial, uniform over [0, bound).

    Counter-based (SHA-256 of seed and trial index), so any subset of
    trials can be evaluated in any order and still agree.  The word is drawn
    once per (seed, index) and shared across protocols by :func:`latency_trials`.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    return _words(seed, (index,))[0] % bound


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

    Trial i's drift is ``trial_drift(seed, i, lcm(T_a, T_b))``: its word is
    drawn once per (seed, i), shared across protocols, and reduced by each
    protocol's own horizon.  The exact first discovery with that horizon
    comes analytically for two divisibility schedules (whose hyperperiods
    can make a slot walk infeasible), else from one walk that settles the
    drift classes of all trials.  Identical inputs give identical output.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
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
    lats: Sequence[int] = dist.latencies
    return [(p, bisect_right(lats, p) / dist.trial_count) for p in points]


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
    latency, giving the full step function."""
    yield CDF_CSV_HEADER
    for latency, fraction in cdf(dist, sorted(set(dist.latencies))):
        yield f"{latency},{fraction:.10g}"
