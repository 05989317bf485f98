"""End-to-end acceptance gate.

One test per criterion, each printing a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  The expensive
checks (exhaustive drift scans, the full congruence oracle, the 1000-trial
simulation matrix) live here rather than in the unit modules.
"""

import random
import time
from fractions import Fraction

from nbrdisc.granularity import relative_error, sweep, todis_error_upper_bound
from nbrdisc.numtheory import (
    coprime_pair_property,
    gcd,
    lcm,
    solve_congruence_pair,
    worst_case_bound,
)
from nbrdisc.protocols import (
    HedisParams,
    SelectionOptions,
    TodisParams,
    coprimality_schedule,
    select_params,
)
from nbrdisc.schedule import duty_cycle, make_schedule
from nbrdisc.simulator import (
    DriftedPair,
    first_discovery,
    first_discovery_analytic,
    latency_trials,
    verify_all_drifts,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_example_pair_discovery():
    a = make_schedule(6, [5])
    b = make_schedule(9, [1, 8])
    first_discovery(DriftedPair(a, b, 0), horizon=18)  # warm up

    start = time.perf_counter()
    aligned = first_discovery(DriftedPair(a, b, 0), horizon=18)
    drifted = first_discovery(DriftedPair(a, b, 1), horizon=18)
    elapsed_ms = (time.perf_counter() - start) * 1000
    ok = (
        aligned.found
        and aligned.slot == 17
        and not drifted.found
        and elapsed_ms < 1.0
    )
    _report(
        1,
        ok,
        f"pair (6,{{5}})/(9,{{1,8}}) meets at slot 17, one-slot drift never "
        f"meets within 18 slots ({elapsed_ms:.3f} ms)",
    )


def test_criterion_02_hedis_construction():
    ok = True
    for n in range(3, 301):
        s = HedisParams(n).build()
        if duty_cycle(s) != Fraction(2, n) or len(s.active) != 2 * (n - 1):
            ok = False
            break
    _report(2, ok, "hedis duty cycle is exactly 2/n with 2(n-1) active slots for n in [3, 300]")


def test_criterion_03_todis_duty_formula():
    ok = True
    for n in range(5, 100, 2):
        s = TodisParams(n).build()
        period = (n - 2) * n * (n + 2)
        count = len(s.active)  # enumerated union of multiples over the full period
        if s.period != period or count * (n * (n * n - 4)) != 3 * (n * n - n - 1) * period:
            ok = False
            break
    _report(3, ok, "todis active-slot count matches 3(n^2-n-1)/(n(n^2-4)) exactly for odd n in [5, 99]")


def test_criterion_04_counterexample_sets():
    small = ({33, 35}, {75, 77})
    large = (
        {1600023, 1600025, 1600027},
        {2046915, 2046917, 2046919},
    )
    coprime_pair_property(*small)  # warm up

    start = time.perf_counter()
    ok = not coprime_pair_property(*small) and not coprime_pair_property(*large)
    for na, nb in (small, large):
        for x in na:
            for y in nb:
                ok = ok and gcd(x, y) > 1
    elapsed_ms = (time.perf_counter() - start) * 1000
    ok = ok and elapsed_ms < 1.0
    _report(4, ok, f"both consecutive-odd counterexamples fail the co-prime pair property; all nine gcds > 1 ({elapsed_ms:.3f} ms)")


def test_criterion_05_todis_bound_curve():
    at20 = todis_error_upper_bound(Fraction(1, 5))
    at10 = todis_error_upper_bound(Fraction(1, 10))
    ratio = todis_error_upper_bound(Fraction(1, 100)) / (0.01 / 3.0)
    values = [todis_error_upper_bound(Fraction(k, 100)) for k in range(1, 51)]
    monotone = all(x < y for x, y in zip(values, values[1:]))
    ok = (
        abs(at20 - 0.0671) <= 0.0005
        and at10 <= 0.0334 + 0.0005
        and monotone
        and 0.85 <= ratio <= 1.15
    )
    _report(
        5,
        ok,
        f"envelope at 20% = {at20:.4f}, at 10% = {at10:.4f}, monotone on (0, 0.5], "
        f"small-duty ratio to delta/3 = {ratio:.3f}",
    )


def test_criterion_06_bound_dominance():
    # The envelope describes the unbounded odd-parameter family, so lift the
    # default search cap enough to cover the smallest sampled duty cycle
    # (0.1% needs n around 3000).
    options = SelectionOptions(todis_max_n=3501)
    worst_gap = -1.0
    ok = True
    for i in range(1, 201):
        delta = Fraction(i, 1000)  # 200 samples over (0, 0.2]
        measured = float(relative_error("todis", delta, options).relative_error)
        envelope = todis_error_upper_bound(delta)
        worst_gap = max(worst_gap, measured - envelope)
        if measured > envelope + 1e-9:
            ok = False
            break
    _report(6, ok, f"measured todis error never exceeds the envelope over 200 samples in (0, 0.2] (worst gap {worst_gap:.2e})")


def test_criterion_07_hedis_drift_guarantee():
    pairs = [(n, m) for ns in ((4, 6, 8, 10), (5, 7, 9, 11)) for n in ns for m in ns]
    ok = True
    detail = ""
    for n, m in pairs:
        result = verify_all_drifts(HedisParams(n).build(), HedisParams(m).build())
        if not (result.all_discover and result.mean_latency <= 4 * n * m):
            ok = False
            detail = f"pair ({n}, {m}) failed: {result}"
            break
    _report(7, ok, detail or "all same-parity pairs discover at every drift with mean latency <= 4nm")


def test_criterion_08_congruence_oracle():
    checked = 0
    ok = True
    for m in range(1, 31):
        for n in range(1, 31):
            modulus = lcm(m, n)
            table = {}
            for x in range(modulus):
                table.setdefault((x % m, x % n), x)
            for a in range(m):
                for b in range(n):
                    sol = solve_congruence_pair(a, m, b, n)
                    expected = table.get((a, b))
                    checked += 1
                    if expected is None:
                        ok = ok and not sol.solvable
                    else:
                        ok = ok and sol.solvable and sol.base == expected and sol.modulus == modulus
                    if not ok:
                        _report(8, False, f"mismatch at a={a} m={m} b={b} n={n}")
    _report(8, ok, f"solver matches exhaustive search on {checked} congruence pairs (moduli <= 30)")


def test_criterion_09_analytic_equals_scan():
    rng = random.Random(20260809)
    checked = 0
    ok = True
    while checked < 500:
        na = {rng.randint(2, 60) for _ in range(rng.randint(1, 3))}
        nb = {rng.randint(2, 60) for _ in range(rng.randint(1, 3))}
        a = coprimality_schedule(na)
        b = coprimality_schedule(nb)
        horizon = lcm(a.period, b.period)
        if horizon > 10**5:
            continue
        d = rng.randrange(horizon)
        if first_discovery_analytic(na, nb, d) != first_discovery(DriftedPair(a, b, d)):
            ok = False
            break
        checked += 1
    _report(9, ok, f"analytic and scanned first discovery agree on {checked} random divisibility configs")


def test_criterion_10_simulation_matrix():
    scenarios = [
        (Fraction(1, 100), Fraction(1, 20)),
        (Fraction(1, 100), Fraction(1, 10)),
        (Fraction(1, 20), Fraction(1, 20)),
        (Fraction(1, 100), Fraction(1, 100)),
    ]
    protocols = ("disco", "uconnect", "searchlight", "hedis", "todis")
    ok = True
    detail = ""
    runs = 0
    start = time.perf_counter()
    for delta_a, delta_b in scenarios:
        for protocol in protocols:
            cfg_a = select_params(protocol, delta_a)
            cfg_b = select_params(protocol, delta_b)
            dist = latency_trials(cfg_a, cfg_b, 1000, seed=20260809)
            runs += 1
            if dist.undiscovered_count != 0:
                ok = False
                detail = f"{protocol} at {delta_a}/{delta_b}: {dist.undiscovered_count} undiscovered"
                break
            set_a, set_b = cfg_a.params.rendezvous, cfg_b.params.rendezvous
            if set_a is not None and set_b is not None and coprime_pair_property(set_a, set_b):
                bound = worst_case_bound(set_a, set_b)
                if max(dist.latencies) > bound:
                    ok = False
                    detail = f"{protocol} at {delta_a}/{delta_b}: latency {max(dist.latencies)} > bound {bound}"
                    break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300
    _report(
        10,
        ok,
        detail
        or f"{runs} x 1000 trials all discover; co-primality latencies within the rendezvous bound ({elapsed:.1f} s)",
    )


def test_criterion_11_granularity_ordering():
    deltas = [Fraction(1, k) for k in range(3, 101)]
    records = sweep(["hedis", "todis", "disco", "searchlight"], deltas)
    by_protocol = {}
    for rec in records:
        by_protocol.setdefault(rec.protocol, []).append(rec)
    hedis_zero = all(rec.relative_error == 0 for rec in by_protocol["hedis"])
    means = {
        name: sum(rec.relative_error for rec in recs) / len(recs)
        for name, recs in by_protocol.items()
    }
    ok = hedis_zero and means["todis"] < means["disco"] < means["searchlight"]
    _report(
        11,
        ok,
        "reciprocal sweep: hedis error is identically 0; mean errors "
        f"todis {float(means['todis']):.4f} < disco {float(means['disco']):.4f} "
        f"< searchlight {float(means['searchlight']):.4f}",
    )


def test_criterion_12_simulate_determinism(tmp_path):
    from nbrdisc.cli import main

    args = [
        "simulate",
        "--protocols",
        "all",
        "--delta-a",
        "5%",
        "--delta-b",
        "5%",
        "--trials",
        "50",
        "--seed",
        "31337",
        "--out",
        str(tmp_path / "sim"),
    ]
    names = [
        f"{proto}_{kind}.csv"
        for proto in ("disco", "uconnect", "searchlight", "hedis", "todis")
        for kind in ("trials", "cdf")
    ]
    assert main(args) == 0
    first = {n: (tmp_path / "sim" / n).read_bytes() for n in names}
    assert main(args) == 0
    second = {n: (tmp_path / "sim" / n).read_bytes() for n in names}
    ok = first == second
    _report(12, ok, f"rerunning simulate with the same seed reproduces all {len(names)} CSVs byte for byte")
