"""The paper's headline comparison, hedis against todis, as exact phase-0 values.

Every drift class d mod T_b holds lcm(T_a, T_b) / T_b drifts, so the maximum
and mean over the T_b classes are the maximum and mean over every drift.
Latencies count from slot 0 of node a's period.  The grid was fixed before
its values were known, and every row stays, including 2%/5%, where todis has
the lower mean.
"""

from fractions import Fraction

import pytest

from nbrdisc import protocols, simulator
from nbrdisc.protocols import select_params

# duty a, duty b (percent) -> (hedis max, hedis mean), (todis max, todis mean)
PHASE0_TABLE = {
    (1, 5): ((7600, Fraction(938047, 520)), (14749, Fraction(411741935, 205143))),
    (1, 10): ((3600, Fraction(130413, 190)), (5418, Fraction(722666, 783))),
    (5, 5): ((1480, Fraction(9491, 20)), (1710, Fraction(103599188, 205143))),
    (2, 5): ((3738, Fraction(1389071, 1560)), (6174, Fraction(173088040, 205143))),
}


def _max_and_mean(slots):
    assert None not in slots  # every drift discovers
    return max(slots), Fraction(sum(slots), len(slots))


@pytest.mark.parametrize(
    "duties", list(PHASE0_TABLE), ids=[f"{a}%-{b}%" for a, b in PHASE0_TABLE]
)
def test_hedis_against_todis_over_every_drift_class(duties):
    delta_a, delta_b = (Fraction(d, 100) for d in duties)
    hedis_a = select_params("hedis", delta_a).params
    hedis_b = select_params("hedis", delta_b).params
    a, b = protocols.build_schedule(hedis_a), protocols.build_schedule(hedis_b)
    hedis = list(simulator._sweep(a, b, range(b.period)).values())

    todis_a = select_params("todis", delta_a).params
    todis_b = select_params("todis", delta_b).params
    todis = simulator._analytic_latency(
        todis_a.divisors, todis_b.divisors, range(todis_b.period)
    )
    assert len(hedis) == b.period and len(todis) == todis_b.period
    assert (_max_and_mean(hedis), _max_and_mean(todis)) == PHASE0_TABLE[duties]
    # verify, the engine behind every column of README's comparison, agrees
    for pair, (peak, mean) in zip([(hedis_a, hedis_b), (todis_a, todis_b)], PHASE0_TABLE[duties]):
        result = simulator.verify_all_drifts(*pair)
        assert (result.max_latency, result.mean_latency) == (peak, float(mean))
