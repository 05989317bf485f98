"""The paper's headline comparison, hedis against todis, as exact phase-0 values.

Every drift class d mod T_b holds lcm(T_a, T_b) / T_b drifts, so the maximum
and mean over the T_b classes are the maximum and mean over every drift.
Latencies count from slot 0 of node a's period.  The grid was fixed before
its values were known, and every row stays, including 2%/5%, where todis has
the lower mean.
"""

from fractions import Fraction

import pytest

from nbrdisc import simulator
from nbrdisc.protocols import MAX_WORK, select_params

# duty a, duty b (percent) -> (hedis max, hedis mean), (todis max, todis mean)
PHASE0_TABLE = {
    (1, 5): ((7600, Fraction(938047, 520)), (14749, Fraction(411741935, 205143))),
    (1, 10): ((3600, Fraction(130413, 190)), (5418, Fraction(722666, 783))),
    (5, 5): ((1480, Fraction(9491, 20)), (1710, Fraction(103599188, 205143))),
    (2, 5): ((3738, Fraction(1389071, 1560)), (6174, Fraction(173088040, 205143))),
}


def _max_and_mean(profile):
    assert None not in profile  # every drift discovers
    return max(profile), Fraction(sum(t * k for t, k in profile.items()), sum(profile.values()))


@pytest.mark.parametrize(
    "duties", list(PHASE0_TABLE), ids=[f"{a}%-{b}%" for a, b in PHASE0_TABLE]
)
def test_hedis_against_todis_over_every_drift_class(duties):
    # each protocol's count of b's drift classes per first meeting, from the
    # profile exhaustive verify reads
    pairs = [[select_params(protocol, Fraction(d, 100)).params for d in duties]
             for protocol in ("hedis", "todis")]
    profiles = [simulator._profile(a, b, MAX_WORK) for a, b in pairs]
    assert [sum(p.values()) for p in profiles] == [b.period for _, b in pairs]
    assert tuple(map(_max_and_mean, profiles)) == PHASE0_TABLE[duties]
    # verify, the engine behind every column of README's comparison, agrees
    for pair, (peak, mean) in zip(pairs, PHASE0_TABLE[duties]):
        result = simulator.verify_all_drifts(*pair)
        assert (result.max_latency, result.mean_latency) == (peak, float(mean))
