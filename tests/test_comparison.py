"""The paper's comparison as exact phase-0 values: hedis against todis, and every
ordered pair of the five protocols.

Every drift class d mod T_b holds lcm(T_a, T_b) / T_b drifts, so the maximum
and mean over the T_b classes are the maximum and mean over every drift.
Latencies count from slot 0 of node a's period.  The grid was fixed before
its values were known, and every row stays, including 2%/5%, where todis has
the lower mean.
"""

from fractions import Fraction

import pytest

from nbrdisc import simulator
from nbrdisc.numtheory import worst_case_bound
from nbrdisc.protocols import MAX_WORK, PROTOCOL_ORDER, select_params

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


# duty a, duty b (percent) -> protocol a -> one cell per protocol b, in PROTOCOL_ORDER:
# (max, mean numerator, mean denominator); every cell meets at every drift
MATRIX = {
    (10, 25): {
        "disco": [(69, 2172, 77), (57, 557, 25), (114, 523, 16), (114, 845, 28),
                  (152, 37252, 1287)],
        "uconnect": [(6, 25, 11), (4, 43, 25), (6, 31, 16), (6, 2, 1), (52, 37, 11)],
        "searchlight": [(96, 1447, 77), (64, 402, 25), (86, 577, 32), (96, 1147, 56),
                        (128, 21754, 1287)],
        "hedis": [(100, 199, 7), (64, 89, 5), (85, 611, 32), (106, 157, 7), (140, 29048, 1287)],
        "todis": [(81, 220, 7), (58, 121, 5), (81, 229, 8), (108, 241, 7), (162, 4106, 117)],
    },
    (1, 5): {
        "disco": [(5970, 2265776, 1517), (5174, 1257649, 841), (5174, 150579, 128),
                  (7363, 139235, 78), (10244, 5793964, 3477)],
        # uconnect:p=149 wakes in slots 0..74 of its period, and latencies count from
        # slot 0 of node a's: the row measures that origin, not the protocol (ROADMAP item 4)
        "uconnect": [(36, 510, 41), (28, 11473, 841), (30, 635, 64), (38, 38, 3), (56, 840, 59)],
        "searchlight": [(9216, 2785538, 1517), (7168, 1562494, 841), (7454, 283583, 128),
                        (9767, 3329501, 1560), (14336, 20433449, 10797)],
        "hedis": [(7200, 2218701, 1517), (5600, 1281301, 841), (6031, 745305, 512),
                  (7600, 938047, 520), (11000, 327692693, 205143)],
        "todis": [(7525, 2542759, 1517), (5418, 1294825, 841), (5980, 45079, 32),
                  (5940, 869341, 520), (14749, 411741935, 205143)],
    },
    (5, 1): {
        "disco": [(6068, 58801173, 39203), (5032, 38505462, 22201), (9287, 65452555, 32768),
                  (7067, 29839521, 19900), (10804, 4920087401, 2969967)],
        "uconnect": [(5655, 53533007, 39203), (4292, 35404056, 22201), (7366, 58566341, 32768),
                     (5742, 55095461, 39800), (8584, 1014719119, 685377)],
        "searchlight": [(6144, 48799213, 39203), (4736, 38056932, 22201), (8064, 79147015, 32768),
                        (9216, 8016096, 4975), (9184, 38214359555, 26729703)],
        "hedis": [(7760, 68725069, 39203), (5720, 41386218, 22201), (16000, 9782341, 4096),
                  (7758, 14633957, 7960), (11760, 49572447212, 26729703)],
        "todis": [(9263, 65661777, 39203), (7375, 43774762, 22201), (11859, 35469437, 16384),
                  (9204, 66566467, 39800), (13794, 44952087707, 26729703)],
    },
}
# the cells with no co-prime anchor pair: no bound, so meeting is shown exhaustively only
EXHAUSTIVE_ONLY = {
    (10, 25): {("hedis", "uconnect"), ("hedis", "searchlight"), ("hedis", "hedis"),
               ("searchlight", "searchlight"), ("searchlight", "hedis")},
    (1, 5): {("hedis", "searchlight"), ("hedis", "hedis"), ("searchlight", "searchlight"),
             ("searchlight", "hedis")},
    (5, 1): {("hedis", "searchlight"), ("hedis", "hedis"), ("searchlight", "searchlight"),
             ("searchlight", "hedis")},
}


def test_every_protocol_pair_over_every_drift_class():
    for duties, rows in MATRIX.items():
        assert list(rows) == list(PROTOCOL_ORDER)
        nodes = [{p: select_params(p, Fraction(d, 100)).params for p in PROTOCOL_ORDER}
                 for d in duties]
        unbounded = set()
        for pa, row in rows.items():
            for pb, (peak, *mean) in zip(PROTOCOL_ORDER, row, strict=True):
                a, b = nodes[0][pa], nodes[1][pb]
                cell = _max_and_mean(simulator._profile(a, b, MAX_WORK))
                assert cell == (peak, Fraction(*mean)), (duties, pa, pb)
                bound = worst_case_bound(a.rendezvous, b.rendezvous)
                if bound is None:
                    unbounded.add((pa, pb))
                else:
                    assert peak <= bound, (duties, pa, pb)
        assert unbounded == EXHAUSTIVE_ONLY[duties]
