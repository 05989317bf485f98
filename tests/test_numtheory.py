"""gcd/lcm, the congruence-pair solver and rendezvous bounds."""

import pytest

from nbrdisc.numtheory import (
    coprime_pair_property,
    gcd,
    lcm,
    primes_up_to,
    solve_congruence_pair,
    worst_case_bound,
)


def test_gcd_values():
    assert gcd(33, 75) == 3
    assert gcd(35, 77) == 7
    assert gcd(17, 1) == 1
    assert gcd(0, 5) == 5


def test_gcd_rejects_double_zero():
    with pytest.raises(ValueError):
        gcd(0, 0)


def test_lcm_values():
    assert lcm(6, 9) == 18
    assert lcm(7, 7) == 7
    assert lcm(12, 30) == 60


def test_lcm_rejects_nonpositive():
    with pytest.raises(ValueError):
        lcm(0, 3)
    with pytest.raises(ValueError):
        lcm(3, -1)


def test_solve_congruence_pair_examples():
    sol = solve_congruence_pair(0, 4, 0, 6)
    assert sol.solvable and sol.base == 0 and sol.modulus == 12

    assert not solve_congruence_pair(2, 4, 3, 6).solvable

    sol = solve_congruence_pair(1, 3, 2, 5)
    assert sol.solvable and sol.base == 7 and sol.modulus == 15


def test_solve_congruence_pair_normalizes_residues():
    # -d style residues and residues above the modulus behave like their
    # canonical representatives.
    a = solve_congruence_pair(-2, 5, 13, 6)
    b = solve_congruence_pair(3, 5, 1, 6)
    assert a == b


def test_solve_congruence_pair_truthiness():
    assert solve_congruence_pair(0, 3, 0, 5)
    assert not solve_congruence_pair(1, 2, 0, 2)


def test_coprime_pair_property():
    assert not coprime_pair_property({33, 35}, {75, 77})
    assert coprime_pair_property({13, 15, 17}, {13, 15, 17})
    assert not coprime_pair_property(
        {1600023, 1600025, 1600027}, {2046915, 2046917, 2046919}
    )


def test_coprime_pair_property_rejects_empty():
    with pytest.raises(ValueError):
        coprime_pair_property(set(), {3})
    with pytest.raises(ValueError):
        coprime_pair_property({3}, set())


def test_worst_case_bound():
    assert worst_case_bound({5, 7}, {5, 11}) == 35
    assert worst_case_bound({1}, {42}) == 42
    assert worst_case_bound({33, 35}, {75, 77}) is None


def test_worst_case_bound_symmetry():
    pairs = [({5, 7}, {5, 11}), ({3, 5, 7}, {5, 7, 9}), ({33, 35}, {75, 77})]
    for na, nb in pairs:
        assert worst_case_bound(na, nb) == worst_case_bound(nb, na)


def test_coprime_singletons_always_solvable():
    # For co-prime p, q the rendezvous congruences have a solution at every
    # drift, and the bound is exactly p*q.
    for p, q in [(3, 5), (7, 11), (13, 4)]:
        assert worst_case_bound({p}, {q}) == p * q
        for d in range(p * q):
            assert solve_congruence_pair(0, p, -d, q).solvable


def test_primes_up_to():
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(2) == [2]
    assert len(primes_up_to(1000)) == 168
    with pytest.raises(ValueError):
        primes_up_to(1)
