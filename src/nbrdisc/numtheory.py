"""Integer machinery behind co-primality rendezvous.

The heart of the module is :func:`solve_congruence_pair`, a two-congruence
solver that also handles non-coprime moduli: ``x = a (mod m)``, ``x = b
(mod n)`` is solvable iff ``gcd(m, n)`` divides ``a - b``, and the solution
is then unique modulo ``lcm(m, n)``.  The rest is supporting material:
gcd/lcm wrappers, the co-prime pair property between two integer sets, the
worst-case rendezvous bound (smallest product over co-prime cross pairs)
and a prime sieve used to build parameter pools.

All functions are pure; Python's arbitrary-precision integers make overflow
a non-issue even for products of very large schedule periods.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two non-negative integers (not both zero)."""
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


def lcm(a: int, b: int) -> int:
    """Least common multiple of two positive integers."""
    if a < 1 or b < 1:
        raise ValueError(f"lcm needs positive integers, got ({a}, {b})")
    return a // math.gcd(a, b) * b


class CongruenceSolution(NamedTuple):
    """Solution class of a pair of simultaneous congruences.

    When ``solvable``, the full solution set is ``{base + j * modulus}``
    with ``0 <= base < modulus`` and ``modulus = lcm`` of the two input
    moduli.  When not solvable, ``base`` and ``modulus`` carry no meaning
    and must not be read.
    """

    base: int
    modulus: int
    solvable: bool

    def __bool__(self) -> bool:
        return self.solvable


_UNSOLVABLE = CongruenceSolution(0, 0, False)


def solve_congruence_pair(a: int, m: int, b: int, n: int) -> CongruenceSolution:
    """Solve ``x = a (mod m)`` and ``x = b (mod n)`` for arbitrary moduli.

    The moduli need not be co-prime: the pair is solvable iff ``gcd(m, n)``
    divides ``a - b``.  Residues may be any integers; they are normalized
    first.  An unsolvable pair is a normal return value, not an error.
    """
    if m < 1 or n < 1:
        raise ValueError(f"moduli must be positive, got ({m}, {n})")
    a %= m
    b %= n
    g = math.gcd(m, n)
    if (a - b) % g:
        return _UNSOLVABLE
    modulus = m // g * n
    # x = a + m*t with m*t = b - a (mod n); divide the congruence by g and invert the
    # now co-prime factor m/g modulo n/g.  As 0 <= a < m and 0 <= t < n/g, x < modulus.
    t = ((b - a) // g * pow(m // g, -1, n // g)) % (n // g)
    return CongruenceSolution(a + m * t, modulus, True)


def coprime_pair_property(na: Iterable[int], nb: Iterable[int]) -> bool:
    """True iff some element of ``na`` is co-prime to some element of ``nb``."""
    xs, ys = set(na), set(nb)
    if not xs or not ys:
        raise ValueError("co-prime pair property needs two non-empty sets")
    return any(math.gcd(x, y) == 1 for x in xs for y in ys)


def worst_case_bound(na: Iterable[int], nb: Iterable[int]) -> Optional[int]:
    """Smallest product ``x * y`` over co-prime cross pairs, or ``None``.

    ``None`` means no cross pair is co-prime, so rendezvous between
    divisibility schedules built from these sets is unbounded.
    """
    xs, ys = set(na), set(nb)
    if not xs or not ys:
        raise ValueError("worst_case_bound needs two non-empty sets")
    return min(
        (x * y for x in xs for y in ys if math.gcd(x, y) == 1),
        default=None,
    )


def primes_up_to(limit: int) -> list[int]:
    """All primes <= ``limit`` in ascending order (Eratosthenes)."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, limit + 1) if sieve[p]]
