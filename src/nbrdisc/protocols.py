"""Schedule generators and duty-cycle parameter selection for five
asynchronous neighbor-discovery protocols.

Two construction families share the machinery here.  Divisibility
("co-primality") schedules wake in every slot whose index is a multiple of
one of the node's chosen integers, so rendezvous between two nodes reduces
to solving a congruence pair: disco uses two distinct primes, todis three
consecutive odd integers n-2, n, n+2.  Grid ("quorum") schedules mix fixed
anchor slots with probing slots that sweep offsets: hedis places anchors at
multiples of n and probes at (n+1)*i + 1 inside an n*(n-1) period, uconnect
combines a prime stride with a half-row of consecutive slots per p**2
hyperperiod, and searchlight strides anchors t**i apart with one striped
probe per sub-period.

Each protocol is described in one place, its ``*Params`` class, which
declares its wake slots once as a union of ``ranges()``, and listed in the
:data:`PROTOCOLS` registry; callers ask the parameter value for its ``build()``,
``wake_slots(stop)``, ``period``, ``duty``, ``divisors`` and ``rendezvous`` set.

:func:`select_params` picks, for a requested duty cycle, the protocol
parameter whose achieved duty cycle lies closest.  All comparisons are
exact, in integers, so near-ties resolve identically everywhere.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_left
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Callable, ClassVar, Iterable, NamedTuple, Optional, Sequence

from .numtheory import primes_up_to
from .schedule import Frozen, Schedule

# Primes searched by the disco and uconnect selectors: keeps searched
# periods desk-sized while comfortably covering duty cycles down to 1%.
PRIME_POOL_LIMIT = 10_000

# Largest wake-slot count, by the bound sum(len) over its ranges, that _union
# builds; the largest selectable schedule, todis n=1201, holds about 4.3 million.
MAX_WAKE_SLOTS = 10**7

# Default work guard of exhaustive verification: its engine's price, and a walk's probes.
MAX_WORK = 10**8

# Most decimal digits of a parameter, period or printed value (Python's default str limit).
MAX_DIGITS = 4300
_DIGIT_BOUND = 10**MAX_DIGITS

# Largest decimal exponent of a duty cycle's text (Fraction builds 10**exponent).
MAX_EXPONENT = 10**6


class ParameterError(ValueError):
    """Protocol parameter outside its legal range or its build cap."""


class SelectionError(ValueError):
    """No parameter in the search pool approximates the requested duty cycle."""


class NotationError(ValueError):
    """Malformed textual parameter notation."""


class ScanBudgetError(ValueError):
    """Exhaustive drift verification exceeded its work guard or class cap."""


# Miller-Rabin with these 13 prime bases decides primality exactly below
# PRIME_TEST_LIMIT (OEIS A014233; Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises :class:`ParameterError` from
    :data:`PRIME_TEST_LIMIT` up, where its bases stop being exact."""
    if n >= PRIME_TEST_LIMIT:
        raise ParameterError(
            f"{_text(n)} is too large to test for primality (limit {PRIME_TEST_LIMIT})"
        )
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _fits_str(n: int) -> bool:
    """Whether ``n`` has at most :data:`MAX_DIGITS` decimal digits."""
    return -_DIGIT_BOUND < n < _DIGIT_BOUND


@lru_cache(maxsize=8)
def decimal_text(value: Fraction) -> str:
    """``value`` to 12 significant digits from its exact value, no trailing zeros.

    Linear in the size of ``value``: integer division cuts the quotient to
    15-17 digits, and a last, sticky digit is 1 when it left a remainder, so
    rounding those digits to 12 rounds the exact value.
    """
    n, d = abs(value.numerator), value.denominator
    # log10(n/d) lies within one bit of this estimate, so q gets 16 digits give or take one
    k = 15 - (n.bit_length() - d.bit_length()) * 30103 // 100000
    q, r = divmod(n * 10**k, d) if k >= 0 else divmod(n, d * 10**-k)
    ctx = Context(prec=12, Emax=MAX_EMAX, Emin=MIN_EMIN)
    quotient = Decimal(10 * q + (r != 0)).scaleb(-k - 1, ctx)
    return ("-" if value < 0 else "") + format(quotient.normalize(ctx), ".12g")


def format_rational(value) -> str:
    """Decimal rendering with 12 significant digits.

    A ``Fraction`` is rendered from its correctly rounded integer quotient,
    which equals ``float(value)``.  A nonzero fraction outside the float
    range, which rounds to 0 or overflows, is rendered from its exact value
    instead, without trailing zeros as on the float path.
    """
    try:
        x = value.numerator / value.denominator if isinstance(value, Fraction) else float(value)
        if x or not value:
            return f"{x:.12g}"
    except OverflowError:
        pass
    return decimal_text(value)


def escape_error(message: str) -> str:
    """Error message safe in one quoted CSV cell: ',' -> ';' and '"' -> "'"."""
    return message.replace(",", ";").replace('"', "'")


def _text(value: Fraction) -> str:
    """``str(value)``, or :func:`decimal_text` where a part passes :data:`MAX_DIGITS`."""
    if _fits_str(value.numerator) and _fits_str(value.denominator):
        return str(value)
    return decimal_text(value)


def check_count(what: str, count: int) -> None:
    """Refuse a ``what`` count outside [1, :data:`MAX_WAKE_SLOTS`] with a ``ValueError``."""
    if not 1 <= count <= MAX_WAKE_SLOTS:
        bound = ">= 1" if count < 1 else f"<= {MAX_WAKE_SLOTS}"
        raise ValueError(f"{what} must be {bound}, got {count}")


def _union(what: str, ranges: Iterable[range]) -> frozenset[int]:
    """The union of ``ranges``; raises :class:`ParameterError`, before building
    anything, when their lengths sum past :data:`MAX_WAKE_SLOTS` (a slot shared
    by two ranges counts twice)."""
    cap = MAX_WAKE_SLOTS + 1  # a slice keeps len() below sys.maxsize
    ranges = [r[:cap] for r in ranges]
    if sum(map(len, ranges)) > MAX_WAKE_SLOTS:
        raise ParameterError(f"{what} has over {MAX_WAKE_SLOTS} wake slots")
    return frozenset().union(*ranges)


def coprimality_schedule(divisors: Iterable[int]) -> Schedule:
    """Divisibility schedule: slot t is active iff some divisor divides t.

    The period is the lcm of the divisors; the duty cycle follows the
    inclusion-exclusion sum over the divisor subsets.  Capped by :func:`_union`.
    """
    ds = sorted(set(divisors))
    if not ds:
        raise ValueError("coprimality schedule needs at least one divisor")
    if ds[0] < 1:
        raise ValueError(f"divisors must be positive, got {ds[0]}")
    period = math.lcm(*ds)
    return Schedule(period, _union("coprimality schedule", (range(0, period, d) for d in ds)))


@lru_cache(maxsize=None)
def _prime_pool() -> tuple[int, ...]:
    return tuple(primes_up_to(PRIME_POOL_LIMIT))


def _closest(keys: Sequence, ratio: Callable, delta: Fraction, *, tie_to_later: bool = False):
    """The key whose duty cycle ``ratio(key)`` lies closest to ``delta``.

    ``keys`` must be ordered by strictly falling duty.  Bisects for the
    first key at or below ``delta`` and compares it with the one before it,
    exactly and in integers; a tie goes to the earlier key unless
    ``tie_to_later``.
    """
    num, den = delta.numerator, delta.denominator

    def at_or_below(key) -> bool:
        a, b = ratio(key)
        return a * den <= num * b

    n, i = len(keys), bisect_left(keys, True, key=at_or_below)
    if i == 0 or i == n:
        return keys[min(i, n - 1)]
    (a0, b0), (a1, b1) = ratio(keys[i - 1]), ratio(keys[i])
    # both errors scaled by den * b0 * b1 > 0
    above, below = (a0 * den - num * b0) * b1, (num * b1 - a1 * den) * b0
    return keys[i] if below < above or (below == above and tie_to_later) else keys[i - 1]


# bounded, yet above the 3,055 candidates of the disco, uconnect and todis pools
@lru_cache(maxsize=4096)
def _chosen(cls: type[ProtocolParams], values: tuple) -> tuple[ProtocolParams, Fraction]:
    """The parameter value with field ``values`` and its exact duty cycle, built once."""
    if not all(map(_fits_str, values)):
        raise SelectionError(
            f"{cls.name} needs a parameter of more than {MAX_DIGITS} "
            "digits, beyond the integer string limit"
        )
    return cls(*values), Fraction(*cls.ratio(*values))


# --------------------------------------------------------------------------
# Protocols: one immutable value class each, validated on construction
# --------------------------------------------------------------------------


class ProtocolParams(Frozen):
    """Base of the five parameter classes; each subclass is one protocol.

    A subclass is an immutable :class:`~nbrdisc.schedule.Frozen` value
    whose fields are the protocol's parameters in notation order, named by
    its ``__match_args__``.  It provides ``name``, the ``period`` implied by
    its parameters, ``ranges()`` (its wake slots in one period), the
    staticmethod ``ratio(*fields)`` giving its duty cycle as an integer pair
    (numerator, denominator) and the classmethod ``pick(delta, options)``
    giving the field values whose duty cycle lies closest to ``delta``.
    ``duty`` is the exact duty cycle from ``ratio``.  From ``ranges()`` come
    ``build()`` and ``wake_slots(stop)``, capped at :data:`MAX_WAKE_SLOTS`,
    and ``rendezvous``, the steps x of the anchor ranges, those equal to
    ``range(0, period, x)``: two nodes with co-prime anchor steps x, y meet
    within x*y slots from any start.  ``divisors`` is that set when every
    range is an anchor (disco and todis), else None.
    """

    __slots__ = ()
    name: ClassVar[str]

    @property
    def duty(self) -> Fraction:
        return Fraction(*self.ratio(*self._values()))

    def _is_anchor(self, r: range) -> bool:
        return r == range(0, self.period, r.step)

    @property
    def rendezvous(self) -> frozenset[int]:
        return frozenset(r.step for r in self.ranges() if self._is_anchor(r))

    @property
    def divisors(self) -> Optional[frozenset[int]]:
        ranges = self.ranges()
        return frozenset(r.step for r in ranges) if all(map(self._is_anchor, ranges)) else None

    def build(self) -> Schedule:
        return Schedule(self.period, _union(format_params(self), self.ranges()))

    def wake_slots(self, stop: int) -> list[int]:
        """The sorted wake slots of one period below ``stop``, without building it."""
        if not _fits_str(self.period):
            raise ParameterError(f"{self.name} period passes the integer string limit")
        cut = (range(r.start, min(r.stop, stop), r.step) for r in self.ranges())
        return sorted(_union(format_params(self), cut))


class DiscoParams(ProtocolParams):
    """disco: wake at every multiple of two distinct primes p1, p2."""

    __slots__ = __match_args__ = ("p1", "p2")
    name = "disco"

    def __init__(self, p1: int, p2: int) -> None:
        if p1 == p2:
            raise ParameterError(f"disco needs distinct primes, got {p1} twice")
        for p in (p1, p2):
            if not _is_prime(p):
                raise ParameterError(f"disco parameter {p} is not prime")
        super().__init__(p1, p2)

    @property
    def period(self) -> int:
        return self.p1 * self.p2

    def ranges(self) -> tuple[range, ...]:
        return range(0, self.period, self.p1), range(0, self.period, self.p2)

    @staticmethod
    def ratio(p1: int, p2: int) -> tuple[int, int]:
        return p1 + p2 - 1, p1 * p2

    @classmethod
    def pick(cls, delta: Fraction, options: SelectionOptions) -> tuple[int, int]:
        # disco runs balanced: each node pairs a prime with the next one, so
        # the granularity is limited by the prime gaps.  Ties go to the
        # larger pair.
        primes = _prime_pool()
        i = _closest(
            range(len(primes) - 1), lambda i: cls.ratio(primes[i], primes[i + 1]), delta,
            tie_to_later=True,
        )
        return primes[i], primes[i + 1]


class UConnectParams(ProtocolParams):
    """uconnect: multiples of an odd prime p plus a half-row per p**2 slots.

    The half-row is the first (p+1)/2 slots; slot 0 is also a multiple of
    p and counts once, so the duty cycle is (3p - 1) / (2 p**2).
    """

    __slots__ = __match_args__ = ("p",)
    name = "uconnect"

    def __init__(self, p: int) -> None:
        if p == 2 or not _is_prime(p):
            raise ParameterError(f"uconnect needs an odd prime, got {p}")
        super().__init__(p)

    @property
    def period(self) -> int:
        return self.p * self.p

    def ranges(self) -> tuple[range, ...]:
        return range(0, self.period, self.p), range((self.p + 1) // 2)

    @staticmethod
    def ratio(p: int) -> tuple[int, int]:
        return 3 * p - 1, 2 * p * p

    @classmethod
    def pick(cls, delta: Fraction, options: SelectionOptions) -> tuple[int]:
        primes = _prime_pool()  # index 0 holds 2, which uconnect refuses
        return (primes[_closest(range(1, len(primes)), lambda i: cls.ratio(primes[i]), delta)],)


class SearchlightParams(ProtocolParams):
    """searchlight: anchors every T = t**i slots plus one striped probe each.

    The period holds ceil(T/2) sub-periods of length T; sub-period j wakes
    at its anchor j*T and 1 + j past it, sweeping every offset a probe may
    need to meet a drifted neighbor.  The duty cycle is 2/T.
    """

    __slots__ = __match_args__ = ("t", "i")
    name = "searchlight"

    def __init__(self, t: int, i: int) -> None:
        if t < 2:
            raise ParameterError(f"searchlight needs t >= 2, got {t}")
        if i < 1:
            raise ParameterError(f"searchlight needs i >= 1, got {i}")
        # t**i >= 2**((t.bit_length() - 1) * i), past 10**MAX_DIGITS from 4 * MAX_DIGITS bits
        if (t.bit_length() - 1) * i > 4 * MAX_DIGITS or not _fits_str(t**i):
            raise ParameterError(f"searchlight stride {t}**{i} passes the integer string limit")
        super().__init__(t, i)

    @property
    def period(self) -> int:
        stride = self.t**self.i
        return stride * ((stride + 1) // 2)

    def ranges(self) -> tuple[range, ...]:
        # sub-period j wakes at j*stride and 1 + j past it: j*(stride+1) + 1
        stride = self.t**self.i
        return range(0, self.period, stride), range(1, self.period, stride + 1)

    @staticmethod
    def ratio(t: int, i: int) -> tuple[int, int]:
        return 2, t**i

    @classmethod
    def pick(cls, delta: Fraction, options: SelectionOptions) -> tuple[int, int]:
        # t**i >= 2**(b*i) > 2/delta once b*i, b = t.bit_length() - 1, reaches the
        # bit length of 2/delta, so no stride tried passes about (2*t/delta)**2
        t = options.searchlight_t
        top = -(-(2 * delta.denominator // delta.numerator).bit_length() // (t.bit_length() - 1))
        return t, _closest(range(1, top + 2), lambda i: cls.ratio(t, i), delta)


class HedisParams(ProtocolParams):
    """hedis: anchors at multiples of n, probes at (n+1)*i + 1, period n*(n-1).

    The probes (i in [0, n-2]) never collide with the anchors, so exactly
    2*(n-1) slots are active per period: duty cycle 2/n.
    """

    __slots__ = __match_args__ = ("n",)
    name = "hedis"

    def __init__(self, n: int) -> None:
        if n < 3:
            raise ParameterError(f"hedis needs n >= 3, got {n}")
        super().__init__(n)

    @property
    def period(self) -> int:
        return self.n * (self.n - 1)

    def ranges(self) -> tuple[range, ...]:
        return range(0, self.period, self.n), range(1, (self.n + 1) * (self.n - 2) + 2, self.n + 1)

    @staticmethod
    def ratio(n: int) -> tuple[int, int]:
        return 2, n

    @classmethod
    def pick(cls, delta: Fraction, options: SelectionOptions) -> tuple[int]:
        rem = 0 if options.hedis_parity == "even" else 1
        n_min = 4 - rem
        # the smallest parity-matching n >= n_min with 2/n <= delta, and the one before
        raw = -(-2 * delta.denominator // delta.numerator)
        hi = max(raw + (raw - rem) % 2, n_min)
        return (_closest(range(max(hi - 2, n_min), hi + 1, 2), cls.ratio, delta),)


class TodisParams(ProtocolParams):
    """todis: wake at every multiple of n-2, n and n+2 (n odd), period their product."""

    __slots__ = __match_args__ = ("n",)
    name = "todis"

    def __init__(self, n: int) -> None:
        if n < 5 or n % 2 == 0:
            raise ParameterError(f"todis needs an odd n >= 5, got {n}")
        super().__init__(n)

    @property
    def period(self) -> int:
        return (self.n - 2) * self.n * (self.n + 2)

    def ranges(self) -> tuple[range, ...]:
        return tuple(range(0, self.period, x) for x in (self.n - 2, self.n, self.n + 2))

    @staticmethod
    def ratio(n: int) -> tuple[int, int]:
        # granularity's error envelope also evaluates this at real n
        return 3 * (n * n - n - 1), n * (n * n - 4)

    @classmethod
    def pick(cls, delta: Fraction, options: SelectionOptions) -> tuple[int]:
        return (_closest(range(5, options.todis_max_n + 1, 2), cls.ratio, delta),)


PROTOCOLS: dict[str, type[ProtocolParams]] = {
    cls.name: cls
    for cls in (DiscoParams, UConnectParams, SearchlightParams, HedisParams, TodisParams)
}
PROTOCOL_ORDER = tuple(PROTOCOLS)


# The traced benchmark replay labels its simulator spans through this name.
def protocol_tag(params: ProtocolParams) -> str:
    """Protocol name ('hedis', 'todis', ...) for a parameter value."""
    return params.name


# The traced benchmark replay rebinds this name to time every schedule build.
def build_schedule(params: ProtocolParams) -> Schedule:
    """Construct the wake-up schedule for any parameter value."""
    return params.build()


# --------------------------------------------------------------------------
# Parameter selection
# --------------------------------------------------------------------------


class SelectionOptions(Frozen):
    """Knobs for :func:`select_params`.

    ``hedis_parity`` is a deployment-wide setting: keeping every node's n
    on one parity is what guarantees hedis rendezvous network-wide.
    ``todis_max_n`` bounds the todis search; with :data:`PRIME_POOL_LIMIT`
    it keeps searched periods desk-sized while comfortably covering duty
    cycles down to 1%.
    """

    __slots__ = __match_args__ = ("hedis_parity", "searchlight_t", "todis_max_n")

    def __init__(
        self, hedis_parity: str = "even", searchlight_t: int = 2, todis_max_n: int = 1201
    ) -> None:
        if hedis_parity not in ("even", "odd"):
            raise ValueError(f"hedis_parity must be 'even' or 'odd', got {hedis_parity!r}")
        if searchlight_t < 2:
            raise ValueError(f"searchlight_t must be >= 2, got {searchlight_t}")
        if not 5 <= todis_max_n <= sys.maxsize:  # range() lengths stop at sys.maxsize
            bound = ">= 5" if todis_max_n < 5 else f"<= {sys.maxsize}"
            raise ValueError(f"todis_max_n must be {bound}, got {todis_max_n}")
        super().__init__(hedis_parity, searchlight_t, todis_max_n)


DEFAULT_OPTIONS = SelectionOptions()


class NodeConfig(NamedTuple):
    """A node's resolved configuration: requested and achieved duty cycles."""

    desired_delta: Fraction
    params: ProtocolParams
    achieved_delta: Fraction


def as_fraction(value) -> Fraction:
    """Exact duty cycle from a Fraction (returned itself), int, float or text.

    Floats go through their shortest decimal repr, so 0.05 means 1/20
    rather than the nearest binary float.  Text reads as '0.05', '1/20' or
    '5%'; an exponent past :data:`MAX_EXPONENT` is refused before the value
    is built, and every bad token raises :class:`NotationError`.
    """
    if isinstance(value, float):
        value = repr(value)
    elif not isinstance(value, str):
        return value if isinstance(value, Fraction) else Fraction(value)
    token = value.strip()
    num, _, den = token.partition("/")
    try:
        if num.isdigit() and den.isdigit():
            return Fraction(int(num), int(den))  # exact, as Fraction(token) reads it
        exponent = re.search(r"[\d.][eE]([-+]?\d+(?:_\d+)*)\s*%?$", token)
        if not exponent or abs(int(exponent[1])) <= MAX_EXPONENT:
            return Fraction(token[:-1]) / 100 if token.endswith("%") else Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise NotationError(f"bad duty cycle '{value}'") from None
    raise NotationError(f"duty cycle exponent must be within {MAX_EXPONENT} of 0, got {exponent[1]}")


def select_params(
    protocol: str,
    delta,
    options: Optional[SelectionOptions] = None,
) -> NodeConfig:
    """Pick the protocol parameter whose duty cycle best approximates ``delta``.

    Errors are compared exactly, in integers.  A duty cycle exactly midway
    between two candidates goes to the smaller parameter (the higher duty
    cycle) for uconnect, searchlight, hedis and todis, and to the larger
    consecutive-prime pair (the lower duty cycle) for disco.
    Raises :class:`SelectionError` when even the best candidate misses the
    target by 100% or more, or needs a parameter of more than
    :data:`MAX_DIGITS` digits.
    """
    if protocol not in PROTOCOLS:
        raise NotationError(f"unknown protocol '{protocol}'")
    delta = as_fraction(delta)
    num, den = delta.numerator, delta.denominator
    if not 0 < num <= den:
        raise SelectionError(f"duty cycle must be in (0, 1], got {_text(delta)}")
    cls = PROTOCOLS[protocol]
    params, achieved = _chosen(cls, cls.pick(delta, options or DEFAULT_OPTIONS))
    a, b = achieved.numerator, achieved.denominator
    if abs(a * den - num * b) >= num * b:
        raise SelectionError(
            f"{protocol} cannot approximate duty cycle {_text(delta)} "
            f"(best candidate {format_params(params)} achieves {_text(achieved)})"
        )
    return NodeConfig(delta, params, achieved)


# --------------------------------------------------------------------------
# Textual notation (CLI wire format)
# --------------------------------------------------------------------------


def format_params(params: ProtocolParams) -> str:
    """Textual notation, e.g. ``hedis:n=40`` or ``disco:p1=37,p2=43``."""
    body = ",".join(f"{name}={getattr(params, name)}" for name in params.__match_args__)
    return f"{params.name}:{body}"


def parse_params(text: str) -> ProtocolParams:
    """Parse the textual notation produced by :func:`format_params`.

    Values must be plain decimal integers (``-?[0-9]+``); range checks are
    left to the parameter class.
    """
    name, sep, rest = text.strip().partition(":")
    if name not in PROTOCOLS:
        raise NotationError(f"unknown protocol '{name}'")
    if not sep or not rest:
        raise NotationError(f"missing parameters after '{name}:'")
    cls = PROTOCOLS[name]
    names = cls.__match_args__
    values: dict[str, int] = {}
    for token in rest.split(","):
        key, eq, val = token.partition("=")
        if not eq:
            raise NotationError(f"bad parameter token '{token}' (expected key=value)")
        if key not in names:
            raise NotationError(f"unexpected parameter '{key}' for {name}")
        if key in values:
            raise NotationError(f"duplicate parameter '{key}'")
        if not re.fullmatch(r"-?[0-9]+", val):
            raise NotationError(f"parameter '{token}' is not an integer")
        values[key] = int(val)
    missing = [f for f in names if f not in values]
    if missing:
        raise NotationError(f"missing parameter '{missing[0]}' for {name}")
    return cls(**values)
