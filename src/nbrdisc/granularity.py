"""Duty-cycle granularity analysis.

How closely can each protocol match an arbitrary requested duty cycle?  The
metric is the relative error |achieved - desired| / desired, computed with
exact rationals.  For todis there is also a closed-form worst-case envelope:
between two consecutive supported duty cycles f(2k-1) and f(2k+1), where
f(n) is the todis duty cycle of ``TodisParams.ratio``, the error peaks at
their midpoint, and eliminating the midpoint condition yields a quartic
in k,

    16*d*k**4 - 24*k**3 + (12 - 40*d)*k**2 + 36*k + 9*d - 9 = 0.

Solving the quartic for the admissible real root k(d) gives the envelope
value (f(2*k - 1) - d) / d, an increasing function that every measured
todis error stays below and touches at the midpoints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .protocols import (
    ProtocolParams,
    SelectionOptions,
    TodisParams,
    as_fraction,
    escape_error,
    format_params,
    format_rational,
    select_params,
)


class BoundDomainError(ValueError):
    """No admissible envelope root exists for this duty cycle."""


class GranularityRecord(NamedTuple):
    """One sweep cell: protocol, requested duty cycle, and how close it got.

    ``relative_error`` is |achieved - desired| / desired, exact.  A cell
    whose selection failed carries the message in ``error`` and None in the
    numeric fields.
    """

    protocol: str
    desired_delta: Fraction
    achieved_delta: Optional[Fraction]
    relative_error: Optional[Fraction]
    params: Optional[ProtocolParams]
    error: Optional[str] = None


def relative_error(
    protocol: str,
    delta,
    options: Optional[SelectionOptions] = None,
) -> GranularityRecord:
    """Select the best parameter for ``delta`` and report the exact error."""
    delta = as_fraction(delta)
    _, params, achieved = select_params(protocol, delta, options)
    return _records(protocol, [delta], params, achieved)[0]


def _records(protocol: str, deltas, params, achieved: Fraction) -> list[GranularityRecord]:
    """The records of ``deltas`` that chose ``params``."""
    a, b = achieved.as_integer_ratio()
    return [
        GranularityRecord(protocol, f, achieved, Fraction(abs(a * d - n * b), n * b), params)
        for f in deltas
        for n, d in (f.as_integer_ratio(),)
    ]


def _cell(protocol: str, delta: Fraction, options) -> GranularityRecord:
    """:func:`relative_error`, or the in-row record of its error."""
    try:
        return relative_error(protocol, delta, options)
    except ValueError as exc:
        return GranularityRecord(protocol, delta, None, None, None, str(exc))


def sweep(
    protocols: Sequence[str],
    deltas: Iterable,
    options: Optional[SelectionOptions] = None,
) -> list[GranularityRecord]:
    """Cartesian sweep, protocol-major with duty cycles ascending.

    A failing cell never aborts the sweep; it is recorded in-row with its
    error message.

    Each protocol's column is settled by bisection over cell indices.  It
    relies on selection, and its checks, being monotone in the duty cycle:
    the cells between two that succeed with equal parameters take their
    records from that parameter unselected.  No cell is selected twice.
    """
    protocols = list(protocols)

    def key(f: Fraction) -> tuple:
        # exact: the floor, then the correctly rounded (so never decreasing, never
        # overflowing) remainder quotient; only float ties compare Fractions
        n, d = f.as_integer_ratio()
        return n // d, n % d / d, f

    ordered = sorted(map(as_fraction, deltas), key=key)
    if not protocols or not ordered:
        raise ValueError("sweep needs at least one protocol and one duty cycle")
    records: list[GranularityRecord] = []
    last = len(ordered) - 1
    for protocol in protocols:
        column: list = [None] * len(ordered)
        for i in {0, last}:
            column[i] = _cell(protocol, ordered[i], options)
        ranges = [(0, last)]
        while ranges:
            i, j = ranges.pop()
            lo, hi = column[i], column[j]
            if lo.error is None and lo.params == hi.params:  # so hi.error is None
                column[i + 1 : j] = _records(
                    protocol, ordered[i + 1 : j], lo.params, lo.achieved_delta
                )
            elif j - i > 1:
                m = (i + j) // 2
                column[m] = _cell(protocol, ordered[m], options)
                ranges += (i, m), (m, j)
        records += column
    return records


def todis_error_upper_bound(delta) -> float:
    """Worst-case relative-error envelope for todis at duty cycle ``delta``.

    Solves the midpoint quartic for the real root k with f(2k-1) >= delta
    >= f(2k+1) by bisection and returns (f(2k-1) - delta) / delta.  Raises
    :class:`BoundDomainError` when no admissible root exists (delta at or
    above 81/105) or when float arithmetic cannot resolve it (delta below
    1e-7).
    """
    frac = as_fraction(delta)
    num, den = frac.numerator, frac.denominator
    if not 0 < num < den:
        raise ValueError(f"duty cycle must be in (0, 1), got {frac}")
    # At or above 81/105 the quartic has no root with k >= 2 (the envelope's
    # natural domain edge: the quartic at k=2 equals 105*d - 81).
    if 105 * num >= 81 * den:
        raise BoundDomainError(
            f"no admissible envelope root for duty cycle {frac} >= 81/105"
        )
    # Below 1e-7 float cancellation in the quartic and in f(2k-1) - d pushes
    # the result more than 1e-6 (relative) off an exact evaluation.
    if 10**7 * num < den:
        raise BoundDomainError("no float-accurate envelope for duty cycles below 1e-7")
    d = num / den  # float(frac), correctly rounded
    # the quartic's coefficients, each rounded as the quartic's expression
    # rounds it; 9*d and -9 stay apart, as folding them changes the rounding
    # (x - 9.0 < 0.0 exactly when x < 9.0, so the loop compares with 9)
    c4, c2, c0 = 16.0 * d, 12.0 - 40.0 * d, 9.0 * d
    # quartic(2) = 105*d - 81 < 0 on the domain, and at k = 1.5/d + 2 the two
    # leading terms sum to 32*d*k**3, so quartic(k) = k**2*(60 + 24*d) + 36*k
    # + 9*d - 9 > 0: the bracket holds the single sign change of interest.
    # It starts over 0.49*hi wide and halves, give or take 2**-51*hi of rounding
    # in all, so the width test cannot pass before i = 41.
    lo, hi = 2.0, 1.5 / d + 2.0
    for i in range(200):
        k = 0.5 * (lo + hi)
        if (((c4 * k - 24.0) * k + c2) * k + 36.0) * k + c0 < 9.0:
            lo = k
        else:
            hi = k
        if i > 40 and hi - lo <= 1e-13 * hi:  # hi > 2
            break
    k = 0.5 * (lo + hi)
    num, den = TodisParams.ratio(2.0 * k - 1.0)  # todis duty cycle at a real n
    return max((num / den - d) / d, 0.0)


# --------------------------------------------------------------------------
# CSV rendering
# --------------------------------------------------------------------------

GRANULARITY_CSV_HEADER = "protocol,desired_delta,achieved_delta,relative_error,params,todis_bound"


def granularity_csv_rows(records: Iterable[GranularityRecord]) -> Iterable[str]:
    """Yield CSV lines (header first) for a list of sweep records.

    The trailing ``todis_bound`` column carries the todis error envelope at
    each row's desired duty cycle (empty outside its domain).
    """
    yield GRANULARITY_CSV_HEADER
    # per distinct duty cycle: its text and its todis bound cell
    shared: dict[tuple[int, int], tuple[str, str]] = {}
    # consecutive rows of one protocol often share the chosen parameter
    last_achieved = last_params = None
    for protocol, delta, achieved, error, params, message in records:
        key = delta.as_integer_ratio()
        if key not in shared:
            try:
                bound = format_rational(todis_error_upper_bound(delta))
            except ValueError:
                bound = ""
            shared[key] = format_rational(delta), bound
        desired, bound = shared[key]
        if message is not None:
            yield f'{protocol},{desired},,,"error:{escape_error(message)}",{bound}'
            continue
        if achieved is not last_achieved:
            last_achieved, achieved_text = achieved, format_rational(achieved)
        if params is not last_params:
            last_params, params_text = params, format_params(params)
        text = format_rational(error)
        yield f'{protocol},{desired},{achieved_text},{text},"{params_text}",{bound}'
