"""Certified evaluation of the transcendental bound expressions.

All inequality decisions in the classifier go through interval arithmetic
(mpmath's iv context) at a configurable precision of 128 to 8192 bits.  A
"pass" verdict requires the *lower* interval endpoint to clear the threshold,
so directed rounding always errs on the conservative side.  Endpoints are
converted to exact `Fraction`s (binary floats are dyadic rationals), so the
rest of the pipeline stays in exact arithmetic.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

from mpmath import iv

MIN_PRECISION_BITS = 128
# A cap on the cost of one certified evaluation, which grows about like
# bits^2 (mpmath's log, sqrt and pi enclosures); the table runs at the floor.
MAX_PRECISION_BITS = 8192


class PrecisionError(ValueError):
    pass


def check_precision(bits: int) -> None:
    """PrecisionError unless bits lies in the 128 to 8192 bit range."""
    if bits < MIN_PRECISION_BITS:
        raise PrecisionError(f"precision {bits} below the {MIN_PRECISION_BITS}-bit floor")
    if bits > MAX_PRECISION_BITS:
        raise PrecisionError(f"precision {bits} above the {MAX_PRECISION_BITS}-bit ceiling")


@contextmanager
def interval_precision(bits: int):
    """Temporarily set the shared iv context precision (128 to 8192 bits)."""
    check_precision(bits)
    saved = iv.prec
    iv.prec = bits
    try:
        yield iv
    finally:
        iv.prec = saved


def _raw_to_fraction(raw) -> Fraction:
    sign, man, exp, _bc = raw
    man, exp = -int(man) if sign else int(man), int(exp)
    if man == 0 and exp != 0:
        raise ArithmeticError("non-finite interval endpoint")
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def lower_rational(x) -> Fraction:
    """Exact rational value of the lower interval endpoint."""
    a, _b = x._mpi_
    return _raw_to_fraction(a)


def upper_rational(x) -> Fraction:
    """Exact rational value of the upper interval endpoint."""
    _a, b = x._mpi_
    return _raw_to_fraction(b)


def sqrt_log_over_pi(N: int, precision_bits: int = MIN_PRECISION_BITS):
    """Interval for sqrt(N)*log(N)/pi."""
    with interval_precision(precision_bits):
        return iv.sqrt(N) * iv.log(N) / iv.pi


def interval_fraction(q: Fraction):
    """Exact Fraction -> interval (dyadic endpoints enclose the rational)."""
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)
