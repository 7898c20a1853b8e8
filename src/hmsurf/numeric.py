"""Certified evaluation of the transcendental bound expressions.

All inequality decisions in the classifier go through interval arithmetic on
mpmath's interval kernels (`mpmath.libmp`), each call given its precision of
128 to 8192 bits: there is no shared precision state.  An interval is a raw
(lo, hi) pair of mpmath floats, made by the kernel calls mpmath's `iv` makes
for the same expression, so the endpoints are `iv`'s.  A "pass" verdict
requires the *lower* endpoint to clear the threshold, so directed rounding
errs on the conservative side.  Endpoints are converted to exact `Fraction`s
(binary floats are dyadic rationals), so the rest stays in exact arithmetic;
`least_clearing` compares them as integers scaled to one exponent.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath.libmp import from_int, mpi_div, mpi_log, mpi_mul, mpi_sqrt, round_ceiling, round_floor
from mpmath.libmp.libmpi import mpi_pi

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


def _point(k: int, bits: int):
    """Interval of the integer k, rounded outward to bits if k is wider."""
    if k.bit_length() <= bits:  # exact, so both endpoints are k
        x = from_int(k)
        return x, x
    return from_int(k, bits, round_floor), from_int(k, bits, round_ceiling)


def _sqrt_int(k: int, bits: int):
    return mpi_sqrt(_point(k, bits), bits)


def _log_int(k: int, bits: int):
    """Interval of log k as iv.log gives it: mpi_log with no guard bits."""
    return mpi_log(_point(k, bits), bits)


def _decode(raw) -> "tuple[int, int]":
    """(m, e) with the endpoint raw = m * 2^e; ArithmeticError if it is not finite."""
    sign, man, exp, _bc = raw
    man, exp = -int(man) if sign else int(man), int(exp)
    if man == 0 and exp != 0:
        raise ArithmeticError("non-finite interval endpoint")
    return man, exp


def _raw_to_fraction(raw) -> Fraction:
    man, exp = _decode(raw)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def lower_rational(x) -> Fraction:
    """Exact rational value of the lower endpoint of the pair x."""
    return _raw_to_fraction(x[0])


def upper_rational(x) -> Fraction:
    """Exact rational value of the upper endpoint of the pair x."""
    return _raw_to_fraction(x[1])


def least_clearing(step, base, bar) -> int:
    """The least integer n with n*lo(step) + lo(base) - hi(bar) > 0, for
    lo(step) > 0: floor((hi(bar) - lo(base)) / lo(step)) + 1, in integers.

    Each endpoint is m*2^e.  Scaled by 2^-e0, e0 the least of the three
    exponents, they become integers with the same ratios, so the floor is
    one integer division.
    """
    (a, ea), (b, eb), (c, ec) = _decode(bar[1]), _decode(base[0]), _decode(step[0])
    e0 = min(ea, eb, ec)
    return ((a << ea - e0) - (b << eb - e0)) // (c << ec - e0) + 1


def sqrt_log_over_pi(N: int, precision_bits: int = MIN_PRECISION_BITS):
    """Interval for sqrt(N)*log(N)/pi."""
    check_precision(precision_bits)
    bits = precision_bits
    return mpi_div(mpi_mul(_sqrt_int(N, bits), _log_int(N, bits), bits), mpi_pi(bits), bits)
