"""Dedekind zeta value at -1 and the cusp resolution cycle.

zeta_E(-1) comes from the finite divisor sum

    zeta_E(-1) = (1/60) * sum_{x^2 < D, x^2 = D mod 4} sigma_1((D - x^2)/4)

with x running over both signs.  The companion sum with sigma_0 gives the
self-intersection number of the local Chern cycle of the (single) cusp:

    c = -(1/2) * sum_{x^2 < D, x^2 = D mod 4} sigma_0((D - x^2)/4)

(the cycle is a sum of negative curves, so the total is negative; the spot
values c(5) = -1, c(13) = -3 pin the sign convention).

The resolution cycle itself is the period of the negative-regular ("minus")
continued fraction of omega: w_{k+1} = 1/(b_k - w_k) with b_k = ceil(w_k),
run in exact (P, Q) state form until the state repeats.  One period of that
expansion corresponds to the fundamental totally positive unit, which for
narrow class number one is eps^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .field import FieldContext, FieldElement
from .ntheory import sigma0, sigma1


class InternalCheckError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


def _summands(D: int):
    """Yield (D - x^2)/4 over all x (both signs) with x^2 < D, x^2 = D mod 4."""
    for x in range(-isqrt(D - 1), isqrt(D - 1) + 1):
        if (D - x * x) % 4 == 0:
            yield (D - x * x) // 4


def zeta_minus_one(D: int) -> Fraction:
    """zeta_E(-1) for E = Q(sqrt(D)), D a fundamental discriminant > 0."""
    total = sum(sigma1(k) for k in _summands(D))
    return Fraction(total, 60)


def local_chern_divisor_sum(D: int) -> int:
    """Self-intersection c of the local Chern cycle at the cusp (negative).

    The defining sum is half the count of divisors sum; for our discriminants
    the full divisor-count total is always even, so c is an integer.
    """
    total = sum(sigma0(k) for k in _summands(D))
    if total % 2:
        raise InternalCheckError(f"odd divisor-count total {total} for D={D}")
    return -(total // 2)


# ---------------------------------------------------------------------------
# minus continued fractions in exact (P, Q) state form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadIrrational:
    """(P + sqrt(D))/Q with Q | D - P^2 (so the expansion stays integral)."""

    P: int
    Q: int
    D: int

    def __post_init__(self):
        if self.Q == 0 or (self.D - self.P * self.P) % self.Q != 0:
            raise ValueError(f"invalid state ({self.P}+sqrt{self.D})/{self.Q}")

    def floor(self) -> int:
        """Exact floor((P + sqrt(D))/Q) for nonsquare D > 0."""
        s = isqrt(self.D)
        return (self.P + s) // self.Q if self.Q > 0 else (-self.P - s - 1) // -self.Q

    def ceil(self) -> int:
        # never an integer for nonsquare D
        return self.floor() + 1

    def minus_step(self) -> tuple[int, "QuadIrrational"]:
        """(b, w') with w' = 1/(b - w), b = ceil(w)."""
        b = self.ceil()
        P1 = b * self.Q - self.P
        Q1 = (P1 * P1 - self.D) // self.Q
        return b, QuadIrrational(P1, Q1, self.D)


def minus_cf_cycle(D: int) -> tuple[int, ...]:
    """Primitive period of the minus continued fraction of omega.

    Returned in a canonical rotation (lexicographically greatest), so D = 13
    comes out as (5, 2, 2).
    """
    if D % 2 == 1:
        w = QuadIrrational(1, 2, D)
    else:
        w = QuadIrrational(0, 2, D)  # sqrt(2) over the sqrt(8) surd
    seen: dict[tuple[int, int], int] = {}
    digits: list[int] = []
    for k in range(10 ** 6):
        key = (w.P, w.Q)
        if key in seen:
            cycle = tuple(digits[seen[key]:])
            return _canonical_rotation(cycle)
        seen[key] = k
        b, w = w.minus_step()
        digits.append(b)
    raise InternalCheckError(f"minus continued fraction did not cycle for D={D}")


def _canonical_rotation(cycle: tuple[int, ...]) -> tuple[int, ...]:
    rotations = [cycle[i:] + cycle[:i] for i in range(len(cycle))]
    return max(rotations)


def cycle_unit(cycle: tuple[int, ...], D: int) -> FieldElement:
    """Eigenvalue (> 1) of the period matrix prod [[b, -1], [1, 0]].

    This is the totally positive unit whose action the cycle encodes.
    """
    m00, m01, m10, m11 = 1, 0, 0, 1
    for b in cycle:
        m00, m01, m10, m11 = m00 * b + m01, -m00, m10 * b + m11, -m10
    t = m00 + m11  # trace; eigenvalue (t + sqrt(t^2-4))/2 with t^2-4 = v^2 D
    if t <= 2:
        raise InternalCheckError(f"period matrix trace {t} too small for D={D}")
    disc = t * t - 4
    v2, rem = divmod(disc, D)
    v = isqrt(v2)
    if rem or v * v != v2:
        raise InternalCheckError(f"period matrix trace {t} is not a unit trace for D={D}")
    return FieldElement(t, v, D)


@dataclass(frozen=True)
class CuspCycle:
    """Resolution cycle of the cusp: curves b_k, count l = m, chern term c."""

    D: int
    cycle: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.cycle)

    @property
    def l(self) -> int:  # noqa: E741 - established notation
        return len(self.cycle)

    @property
    def c(self) -> int:
        # m >= 2: c = 2m - sum(b); m = 1 is a single nodal curve, c = 2 - b0,
        # which is the same expression.
        return 2 * self.m - sum(self.cycle)


def cusp_resolution(F: FieldContext) -> CuspCycle:
    """Resolution data of the single cusp of the Hilbert modular surface.

    Cross-checks that one period of the expansion matches the fundamental
    totally positive unit and that c agrees with the divisor-sum formula.
    """
    cycle = minus_cf_cycle(F.D)
    unit = cycle_unit(cycle, F.D)
    if unit.as_pair() != F.eps_plus.as_pair():
        raise InternalCheckError(
            f"cycle unit {unit!r} differs from eps_plus {F.eps_plus!r} for D={F.D}"
        )
    cc = CuspCycle(D=F.D, cycle=cycle)
    if cc.c != local_chern_divisor_sum(F.D):
        raise InternalCheckError(f"cycle chern term mismatch for D={F.D}")
    return cc

