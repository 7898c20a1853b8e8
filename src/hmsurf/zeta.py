"""Dedekind zeta value at -1 and the cusp resolution cycle.

zeta_E(-1) comes from the finite divisor sum

    zeta_E(-1) = (1/60) * sum_{x^2 < D, x^2 = D mod 4} sigma_1((D - x^2)/4)

with x running over both signs.  The companion sum with sigma_0 gives the
self-intersection number of the local Chern cycle of the (single) cusp:

    c = -(1/2) * sum_{x^2 < D, x^2 = D mod 4} sigma_0((D - x^2)/4)

(the cycle is a sum of negative curves, so the total is negative; the spot
values c(5) = -1, c(13) = -3 pin the sign convention).  Both sums come from
one pass over the divisors of every (D - x^2)/4, listed by the quadratic
sieve that h(-N) uses (Hirzebruch 1973, section 3; Cohen 1993, 5.3).

The resolution cycle itself is the period of the negative-regular ("minus")
continued fraction of omega: w_{k+1} = 1/(b_k - w_k) with b_k = ceil(w_k).
It is not expanded on its own: the rho walk from the principal form runs
through the period of omega's regular continued fraction, which `make_field`
reads off the h+ = 1 certificate's half walk and its mirror image and keeps,
and Hirzebruch's rule turns that into the minus period (see `minus_cf_cycle`).
One period of the minus expansion corresponds to the fundamental totally
positive unit, which for narrow class number one is eps^2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

from .field import FieldContext
from .forms import _sieve_divisors, step_product


class InternalCheckError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


@lru_cache(maxsize=1)
def _divisor_sums(D: int) -> tuple[int, int]:
    """(sum sigma_1, sum sigma_0) of (D - x^2)/4 over x^2 < D, x^2 = D mod 4.

    x^2 = D mod 4 exactly when x = D mod 2, and x > 0 stands for +-x, so each
    term counts twice, except that of x = 0 when D is even.  The divisors of
    every (D - x^2)/4 come from one sieve.  Callers ask for zeta and c at one
    D in turn (classify, the table sweep), so the last D's pair is kept.
    """
    xs = range(D % 2, isqrt(D - 1) + 1, 2)
    divisors = _sieve_divisors(D, xs, [(D - x * x) // 4 for x in xs])
    s1, s0 = 2 * sum(map(sum, divisors)), 2 * sum(map(len, divisors))
    if D % 2 == 0:
        s1, s0 = s1 - sum(divisors[0]), s0 - len(divisors[0])
    return s1, s0


def zeta_minus_one(D: int) -> Fraction:
    """zeta_E(-1) for E = Q(sqrt(D)), D a fundamental discriminant > 0."""
    return Fraction(_divisor_sums(D)[0], 60)


def local_chern_divisor_sum(D: int) -> int:
    """Self-intersection c of the local Chern cycle at the cusp (negative).

    The defining sum is half the count of divisors sum; for our discriminants
    the full divisor-count total is always even, so c is an integer.
    """
    total = _divisor_sums(D)[1]
    if total % 2:
        raise InternalCheckError(f"odd divisor-count total {total} for D={D}")
    return -(total // 2)


def minus_cf_cycle(F: FieldContext) -> tuple[int, ...]:
    """Primitive period of the minus continued fraction of omega.

    Returned in a canonical rotation (lexicographically greatest), so D = 13
    comes out as (5, 2, 2).  It is read off the quotients F.quotients of the
    rho walk from the principal form (1, b, c), for D of narrow class number
    one:

    * A rho step (a, b, c) -> (c, b', c') from a reduced form is one regular
      continued-fraction step of its reduced irrational x = (b + sqrt(D))/(2|c|),
      with partial quotient |t| (Buchmann & Vollmer 2007, ch. 6): b' =
      2|c||t| - b lies in (sqrt(D) - 2|c|, sqrt(D)), so |t| = floor(x), and
      1/(x - |t|) = (b' + sqrt(D))/(2|c'|) as |c c'| = (D - b'^2)/4.
    * At (1, b, c), x = 1/(omega - floor(omega)), so the |t| are omega's
      partial quotients a_1, a_2, ..., purely periodic from a_1.  Only
      (1, b, c) and (-1, b, -c) have this x, so the walk from (1, b, c) to
      (-1, b, -c), whose quotients make_field reads off its half walk and
      that half's mirror image, covers one period (a_1, ..., a_m).  m is odd
      (the midpoint, `forms.narrow_class_one`).
    * Hirzebruch's rule (Hilbert modular surfaces, 1973, section 2):
      [a_0; a_1, a_2, ...] = ((a_0 + 1; 2^(a_1 - 1), a_2 + 2, 2^(a_3 - 1),
      a_4 + 2, ...)), 2^k a run of k twos.  It takes the quotients in pairs,
      so it needs a period of even length; the doubled period belongs to
      eps^2 = eps_plus.  Doubling the odd period also makes the pairing
      irrelevant: the other parity is the shift by m, which fixes the period.

    Each head a + 2 is >= 3 and every other entry is 2, so the greatest
    rotation starts at a greatest head; only rotations there are compared.
    """
    a = [abs(t) for t in F.quotients] * 2
    cycle = []
    for run, head in zip(a[::2], a[1::2]):
        cycle += [2] * (run - 1) + [head + 2]
    top = max(cycle)
    return max(tuple(cycle[i:] + cycle[:i]) for i, b in enumerate(cycle) if b == top)


class CuspCycle(NamedTuple):
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

    Cross-checks that c agrees with the divisor-sum formula and that the
    period matrix prod [[b, -1], [1, 0]] has the eigenvalue eps_plus > 1.
    J = [[0, -1], [1, 0]] conjugates [[b, -1], [1, 0]] to [[0, -1], [1, b]],
    so that matrix has the trace t of step_product(cycle) and its eigenvalues
    are the roots of x^2 - t*x + 1.  eps_plus = (u + v*sqrt(D))/2 with
    N(eps_plus) = 1 and v > 0 is the root > 1 of x^2 - u*x + 1: the check
    is t = u.
    """
    cycle = minus_cf_cycle(F)
    m00, _, _, m11 = step_product(cycle)
    if m00 + m11 != F.eps_plus.u:
        raise InternalCheckError(f"cycle trace differs from that of eps_plus for D={F.D}")
    cc = CuspCycle(D=F.D, cycle=cycle)
    if cc.c != local_chern_divisor_sum(F.D):
        raise InternalCheckError(f"cycle chern term mismatch for D={F.D}")
    return cc
