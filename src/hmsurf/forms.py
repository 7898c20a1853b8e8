"""Class numbers by exhaustive reduction of binary quadratic forms.

Two counters:

* `h_definite(N)` -- class number h(-N) of primitive positive definite forms
  of discriminant -N, by direct enumeration of reduced forms
  (|b| <= a <= c, with b >= 0 when |b| = a or a = c).

* `h_narrow_indefinite(D)` -- narrow class number of discriminant D > 0,
  counted as the number of cycles of reduced indefinite forms
  (0 < b < sqrt(D), sqrt(D) - b < 2|a| < sqrt(D) + b) under the usual
  neighboring step.

All comparisons against sqrt(D) are done by squaring, so the routines are
exact for every nonsquare discriminant.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .ntheory import is_fundamental_discriminant, is_square
from .numeric import upper_rational, sqrt_log_over_pi


def h_definite(N: int) -> int:
    """Class number h(-N) for N > 0 with -N = 0 or 1 mod 4."""
    if N <= 0:
        raise ValueError(f"need N > 0, got {N}")
    if (-N) % 4 not in (0, 1):
        raise ValueError(f"-{N} is not a discriminant (need -N = 0,1 mod 4)")
    count = 0
    # reduced: |b| <= a <= c with b^2 - 4ac = -N; b parity is forced by N mod 2
    b_start = N % 2
    for a in range(1, isqrt(N // 3) + 1):
        four_a = 4 * a
        for b in range(b_start, a + 1, 2):
            num = b * b + N
            if num % four_a:
                continue
            c = num // four_a
            if c < a:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            # b = 0: one form; |b| = a or a = c: only b >= 0 counts; else both signs
            if b == 0 or b == a or a == c:
                count += 1
            else:
                count += 2
    return count


# -- indefinite forms --------------------------------------------------------


def _is_reduced_indefinite(a: int, b: int, c: int, D: int) -> bool:
    if b <= 0 or b * b >= D:
        return False
    two_a = 2 * abs(a)
    # sqrt(D) - b < 2|a|  <=>  D < (2|a| + b)^2
    if D >= (two_a + b) ** 2:
        return False
    # 2|a| < sqrt(D) + b  <=>  (2|a| - b)^2 < D when 2|a| >= b, else trivially true
    if two_a >= b and (two_a - b) ** 2 >= D:
        return False
    return True


def reduced_indefinite_forms(D: int) -> list[tuple[int, int, int]]:
    """All primitive reduced indefinite forms of discriminant D > 0 (nonsquare)."""
    forms = []
    s = isqrt(D)
    for b in range(1, s + 1):
        # |a| window sqrt(D)-b < 2|a| < sqrt(D)+b, padded by 1 and verified exactly
        lo = max(1, (s - b) // 2)
        hi = (s + b) // 2 + 1
        for a_abs in range(lo, hi + 1):
            for a in (a_abs, -a_abs):
                if (b * b - D) % (4 * a):
                    continue
                c = (b * b - D) // (4 * a)
                if not _is_reduced_indefinite(a, b, c, D):
                    continue
                if gcd(gcd(a, b), c) != 1:
                    continue
                forms.append((a, b, c))
    return sorted(set(forms))


def rho_step(form: tuple[int, int, int], D: int) -> tuple[int, int, int]:
    """The reduction operator: (a,b,c) -> (c,b',c') with b' = -b mod 2|c|.

    b' lies in (-|c|, |c|] when |c| > sqrt(D), else in (sqrt(D) - 2|c|, sqrt(D)).
    The steps reach a reduced form, then run round its cycle (Buchmann &
    Vollmer, Binary Quadratic Forms, 2007, ch. 6).
    """
    _, b, c = form
    two_c = 2 * abs(c)
    b1 = (-b) % two_c
    if c * c > D:
        if b1 > abs(c):
            b1 -= two_c
    else:
        # lift b1 into the window (s - 2|c|, s]; D nonsquare so b' = s is
        # fine as the topmost admissible representative of b' < sqrt(D)
        s = isqrt(D)
        b1 += ((s - b1) // two_c) * two_c
        if b1 > s:
            b1 -= two_c
    c1 = (b1 * b1 - D) // (4 * c)
    return (c, b1, c1)


def unit_form_walk(form: tuple[int, int, int], D: int) -> tuple[int, int]:
    """Walk rho steps from (a0, b, c) to a form (a', b', c') with a' = +-1.

    A step is the substitution (x, y) -> (-y, x + t*y), t = (b + b')/(2c);
    only the bottom row of their product M is kept.  (x, y) = (m11, -m10),
    the first column of M^-1, has a'x^2 + b'xy + c'y^2 = a0, so (u, v) =
    (2a'x + b'y, y) is an element (u + v*sqrt(D))/2 of norm a' * a0 = +-a0.
    From the principal form this gives the fundamental unit; from (p, b, c)
    it is the principal-ideal test by reduction (Buchmann & Vollmer ch. 6).
    RuntimeError if a reduced form comes round again first.
    """
    seen: set[tuple[int, int, int]] = set()
    m10, m11 = 0, 1
    while True:
        _, b, c = form
        form = rho_step(form, D)
        m10, m11 = m11, (b + form[1]) // (2 * c) * m11 - m10
        a1, b1, _ = form
        if abs(a1) == 1:
            return (2 * a1 * m11 - b1 * m10, -m10)
        if _is_reduced_indefinite(*form, D):
            if form in seen:
                raise RuntimeError(f"no form (+-1, b, c) in the cycle of {form}, D={D}")
            seen.add(form)


def h_narrow_indefinite(D: int) -> int:
    """Narrow class number h+(D): number of cycles of reduced forms."""
    if D <= 0:
        raise ValueError(f"need D > 0, got {D}")
    if not is_fundamental_discriminant(D):
        raise ValueError(f"D={D} is not a fundamental discriminant")
    if is_square(D):
        raise ValueError(f"D={D} is a square")
    forms = reduced_indefinite_forms(D)
    seen: set[tuple[int, int, int]] = set()
    cycles = 0
    for f in forms:
        if f in seen:
            continue
        cycles += 1
        g = f
        while True:
            seen.add(g)
            g = rho_step(g, D)
            if g == f:
                break
    return cycles


# -- analytic bound ----------------------------------------------------------


def h_bound(N: int, precision_bits: int = 128) -> Fraction:
    """Certified rational upper bound sqrt(N)*log(N)/pi (within 1 percent).

    For fundamental N > 12 this dominates h(-N); the bound itself is returned
    so callers can do exact rational comparisons.
    """
    if N <= 1:
        raise ValueError("need N > 1")
    return upper_rational(sqrt_log_over_pi(N, precision_bits))

