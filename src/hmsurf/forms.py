"""Class numbers by counting reduced binary quadratic forms.

Both counters take each admissible b and list the reduced forms (a, b, c)
from the divisors of |ac| = |b^2 - disc|/4, not by testing every a in the
reduction window (Buchmann & Vollmer, Binary Quadratic Forms, 2007, ch. 6;
Cohen, A Course in Computational Algebraic Number Theory, 1993, 5.3-5.6):

* `h_definite(N)` -- class number h(-N) of primitive positive definite forms
  (|b| <= a <= c, with b >= 0 when |b| = a or a = c); for large N every
  (b^2 + N)/4 is factored in one quadratic sieve over b, the sieve that also
  factors the (D - x^2)/4 of `zeta`'s divisor sums.

* `h_narrow_indefinite(D)` -- narrow class number of discriminant D > 0,
  counted as the number of cycles of reduced indefinite forms
  (0 < b < sqrt(D), sqrt(D) - b < 2|a| < sqrt(D) + b) under the usual
  neighboring step.

* `narrow_class_one(D)` -- the half walk round the principal cycle when
  h+(D) = 1, certified from it (Minkowski's bound) without listing the forms,
  and None otherwise: it stops where the walk meets its mirror image, two
  equal |a| in a row.

Forms are walked in two ways, each defined once: `_reduce` takes a form to a
reduced one, and `_cycle_step` walks a cycle of reduced forms as (|a|, b, |c|).
All comparisons against sqrt(D) are done by squaring or against isqrt(D), so
the routines are exact for every nonsquare discriminant.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, isqrt

from .ntheory import is_fundamental_discriminant, kronecker, sqrt_mod
from .numeric import upper_rational, sqrt_log_over_pi

_SIEVE_FROM = 125_000  # h_definite: where the sieve overtakes trial division
_RUN = 64  # step_product: factors taken one at a time before the balanced pairs


def h_definite(N: int) -> int:
    """Class number h(-N) for N > 0 with -N = 0 or 1 mod 4.

    A reduced form has |b| <= a <= c, so 3b^2 <= N, and ac = m = (b^2 + N)/4.
    For each b >= 0 of N's parity the forms are the divisors a of m with
    b <= a <= sqrt(m); +-b both count unless b = 0, b = a or a = c.  Trial
    division over these windows takes about 0.07 N steps; from N = _SIEVE_FROM
    on the sieve of `_sieve_divisors` is cheaper.
    """
    if N <= 0:
        raise ValueError(f"need N > 0, got {N}")
    if (-N) % 4 not in (0, 1):
        raise ValueError(f"-{N} is not a discriminant (need -N = 0,1 mod 4)")
    bs = range(N % 2, isqrt(N // 3) + 1, 2)
    ms = [(b * b + N) // 4 for b in bs]
    divisors = _sieve_divisors(-N, bs, ms) if N >= _SIEVE_FROM else [
        [a for a in range(max(b, 1), isqrt(m) + 1) if m % a == 0] for b, m in zip(bs, ms)]
    count = 0
    for b, m, divs in zip(bs, ms, divisors):
        for a in divs:
            if b <= a and a * a <= m and gcd(gcd(a, b), m // a) == 1:
                count += 1 if b == 0 or b == a or a * a == m else 2
    return count


def _sieve_divisors(d: int, bs: range, ms: list[int]) -> list[list[int]]:
    """All divisors of each m = |b^2 - d|/4, for b in bs (step 2 from d % 2).

    d is a discriminant of either sign, not a square (ValueError otherwise).
    An odd prime p divides m exactly when b = +-sqrt(d) mod p; m mod 2 has
    period 2 along bs, so 2 is tested on the first two; what is left once
    every prime up to sqrt(max m) is divided out is 1 or a prime.  (For d > 0
    the m fall as b grows.)  The loop dividing p out ends: b^2 = d mod 4 and
    b^2 != d make every m an integer >= 1, and p divides it where the sieve
    starts.
    """
    if d % 4 > 1 or d >= 0 and isqrt(d) ** 2 == d:
        raise ValueError(f"{d} is not a nonsquare discriminant (need d = 0, 1 mod 4)")
    rest = ms[:]
    divisors = [[1] for _ in bs]
    for p in _primes(isqrt(max(ms))):
        if p == 2:
            starts = [i for i in range(min(2, len(bs))) if ms[i] % 2 == 0]
        elif kronecker(d, p) >= 0:  # d is 0 or a square mod p
            # b = bs[0] + 2i = +-r mod p  <=>  i = (+-r - bs[0]) (p + 1)/2 mod p
            r = sqrt_mod(d, p)
            starts = {(root - bs[0]) * (p + 1) // 2 % p for root in (r, p - r)}
        else:
            continue
        for start in starts:
            for i in range(start, len(bs), p):
                ds = step = divisors[i]
                m = rest[i] // p
                while True:  # append ds*p, ds*p^2, ... for each factor p of m
                    step = [x * p for x in step]
                    ds += step
                    if m % p:
                        break
                    m //= p
                rest[i] = m
    return [ds + [x * r for x in ds] if r > 1 else ds for ds, r in zip(divisors, rest)]


def _primes(top: int):
    """The primes p <= top in increasing order (sieve of Eratosthenes)."""
    composite = bytearray(top + 1)
    for p in range(2, top + 1):
        if not composite[p]:
            composite[p * p::p] = b"\x01" * len(range(p * p, top + 1, p))
            yield p


# -- indefinite forms --------------------------------------------------------


def reduced_indefinite_forms(D: int) -> list[tuple[int, int, int]]:
    """All primitive reduced indefinite forms of discriminant D > 0 (nonsquare).

    A reduced form has 0 < b < sqrt(D), b = D mod 2, ac = -m = (b^2 - D)/4
    and |a|, |c| in the window (sqrt(D) - b)/2 < x < (sqrt(D) + b)/2.  The
    endpoints multiply to m, so x is in the window exactly when m/x is: its
    divisors of m pair up across sqrt(m), the endpoints' geometric mean.  So
    a runs over the divisors of m from the least a with 2a + b > sqrt(D),
    i.e. 2a + b >= isqrt(D) + 1, up to isqrt(m), and gives the forms
    (+-a, b, -+m/a) and (+-m/a, b, -+a).
    """
    if D % 4 > 1:
        raise ValueError(f"D={D} is not a discriminant (need D = 0,1 mod 4)")
    forms = []
    s = isqrt(D)
    for b in range(2 - D % 2, s + 1, 2):
        m = (D - b * b) // 4
        for a in range((s + 2 - b) // 2, isqrt(m) + 1):
            if m % a or gcd(gcd(a, b), m // a) != 1:
                continue
            c = m // a
            forms += [(a, b, -c), (-a, b, c), (c, b, -a), (-c, b, a)]
    return sorted(set(forms))  # a = c lists each form twice


def _cycle_step(form: tuple[int, int, int], D: int, s: int) -> tuple[int, int, int]:
    """One rho step round a cycle of reduced forms, held as (|a|, b, |c|).

    s = isqrt(D).  A reduced form (a, b, c) (`reduced_indefinite_forms`) has
    0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b.  Its ac = (b^2 - D)/4
    is < 0, and 2|c| = (sqrt(D) - b)(sqrt(D) + b)/2|a| lies in the same window
    (its endpoints multiply to D - b^2), so |c| < sqrt(D).  rho takes (a, b, c)
    to (c, b', c') with b' = -b mod 2|c| in (sqrt(D) - 2|c|, sqrt(D)), i.e.
    b' = s - (s + b) mod 2|c| as D is nonsquare; the image is reduced and rho
    permutes the reduced forms (Buchmann & Vollmer, Binary Quadratic Forms,
    2007, ch. 6).  -sqrt(D) < b' < sqrt(D), so c' = (b'^2 - D)/4c has the sign
    of -c, and a' = c has the sign of -a: the sign of a alternates along the
    cycle, and the step needs only |c'| = (D - b'^2)/4|c|.
    """
    _, b, c = form
    b1 = s - (s + b) % (2 * c)
    return (c, b1, (D - b1 * b1) // (4 * c))


def _reduce(form: tuple[int, int, int], D: int,
            s: int) -> tuple[tuple[int, int, int], list[int]]:
    """rho steps from form (a, b, c) until it is reduced or |a| = 1.

    Returns that form and the step quotients t = (b + b')/2c in walk order.
    The step is the reduction operator: b' = -b mod 2|c|, taken in (-|c|, |c|]
    when c^2 > D and in (sqrt(D) - 2|c|, sqrt(D)) (`_cycle_step`) otherwise,
    i.e. in (r - 2|c|, r] with r = max(|c|, isqrt(D)).
    It ends, with no cycle check:
    * While c^2 > D, |b'| <= |c| and |b'^2 - D| < c^2, so |c'| < |c|/4: there
      are at most log_4(|c|/sqrt(D)) + 1 such steps.
    * Once |c| < sqrt(D), b' lies in (sqrt(D) - 2|c|, sqrt(D)), so |b'| <
      sqrt(D) and a' = c is in the window when 2|c| < sqrt(D): the image is
      reduced.  Else |c'| = (D - b'^2)/4|c| < D/4|c| < sqrt(D)/2, and the next
      image is reduced.
    From (p, b, c) with b in (sqrt(D) - 2p, sqrt(D)) (`field.split_prime`) it
    takes no step when 2p < sqrt(D), where the form is reduced, and else |c| <
    p (b^2 and D are below 4p^2), so O(log p) steps.
    """
    a, b, c = form
    quotients = []
    while abs(a) != 1 and not (0 < b <= s and s - b < 2 * abs(a) <= s + b):
        r = max(abs(c), s)  # |c| > s exactly when c^2 > D
        b1 = r - (r + b) % (2 * abs(c))
        quotients.append((b + b1) // (2 * c))
        a, b, c = c, b1, (b1 * b1 - D) // (4 * c)
    return (a, b, c), quotients


def step_product(ts) -> tuple[int, int, int, int]:
    """(m00, m01, m10, m11) of the product of [[0, -1], [1, t]] over ts, in order.

    Runs of _RUN factors are multiplied one at a time, on small integers, and
    the runs in balanced pairs: one factor at a time is quadratic in len(ts).
    """
    mats = []
    for i in range(0, len(ts), _RUN):
        a, b, c, d = 1, 0, 0, 1
        for t in ts[i:i + _RUN]:
            a, b, c, d = b, t * b - a, d, t * d - c
        mats.append((a, b, c, d))
    while len(mats) > 1:  # an odd one out waits at the end for the next round
        mats = [(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
                for (a, b, c, d), (e, f, g, h) in zip(mats[::2], mats[1::2])
                ] + mats[len(mats) & ~1:]
    return mats[0] if mats else (1, 0, 0, 1)


def walk_element(end: tuple[int, int, int], quotients) -> tuple[int, int]:
    """(u, v) of the element (u + v*sqrt(D))/2 that a rho walk with these step
    quotients from (a0, b, c) to end = (a', b', c') gives: its norm is a' * a0,
    +-a0 when a' = +-1.

    A step is the substitution (x, y) -> (-y, x + t*y), and M =
    step_product(quotients).  (x, y) = (m11, -m10), the first column of M^-1,
    has a'x^2 + b'xy + c'y^2 = a0, so (u, v) = (2a'x + b'y, y).  From the
    principal form round its cycle this is the fundamental unit; from
    (p, b, c) to +-1 it generates a prime of norm p (`field.split_prime`).
    """
    a1, b1, _ = end
    _, _, m10, m11 = step_product(quotients)
    return 2 * a1 * m11 - b1 * m10, -m10


def _half_walk(D: int) -> list[tuple[int, int, int]]:
    """The forms f_0, ..., f_(m+1) of the principal walk as (|a|, b, |c|), up
    to its first two consecutive forms with equal |a|, or [] if it comes back
    to +1 first (the half walk of `narrow_class_one`).  f_0 = (1, b0, c0) is
    the principal form, b0 the largest b < sqrt(D) with b = D mod 2; a(f_j)
    has the sign (-1)^j and c(f_j) the other (`_cycle_step`)."""
    s = isqrt(D)
    b0 = s - (s - D) % 2
    walk = [(1, b0, (D - b0 * b0) // 4)]
    form = walk[0]
    while True:
        last, form = form[0], _cycle_step(form, D, s)
        walk.append(form)
        if form[0] == last:  # the midpoint
            return walk
        if form[0] == 1:  # back at the principal form: N(eps) = +1
            return []


def narrow_class_one(D: int, primes=None) -> "list[tuple[int, int, int]] | None":
    """The half walk `_half_walk(D)` if h+(D) = 1, else None, for a
    fundamental discriminant D > 0.

    primes, if given, is a sorted list holding every prime p with 4p^2 < D
    (a sweep sieves them once for all its D); else they are sieved here.
    h+(D) = 1 exactly when the principal walk, rho steps from f_0 =
    (1, b0, c0) to the first form with |a| = 1, ends at leading coefficient
    -1 and every prime p with 4p^2 < D and (D/p) >= 0 is some |a| along it;
    the half walk tells both.  Proof:

    * The walk stops at the first form (+-1, b, c) on the principal cycle,
      and its unit eta (`walk_element`), of norm that leading coefficient,
      generates the units modulo -1.  If the norm is +1, h+ = 2h > 1.  If it
      is -1, h+ = h: narrow and wide classes agree.
    * A reduced form with |a| = 1 has its b in (sqrt(D) - 2, sqrt(D)), so it
      is (1, b0, c0), the principal form, or (-1, b0, -c0).  rho commutes
      with (a, b, c) -> (-a, b, -c), so when the walk ends at -1 the
      principal cycle is the walk and then the walk negated: the cycle is
      closed under negation and the walk meets every |a| on it.
    * Minkowski's bound for a real quadratic field is sqrt(D)/2: every ideal
      class holds an integral ideal of smaller norm, so the primes of norm
      p < sqrt(D)/2 (4p^2 < D; sqrt(D)/2 is irrational) generate the class
      group.  An inert p has norm p^2 and is principal.  A split or ramified
      p, (D/p) >= 0, lies under a prime P of norm p whose conjugate is its
      inverse, so h = 1 exactly when every such P is principal.
    * P or its conjugate has the form (p, b, (b^2 - D)/4p), b = D mod 2 and
      b^2 = D mod 4p, with b the one member of its class mod 2p in
      (sqrt(D) - 2p, sqrt(D)); as 2p < sqrt(D) this form is reduced.
      Reduced forms are equivalent exactly when they share a cycle, so P is
      principal exactly when this form is on the principal cycle.
    * Conversely a reduced form (+-p, b', c') has b' in the same window and
      b'^2 = D mod 4p, so b' = +-b mod 2p: on the principal cycle, negated if
      need be, it is the form of P or of its conjugate, so P is principal.

    The half walk (Perron, Die Lehre von den Kettenbruechen; Lenstra,
    "Solving the Pell equation", Notices AMS 49, 2002) stops at +-1 or at the
    first two consecutive forms with equal |a|.  Let f_j = rho^j(f_0), f_0 =
    (1, b0, c0), indices taken mod the cycle's period: rho permutes the
    reduced forms, so from f_0 the walk stays on the principal cycle and
    ends within one period, with no cycle check.
    * Mirror.  A reduced f = (a, b, c) has ac < 0 and b in (sqrt(D) - 2|c|,
      sqrt(D)), and f* = (c, b, a) is reduced (the window is symmetric in |a|
      and |c|).  rho(f)* = (c', b', c) steps to (c, b'', a): b'' = -b' = b mod
      2|c| in that window, so b'' = b.  Hence rho(rho(f)*) = f*; f_0* =
      (c0, b0, 1) steps to f_0, so f_0* = f_-1, and by induction f_j* =
      f_(-j-1).  Reading a(f*) = c(f) = a(rho(f)): a(f_(j+1)) = a(f_(-j-1)).
    * The midpoint.  Write -f for (-a, b, -c).  If the walk ends at f_l =
      -f_0, then f_(i+l) = -f_i, so a(f_(l-i)) = a(f_(i-l)) = -a(f_i): |a|
      along f_0, ..., f_l is a palindrome, l is odd (a(f_(l/2)) would be 0),
      and the middle pair f_m, f_(m+1), l = 2m + 1, has equal |a|.
      Conversely if |a(f_j)| = |a(f_(j+1))| = |c(f_j)| then f_j = (a, b, -a)
      = -f_j* = -f_(-j-1) = rho^(-j-1)(-f_0), so -f_0 = f_(2j+1): the walk
      ends at -1 by step 2j + 1.  So the first equal pair is the middle pair
      (j <= m as that is one, 2j + 1 >= l as the walk ends at l), the half
      walk takes m + 1 = (l + 1)/2 steps, and the |a| it meets, those of
      f_0, ..., f_(m+1), are every |a| on the walk.  (At l = 1 the one step
      is both the pair and the end at -1.)
    * A walk with N(eps) = +1 never meets -1, so it has no equal pair: the
      half walk runs on to +1, and the certificate refuses it.
    """
    walk = _half_walk(D)
    if not walk:
        return None
    met = {a for a, _, _ in walk}
    top = isqrt((D - 1) // 4)  # 4p^2 < D  <=>  p <= top
    primes = _primes(top) if primes is None else primes[:bisect_right(primes, top)]
    return walk if all(p in met or kronecker(D, p) < 0 for p in primes) else None


def h_narrow_indefinite(D: int) -> int:
    """Narrow class number h+(D) of fundamental (so nonsquare) D: cycles of reduced forms.

    Reduced forms are properly equivalent exactly when they share a rho cycle
    (Buchmann & Vollmer ch. 6), so h+ counts the cycles.  They are counted
    from the cycles of (|a|, b, |c|) under `_cycle_step`.  Over an unsigned
    form are two reduced forms f and -f = (-a, b, -c), and rho(-f) = -rho(f).
    So if the unsigned cycle of f has length L, rho^L(f) = +-f, with the sign
    (-1)^L as a alternates: for odd L, f and -f share one signed cycle of
    length 2L; for even L they lie on two cycles of length L.  Each unsigned
    cycle counts 1 if L is odd and 2 if L is even.
    """
    if D <= 0:
        raise ValueError(f"need D > 0, got {D}")
    if not is_fundamental_discriminant(D):
        raise ValueError(f"D={D} is not a fundamental discriminant")
    unsigned = {(abs(a), b, abs(c)) for a, b, c in reduced_indefinite_forms(D)}
    s, h = isqrt(D), 0
    while unsigned:
        f = g = unsigned.pop()
        length = 1
        while (g := _cycle_step(g, D, s)) != f:
            unsigned.remove(g)
            length += 1
        h += 2 - length % 2
    return h


# -- analytic bound ----------------------------------------------------------


def h_bound(N: int, precision_bits: int = 128) -> Fraction:
    """Certified rational upper bound sqrt(N)*log(N)/pi (within 1 percent).

    For fundamental N > 12 this dominates h(-N); the bound itself is returned
    so callers can do exact rational comparisons.
    """
    if N <= 1:
        raise ValueError("need N > 1")
    return upper_rational(sqrt_log_over_pi(N, precision_bits))

