"""Small integer number-theory helpers shared across the package.

Everything here is exact integer arithmetic; no floats.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    """Deterministic primality test (trial division + Miller-Rabin witnesses).

    The Miller-Rabin base set is provably correct for n < 3.3 * 10^24,
    far beyond anything this package handles.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), fully general (n may be 0, negative, even)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -1
    # factor out twos from n
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            k = -k
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo the prime p (Tonelli-Shanks); ValueError if none."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    r, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
    if t == 1:  # r^2 = a * a^q = a already (always so when p = 3 mod 4)
        return r
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c = pow(z, q, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, r, t = i, b * b % p, r * b % p, t * b * b % p
    return r


def squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def is_fundamental_discriminant(d: int) -> bool:
    """True if d is a fundamental quadratic discriminant (1 itself is excluded)."""
    if d == 0 or d == 1:
        return False
    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and squarefree(m)
    return False
