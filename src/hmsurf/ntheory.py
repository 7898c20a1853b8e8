"""Small integer number-theory helpers shared across the package, and the
base of its immutable value types.

Everything here is exact integer arithmetic; no floats.
"""

from __future__ import annotations


class Frozen:
    """Base of the package's value types: a subclass lists its fields in
    __slots__ and sets each once in __init__ with object.__setattr__, after
    which assigning or deleting one raises AttributeError.  copy and pickle
    restore the slots through __setstate__."""

    __slots__ = ()

    def _refuse(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __setattr__ = __delattr__ = _refuse

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


def is_prime(n: int) -> bool:
    """Deterministic primality test (trial division + Miller-Rabin witnesses).

    A failed base proves n composite.  Passing the prime bases 2..41 proves n
    prime below psi_13 = 3317044064679887385961981 (Sorenson & Webster, Math.
    Comp. 86, 2017); from psi_13 up a pass proves nothing: ValueError.
    """
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= 3317044064679887385961981:
        raise ValueError(f"cannot prove {n} prime: Miller-Rabin bases 2..41 are "
                         f"proved only below 3317044064679887385961981")
    return True


def kronecker(a: int, p: int) -> int:
    """Kronecker symbol (a|p) at a prime p, which the caller has proved prime:
    Euler's criterion for odd p (Cohen 1993, 1.4); (a|2) = 0 for even a, +1
    for a = +-1 mod 8, -1 for a = +-3 mod 8."""
    if p == 2:
        return 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo the prime p (Tonelli-Shanks); ValueError if none."""
    a %= p
    if a == 0 or p == 2:
        return a
    if kronecker(a, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    r, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
    if t == 1:  # r^2 = a * a^q = a already (always so when p = 3 mod 4)
        return r
    z = next(z for z in range(2, p) if kronecker(z, p) == -1)
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
