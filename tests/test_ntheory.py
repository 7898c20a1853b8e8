import pytest
import sympy
from hypothesis import given, strategies as st

from hmsurf.ntheory import (
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    sqrt_mod,
    squarefree,
)


def test_is_prime_small_range():
    for n in range(-5, 2500):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_carmichael_and_large():
    # classic strong-pseudoprime bait
    for n in (561, 1105, 1729, 2465, 6601, 29341, 75361, 3215031751):
        assert not is_prime(n), n
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


@given(st.integers(min_value=2, max_value=2**62))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def test_sqrt_mod_matches_brute_force():
    for p in filter(is_prime, range(2, 200)):
        squares = {x * x % p for x in range(p)}
        for a in range(-p, 2 * p):
            if a % p in squares:
                assert sqrt_mod(a, p) ** 2 % p == a % p, (a, p)
            else:
                with pytest.raises(ValueError):
                    sqrt_mod(a, p)


def test_kronecker_odd_positive_vs_jacobi():
    for n in range(1, 200, 2):
        for a in range(-60, 60):
            assert kronecker(a, n) == sympy.jacobi_symbol(a, n), (a, n)


def test_kronecker_even_and_negative_modulus():
    # (a|2) depends on a mod 8
    for a, want in [(1, 1), (7, 1), (3, -1), (5, -1), (2, 0), (-1, 1), (-3, -1)]:
        assert kronecker(a, 2) == want, a
    # (a|-1) is the sign of a
    assert kronecker(5, -1) == 1
    assert kronecker(-5, -1) == -1
    assert kronecker(0, -1) == 1
    # negative modulus factors through (a|-1)
    assert kronecker(-1, -5) == -1
    assert kronecker(3, -5) == kronecker(3, 5)
    # (a|0) detects units
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(7, 0) == 0
    # spot values with even modulus
    assert kronecker(5, 12) == -1
    assert kronecker(13, 8) == -1
    assert kronecker(17, 8) == 1
    assert kronecker(6, 12) == 0


# the degenerate bottom conventions (0, negatives) are checked by spot values
# above; full multiplicativity is only promised over positive moduli
@given(st.integers(-80, 80), st.integers(1, 60), st.integers(1, 60))
def test_kronecker_multiplicative_in_modulus(a, m, n):
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


@given(st.integers(-80, 80), st.integers(-80, 80), st.integers(1, 60))
def test_kronecker_multiplicative_on_top(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_squarefree():
    for n in range(1, 500):
        want = all(e == 1 for e in sympy.factorint(n).values())
        assert squarefree(n) == want, n
    assert squarefree(-15)
    assert not squarefree(-12)
    assert not squarefree(0)


def test_fundamental_discriminants():
    # independent restatement of the definition
    def oracle(d):
        if d in (0, 1):
            return False
        if d % 4 == 1:
            return all(e == 1 for e in sympy.factorint(d).values())
        if d % 4 == 0:
            m = d // 4
            return m % 4 in (2, 3) and all(e == 1 for e in sympy.factorint(m).values())
        return False

    for d in range(-300, 300):
        assert is_fundamental_discriminant(d) == oracle(d), d
    for d in (5, 8, 12, 13, -3, -4, -7, -8, -20, -39, -52):
        assert is_fundamental_discriminant(d), d
    for d in (9, 25, -12, -9, 16, 45):
        assert not is_fundamental_discriminant(d), d
