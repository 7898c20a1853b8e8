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


def test_is_prime_answers_only_what_its_bases_prove():
    # psi_12, the least strong pseudoprime to the bases 2..37, is composite
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441 and not is_prime(psi12)
    # psi_13, the least one to the bases 2..41, is where a pass stops proving
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        is_prime(3317044064679887385961981)
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)
    # a witness or a small factor still proves a large n composite
    assert not is_prime((2**61 - 1) * (2**31 - 1)) and not is_prime(2**100)


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


def test_kronecker_at_odd_primes_vs_legendre():
    for p in filter(is_prime, range(3, 500)):
        for a in range(-2 * p, 2 * p):
            want = sympy.legendre_symbol(a % p, p) if a % p else 0
            assert kronecker(a, p) == want, (a, p)


def test_kronecker_at_two_mod_8_table():
    table = {0: 0, 1: 1, 2: 0, 3: -1, 4: 0, 5: -1, 6: 0, 7: 1}
    for a in range(-40, 40):
        assert kronecker(a, 2) == table[a % 8], a


@given(st.integers(-80, 80), st.integers(-80, 80),
       st.sampled_from([p for p in range(2, 60) if sympy.isprime(p)]))
def test_kronecker_multiplicative_on_top(a, b, p):
    assert kronecker(a * b, p) == kronecker(a, p) * kronecker(b, p)


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
