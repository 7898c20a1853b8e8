import random
import types
from fractions import Fraction
from math import gcd, isqrt, log, pi, sqrt

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hmsurf import forms
from hmsurf.chern import default_discriminants
from hmsurf.field import _cycle_position
from hmsurf.forms import (
    _RUN,
    _SIEVE_FROM,
    _sieve_divisors,
    h_bound,
    h_definite,
    h_narrow_indefinite,
    narrow_class_one,
    reduced_indefinite_forms,
    step_product,
)
from hmsurf.ntheory import is_fundamental_discriminant, is_prime, kronecker, sqrt_mod

from helpers import (full_principal_walk, full_walk_certificate, linear_product,
                     oracle_reduced_indefinite_forms, rho_step, signed_cycle_count)


def oracle_h_definite(N):
    """Count reduced positive forms of discriminant -N by raw enumeration:
    -a < b <= a <= c, b >= 0 if a == c, gcd 1.  Written independently."""
    count = 0
    for a in range(1, isqrt(N // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b + N
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            count += 1
    return count


def test_definite_spot_values():
    known = {3: 1, 4: 1, 7: 1, 8: 1, 11: 1, 15: 2, 20: 2, 23: 3, 24: 2,
             39: 4, 47: 5, 52: 2, 71: 7, 87: 6, 116: 6, 163: 1, 427: 2}
    for N, h in known.items():
        assert h_definite(N) == h, N


def test_definite_vs_oracle_sweep():
    for N in range(3, 1500):
        if (-N) % 4 not in (0, 1):
            continue
        assert h_definite(N) == oracle_h_definite(N), N


@given(st.integers(3, 40000))
def test_definite_vs_oracle_random(N):
    if (-N) % 4 not in (0, 1):
        return
    assert h_definite(N) == oracle_h_definite(N)


def test_sieve_divisors_vs_trial_division():
    # the divisors h_definite takes from the sieve at N >= _SIEVE_FROM, checked small
    for N in range(3, 3000):
        if (-N) % 4 not in (0, 1):
            continue
        bs = range(N % 2, isqrt(N // 3) + 1, 2)
        ms = [(b * b + N) // 4 for b in bs]
        for m, ds in zip(ms, _sieve_divisors(-N, bs, ms)):
            assert sorted(ds) == sympy.divisors(m), (N, m)


def test_sieve_divisors_at_positive_discriminants():
    # the divisors of (D - x^2)/4 behind zeta_E(-1) and c: D = 5 has one
    # value, and at D = 8 the values (2, 1) do not increase
    checked = 0
    for D in range(5, 3001):
        if not is_fundamental_discriminant(D):
            continue
        xs = range(D % 2, isqrt(D - 1) + 1, 2)
        ms = [(D - x * x) // 4 for x in xs]
        for m, ds in zip(ms, _sieve_divisors(D, xs, ms)):
            assert sorted(ds) == sympy.divisors(m), (D, m)
        checked += 1
    assert checked == 909


def test_sieve_divisors_refuses_non_discriminants_and_squares():
    for d in (99, -98, 2, 0, 4, 100, 10 ** 6):
        xs = range(d % 2, 5, 2)
        with pytest.raises(ValueError, match="not a nonsquare discriminant"):
            _sieve_divisors(d, xs, [abs(x * x - d) // 4 for x in xs])


@settings(max_examples=6, deadline=None)
@given(st.integers(-(-_SIEVE_FROM // 4), (10**6 - 3) // 4), st.sampled_from((0, 3)))
def test_definite_vs_oracle_on_the_sieve_path(k, r):
    N = 4 * k + r  # -N = 0, 1 mod 4, in [_SIEVE_FROM, 10^6]
    assert h_definite(N) == oracle_h_definite(N)


def test_definite_vs_oracle_either_side_of_the_sieve_switch():
    # trial division below _SIEVE_FROM, the sieve from it on
    checked = 0
    for N in range(_SIEVE_FROM - 24, _SIEVE_FROM + 24):
        if (-N) % 4 in (0, 1):
            assert h_definite(N) == oracle_h_definite(N), N
            checked += 1
    assert checked == 24


def test_class_numbers_at_large_discriminants():
    # the queries pool's top decade, and h+ either side of 10^6
    for N, h in ((1700196, 488), (6811267, 225), (9488395, 452), (9869828, 1536)):
        assert h_definite(N) == h, N
    assert h_narrow_indefinite(999961) == 3
    assert h_narrow_indefinite(1000033) == 1


def test_definite_rejects():
    with pytest.raises(ValueError):
        h_definite(0)
    with pytest.raises(ValueError):
        h_definite(5)  # -5 is 3 mod 4


def test_narrow_class_numbers_known():
    known = {5: 1, 8: 1, 12: 2, 13: 1, 17: 1, 21: 2, 24: 2, 29: 1,
             37: 1, 40: 2, 41: 1, 44: 2, 229: 3, 853: 1}
    for D, h in known.items():
        assert h_narrow_indefinite(D) == h, D


def test_narrow_class_number_prime_disc_is_odd():
    # genus theory: one ramified prime means trivial 2-torsion
    for D in range(5, 400, 4):
        if is_fundamental_discriminant(D) and all(D % p for p in range(2, isqrt(D) + 1)):
            assert h_narrow_indefinite(D) % 2 == 1, D


def test_narrow_rejections():
    for bad in (0, -5, 45, 16):
        with pytest.raises(ValueError):
            h_narrow_indefinite(bad)
    for bad in (10, 15):
        with pytest.raises(ValueError, match="not a discriminant"):
            reduced_indefinite_forms(bad)


def test_narrow_class_one_vs_oracle():
    # every fundamental D <= 20000 (every shape, both signs of N(eps); D = 12
    # and 21 have h+ = 2 and no prime below sqrt(D)/2 to test), and seeded
    # primes D = 1 mod 4 up to 10^7
    rng = random.Random(17)
    primes = []
    while len(primes) < 12:
        D = 4 * rng.randrange(25_000, 2_500_000) + 1
        if is_prime(D):
            primes.append(D)
    discs = [D for D in range(5, 20001) if is_fundamental_discriminant(D)]
    assert len(discs) == 6081
    for D in discs + primes:
        assert (narrow_class_one(D) is not None) == (h_narrow_indefinite(D) == 1), D


def test_half_walk_stops_at_the_midpoint(monkeypatch):
    # at every prime D = 1 mod 4 up to 2*10^5, and at D = 5 and 8, the full
    # walk ends at -1 after l steps; the certificate's half walk takes
    # (l + 1)/2 of them, each the oracle's signed rho step without its signs,
    # meets the full walk's |a| and gives its verdict.  At every fundamental
    # D <= 5000 with N(eps) = +1 it takes the whole period back to +1 and
    # refuses.
    reached = []
    step = forms._cycle_step

    def recorded(form, D, s):
        form = step(form, D, s)
        reached.append(form)
        return form

    monkeypatch.setattr(forms, "_cycle_step", recorded)
    primes = [8] + [D for D in forms._primes(200_000) if D % 4 == 1]
    fundamental = [D for D in range(5, 5001) if is_fundamental_discriminant(D)]
    plus_one = []
    for D in primes + fundamental:
        walk = full_principal_walk(D)
        leads = [a for a, _, _ in walk[1:]]
        reached.clear()
        verdict = narrow_class_one(D) is not None
        assert verdict == full_walk_certificate(D, walk), D
        assert reached == [(abs(a), b, abs(c)) for a, b, c in walk[1:len(reached) + 1]], D
        if leads[-1] == 1:
            assert not verdict and len(reached) == len(leads), D
            plus_one.append(D)
            continue
        assert len(leads) % 2 == 1 and len(reached) == (len(leads) + 1) // 2, D
        assert {1} | {a for a, _, _ in reached} == {abs(a) for a in leads}, D
    assert len(primes) == 8_978 and not set(primes) & set(plus_one)
    assert (len(fundamental), len(plus_one)) == (1516, 1007)


def test_rho_step_permutes_reduced_forms():
    # the oracle's signed step permutes the reduced forms, and the cycle step
    # is that step without signs: the sign of a alternates
    for D in (5, 8, 13, 17, 40, 229, 1129):
        reduced, s = reduced_indefinite_forms(D), isqrt(D)
        assert reduced, D
        image = set()
        for f in reduced:
            g = rho_step(f, D, s)
            assert g in set(reduced), (D, f, g)
            assert (f[0] > 0) != (g[0] > 0), (D, f, g)
            assert forms._cycle_step((abs(f[0]), f[1], abs(f[2])), D, s) == (
                abs(g[0]), g[1], abs(g[2])), (D, f)
            image.add(g)
        assert len(image) == len(reduced)  # a bijection on the reduced forms
        # every orbit closes
        for f in reduced:
            g, steps = f, 0
            while True:
                g = rho_step(g, D, s)
                steps += 1
                assert steps <= len(reduced) + 1
                if g == f:
                    break


def test_rho_step_off_the_window_and_a_walk_that_cannot_stop():
    # |c| > sqrt(D): b' = -b mod 2|c| is taken in (-|c|, |c|], not below
    # sqrt(D); (-9, 7, -1) has ac > 0, and the next step ends at |a| = 1
    assert forms._reduce((-17, -25, -9), 13, 3) == ((-1, 3, 1), [1, -5])
    assert forms._reduce((-9, 7, -1), 13, 3) == ((-1, 3, 1), [-5])
    assert forms._reduce((3, 5, -1), 37, 6) == ((3, 5, -1), [])  # reduced
    # h+(229) = 3, so FieldContext refuses 229; given the fields the lookup
    # reads of its principal cycle (229 = 15^2 + 4: l = 1), the reduced form
    # (-9, 7, 5) is not found, and the lookup that would walk on from it
    # refuses instead
    F229 = types.SimpleNamespace(D=229, walk=((1, 15, 1), (1, 15, 1)), quotients=(-15,))
    with pytest.raises(RuntimeError, match="not on the principal cycle"):
        _cycle_position(F229, (-9, 7, 5))


def _is_reduced(form, D):
    """0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, by squaring."""
    a, b, _ = form
    two_a = 2 * abs(a)
    return 0 < b and b * b < D and (two_a + b) ** 2 > D and (two_a <= b or (two_a - b) ** 2 < D)


def test_reduce_is_the_oracle_walk_to_the_first_reduced_form():
    # from split_prime's start (p, b, c), b in (sqrt(D) - 2p, sqrt(D)), at
    # every D of narrow class number one up to 2000 and every p < 400 with
    # (D/p) >= 0: the oracle's signed rho steps up to the first form that is
    # reduced or has |a| = 1, none when 2p < sqrt(D), and at most
    # log_4(p/sqrt(D)) + 3 when 2p > sqrt(D)
    longest = 0
    for D in [5, 8] + default_discriminants(2000):
        s = isqrt(D)
        for p in filter(is_prime, range(2, 400)):
            if kronecker(D, p) < 0:
                continue
            b = sqrt_mod(D, p)
            b += p * ((b - D) % 2)
            b = s - (s - b) % (2 * p)
            start = (p, b, (b * b - D) // (4 * p))
            end, quotients = forms._reduce(start, D, s)
            walk = [start]
            while not (_is_reduced(walk[-1], D) or abs(walk[-1][0]) == 1):
                walk.append(rho_step(walk[-1], D, s))
            assert end == walk[-1], (D, p)
            assert quotients == [(b + b1) // (2 * c) for (_, b, c), (_, b1, _)
                                 in zip(walk, walk[1:])], (D, p)
            if 4 * p * p < D:
                assert not quotients, (D, p)
            else:
                assert len(quotients) <= 3 or 16 ** (len(quotients) - 3) * D <= p * p, (D, p)
            longest = max(longest, len(quotients))
    assert longest == 4


def test_h_narrow_indefinite_counts_the_signed_cycles():
    # every fundamental D <= 20000: each unsigned cycle, counted once if odd
    # and twice if even, against the oracle's count of signed rho cycles
    discs = [D for D in range(5, 20001) if is_fundamental_discriminant(D)]
    assert len(discs) == 6081
    for D in discs:
        assert h_narrow_indefinite(D) == signed_cycle_count(D), D


def test_step_product_matches_the_linear_product():
    # random quotients of every length up to four runs and past them, so that
    # runs, odd ones out and balanced pairs all occur; the empty product is 1
    rng = random.Random(21)
    for n in [*range(4 * _RUN + 2), 1000, 4097]:
        ts = [rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(0, 6)) for _ in range(n)]
        assert step_product(ts) == linear_product((0, -1, 1, t) for t in ts), n


def test_reduced_indefinite_forms_vs_oracle_sweep():
    checked = 0
    for D in range(5, 5001):
        if is_fundamental_discriminant(D) and isqrt(D) ** 2 != D:
            assert reduced_indefinite_forms(D) == oracle_reduced_indefinite_forms(D), D
            checked += 1
    assert checked == 1516


def _fundamental_at_or_below(n):
    """The greatest fundamental discriminant <= n (5001 is one, so from n >= 5001
    this stays above 5000; a fundamental D > 1 is never a square)."""
    return next(D for D in range(n, 0, -1) if is_fundamental_discriminant(D))


@settings(max_examples=12, deadline=None)
@given(st.integers(5001, 10**6).map(_fundamental_at_or_below))
def test_reduced_indefinite_forms_vs_oracle_random(D):
    assert reduced_indefinite_forms(D) == oracle_reduced_indefinite_forms(D)


def test_reduced_forms_satisfy_window():
    for D in (5, 13, 40, 229):
        s = sqrt(D)
        for a, b, c in reduced_indefinite_forms(D):
            assert b * b - 4 * a * c == D
            assert 0 < b < s
            assert abs(s - b) < 2 * abs(a) < s + b
            assert a * c < 0


def test_h_bound_value_and_bounding():
    # certified upper for sqrt(N) log(N) / pi, tight to a relative 1e-30
    for N in (13, 100, 9999):
        hb = h_bound(N)
        val = sqrt(N) * log(N) / pi
        assert isinstance(hb, Fraction)
        assert float(hb) == pytest.approx(val, rel=1e-12)
        assert float(hb) >= val * (1 - 1e-12)
    with pytest.raises(ValueError):
        h_bound(1)


def test_h_bound_dominates_sample():
    for N in (13, 20, 52, 39, 420, 9999):
        if is_fundamental_discriminant(-N):
            assert h_definite(N) <= h_bound(N), N
