import random
from fractions import Fraction
from math import isqrt, sqrt

import pytest
import sympy

from hmsurf.chern import default_discriminants
from hmsurf import zeta
from hmsurf.field import NarrowClassError, make_field
from hmsurf.forms import h_narrow_indefinite, step_product
from hmsurf.ntheory import is_fundamental_discriminant, is_prime
from hmsurf.zeta import (
    CuspCycle,
    InternalCheckError,
    cusp_resolution,
    local_chern_divisor_sum,
    minus_cf_cycle,
    zeta_minus_one,
)

from helpers import QuadIrrational, linear_product, oracle_minus_cf_period


def oracle_zeta(D):
    """sigma_1 sum over (D - x^2)/4, written against sympy."""
    total = 0
    for x in range(-isqrt(D), isqrt(D) + 1):
        if x * x < D and (D - x * x) % 4 == 0:
            total += sympy.divisor_sigma((D - x * x) // 4, 1)
    return Fraction(int(total), 60)


def oracle_chern(D):
    """-1/2 sigma_0 sum over (D - x^2)/4, written against sympy."""
    total = sum(sympy.divisor_sigma((D - x * x) // 4, 0)
                for x in range(-isqrt(D), isqrt(D) + 1) if x * x < D and (D - x * x) % 4 == 0)
    assert total % 2 == 0, D
    return -int(total) // 2


def test_zeta_spot_values():
    assert zeta_minus_one(5) == Fraction(1, 30)
    assert zeta_minus_one(13) == Fraction(1, 6)
    assert zeta_minus_one(8) == Fraction(1, 12)
    assert zeta_minus_one(17) == Fraction(1, 3)
    assert zeta_minus_one(853) == Fraction(529, 6)


def test_zeta_vs_oracle_all_table_discs():
    for D in [5, 8] + default_discriminants():
        assert zeta_minus_one(D) == oracle_zeta(D), D


def test_local_chern_sum_vs_oracle_all_table_discs():
    for D in [5, 8] + default_discriminants():
        assert local_chern_divisor_sum(D) == oracle_chern(D), D


def test_divisor_sums_at_large_discriminants():
    # primes with h+ = 1, past the table; the values trial division gave
    assert zeta_minus_one(1000033) == Fraction(18127006, 3)
    assert local_chern_divisor_sum(1000033) == -10373
    assert zeta_minus_one(40000021) == Fraction(5865320459, 6)
    assert local_chern_divisor_sum(40000021) == -35589


def test_zeta_positive_and_growing():
    vals = [zeta_minus_one(D) for D in default_discriminants()]
    assert all(v > 0 for v in vals)
    # crude growth: the largest discriminant dwarfs the smallest
    assert vals[-1] > 100 * vals[0]


def test_local_chern_sum_spots():
    assert local_chern_divisor_sum(5) == -1
    assert local_chern_divisor_sum(8) == -2
    assert local_chern_divisor_sum(13) == -3
    assert local_chern_divisor_sum(17) == -5


def test_minus_cf_cycles_small():
    assert minus_cf_cycle(make_field(5)) == (3,)
    assert minus_cf_cycle(make_field(8)) == (4, 2)
    assert minus_cf_cycle(make_field(13)) == (5, 2, 2)
    # canonical rotation puts the lexicographically greatest first
    for D in (5, 8, 13, 17, 29, 37):
        cyc = minus_cf_cycle(make_field(D))
        assert all(b >= 2 for b in cyc)
        assert any(b >= 3 for b in cyc)  # all-2 cycles cannot close for D > 0
        rots = [cyc[i:] + cyc[:i] for i in range(len(cyc))]
        assert cyc == max(rots)


def test_cycle_unit_is_trace_of_eps_plus():
    # the cycle and eps come from one rho walk, but this identity reads them
    # differently: the period matrix of the minus cycle, taken one factor at a
    # time, has the trace of eps_plus = eps^2, and so has the balanced
    # step_product that cusp_resolution checks; eps has norm -1
    for D in [5, 8] + default_discriminants():
        F = make_field(D)
        eps = F.eps
        assert eps.norm() == -1, D
        eps_plus = eps * eps
        cyc = minus_cf_cycle(F)
        m00, m01, m10, m11 = linear_product((b, -1, 1, 0) for b in cyc)
        assert m00 * m11 - m01 * m10 == 1
        assert m00 + m11 == eps_plus.u, D
        s00, _, _, s11 = step_product(cyc)
        assert s00 + s11 == eps_plus.u, D


def test_minus_cf_cycle_vs_oracle():
    # exact, greatest rotation included, where trying all m rotations is cheap
    small = [D for D in range(5, 5001) if is_fundamental_discriminant(D)
             and isqrt(D) ** 2 != D and h_narrow_indefinite(D) == 1]
    assert len(small) == 283
    for D in small:
        period = oracle_minus_cf_period(D)
        rotations = [period[i:] + period[:i] for i in range(len(period))]
        assert minus_cf_cycle(make_field(D)) == max(rotations), D
    # as cyclic sequences (a comma-bounded substring of the oracle's period
    # read twice) at seeded primes D = 1 mod 4 with h+ = 1 up to 3 * 10^6
    rng = random.Random(15)
    drawn = 0
    while drawn < 12:
        D = 4 * rng.randrange(2, 750_000) + 1
        if not is_prime(D):
            continue
        try:
            F = make_field(D)
        except NarrowClassError:
            continue
        drawn += 1
        cycle, period = minus_cf_cycle(F), oracle_minus_cf_period(D)
        text = "," + ",".join(map(str, cycle)) + ","
        assert len(cycle) == len(period), D
        assert text in "," + ",".join(map(str, period * 2)) + ",", D


def test_quad_irrational_steps():
    w = QuadIrrational(1, 2, 13)  # (1+sqrt(13))/2 ~ 2.30
    assert w.floor() == 2 and w.ceil() == 3
    b, w1 = w.minus_step()
    assert b == 3

    def value(x):  # (P + sqrt(D))/Q as a float
        return (x.P + sqrt(x.D)) / x.Q

    assert abs(1.0 / (b - value(w)) - value(w1)) < 1e-12
    with pytest.raises(ValueError):
        QuadIrrational(1, 5, 13)  # 5 does not divide 13 - 1
    with pytest.raises(ValueError):
        QuadIrrational(0, 0, 13)


def test_negative_q_floor():
    w = QuadIrrational(1, -2, 13)  # (1+sqrt(13))/(-2) ~ -2.30
    assert w.floor() == -3
    assert w.ceil() == -2


def test_cusp_cycle_arithmetic():
    cc = CuspCycle(D=13, cycle=(5, 2, 2))
    assert cc.m == 3 and cc.l == 3 and cc.c == -3
    nodal = CuspCycle(D=5, cycle=(3,))
    assert nodal.m == 1 and nodal.c == -1


def test_cusp_resolution_cross_checks():
    for D in (5, 13, 17, 853):
        F = make_field(D)
        cc = cusp_resolution(F)
        assert cc.c == local_chern_divisor_sum(D)
        assert cc.c < 0
        m00, _, _, m11 = step_product(cc.cycle)
        assert m00 + m11 == F.eps_plus.u


def test_cusp_resolution_refuses_a_bumped_cycle(monkeypatch):
    # one entry up, or one up and the next down so that c stays the same: the
    # trace check alone must catch either
    def bumped(delta):
        def cycle(F):
            b = list(minus_cf_cycle(F))
            b[0] += 1
            b[1 % len(b)] += delta
            return tuple(b)
        return cycle

    for D in [5, 8] + default_discriminants():
        F = make_field(D)
        for delta in (0, -1):
            if len(minus_cf_cycle(F)) == 1 and delta:
                continue
            monkeypatch.setattr(zeta, "minus_cf_cycle", bumped(delta))
            with pytest.raises(InternalCheckError, match="eps_plus"):
                cusp_resolution(F)
            monkeypatch.undo()
        assert cusp_resolution(F).c == local_chern_divisor_sum(D)


def test_volume_floor():
    # zeta_E(-1) > D^(3/2)/360, the floor that zeta_mode="bound" relies on,
    # compared exactly by squaring both (positive) sides
    for D in [5, 8] + default_discriminants():
        z = zeta_minus_one(D)
        assert z > 0 and (360 * z.numerator) ** 2 > D ** 3 * z.denominator ** 2, D
