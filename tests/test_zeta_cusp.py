from fractions import Fraction
from math import isqrt, sqrt

import pytest
import sympy

from hmsurf.chern import default_discriminants
from hmsurf.field import fundamental_unit, make_field
from hmsurf.zeta import (
    CuspCycle,
    QuadIrrational,
    cusp_resolution,
    cycle_unit,
    local_chern_divisor_sum,
    minus_cf_cycle,
    zeta_minus_one,
)


def oracle_zeta(D):
    """sigma_1 sum over (D - x^2)/4, written against sympy."""
    total = 0
    for x in range(-isqrt(D), isqrt(D) + 1):
        if x * x < D and (D - x * x) % 4 == 0:
            total += sympy.divisor_sigma((D - x * x) // 4, 1)
    return Fraction(int(total), 60)


def test_zeta_spot_values():
    assert zeta_minus_one(5) == Fraction(1, 30)
    assert zeta_minus_one(13) == Fraction(1, 6)
    assert zeta_minus_one(8) == Fraction(1, 12)
    assert zeta_minus_one(17) == Fraction(1, 3)
    assert zeta_minus_one(853) == Fraction(529, 6)


def test_zeta_vs_oracle_all_table_discs():
    for D in [5, 8] + default_discriminants():
        assert zeta_minus_one(D) == oracle_zeta(D), D


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
    assert minus_cf_cycle(5) == (3,)
    assert minus_cf_cycle(8) == (4, 2)
    assert minus_cf_cycle(13) == (5, 2, 2)
    # canonical rotation puts the lexicographically greatest first
    for D in (5, 8, 13, 17, 29, 37):
        cyc = minus_cf_cycle(D)
        assert all(b >= 2 for b in cyc)
        assert any(b >= 3 for b in cyc)  # all-2 cycles cannot close for D > 0
        rots = [cyc[i:] + cyc[:i] for i in range(len(cyc))]
        assert cyc == max(rots)


def test_cycle_unit_is_trace_of_eps_plus():
    # independent identity: the period matrix trace is the trace of the
    # fundamental totally positive unit
    for D in (5, 8, 13, 17, 29, 101, 853):
        eps = fundamental_unit(D)
        eps_plus = eps * eps if eps.norm() == -1 else eps
        cyc = minus_cf_cycle(D)
        m = [[1, 0], [0, 1]]
        for b in cyc:
            m = [[m[0][0] * b + m[0][1], -m[0][0]],
                 [m[1][0] * b + m[1][1], -m[1][0]]]
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
        assert m[0][0] + m[1][1] == eps_plus.trace(), D
        assert cycle_unit(cyc, D) == eps_plus


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
        assert cycle_unit(cc.cycle, D) == F.eps_plus


def test_volume_floor():
    # zeta_E(-1) > D^(3/2)/360, the floor that zeta_mode="bound" relies on,
    # compared exactly by squaring both (positive) sides
    for D in [5, 8] + default_discriminants():
        z = zeta_minus_one(D)
        assert z > 0 and (360 * z.numerator) ** 2 > D ** 3 * z.denominator ** 2, D
