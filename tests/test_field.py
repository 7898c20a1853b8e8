import math
import random

import pytest
from hypothesis import given, strategies as st

from hmsurf.field import (
    FieldContext,
    FieldElement,
    FieldError,
    NarrowClassError,
    NotFundamentalError,
    UnsupportedShapeError,
    fundamental_unit,
    make_field,
    split_prime,
)

from helpers import ResidueField, real

DISCS = (5, 8, 13, 17, 29)


def elt(D, n, m):
    """n + m*omega, always an algebraic integer."""
    return FieldElement.from_int(n, D) + FieldElement.omega(D) * FieldElement.from_int(m, D)


small = st.integers(-40, 40)
disc = st.sampled_from(DISCS)


@given(disc, small, small, small, small)
def test_ring_axioms_and_norm(D, n1, m1, n2, m2):
    x = elt(D, n1, m1)
    y = elt(D, n2, m2)
    assert x + y == y + x
    assert x * y == y * x
    assert x - y == -(y - x)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x + y).trace() == x.trace() + y.trace()


@given(disc, small, small)
def test_conjugation(D, n, m):
    x = elt(D, n, m)
    xb = x.conjugate()
    assert xb.conjugate() == x
    assert x + xb == FieldElement.from_int(x.trace(), D)
    assert x * xb == FieldElement.from_int(x.norm(), D)


@given(disc, small, small, st.integers(0, 6))
def test_pow(D, n, m, k):
    x = elt(D, n, m)
    acc = FieldElement.from_int(1, D)
    for _ in range(k):
        acc = acc * x
    assert x**k == acc


@given(disc, small, small, small, small)
def test_divide_exact_roundtrip(D, n1, m1, n2, m2):
    x = elt(D, n1, m1)
    y = elt(D, n2, m2)
    if not y:
        return
    assert (x * y).divide_exact(y) == x


def test_divide_exact_refuses():
    one = FieldElement.from_int(1, 13)
    two = FieldElement.from_int(2, 13)
    assert one.divide_exact(two) is None
    w = FieldElement.omega(13)
    assert w.divide_exact(two) is None
    assert (w * 2).divide_exact(two) == w


@given(disc, small, small)
def test_signs_match_embeddings(D, n, m):
    x = elt(D, n, m)
    if not x:
        return
    for place in (0, 1):
        emb = (n + m * (1 + math.sqrt(D) * (1 if place == 0 else -1)) / 2
               if D % 4 == 1
               else n + m * math.sqrt(D) / 2 * (1 if place == 0 else -1))
        assert x.sign_at(place) == (1 if emb > 0 else -1), (x, place)
    assert x.is_totally_positive() == (x.sign_at(0) > 0 and x.sign_at(1) > 0)


@given(disc, small, small, small, small)
def test_order_matches_first_embedding(D, n1, m1, n2, m2):
    x = elt(D, n1, m1)
    y = elt(D, n2, m2)
    if x == y:
        assert not (x < y) and not (y < x)
        return
    assert (x < y) == (real(x) < real(y))
    assert (x > y) == (y < x)
    assert (x <= y) == (not (y < x))


def test_fundamental_units_frozen():
    # (u, v) encodes (u + v*sqrt(D))/2
    expected = {5: (1, 1), 8: (2, 1), 13: (3, 1), 17: (8, 2), 29: (5, 1)}
    for D, pair in expected.items():
        eps = fundamental_unit(D)
        assert eps.as_pair() == pair, D
        assert eps.norm() == -1, D
        assert eps.sign_at(0) > 0 and real(eps) > 1
        inv = eps.unit_inverse()
        assert eps * inv == FieldElement.from_int(1, D)


def test_fundamental_unit_is_smallest():
    # no unit strictly between 1 and eps: scan norm equations by brute force
    for D in DISCS:
        eps = fundamental_unit(D)
        top = real(eps)
        lim = int(2 * top) + 3
        for u in range(-lim, lim + 1):
            for v in range(-lim, lim + 1):
                if (u - v * D) % 2 or (u, v) == (0, 0):
                    continue
                if D % 4 == 0 and u % 2:
                    continue
                x = FieldElement(u, v, D)
                if abs(x.norm()) != 1:
                    continue
                val = real(x)
                assert not (1.000001 < val < top * 0.999999), (D, u, v)


def test_make_field_contents():
    F = make_field(13)
    assert isinstance(F, FieldContext)
    assert F.D == 13 and F.h_plus == 1 and F.eps_norm == -1
    assert F.eps_plus == F.eps * F.eps
    assert F.eps_plus.is_totally_positive()
    assert F.one() == FieldElement.from_int(1, 13)
    assert F.element(3, 1) == F.eps


@pytest.mark.parametrize(
    "D,exc",
    [
        (12, UnsupportedShapeError),   # fundamental but even, not 8
        (21, UnsupportedShapeError),   # fundamental but composite
        (10, NotFundamentalError),     # 2 mod 4: not a discriminant
        (9, NotFundamentalError),      # square
        (4, UnsupportedShapeError),    # below the supported range
        (-7, UnsupportedShapeError),
        (229, NarrowClassError),       # prime 1 mod 4 but class number 3
    ],
)
def test_make_field_rejections(D, exc):
    with pytest.raises(exc):
        make_field(D)


def test_split_prime_shapes_d13():
    F = make_field(13)
    (p2,) = split_prime(F, 2)
    assert p2.splitting == "inert" and p2.q == 4 and p2.omega_image is None
    p3a, p3b = split_prime(F, 3)
    assert {p3a.splitting, p3b.splitting} == {"split"}
    assert sorted((p3a.omega_image, p3b.omega_image)) == [p3a.omega_image, p3b.omega_image]
    assert p3a.omega_image != p3b.omega_image
    assert abs(p3a.generator.norm()) == 3 and abs(p3b.generator.norm()) == 3
    (p13,) = split_prime(F, 13)
    assert p13.splitting == "ramified" and p13.q == 13
    assert abs(p13.generator.norm()) == 13
    pa, pb = split_prime(F, 17)
    assert pa.splitting == "split" and pa.q == 17 and pb.q == 17


def test_split_prime_rejects_composite():
    F = make_field(13)
    with pytest.raises(FieldError):
        split_prime(F, 6)
    with pytest.raises(FieldError):
        split_prime(F, 1)


def test_prime_membership_and_reduction():
    # x lies in P exactly when it reduces to zero in O/P, a ring map
    F = make_field(13)
    for P in split_prime(F, 2) + split_prime(F, 3) + split_prime(F, 13):
        R = ResidueField(P)
        assert R.reduce(P.generator) == R.reduce(P.generator * F.omega) == R.zero
        assert R.reduce(F.one()) != R.zero
        rng = random.Random(3)
        for _ in range(40):
            x = elt(13, rng.randint(-9, 9), rng.randint(-9, 9))
            y = elt(13, rng.randint(-9, 9), rng.randint(-9, 9))
            assert R.reduce(x + y) == R.add(R.reduce(x), R.reduce(y))
            assert R.reduce(x * y) == R.mul(R.reduce(x), R.reduce(y))
        if P.f == 1:
            assert R.reduce(F.omega) == P.omega_image
        else:  # P = (2)
            assert R.reduce(F.omega) != R.zero


@pytest.mark.parametrize("D,p,q", [(13, 2, 4), (29, 3, 9)])
def test_residue_field_is_a_field(D, p, q):
    F = make_field(D)
    (P,) = split_prime(F, p)
    R = ResidueField(P)
    els = list(R.elements())
    assert len(els) == q
    zero, one = R.zero, R.one
    assert zero in els and one in els and zero != one
    # exhaustive field axioms for these tiny fields
    for a in els:
        assert R.add(a, zero) == a
        assert R.mul(a, one) == a
        assert any(R.add(a, b) == zero for b in els)
        if a != zero:
            assert any(R.mul(a, b) == one for b in els)
        power = a
        for _ in range(q - 1):
            power = R.mul(power, a)
        assert power == a  # Frobenius fixed-point identity x^q = x
        for b in els:
            assert R.add(a, b) == R.add(b, a)
            assert R.mul(a, b) == R.mul(b, a)
            for c in els:
                assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
                assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))


def test_residue_reduce_is_ring_map():
    F = make_field(17)
    for p in (2, 3, 13):
        for P in split_prime(F, p):
            R = ResidueField(P)
            rng = random.Random(p)
            for _ in range(60):
                x = elt(17, rng.randint(-20, 20), rng.randint(-20, 20))
                y = elt(17, rng.randint(-20, 20), rng.randint(-20, 20))
                assert R.reduce(x + y) == R.add(R.reduce(x), R.reduce(y))
                assert R.reduce(x * y) == R.mul(R.reduce(x), R.reduce(y))
            assert R.reduce(FieldElement.from_int(P.p, 17)) == R.zero
