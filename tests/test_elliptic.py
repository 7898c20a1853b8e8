import dataclasses
import random
from fractions import Fraction

import pytest

from hmsurf.chern import default_discriminants
from hmsurf.elliptic import (
    ALFixedPoints,
    EllipticCounts,
    EllipticError,
    InconsistentCountsError,
    atkin_lehner_refine,
    bounds_gamma0,
    counts_full_group,
    counts_gamma0,
    root_count,
)
from hmsurf.field import FieldElement, FieldError, make_field, split_prime
from hmsurf.forms import h_definite
from hmsurf.ntheory import is_prime, kronecker
from hmsurf.reference_data import AL_ACTION

from helpers import (
    CompletenessError,
    Mat2,
    NotEllipticError,
    certified_reps,
    counts_gamma0_from_reps,
    enumerate_elliptic_reps,
    is_elliptic,
    isotropy_generators_d5_p2,
    isotropy_generators_d13_degree_one,
    mat,
    matrix_order,
    p1_fixed_count,
    psl_canonical_tuple,
    rand_sl2,
    rotation_type,
)

F5 = make_field(5)
F13 = make_field(13)
F17 = make_field(17)
F29 = make_field(29)


# ---------------------------------------------------------------------------
# matrices and rotation types
# ---------------------------------------------------------------------------

def test_mat2_basics():
    one = Mat2.identity(13)
    g = mat(13, 1, 2, 1, 3)
    assert g.det().as_pair() == (2, 0)  # det 1 as (u+v*sqrt(13))/2 with u=2
    assert g * one == g and one * g == g
    s = mat(13, 0, -1, 1, 0)
    assert s * s == -one
    assert s * s.inverse() == one
    assert hash(mat(13, 0, -1, 1, 0)) == hash(s)
    flat = ()
    for x in (s.a, s.b, s.c, s.d):
        flat += (-x).as_pair()
    assert (-s).as_tuple() == flat
    assert psl_canonical_tuple(s) == psl_canonical_tuple(-s)


def test_stored_isotropy_generators():
    for fixtures in (isotropy_generators_d5_p2(), isotropy_generators_d13_degree_one()):
        for rtype, g in fixtures:
            assert g.det().as_pair() == (2, 0)
            assert is_elliptic(g)
            assert matrix_order(g) == rtype[0]
            assert rotation_type(g) == rtype


def test_rotation_type_conjugation_invariant():
    rng = random.Random(11)
    fixtures = isotropy_generators_d5_p2() + isotropy_generators_d13_degree_one()
    for rtype, g in fixtures:
        F = F5 if g.a.D == 5 else F13
        for _ in range(6):
            h = rand_sl2(F, rng, steps=3, lim=1)
            conj = h * g * h.inverse()
            assert rotation_type(conj) == rtype, (rtype, h)
            assert rotation_type(-conj) == rtype  # same class in PSL2


def test_rotation_type_rejects_non_elliptic():
    with pytest.raises(NotEllipticError):
        rotation_type(mat(13, 1, 1, 0, 1))  # parabolic
    with pytest.raises(NotEllipticError):
        rotation_type(mat(13, 2, 1, 1, 1))  # trace 3: hyperbolic
    # elliptic with determinant eps_plus != 1: outside SL2(O)
    zero, one = FieldElement.from_int(0, 13), F13.one()
    with pytest.raises(EllipticError, match="SL2"):
        rotation_type(Mat2(zero, -F13.eps_plus, one, zero))
    # order 4 (trace sqrt2 over Q(sqrt2)) has no exact rule
    with pytest.raises(EllipticError, match="no rotation type"):
        rotation_type(Mat2.from_pairs(8, [(0, 0), (-2, 0), (2, 0), (0, 1)]))


def test_matrix_order():
    assert matrix_order(mat(13, 0, -1, 1, 0)) == 2
    assert matrix_order(mat(13, 0, -1, 1, -1)) == 3
    assert matrix_order(mat(5, 0, -1, 1, 1)) == 3
    with pytest.raises(NotEllipticError):
        matrix_order(Mat2.identity(13))
    with pytest.raises(NotEllipticError):
        matrix_order(mat(13, 1, 1, 0, 1))


# ---------------------------------------------------------------------------
# count containers and full-level values
# ---------------------------------------------------------------------------

def test_counts_validation():
    with pytest.raises(ValueError):
        EllipticCounts(a2=1, mode="banana")
    with pytest.raises(ValueError):
        EllipticCounts(a2=1, group_tag="banana")
    with pytest.raises(ValueError):
        EllipticCounts(a2=-1)
    with pytest.raises(ValueError):
        EllipticCounts(a2=Fraction(1, 2), mode="exact")
    ok = EllipticCounts(a2=Fraction(1, 2), a3_plus=None, mode="upper_bound")
    assert ok.entries()["a2"] == Fraction(1, 2)
    assert set(ok.entries()) == {"a2", "a3_plus", "a3_minus", "a4_plus",
                                 "a4_minus", "a6_plus", "a6_minus"}


def test_counts_full_group_class_numbers():
    for F in (F13, F17, F29, make_field(37), make_field(41)):
        counts = counts_full_group(F)
        assert counts.group_tag == "full" and counts.mode == "exact"
        assert counts.a2 == h_definite(4 * F.D)
        assert counts.a3_plus == counts.a3_minus == h_definite(3 * F.D) // 2
        assert counts.a4_plus == counts.a6_plus == 0
    assert counts_full_group(F13).entries() == {
        "a2": 2, "a3_plus": 2, "a3_minus": 2,
        "a4_plus": 0, "a4_minus": 0, "a6_plus": 0, "a6_minus": 0,
    }
    assert counts_full_group(F17).a2 == 4
    assert counts_full_group(F29).entries()["a3_minus"] == 3
    assert "a3_minus_assumed_equal_split" in counts_full_group(F13).notes
    with pytest.raises(EllipticError):
        counts_full_group(F5)


# ---------------------------------------------------------------------------
# enumeration with completeness certificate
# ---------------------------------------------------------------------------

def test_enumerate_d13_certified():
    reps = certified_reps(13)
    assert sorted(r.rtype for r in reps) == [
        (2, 1, 1), (2, 1, 1), (3, 1, -1), (3, 1, -1), (3, 1, 1), (3, 1, 1)]
    for rep in reps:
        assert rep.matrix.det().as_pair() == (2, 0)
        assert is_elliptic(rep.matrix)
        assert matrix_order(rep.matrix) == rep.order == rep.rtype[0]
        assert rotation_type(rep.matrix) == rep.rtype
    # distinct classes have distinct canonical matrices
    assert len({psl_canonical_tuple(r.matrix) for r in reps}) == 6


def test_enumerate_d5_certified():
    reps = certified_reps(5)
    assert sorted(r.rtype for r in reps) == [
        (2, 1, 1), (2, 1, 1), (3, 1, -1), (3, 1, 1), (5, 1, -2), (5, 1, 2)]
    for rep in reps:
        assert rotation_type(rep.matrix) == rep.rtype


def test_enumerate_refuses_when_uncertified():
    with pytest.raises(CompletenessError):
        enumerate_elliptic_reps(F13, height_bound=0)
    # the default search box is too small to classify D=17; the certificate
    # must refuse rather than return a wrong catalogue
    with pytest.raises(CompletenessError):
        enumerate_elliptic_reps(F17)
    with pytest.raises(EllipticError):
        enumerate_elliptic_reps(make_field(8))


# ---------------------------------------------------------------------------
# congruence-level counts and the involution refinement
# ---------------------------------------------------------------------------

def test_counts_gamma0_frozen_values():
    (P2,) = split_prime(F13, 2)
    P3 = split_prime(F13, 3)[0]
    g0 = counts_gamma0(F13, P2)
    assert g0.mode == "exact" and g0.group_tag == "gamma0"
    assert (g0.a2, g0.a3_plus, g0.a3_minus) == (2, 4, 4)
    assert g0.notes == ()  # the plus/minus split is proved at level P
    g03 = counts_gamma0(F13, P3)
    assert (g03.a2, g03.a3_plus, g03.a3_minus) == (0, 2, 2)


def _prime_ideals_upto(F, qmax):
    """Every prime ideal of norm <= qmax, both primes over a split p."""
    return [P for p in range(2, qmax + 1) if is_prime(p)
            for P in split_prime(F, p) if P.q <= qmax]


def test_counts_gamma0_matches_enumerator():
    for F in (F5, F13):
        reps = certified_reps(F.D)
        for P in _prime_ideals_upto(F, 200):
            if F.D == 5 and P.q % 5 in (0, 1):
                continue  # order-5 levels, refused below
            want = counts_gamma0_from_reps(F, P, reps)
            assert counts_gamma0(F, P) == want, (F.D, P.q, P.omega_image)


def test_counts_gamma0_whole_table():
    # exact `elliptic --disc D --prime-norm q` on D = 5, every table D and
    # every achievable q <= 200: counts within the bound-mode bounds, or the
    # one known refusal, split_prime's search cap (never an internal
    # failure); root_count agrees with the projective-line oracle on the
    # companion matrices (0 -1; 1 t), and D = 5 refuses exactly the levels
    # where the order-5 trace omega has a root
    for D in [5] + default_discriminants():
        F = make_field(D)
        for p in range(2, 201):
            if not is_prime(p) or (kronecker(D, p) == -1 and p * p > 200):
                continue
            try:
                primes = split_prime(F, p)
            except FieldError as exc:
                assert "search cap" in str(exc), (D, p)
                continue
            for P in primes:
                for t in (0, 1, -1):
                    assert root_count(t, P) == p1_fixed_count(mat(D, 0, -1, 1, t), P), (D, P, t)
                if D == 5:
                    order5 = p1_fixed_count(mat(D, 0, -1, 1, F.omega), P) > 0
                    assert order5 == (P.q % 5 in (0, 1)), P
                    if order5:
                        with pytest.raises(EllipticError, match="orders 2 and 3"):
                            counts_gamma0(F, P)
                    continue  # the other D = 5 levels: matches_enumerator
                counts = counts_gamma0(F, P)
                bound = bounds_gamma0(F, P)
                assert counts.a2 <= bound.a2, (D, P)
                assert counts.a3_plus == counts.a3_minus <= bound.a3_plus, (D, P)


def test_counts_gamma0_rejects_order5_level():
    # order-5 points meet Gamma0(P) exactly when q = 0, 1 mod 5; both the
    # closed form and the enumerator refuse those levels
    reps = certified_reps(5)
    refused = 0
    for P in _prime_ideals_upto(F5, 200):
        if P.q % 5 not in (0, 1):
            continue
        refused += 1
        with pytest.raises(EllipticError, match="orders 2 and 3"):
            counts_gamma0_from_reps(F5, P, reps)
        with pytest.raises(EllipticError, match="orders 2 and 3"):
            counts_gamma0(F5, P)
    assert refused >= 11


def test_counts_gamma0_refuses_small_or_unproved_fields():
    with pytest.raises(EllipticError, match="D > 12"):
        counts_gamma0(make_field(8), split_prime(make_field(8), 7)[0])
    no_minus_unit = dataclasses.replace(F13, eps_norm=1)
    with pytest.raises(InconsistentCountsError, match="norm -1"):
        counts_gamma0(no_minus_unit, split_prime(F13, 3)[0])


def test_enumerated_types_pair_up_under_norm_minus_one_unit():
    # the symmetry counts_gamma0 relies on: as many (n;1,b) classes as (n;1,-b)
    for D in (5, 13):
        tally = {}
        for rep in certified_reps(D):
            tally[rep.rtype] = tally.get(rep.rtype, 0) + 1
        for (n, _, b), count in tally.items():
            assert tally.get((n, 1, -b if n > 2 else b)) == count, (D, tally)


def test_refine_exact_fixtures():
    reps13 = certified_reps(13)
    (P2,) = split_prime(F13, 2)
    P3 = split_prime(F13, 3)[0]
    w2 = atkin_lehner_refine(counts_gamma0_from_reps(F13, P2, reps13), P2,
                             AL_ACTION[(13, 2)])
    assert w2.group_tag == "w_gamma0" and w2.mode == "exact"
    assert (w2.a3_plus, w2.a3_minus, w2.a4_plus, w2.a4_minus) == (2, 2, 1, 1)
    assert w2.a2 is None and w2.a6_plus == 0

    w3 = atkin_lehner_refine(counts_gamma0_from_reps(F13, P3, reps13), P3,
                             AL_ACTION[(13, 3)])
    assert (w3.a3_plus, w3.a3_minus, w3.a4_plus, w3.a4_minus) == (1, 1, 0, 0)

    reps5 = certified_reps(5)
    (P2_5,) = split_prime(F5, 2)
    w5 = atkin_lehner_refine(counts_gamma0_from_reps(F5, P2_5, reps5), P2_5,
                             AL_ACTION[(5, 2)])
    assert (w5.a3_plus, w5.a3_minus, w5.a4_plus, w5.a4_minus) == (1, 1, 1, 1)


def test_refine_relation_on_exact_inputs():
    # 2*a3_plus(W) + a6_plus(W) = a3_plus(Gamma0), for every exact input
    rng = random.Random(99)
    (P2_13,) = split_prime(F13, 2)
    P3_13 = split_prime(F13, 3)[0]
    (P3_29,) = split_prime(F29, 3)  # 3 inert: order-3 points may be fixed
    for _ in range(120):
        a6p = 0
        a6m = 0
        P = rng.choice((P2_13, P3_13, P3_29))
        if P.p == 3 and P.splitting == "inert" and rng.random() < 0.6:
            a6p, a6m = rng.randint(0, 3), rng.randint(0, 3)
        a3p = a6p + 2 * rng.randint(0, 5)
        a3m = a6m + 2 * rng.randint(0, 5)
        fx = ALFixedPoints(order3_fixed_plus=a6p, order3_fixed_minus=a6m)
        a2 = rng.randint(0, 6)
        if P.p == 2 and P.splitting == "inert":
            f2p = rng.randint(0, a2)
            f2m = rng.randint(0, a2 - f2p)
            if (a2 - f2p - f2m) % 2:
                f2m += 1 if f2m + f2p < a2 else -1
            fx = ALFixedPoints(order2_to_4_plus=f2p, order2_to_4_minus=f2m)
        g0 = EllipticCounts(a2=a2, a3_plus=a3p, a3_minus=a3m,
                            mode="exact", group_tag="gamma0")
        try:
            w = atkin_lehner_refine(g0, P, fx)
        except InconsistentCountsError:
            continue  # randomized bookkeeping can be infeasible; that is fine
        assert 2 * w.a3_plus + w.a6_plus == g0.a3_plus
        assert 2 * w.a3_minus + w.a6_minus == g0.a3_minus


def test_refine_new_order2_bookkeeping():
    reps = certified_reps(13)
    (P2,) = split_prime(F13, 2)
    g0 = counts_gamma0_from_reps(F13, P2, reps)
    fx = dataclasses.replace(AL_ACTION[(13, 2)], new_order2=6)
    w = atkin_lehner_refine(g0, P2, fx)
    assert w.a2 == 6  # (2 - 1 - 1)/2 exchanged pairs + 6 new points


def test_refine_error_paths():
    (P2,) = split_prime(F13, 2)
    P3_split = split_prime(F13, 3)[0]
    (P3_inert,) = split_prime(F29, 3)
    good = EllipticCounts(a2=2, a3_plus=4, a3_minus=4, mode="exact", group_tag="gamma0")
    # odd pairing
    odd = EllipticCounts(a2=0, a3_plus=3, a3_minus=3, mode="exact", group_tag="gamma0")
    with pytest.raises(InconsistentCountsError):
        atkin_lehner_refine(odd, P3_split, ALFixedPoints())
    # order-3 fixed points on a prime that is not (3) inert
    with pytest.raises(InconsistentCountsError):
        atkin_lehner_refine(good, P2, ALFixedPoints(order3_fixed_plus=1))
    # order-2 fixed points on a prime that is not (2) inert
    with pytest.raises(InconsistentCountsError):
        atkin_lehner_refine(good, P3_split, ALFixedPoints(order2_to_4_plus=1))
    # more fixed points than there are points
    with pytest.raises(InconsistentCountsError):
        atkin_lehner_refine(good, P2, ALFixedPoints(order2_to_4_plus=2,
                                                    order2_to_4_minus=1))
    # negative after removing fixed ones
    skimpy = EllipticCounts(a2=0, a3_plus=2, a3_minus=2, mode="exact", group_tag="gamma0")
    with pytest.raises(InconsistentCountsError):
        atkin_lehner_refine(skimpy, P3_inert, ALFixedPoints(order3_fixed_plus=4))
    # wrong input tag
    with pytest.raises(ValueError):
        atkin_lehner_refine(counts_full_group(F13), P2)


def test_bounds_gamma0_values_and_ordering():
    (P2,) = split_prime(F13, 2)
    b = bounds_gamma0(F13, P2)
    assert b.mode == "upper_bound" and b.group_tag == "gamma0"
    assert b.a2 == 6 and b.a3_plus == 6 and b.a3_minus is None
    ba = bounds_gamma0(F13, P2, method="analytic")
    assert ba.a2 >= b.a2 and ba.a3_plus >= b.a3_plus
    # genuine upper bounds for the exact congruence-level counts
    g0 = counts_gamma0_from_reps(F13, P2, certified_reps(13))
    assert g0.a2 <= b.a2 and g0.a3_plus <= b.a3_plus and g0.a3_minus <= b.a3_plus
    with pytest.raises(EllipticError):
        bounds_gamma0(F5, split_prime(F5, 2)[0])
    with pytest.raises(ValueError):
        bounds_gamma0(F13, P2, method="banana")


def test_refine_bound_mode():
    (P2,) = split_prime(F13, 2)
    wb = atkin_lehner_refine(bounds_gamma0(F13, P2), P2)
    assert wb.mode == "upper_bound" and wb.group_tag == "w_gamma0"
    assert "w_bounds_independent_uppers" in wb.notes
    assert wb.a2 is None and wb.a3_minus is None
    assert wb.a6_plus == 0              # not the (3)-inert case
    assert wb.a4_plus == 6              # capped by a2(Gamma0) bound
    assert Fraction(2) < wb.a3_plus < Fraction(3)
    # the (3)-inert case produces a positive order-6 allowance
    (P3,) = split_prime(F29, 3)
    wb3 = atkin_lehner_refine(bounds_gamma0(F29, P3), P3)
    assert wb3.a6_plus > 0 and wb3.a4_plus == 0
    assert 2 * wb3.a3_plus == wb3.a6_plus
