"""The acceptance gate: one test per headline guarantee.

Each test here restates a deliverable of the package as a falsifiable check:
frozen exact values, independent brute-force oracles, randomized stress, and
wall-clock budgets.  The per-criterion pass/fail summary printed after a run
is assembled in conftest.py from these tests' outcomes.
"""

import math
import random
import time
from fractions import Fraction

from hmsurf.chern import (
    c1sq_lower_bound,
    c2_lower_check,
    adjunction_self_intersection,
    classify,
    curve_chern_integrality,
    default_discriminants,
    genus_gamma0_rational,
    table_diff,
    theorem_table,
)
from hmsurf.elliptic import (
    ALFixedPoints,
    EllipticCounts,
    InconsistentCountsError,
    atkin_lehner_refine,
    root_count,
)
from hmsurf.field import make_field, split_prime
from hmsurf.forms import h_definite
from hmsurf.ntheory import is_fundamental_discriminant
from hmsurf.reference_data import AL_ACTION, published_row
from hmsurf.trees import GroupAction, tree_center, verify_center_invariance, verify_equidistance
from hmsurf.zeta import cusp_resolution, local_chern_divisor_sum, zeta_minus_one

from helpers import (
    brute_centres,
    counts_gamma0_from_reps,
    enumerate_elliptic_reps,
    normalize_centre,
    p1_fixed_count,
    rand_elliptic,
    random_subset,
    random_tree,
    symmetric_tree,
)
from test_forms import oracle_h_definite


def best_time(fn, repeats=7):
    """Smallest of several timings: immune to scheduler noise in a busy CI."""
    fn()  # warm caches once, outside the clock
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_exact_zeta_values():
    assert zeta_minus_one(5) == Fraction(1, 30)
    assert zeta_minus_one(13) == Fraction(1, 6)
    assert zeta_minus_one(8) == Fraction(1, 12)
    for D in (5, 13, 8):
        assert best_time(lambda: zeta_minus_one(D)) < 1e-3, D


def test_criterion_2_cusp_chern_crosscheck():
    t0 = time.perf_counter()
    for D in default_discriminants():
        cc = cusp_resolution(make_field(D))
        # continued-fraction route vs divisor-sum route
        assert cc.c == local_chern_divisor_sum(D), D
    elapsed = time.perf_counter() - t0
    assert cusp_resolution(make_field(5)).c == -1
    cc13 = cusp_resolution(make_field(13))
    assert cc13.c == -3
    rotations = {(5, 2, 2), (2, 5, 2), (2, 2, 5)}
    assert tuple(cc13.cycle) in rotations
    assert elapsed < 1.0, f"cross-check swept the table in {elapsed:.3f}s"


def test_criterion_3_class_numbers():
    t0 = time.perf_counter()
    for N, h in ((20, 2), (52, 2), (39, 4)):
        assert h_definite(N) == h
        assert oracle_h_definite(N) == h
    checked = 0
    for N in range(13, 10001):
        if not is_fundamental_discriminant(-N):
            continue
        h = h_definite(N)
        assert h <= math.sqrt(N) * math.log(N) / math.pi + 1e-9, N
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked > 3000
    assert elapsed < 10.0, f"class-number sweep took {elapsed:.3f}s"


def test_criterion_4_d13_exact_pipeline():
    rep = classify(13, 4)
    assert rep.n == 5
    assert rep.zeta == Fraction(1, 6)
    assert rep.c == -3 and rep.l == 3
    e = rep.counts.entries()
    assert (e["a3_plus"], e["a3_minus"], e["a4_plus"], e["a4_minus"]) == (2, 2, 1, 1)
    assert rep.c1_sq == Fraction(-3)
    assert (rep.c2.const, rep.c2.a2_coeff) == (Fraction(18), Fraction(3, 2))
    # chi = 5/4 + a2/8 must be a positive integer, which forces a2 = 6 mod 8
    # and hence chi >= 2 on every admissible count
    assert (rep.chi.const, rep.chi.a2_coeff) == (Fraction(5, 4), Fraction(1, 8))
    integral = [a2 for a2 in range(0, 64) if rep.chi(a2).denominator == 1]
    assert integral == [6, 14, 22, 30, 38, 46, 54, 62]
    assert all(rep.chi(a2) >= 2 for a2 in integral)
    assert rep.chi(6) == 2
    assert rep.verdict == "inconclusive"


def test_criterion_5_theorem_table():
    t0 = time.perf_counter()
    rows = theorem_table()
    diff = table_diff(rows)
    elapsed = time.perf_counter() - t0
    by_d = {r.D: r for r in rows}

    spots = {13: 93, 17: 62, 29: 28, 37: 20, 41: 17,
             53: 12, 61: 10, 73: 7, 89: 6, 97: 5}
    for D, n_min in spots.items():
        assert by_d[D].n_min == n_min, D

    # the four rows with special-fibre exclusions, compared as predicates
    for D in (29, 101, 137, 157):
        row = by_d[D]
        pub_n, pub_excl = published_row(D)
        for n in range(3, 14):
            allowed_pub = n >= pub_n and n not in pub_excl
            assert row.allows(n) == allowed_pub, (D, n)
        for n, case in row.exclusions:
            if case == "p2_inert":
                assert n == 5 and D % 8 == 5  # 2 stays prime exactly then
            else:
                assert n == 10 and case == "p3_inert" and D % 3 == 2

    assert by_d[853].n_min == 3 and by_d[853].exclusions == ()
    # the norm-4 prime of the largest field, checked head on
    assert c2_lower_check(853, 5)
    assert c1sq_lower_bound(853, 5, "p2_inert", "bound_c") > 0
    assert classify(853, 4, mode="bound").verdict == "general_type"

    # residual disagreements are reported, never silently dropped
    assert diff["compared"] == len(rows) == 64
    assert diff["unmatched"] == []
    assert diff["agree"] + len(diff["discrepancies"]) == diff["compared"]
    for entry in diff["discrepancies"]:
        assert entry["disagree_at"]
        assert set(entry["breakdown"]) == {str(n) for n in entry["disagree_at"]}
        for item in entry["breakdown"].values():
            assert {"c2_check", "c1sq_bound_zeta", "p_case"} <= set(item)
    # rows whose full predicate is pinned may never disagree; the other spot
    # rows are pinned on n_min only (asserted above) and may differ elsewhere
    assert not {29, 101, 137, 157, 853} & {e["D"] for e in diff["discrepancies"]}
    assert elapsed < 30.0, f"table sweep took {elapsed:.3f}s"


def test_criterion_6_curve_arithmetic():
    fixtures = [
        ((Fraction(-3, 2), 2, 1, 1), (0, 1, 1), -1),
        ((Fraction(-4, 3), 2, 1, 0), (1, 0, 1), -1),
        ((Fraction(-2), 2, 2, 1), (0, 0, 0), -2),
    ]
    for args, triple, f_sq in fixtures:
        n3, n4, c1f = curve_chern_integrality(*args)
        assert (n3, n4, c1f) == triple
        genus = 0  # all three curves are rational
        assert adjunction_self_intersection(c1f, genus) == f_sq
    for level in (3, 6, 10):
        assert genus_gamma0_rational(level) == 0


def test_criterion_7_elliptic_counts():
    rng = random.Random(20240819)
    setups = []
    for D in (13, 17, 29):
        F = make_field(D)
        for p in (2, 3, 5, 7, 11, 13):
            for P in split_prime(F, p):
                setups.append((F, P))
    for case in range(1000):
        F, P = setups[case % len(setups)]
        g = rand_elliptic(F, rng, steps=rng.randint(1, 4))
        tr = g.trace_el()
        assert tr.v == 0 and tr.u in (-2, 0, 2), (case, g)
        assert root_count(tr.u // 2, P) == p1_fixed_count(g, P), (case, F.D, P.p)

    # involution bookkeeping identity on randomized consistent inputs
    F13 = make_field(13)
    F29 = make_field(29)
    (P2_13,) = split_prime(F13, 2)
    P3_13 = split_prime(F13, 3)[0]
    (P3_29,) = split_prime(F29, 3)
    tried = 0
    for _ in range(200):
        P = rng.choice((P2_13, P3_13, P3_29))
        a6p = a6m = 0
        if P.p == 3 and P.splitting == "inert" and rng.random() < 0.6:
            a6p, a6m = rng.randint(0, 3), rng.randint(0, 3)
        fx = ALFixedPoints(order3_fixed_plus=a6p, order3_fixed_minus=a6m)
        a2 = rng.randint(0, 6)
        if P.p == 2 and P.splitting == "inert":
            f2p = rng.randint(0, a2)
            f2m = rng.randint(0, a2 - f2p)
            if (a2 - f2p - f2m) % 2:
                f2m += 1 if f2m + f2p < a2 else -1
            fx = ALFixedPoints(order2_to_4_plus=f2p, order2_to_4_minus=f2m)
        g0 = EllipticCounts(a2=a2, a3_plus=a6p + 2 * rng.randint(0, 5),
                            a3_minus=a6m + 2 * rng.randint(0, 5),
                            mode="exact", group_tag="gamma0")
        try:
            w = atkin_lehner_refine(g0, P, fx)
        except InconsistentCountsError:
            continue
        tried += 1
        assert 2 * w.a3_plus + w.a6_plus == g0.a3_plus
        assert 2 * w.a3_minus + w.a6_minus == g0.a3_minus
    assert tried >= 100

    reps = enumerate_elliptic_reps(F13)
    w = atkin_lehner_refine(counts_gamma0_from_reps(F13, P2_13, reps), P2_13,
                            AL_ACTION[(13, 2)])
    assert (w.a3_plus, w.a3_minus, w.a4_plus, w.a4_minus) == (2, 2, 1, 1)


def test_criterion_8_tree_center():
    rng = random.Random(61803)
    sizes = [2, 3, 4, 5, 6, 8, 10, 15, 25, 40]  # mostly small, some big
    shapes = [None, None, "path", "star", "caterpillar", "binary", "attach"]
    for case in range(10_000):
        n = 200 if case % 500 == 0 else (
            rng.randint(60, 200) if case % 50 == 0 else rng.choice(sizes))
        T = random_tree(rng, n, shape=rng.choice(shapes))
        S = random_subset(rng, T)
        res = tree_center(T, S)
        diam, centres = brute_centres(T, S)
        assert centres == {normalize_centre(res)}, (case, n)
        if case % 25 == 0:
            ident = GroupAction(T, [{v: v for v in T.vertices}])
            assert verify_center_invariance(T, S, ident)

    # nontrivial automorphisms: rotations of symmetric stars of branches
    for copies, depth in [(2, 1), (2, 3), (3, 2), (4, 2), (5, 3), (6, 1)]:
        T, rot, orbit = symmetric_tree(rng, copies, depth)
        G = GroupAction(T, [rot])
        assert verify_center_invariance(T, orbit, G)
        assert verify_equidistance(T, orbit, G)
