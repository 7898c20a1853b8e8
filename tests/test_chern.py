import functools
import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import iv

from hmsurf import chern, cli, field, forms, numeric, zeta
from hmsurf.chern import (
    EXACT_C_CUTOFF,
    P2_FLOOR_D,
    TAIL_D,
    ChernError,
    ChernReport,
    LinearForm,
    ModeMixError,
    TableRow,
    _c1sq_intervals,
    _total,
    c1sq_lower_bound,
    c1sq_terms,
    c2_lower_check,
    chern_numbers,
    classify,
    default_discriminants,
    modes_at,
    norm_achievable,
    table_diff,
    theorem_table,
)
from hmsurf.elliptic import (
    EllipticCounts,
    EllipticError,
    atkin_lehner_refine,
    bounds_gamma0,
    counts_gamma0,
    involution_action,
)
from hmsurf.field import (FieldError, NarrowClassError, UnsupportedShapeError, make_field,
                          split_prime)
from hmsurf.forms import h_narrow_indefinite
from hmsurf.ntheory import is_fundamental_discriminant, is_prime, kronecker
from hmsurf.numeric import (PrecisionError, _log_int, _sqrt_int, least_clearing, lower_rational,
                            upper_rational)
from hmsurf.reference_data import published_row
from hmsurf.zeta import cusp_resolution, local_chern_divisor_sum, zeta_minus_one

from helpers import (
    UniquenessError,
    adjunction_self_intersection,
    curve_chern_integrality,
    genus_gamma0_rational,
    interval_precision,
    is_supported,
    load_audit_row,
    refine_with_action,
    row_scan,
    window_disagreements,
)


# ---------------------------------------------------------------------------
# linear forms and exact reports
# ---------------------------------------------------------------------------

def test_linear_form():
    f = LinearForm(Fraction(18), Fraction(3, 2))
    assert f(0) == 18 and f(6) == 27 and f(Fraction(1, 3)) == Fraction(37, 2)
    assert not f.is_constant
    assert str(f) == "18 + 3/2*a2"
    g = LinearForm(Fraction(-3))
    assert g.is_constant and g.const == -3 and str(g) == "-3"


def test_exact_pipeline_d13_norm4():
    rep = classify(13, 4)
    assert isinstance(rep, ChernReport)
    assert rep.mode == "exact" and (rep.D, rep.q, rep.n) == (13, 4, 5)
    assert rep.zeta == Fraction(1, 6)
    assert rep.c == -3 and rep.l == 3
    assert rep.c1_sq == Fraction(-3)
    assert (rep.c2.const, rep.c2.a2_coeff) == (Fraction(18), Fraction(3, 2))
    assert (rep.chi.const, rep.chi.a2_coeff) == (Fraction(5, 4), Fraction(1, 8))
    assert rep.verdict == "inconclusive"
    assert any("a2" in note for note in rep.notes)
    e = rep.counts.entries()
    assert (e["a3_plus"], e["a3_minus"], e["a4_plus"], e["a4_minus"]) == (2, 2, 1, 1)
    assert e["a2"] is None


def test_exact_pipeline_other_fixtures():
    rep3 = classify(13, 3)
    assert rep3.n == 4 and rep3.c1_sq == Fraction(-2)
    assert (rep3.c2.const, rep3.c2.a2_coeff) == (Fraction(8), Fraction(3, 2))
    rep5 = classify(5, 4)
    assert rep5.n == 5 and rep5.c1_sq == Fraction(-2)
    assert (rep5.c2.const, rep5.c2.a2_coeff) == (Fraction(11), Fraction(3, 2))
    for rep in (rep3, rep5):
        assert rep.verdict == "inconclusive"


def test_twelve_chi_identity():
    for D, q in ((13, 4), (13, 3), (5, 4)):
        rep = classify(D, q)
        assert 12 * rep.chi.const == rep.c1_sq + rep.c2.const
        assert 12 * rep.chi.a2_coeff == rep.c2.a2_coeff
        for a2 in (0, 1, 6, 10):
            assert 12 * rep.chi(a2) == rep.c1_sq + rep.c2(a2)


def test_classify_with_new_order2_is_constant():
    F = make_field(13)
    (P,) = split_prime(F, 2)
    g0 = counts_gamma0(F, P)
    action = involution_action(P, g0)._replace(new_order2=6)
    rep = chern_numbers(F, P, refine_with_action(g0, P, action),
                        cusp_resolution(F), zeta_minus_one(F.D))
    assert rep.chi.is_constant and rep.chi.const == 2
    assert rep.c2.is_constant and rep.c2.const == 27
    assert rep.verdict == "inconclusive"  # c1^2 is still negative


def test_classify_never_general_type_on_nonpositive_c1sq():
    for D, q in ((13, 4), (13, 3), (5, 4)):
        rep = classify(D, q)
        assert rep.c1_sq <= 0 and rep.verdict != "general_type"


def test_classify_input_errors():
    # which norms name a prime of the field is field's to say
    with pytest.raises(FieldError, match="norm 6"):
        classify(13, 6)
    with pytest.raises(FieldError, match="norm -5"):
        classify(13, -5)
    with pytest.raises(FieldError):
        classify(13, 2)  # 2 is inert: the degree-one norm-2 prime does not exist
    assert classify(17, 2).mode == "exact"  # the lemma settles a split (2)
    # an inert (2) or (3) takes the action in closed form
    assert classify(29, 4).mode == classify(29, 9).mode == "exact"
    with pytest.raises(EllipticError, match="orders 2 and 3"):
        classify(5, 11)  # order-5 points meet Gamma0(P) for D=5 at q = 1 mod 5
    with pytest.raises(UnsupportedShapeError):
        classify(12, 4)
    with pytest.raises(ChernError):
        classify(13, 4, mode="banana")


def test_exact_classify_refuses_a_zeta_mode(capsys):
    # the volume term variant is for bound mode only: exact mode refuses it,
    # in the library and through the CLI, before it builds the field
    F = make_field(13)
    for zeta_mode in ("exact", "bound"):
        for D in (13, F, 10000000033):
            with pytest.raises(ChernError, match="bound mode only"):
                classify(D, 4, zeta_mode=zeta_mode)
        assert classify(13, 103, mode="bound", zeta_mode=zeta_mode).mode == "bound"
        assert cli.main(["classify", "--disc", "13", "--prime-norm", "4",
                         "--zeta-mode", zeta_mode]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == {
            "type": "ChernError", "message": f"zeta_mode={zeta_mode!r} is for bound mode only"}


def test_chern_numbers_mode_mixing():
    F = make_field(13)
    (P,) = split_prime(F, 2)  # the norm-4 prime
    cusp, zeta = cusp_resolution(F), zeta_minus_one(13)
    bound_counts = atkin_lehner_refine(bounds_gamma0(F, P), P)
    assert bound_counts.group_tag == "w_gamma0"
    with pytest.raises(ModeMixError):
        chern_numbers(F, P, bound_counts, cusp, zeta)
    wrong_level = counts_gamma0(F, P)
    assert wrong_level.mode == "exact"
    with pytest.raises(ModeMixError):
        chern_numbers(F, P, wrong_level, cusp, zeta)


def test_chern_numbers_trivial_zero_counts():
    F = make_field(13)
    (P,) = split_prime(F, 2)
    cusp = cusp_resolution(F)
    zero = EllipticCounts(a2=0, a3_plus=0, a3_minus=0, a4_plus=0, a4_minus=0,
                          a6_plus=0, a6_minus=0, mode="exact",
                          group_tag="w_gamma0")
    rep = chern_numbers(F, P, zero, cusp, Fraction(1, 6))
    assert rep.n == 5 and (cusp.c, cusp.l) == (-3, 3)
    assert rep.c1_sq == 2 * 5 * Fraction(1, 6) - 3  # no elliptic terms
    assert rep.c2.is_constant and rep.c2.const == 5 * Fraction(1, 6) + 3


# ---------------------------------------------------------------------------
# lower-bound machinery
# ---------------------------------------------------------------------------

def test_c2_lower_check_frozen():
    for D, n, ok in ((13, 93, True), (13, 92, False), (17, 62, True),
                     (17, 61, False), (853, 3, True), (5, 387, True),
                     (5, 386, False)):
        assert c2_lower_check(D, n) == ok, (D, n)


def test_c2_check_monotone():
    for D in (13, 101):
        passing = [n for n in range(3, 150) if c2_lower_check(D, n)]
        assert passing == list(range(passing[0], 150))


def test_c1sq_lower_bound_d109_mode_split():
    # the two zeta handlings straddle zero at n=4
    assert c1sq_lower_bound(109, 4) <= 0
    assert c1sq_lower_bound(109, 5) > 0
    assert c1sq_lower_bound(109, 4, zeta_mode="exact") > 0


def test_c1sq_lower_bound_monotone_in_n():
    for D in (109, 853):
        vals = [c1sq_lower_bound(D, n) for n in range(3, 13)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_c1sq_penalties_reduce_bound():
    for D in (109, 853):
        for n in (5, 10):
            g = c1sq_lower_bound(D, n, "generic")
            assert c1sq_lower_bound(D, n, "p2_inert") < g
            assert c1sq_lower_bound(D, n, "p3_inert") < g


def test_c1sq_terms_identity():
    t = c1sq_terms(109, 5)
    assert set(t) == {"volume_lb", "c_term_lb", "penalty_ub", "lower_bound"}
    assert all(isinstance(v, Fraction) for v in t.values())
    assert t["lower_bound"] == t["volume_lb"] + t["c_term_lb"] - t["penalty_ub"]
    assert t["penalty_ub"] > 0 and t["c_term_lb"] < 0


def test_modes_at_cutoff():
    assert EXACT_C_CUTOFF == 500
    assert modes_at(13) == modes_at(500) == ("exact_c", "exact")
    assert modes_at(501) == modes_at(853) == ("bound_c", "bound")


def test_exact_c_dominates_estimated_c():
    # above the cutoff the bound takes the analytic estimate, which sits
    # below the exact c
    for n in (3, 5, 10):
        assert c1sq_terms(853, n)["c_term_lb"] <= local_chern_divisor_sum(853)


def test_c_term_estimate_is_valid_for_table():
    # the analytic floor for c must sit below the true divisor-sum value
    for D in default_discriminants():
        floor = -(math.sqrt(D) / 2) * (3 / (2 * math.pi**2) * math.log(D) ** 2
                                       + 21 / 20 * math.log(D))
        assert local_chern_divisor_sum(D) >= floor - 1e-9, D


def test_c1sq_argument_validation():
    with pytest.raises(ChernError):
        c1sq_lower_bound(109, 5, "banana")
    with pytest.raises(ChernError):
        c1sq_lower_bound(109, 5, zeta_mode="banana")
    with pytest.raises(ChernError, match="minimum 3"):
        classify(13, 1, mode="bound")


def test_c1sq_bound_refuses_outside_its_penalty_domain():
    # the public bound and its breakdown hold where classify's bound route
    # does: D > 12, or D = 5 away from its order-5 levels q = 0, 1 mod 5
    for D, n in ((8, 300), (12, 300), (5, 12)):
        with pytest.raises(EllipticError, match="orders 2 and 3"):
            c1sq_lower_bound(D, n)
        with pytest.raises(EllipticError, match="orders 2 and 3"):
            c1sq_terms(D, n)
    assert (c1sq_lower_bound(5, 5, "p2_inert", zeta_mode="exact")
            == classify(5, 4, mode="bound").c1_sq)


# ---------------------------------------------------------------------------
# bound-mode classification
# ---------------------------------------------------------------------------

def test_classify_bound_mode():
    rep = classify(13, 103, mode="bound")
    assert rep.mode == "bound" and rep.n == 104
    assert rep.verdict == "general_type"
    assert rep.c1_sq > 0 and rep.c2.is_constant and rep.c2.const > 0
    assert "c2_check:pass" in rep.notes and "p_case:generic" in rep.notes

    rep2 = classify(13, 4, mode="bound")
    assert rep2.verdict == "inconclusive"
    assert "p_case:p2_inert" in rep2.notes and "c2_check:fail" in rep2.notes

    # degree sweep: a norm with no actual degree-one prime is still assessed
    assert not norm_achievable(97, 4)
    assert classify(97, 4, mode="bound").verdict == "general_type"


def test_bound_classify_builds_no_field(monkeypatch):
    # given a discriminant, bound classify checks D's shape and takes the
    # certificate's half walk (test_field's census counts its steps): no unit
    # and no field, with the report and the refusals (type and message) of
    # the field-built route
    asks = ((13, 103), (13, 4), (97, 4), (853, 3), (1000033, 7))
    expected = [classify(make_field(D), q, mode="bound") for D, q in asks]
    refusals = {}
    for D in (21, 229, 1000193):
        with pytest.raises(FieldError) as refused:
            make_field(D)
        refusals[D] = (type(refused.value), str(refused.value))

    def forbidden(*args):
        raise AssertionError("built a unit or the field")

    for module, name in ((forms, "step_product"), (field, "make_field"),
                         (field, "FieldContext"), (chern, "make_field")):
        monkeypatch.setattr(module, name, forbidden)
    assert [classify(D, q, mode="bound") for D, q in asks] == expected
    for D, (kind, message) in refusals.items():
        with pytest.raises(kind) as refused:
            classify(D, 3, mode="bound")
        assert str(refused.value) == message, D


def test_bound_mode_never_beats_exact_mode():
    # the certified floor must sit at or below the true exact value
    for D, q in ((13, 4), (13, 3), (5, 4)):
        assert classify(D, q, mode="bound").c1_sq <= classify(D, q).c1_sq
    # ... over every table D and every achievable prime norm q <= 200
    classified = exact_only = 0
    for D in default_discriminants():
        F = make_field(D)
        for q in range(2, 201):
            if not norm_achievable(D, q):
                continue
            p = math.isqrt(q) if math.isqrt(q) ** 2 == q else q
            P = split_prime(F, p)[0]
            inert23 = P.splitting == "inert" and p in (2, 3)
            bound = classify(F, q, mode="bound")
            exact = classify(F, q)
            classified += 1
            assert bound.c1_sq <= exact.c1_sq, (D, q)
            if bound.verdict == "general_type":
                assert exact.c1_sq > 0 and exact.verdict == "general_type", (D, q)
            else:
                exact_only += exact.verdict == "general_type"
            if not inert23:  # the involution fixes nothing, pairs up the rest
                g0, w = counts_gamma0(F, P), exact.counts
                assert (w.a4_plus, w.a4_minus, w.a6_plus, w.a6_minus) == (0, 0, 0, 0)
                assert 2 * w.a3_plus == g0.a3_plus and 2 * w.a3_minus == g0.a3_minus
    assert (classified, exact_only) == (1591, 73)


def test_norm_achievable():
    expect = {2: False, 3: True, 4: True, 9: False, 13: True, 17: True}
    for q, ok in expect.items():
        assert norm_achievable(13, q) == ok, q


# ---------------------------------------------------------------------------
# the classification table
# ---------------------------------------------------------------------------

def test_default_discriminants():
    ds = default_discriminants()
    assert len(ds) == 64 and ds[0] == 13 and ds[-1] == 853
    assert ds == sorted(ds)
    for D in ds:
        assert is_prime(D) and D % 4 == 1
        assert h_narrow_indefinite(D) == 1
    assert 229 not in ds and 257 not in ds
    assert default_discriminants(100) == [13, 17, 29, 37, 41, 53, 61, 73, 89, 97]
    # the walk's certificate picks the D that counting cycles picks
    assert default_discriminants(30000) == [
        D for D in range(13, 30001) if D % 4 == 1 and is_prime(D) and h_narrow_indefinite(D) == 1]
    # and it is supported_walk's test above 12, with the primes sieved once
    assert default_discriminants(3000) == [D for D in range(13, 3001) if is_supported(D)]


def test_table_row_allows():
    row = TableRow(D=29, n_min=28, exclusions=((5, "p2_inert"), (10, "p3_inert")))
    assert not row.allows(27) and row.allows(28) and row.allows(30)
    assert not row.allows(5) and not row.allows(10)


def test_theorem_table_spot_rows():
    rows = theorem_table()
    assert [r.D for r in rows] == default_discriminants()
    by_d = {r.D: r for r in rows}
    spots = {13: 93, 17: 62, 29: 28, 37: 20, 41: 17, 53: 12,
             61: 10, 73: 7, 89: 6, 97: 5}
    for D, n_min in spots.items():
        assert by_d[D].n_min == n_min, D
    assert by_d[853].n_min == 3 and by_d[853].exclusions == ()
    assert by_d[853].n_min_alt is None  # above the exact-c cutoff
    # secondary zeta handling shifts three close calls
    assert by_d[73].n_min_alt == 8
    assert by_d[89].n_min_alt == 7
    assert by_d[97].n_min_alt == 7
    for r in rows:
        for n, case in r.exclusions:
            assert n in (5, 10) and case in ("p2_inert", "p3_inert")


def test_theorem_table_exclusion_logic():
    by_d = {r.D: r for r in theorem_table()}
    want = {29: {5, 10}, 101: {5, 10}, 137: {10}, 157: {5}}
    for D, ns in want.items():
        assert {n for n, _ in by_d[D].exclusions} == ns, D
    # exclusions only ever appear for the matching inert prime
    for r in theorem_table():
        for n, case in r.exclusions:
            if case == "p2_inert":
                assert n == 5 and r.D % 8 == 5
            else:
                assert n == 10 and r.D % 3 == 2


def test_theorem_table_checks_its_arguments_on_entry():
    # D = 853 is a tail row, which evaluates no bound; D = 13 is scanned
    for D in (853, 13):
        with pytest.raises(ChernError, match="zeta_mode"):
            theorem_table([D], zeta_mode="bogus")
        with pytest.raises(PrecisionError, match="floor"):
            theorem_table([D], precision_bits=5)


def test_table_takes_each_listed_d_once(monkeypatch):
    walked = []

    def walk(D):
        walked.append(D)
        return field.supported_walk(D)

    monkeypatch.setattr(chern, "supported_walk", walk)
    rows = theorem_table([13, 13, 17])
    assert walked == [13, 17]
    assert rows == theorem_table([17, 13]) == theorem_table([13, 17])
    assert table_diff(rows)["compared"] == 2


def test_theorem_table_small_window():
    rows = theorem_table(dmax=100)
    assert [r.D for r in rows] == [13, 17, 29, 37, 41, 53, 61, 73, 89, 97]


# ---------------------------------------------------------------------------
# the tail lemma: rows with D >= TAIL_D need no scan
# ---------------------------------------------------------------------------

def table_rows(d_list, *, strict_n=False, zeta_mode=None, precision_bits=128):
    """theorem_table's rows for every D of d_list, in order: through
    theorem_table at a supported D, and through chern._row, the rows' closed
    form, which does not check the field, at the D theorem_table refuses."""
    supported = [D for D in d_list if is_supported(D)]
    rows = theorem_table(supported, strict_n=strict_n, zeta_mode=zeta_mode,
                         precision_bits=precision_bits)
    for D in set(d_list) - set(supported):
        variants = chern._variants(D, zeta_mode)
        rows.append(TableRow(D, *chern._row(D, strict_n, variants, precision_bits)))
    return sorted(rows, key=lambda row: row.D)


# Each p_case with the least degree at which the table tests it.
TAIL_CASES = (("generic", 3), ("p2_inert", 5), ("p3_inert", 10))


def _tail_slope(D, n, p_case):
    """d/dD (f/sqrt D) of the analytic-estimate bound, as an interval."""
    pen_slope = {"generic": iv.sqrt(3) / (4 * iv.pi),
                 "p2_inert": iv.sqrt(3) / (4 * iv.pi) + 6 / iv.pi,
                 "p3_inert": 4 * iv.sqrt(3) / iv.pi}[p_case]
    D = iv.mpf(D)
    return (iv.mpf(n) / 180 - 3 * iv.log(D) / (2 * iv.pi ** 2 * D)
            - iv.mpf(21) / (40 * D) - pen_slope / D)


def _floor_total(D, n, p_case, bits):
    """The code's own floor-zeta interval of f(D, n) in p_case."""
    vol, cterm, penalty = _c1sq_intervals(D, n, "bound", bits)
    return _total(vol, cterm, penalty(p_case), bits)


def _f_over_sqrt(D, n, p_case):
    """f(D, n)/sqrt(D) from the code's own floor-zeta intervals."""
    return iv.make_mpf(_floor_total(D, n, p_case, iv.prec)) / iv.sqrt(D)


def test_tail_lemma_base_case_and_slope():
    assert TAIL_D > EXACT_C_CUTOFF  # the bound takes the analytic c estimate
    assert c2_lower_check(TAIL_D, 3)
    for p_case, n in TAIL_CASES:
        assert c1sq_lower_bound(TAIL_D, n, p_case) > 0, p_case
        with interval_precision(256):
            lo, hi = _tail_slope(TAIL_D, n, p_case), _tail_slope(TAIL_D + 1, n, p_case)
            step = _f_over_sqrt(TAIL_D + 1, n, p_case) - _f_over_sqrt(TAIL_D, n, p_case)
            assert lower_rational(lo._mpi_) > 0, p_case
            # the slope formula is the derivative of the code's f/sqrt(D):
            # it increases, so by the mean value theorem it brackets the step
            assert upper_rational(lo._mpi_) < lower_rational(step._mpi_), p_case
            assert upper_rational(step._mpi_) < lower_rational(hi._mpi_), p_case


def test_band_lemma_base_case_and_slope():
    # the lemma's floor-volume part reaches down to EXACT_C_CUTOFF, where the
    # analytic c estimate starts, with p2_inert changing sign once at P2_FLOOR_D
    band = EXACT_C_CUTOFF + 1
    assert modes_at(band)[0] == "bound_c" and c2_lower_check(band, 3)
    for bits in (128, 256, 1024):
        for p_case, n in TAIL_CASES:
            if p_case != "p2_inert":
                assert c1sq_lower_bound(band, n, p_case, precision_bits=bits) > 0, p_case
        with interval_precision(bits):
            for p_case, n in TAIL_CASES:
                assert lower_rational(_tail_slope(band, n, p_case)._mpi_) > 0, p_case
            assert upper_rational(_floor_total(P2_FLOOR_D - 1, 5, "p2_inert", bits)) < 0
            assert lower_rational(_floor_total(P2_FLOOR_D, 5, "p2_inert", bits)) > 0
    # every integer D in the band, fundamental or not, matches the scan, so
    # the p2 boundary is pinned: 845 (2 inert) is excluded and 851 is not
    rows = table_rows(list(range(band, TAIL_D)), zeta_mode="bound")
    for row in rows:
        assert (row.n_min, row.exclusions) == row_scan(row.D, False, "bound", 128), row.D
    excluded = {row.D: row.exclusions for row in rows}
    assert excluded[845] == ((5, "p2_inert"),) and excluded[851] == ()


def test_exact_volume_dominates_the_floor():
    # zeta_E(2) >= zeta(4), i.e. 360*zeta_E(-1) >= D^(3/2), for fundamental D
    for D in default_discriminants() + [857, 865, 1000033]:
        assert (360 * zeta_minus_one(D)) ** 2 >= D ** 3, D


def test_tail_rows_match_the_scan():
    sample = [D for D in range(TAIL_D, 3000) if is_fundamental_discriminant(D)][::9]
    strict_n_mins = set()
    for D in sample + [1000033]:
        (row,) = table_rows([D])
        assert (row.n_min, row.exclusions, row.n_min_alt) == (3, (), None), D
        for strict in (False, True):
            for zeta_mode in ("exact", "bound"):
                for bits in (128, 512):
                    (row,) = table_rows([D], strict_n=strict, zeta_mode=zeta_mode,
                                        precision_bits=bits)
                    want = row_scan(D, strict, zeta_mode, bits)
                    assert (row.n_min, row.exclusions) == want, (D, strict, zeta_mode, bits)
                    if strict:
                        strict_n_mins.add(row.n_min)
    assert strict_n_mins == {3, 4, 5}


@pytest.mark.parametrize("bits", (128, 129, 8192))
def test_closed_form_rows_match_the_scan(bits, monkeypatch):
    # The closed form and the scan round differently, so their rows must be
    # shown equal, not assumed so.  Both sides take roots and logs of the
    # same few integers (a log costs ~10 ms at 8192 bits), so they share a
    # memo of the kernels' sqrt and log of an integer, keyed by precision.
    monkeypatch.setattr(chern, "_sqrt_int", functools.cache(_sqrt_int))
    monkeypatch.setattr(chern, "_log_int", functools.cache(_log_int))
    d_list = [D for D in range(13, TAIL_D) if is_fundamental_discriminant(D)]
    for strict in (False, True):
        for zeta_mode in ("exact", "bound"):
            rows = table_rows(d_list, strict_n=strict, zeta_mode=zeta_mode,
                              precision_bits=bits)
            for row in rows:
                want = row_scan(row.D, strict, zeta_mode, bits)
                assert (row.n_min, row.exclusions) == want, (row.D, strict, zeta_mode)


def test_table_refuses_outside_the_bound_lemmas():
    # 5 and 8 are supported fields, but some of their levels have points of
    # orders other than 2 and 3; 12 is no supported field
    for D in (5, 8):
        with pytest.raises(EllipticError, match="D > 12"):
            theorem_table([D])
    with pytest.raises(UnsupportedShapeError):
        theorem_table([12])


def test_table_refuses_unsupported_d(monkeypatch):
    # 21 (h+ = 2) is not prime, 45 is not fundamental, 20 = 0 mod 4, 99 = 3
    # mod 4, 100 is a square and the prime 229 has h+ = 3: each is refused by
    # the field test before any row is computed
    refusals = {21: UnsupportedShapeError, 45: UnsupportedShapeError,
                20: UnsupportedShapeError, 99: UnsupportedShapeError,
                100: UnsupportedShapeError, 229: NarrowClassError}

    def forbidden(*args):
        raise AssertionError("computed a row")

    monkeypatch.setattr(chern, "_row", forbidden)
    for D, kind in refusals.items():
        for d_list in ([D], [13, D, 853]):
            with pytest.raises(kind):
                theorem_table(d_list)
    assert all(issubclass(kind, FieldError) for kind in refusals.values())


def test_default_table_takes_no_second_walk(monkeypatch):
    # default_discriminants certifies its own list, so theorem_table(dmax=...)
    # does not walk its D again
    expected = theorem_table(dmax=2000)

    def forbidden(D):
        raise AssertionError("walked a default D again")

    monkeypatch.setattr(chern, "supported_walk", forbidden)
    assert theorem_table(dmax=2000) == expected
    with pytest.raises(AssertionError, match="walked"):
        theorem_table([13])


def test_divisor_sieve_refuses_non_discriminants_and_squares():
    # at D <= EXACT_C_CUTOFF these reach the divisor sieve behind c and zeta,
    # whose loop ends only for a nonsquare discriminant: it refuses 99 and 100
    # (theorem_table refuses both before, as no field; its rows' closed form
    # does not check the shape)
    for call in (lambda: chern._row(99, False, ("exact",), 128),
                 lambda: chern._row(100, False, ("exact",), 128),
                 lambda: c1sq_lower_bound(100, 5), lambda: zeta_minus_one(99)):
        with pytest.raises(ValueError, match="not a nonsquare discriminant"):
            call()


def test_bound_classify_refuses_d8():
    for q in (2, 4, 7, 9, 1009):
        with pytest.raises(EllipticError, match="D > 12"):
            classify(8, q, mode="bound")


def test_bound_classify_refuses_d5_order5_levels():
    for q in (5, 11, 31, 1021):
        with pytest.raises(EllipticError, match="D > 12"):
            classify(5, q, mode="bound")
    for q in (4, 9, 19, 29):  # order-5 points miss Gamma0(P)
        assert classify(5, q, mode="bound").mode == "bound"


def test_audit_row_script_refuses_what_classify_refuses(capsys):
    audit_row = load_audit_row()
    assert audit_row.main(["--disc", "109"]) == 0 and "c1^2" in capsys.readouterr().out
    for D, reason in ((12, "supported shape"), (229, "does not have narrow class number 1"),
                      (5, "D > 12"), (8, "D > 12")):
        assert audit_row.main(["--disc", str(D)]) == 2, D
        out, err = capsys.readouterr()
        assert out == "" and reason in err, D
    # a degree below 3 is refused as bound classify refuses it, not audited
    for n in (-5, 0, 1, 2):
        assert audit_row.main(["--disc", "109", "--n", str(n)]) == 2, n
        out, err = capsys.readouterr()
        assert out == "" and f"surface degree n={n} below the minimum 3" in err, n
    assert audit_row.main(["--disc", "109", "--n", "3"]) == 0 and "n=3" in capsys.readouterr().out


def test_audit_row_audits_one_degree_in_its_own_inertia_case(capsys):
    # the only degree-5 surface at D = 29 sits at the inert 2, so --n 5 audits
    # it as p2_inert, and only that degree
    audit_row = load_audit_row()
    assert audit_row.main(["--disc", "29", "--n", "5"]) == 0
    audited = [line.strip() for line in capsys.readouterr().out.splitlines()
               if line.strip().startswith("n=")]
    assert len(audited) == 1 and audited[0].startswith("n=5 [p2_inert")


def test_published_rows_cover_table():
    for D in default_discriminants():
        n_min, excl = published_row(D)
        assert n_min >= 3
        assert set(excl) <= {5, 10}
    # below 853 the published table lists exactly the computed discriminants
    assert [D for D in range(853) if published_row(D)] == default_discriminants(852)


def test_table_diff_frozen_observations():
    rows = theorem_table()
    diff = table_diff(rows)
    assert diff["compared"] == 64 and diff["unmatched"] == []
    assert diff["agree"] == 52
    ds = sorted(e["D"] for e in diff["discrepancies"])
    assert ds == [89, 109, 113, 233, 269, 281, 293, 317, 353, 389, 449, 461]
    for e in diff["discrepancies"]:
        assert e["disagree_at"], e["D"]
        assert set(e["breakdown"]) == {str(n) for n in e["disagree_at"]}
        for n in e["disagree_at"]:
            item = e["breakdown"][str(n)]
            assert set(item) == {"c2_check", "c1sq_exact_zeta",
                                 "c1sq_bound_zeta", "p_case"}
            for zmode in ("exact", "bound"):
                terms = item[f"c1sq_{zmode}_zeta"]
                assert set(terms) == {"volume_lb", "c_term_lb",
                                      "penalty_ub", "lower_bound"}
                assert all(isinstance(v, Fraction) for v in terms.values())
                assert terms == c1sq_terms(e["D"], n, item["p_case"], zeta_mode=zmode)
    # the mandatory spot checks are never among the disagreements
    assert not {13, 17, 29, 37, 41, 53, 61, 73, 97, 101, 137, 157, 853} & set(ds)


TABLE_VARIANTS = ({}, {"strict_n": True}, {"zeta_mode": "bound"}, {"zeta_mode": "exact"})


def clear_memos():
    """Empty the memo of the n-free c1^2 terms and the divisor sums' cache."""
    chern._n_free_terms.cache_clear()
    zeta._divisor_sums.cache_clear()


def test_one_c1sq_evaluation_per_row_and_volume_variant(monkeypatch):
    # every inertia case and volume variant of a row shares one evaluation of
    # its n-free terms (one miss of their memo), and each variant one volume
    # evaluation, so a row up to EXACT_C_CUTOFF costs one miss and two calls
    # and a row the tail lemma decides (every row above the cutoff, under the
    # default floor) none; table_diff calls _c1sq_intervals only at the
    # disagreeing rows and finds their terms in the memo: no miss, no divisor
    # sieve and no log
    calls = []
    counts = Counter()

    def counted(*args):
        calls.append(args)
        return _c1sq_intervals(*args)

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(chern, "_c1sq_intervals", counted)
    monkeypatch.setattr(zeta, "_sieve_divisors", counting("sieve", zeta._sieve_divisors))
    monkeypatch.setattr(chern, "_log_int", counting("log", chern._log_int))
    clear_memos()
    rows = theorem_table(dmax=853)
    below = [row for row in rows if row.D < TAIL_D]
    alts = [row for row in below if row.n_min_alt is not None]
    assert (len(below), len(alts), len(calls)) == (63, 40, 80)
    assert chern._n_free_terms.cache_info().misses == 40
    assert (counts["sieve"], counts["log"]) == (40, 62)
    assert sorted(args[0] for args in calls) == sorted(2 * [row.D for row in alts])
    assert all(row.D <= EXACT_C_CUTOFF for row in alts)
    calls.clear()
    counts.clear()
    diff = table_diff(rows)
    assert sorted({args[0] for args in calls}) == [e["D"] for e in diff["discrepancies"]]
    assert chern._n_free_terms.cache_info().misses == 40
    assert (len(diff["discrepancies"]), counts["sieve"], counts["log"]) == (12, 0, 0)
    # the volume floor's table keeps zeta_E(-1), which the sieve behind c
    # gives, for the diff's exact-volume breakdown
    clear_memos()
    rows = theorem_table(dmax=853, zeta_mode="bound")
    counts.clear()
    assert len(table_diff(rows, zeta_mode="bound")["discrepancies"]) == 13
    assert chern._n_free_terms.cache_info().misses == 40 and counts["sieve"] == 0
    # the exact volume's table evaluates every row below TAIL_D, and its diff,
    # which shows the exact variant at every disputed row, finds them all there
    clear_memos()
    rows = theorem_table(dmax=853, zeta_mode="exact")
    counts.clear()
    assert len(table_diff(rows, zeta_mode="exact")["discrepancies"]) == 18
    assert chern._n_free_terms.cache_info().misses == 63
    assert (counts["sieve"], counts["log"]) == (0, 0)


def _table_and_diff(bits):
    rows = theorem_table(dmax=853, precision_bits=bits)
    return rows, table_diff(rows, precision_bits=bits)


def test_the_n_free_memo_never_changes_an_answer():
    # a memo filled at 128 bits does not leak into 8192 bits, and entries a
    # table filled give the c1sq_terms of entries filled by c1sq_terms
    clear_memos()
    _table_and_diff(128)
    warm = _table_and_diff(8192)
    clear_memos()
    assert _table_and_diff(8192) == warm

    cases = {D: ("generic", *chern._inert_cases(D).values()) for D in default_discriminants()}

    def terms():
        return {(D, n, case, zmode): c1sq_terms(D, n, case, zeta_mode=zmode)
                for D in cases for n in (3, 5, 10) for case in cases[D]
                for zmode in ("exact", "bound")}

    clear_memos()
    cold = terms()
    clear_memos()
    _table_and_diff(128)
    assert terms() == cold


@pytest.mark.parametrize("bits", (128, 256, 8192))
def test_integer_least_degree_is_the_fraction_one(bits, monkeypatch):
    # at every row, inertia case and volume variant theorem_table evaluates
    evaluated = []

    def recorded(*args):
        evaluated.append(args)
        return least_clearing(*args)

    monkeypatch.setattr(chern, "least_clearing", recorded)
    theorem_table(dmax=853, precision_bits=bits)
    theorem_table(dmax=853, zeta_mode="exact", precision_bits=bits)
    # 40 rows up to EXACT_C_CUTOFF in two variants (82 cases) and all 63
    # below TAIL_D in one (133)
    assert len(evaluated) == 2 * 82 + 133
    for vol, cterm, pen in evaluated:
        assert least_clearing(vol, cterm, pen) == (
            (upper_rational(pen) - lower_rational(cterm)) // lower_rational(vol) + 1)


def test_table_makes_no_rational_endpoint(monkeypatch):
    expected = [theorem_table(dmax=853, **kw) for kw in TABLE_VARIANTS]

    def forbidden(x):
        raise AssertionError("made a Fraction of an endpoint")

    for module in (chern, numeric):
        monkeypatch.setattr(module, "lower_rational", forbidden)
        monkeypatch.setattr(module, "upper_rational", forbidden)
    clear_memos()
    assert [theorem_table(dmax=853, **kw) for kw in TABLE_VARIANTS] == expected
    with pytest.raises(AssertionError, match="Fraction"):
        c1sq_terms(13, 3)


def oracle_diff(rows, zeta_mode=None):
    """table_diff with _disagree_at at every row and c1sq_terms at every
    disputed degree, in the degree's inertia case, under the row's own
    volume variant and those of the default row at D."""
    discrepancies, unmatched, compared = [], [], 0
    for row in rows:
        pub = published_row(row.D)
        if pub is None:
            unmatched.append(row.D)
            continue
        compared += 1
        pub_row = TableRow(row.D, pub[0], tuple((n, "published") for n in sorted(pub[1])))
        bad = chern._disagree_at(row, pub_row)
        if not bad:
            continue
        default = ("exact", "bound") if row.D <= EXACT_C_CUTOFF else ("bound",)
        zmodes = {zeta_mode or default[0], *default}
        breakdown = {}
        for n in bad:
            case = next((case for p, case in ((2, "p2_inert"), (3, "p3_inert"))
                         if n - 1 == p * p and kronecker(row.D, p) == -1), "generic")
            breakdown[str(n)] = {"c2_check": c2_lower_check(row.D, n), "p_case": case, **{
                f"c1sq_{zmode}_zeta": c1sq_terms(row.D, n, case, zeta_mode=zmode)
                for zmode in zmodes}}
        alt = alt_agrees = None
        if row.n_min_alt is not None:
            alt = {"n_min": row.n_min_alt, "exclusions": row.exclusions_alt}
            alt_agrees = not chern._disagree_at(
                TableRow(row.D, row.n_min_alt, row.exclusions_alt), pub_row)
        discrepancies.append({
            "D": row.D, "computed": {"n_min": row.n_min, "exclusions": row.exclusions},
            "alt": alt, "alt_agrees_with_published": alt_agrees,
            "published": {"n_min": pub_row.n_min, "exclusions": pub_row.exclusions},
            "disagree_at": bad, "breakdown": breakdown})
    return {"compared": compared, "agree": compared - len(discrepancies),
            "discrepancies": discrepancies, "unmatched": unmatched}


def test_table_diff_skips_only_rows_equal_to_the_published_row():
    # rows with the published n_min and excluded degrees skip _disagree_at
    # (494 of the 514 default rows at dmax 10^4, 451 of them tail rows); the
    # diff is the same
    for kw in TABLE_VARIANTS:
        rows = theorem_table(dmax=20_000, **kw)
        zeta_mode = kw.get("zeta_mode")
        assert table_diff(rows, zeta_mode=zeta_mode) == oracle_diff(rows, zeta_mode), kw


@pytest.mark.parametrize("dmax", (853, 2000))
@pytest.mark.parametrize("zeta_mode", (None, "bound", "exact"))
def test_table_diff_shows_each_rows_own_verdict(dmax, zeta_mode):
    # at every disputed degree the breakdown carries the volume variant the
    # row was made under, and its certified checks there give the row's verdict
    rows = theorem_table(dmax=dmax, zeta_mode=zeta_mode)
    by_d = {row.D: row for row in rows}
    checked = 0
    for e in table_diff(rows, zeta_mode=zeta_mode)["discrepancies"]:
        row = by_d[e["D"]]
        own = zeta_mode or modes_at(row.D)[1]
        for n in e["disagree_at"]:
            item = e["breakdown"][str(n)]
            passes = item["c2_check"] and item[f"c1sq_{own}_zeta"]["lower_bound"] > 0
            assert passes == row.allows(n), (row.D, n, zeta_mode)
            checked += 1
    assert checked >= 12


def test_table_diff_tests_only_candidate_degrees():
    # _disagree_at against the window scan: every row at dmax 2*10^4 in the
    # four table variants, each against its published row, its floor-only
    # values and the same D's rows in the other variants; then hand-made rows
    # with n_min above 10
    tables = [theorem_table(dmax=20_000, **kw) for kw in TABLE_VARIANTS]
    pairs = disagreeing = 0
    for rows in zip(*tables):
        D = rows[0].D
        variants = [*rows, *(TableRow(D, row.n_min_alt, row.exclusions_alt)
                             for row in rows if row.n_min_alt is not None)]
        pub = published_row(D)
        if pub is not None:
            variants.append(TableRow(D, pub[0], tuple((n, "published") for n in sorted(pub[1]))))
        for row in variants:
            for other in variants:
                bad = chern._disagree_at(row, other)
                assert bad == window_disagreements(row, other), (row, other)
                pairs += 1
                disagreeing += bool(bad)
    assert (len(tables[0]), pairs, disagreeing) == (916, 23_860, 4_348)
    excluded = ((5, "p2_inert"), (10, "p3_inert"))
    hand_made = [TableRow(29, n_min, excluded[i:j]) for n_min in (3, 4, 9, 10, 11, 12, 15, 40)
                 for i, j in ((0, 0), (0, 1), (1, 2), (0, 2))]
    for row in hand_made:
        for other in hand_made:
            assert chern._disagree_at(row, other) == window_disagreements(row, other)


def test_table_diff_direction_examples():
    diff = table_diff(theorem_table())
    by_d = {e["D"]: e for e in diff["discrepancies"]}
    # one side stricter: our row admits n=4 for D=109 where the published
    # row starts at 6; secondary zeta handling agrees with the published one
    assert by_d[109]["computed"]["n_min"] == 4
    assert by_d[109]["published"]["n_min"] == 6
    assert by_d[109]["alt_agrees_with_published"] is True
    assert 4 in by_d[109]["disagree_at"]
    # published exclusions come through tagged but untyped
    for e in diff["discrepancies"]:
        for n, why in e["published"]["exclusions"]:
            assert n in (5, 10) and why == "published"


# ---------------------------------------------------------------------------
# modular-curve arithmetic
# ---------------------------------------------------------------------------

def test_genus_known_values():
    known = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0, 9: 0, 10: 0,
             11: 1, 12: 0, 13: 0, 14: 1, 15: 1, 16: 0, 17: 1, 18: 0, 19: 1,
             20: 1, 21: 1, 22: 2, 23: 2, 24: 1, 25: 0, 26: 2, 27: 1, 28: 2,
             29: 2, 30: 3, 32: 1, 36: 1, 37: 2, 48: 3, 49: 1, 50: 2, 64: 3,
             81: 4, 97: 7, 100: 7, 389: 32}
    for N, g in known.items():
        assert genus_gamma0_rational(N) == g, N
    with pytest.raises(ChernError):
        genus_gamma0_rational(0)


def test_curve_integrality_fixtures():
    assert curve_chern_integrality(Fraction(-3, 2), 2, 1, 1) == (0, 1, 1)
    assert curve_chern_integrality(Fraction(-4, 3), 2, 1, 0) == (1, 0, 1)
    assert curve_chern_integrality(Fraction(-2), 2, 2, 1) == (0, 0, 0)


def test_curve_integrality_uniqueness_enforced():
    with pytest.raises(UniquenessError):
        curve_chern_integrality(Fraction(0), 0, 3, 2)  # several integral picks
    with pytest.raises(UniquenessError):
        curve_chern_integrality(Fraction(1, 5), 0, 1, 1)  # no integral pick
    with pytest.raises(ChernError):
        curve_chern_integrality(Fraction(1, 2), 0, -1, 0)


def test_adjunction():
    assert adjunction_self_intersection(1, 0) == -1
    assert adjunction_self_intersection(0, 0) == -2
    assert adjunction_self_intersection(0, 1) == 0
    assert adjunction_self_intersection(5, 2) == 7
    with pytest.raises(ChernError):
        adjunction_self_intersection(1, -1)
