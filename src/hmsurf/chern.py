"""Chern numbers of the symmetric quotient surface and the general-type test.

Two routes produce a `ChernReport`.  The exact route assembles c1^2 and c2
from elliptic-point counts, the cusp-resolution cycle and zeta_E(-1), all in
rational arithmetic; the count a_2 of order-2 points on the quotient is often
unknown, so c2 and chi are carried as linear forms in a_2.  The bound route
replaces each ingredient by a certified one-sided estimate so that whole
discriminant ranges can be swept; it never reports anything stronger than
"general type or inconclusive".

The sweep itself (`theorem_table`) and the comparison against the published
table (`table_diff`) live here too.  Which cusp term and which default
volume term a discriminant gets is decided in one place, `modes_at`: exact c
and exact zeta up to EXACT_C_CUTOFF, the analytic estimate and the volume
floor above it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt
from typing import NamedTuple

from mpmath.libmp import mpi_add, mpi_div, mpi_mul, mpi_neg, mpi_pow_int, mpi_sub
from mpmath.libmp.libmpi import mpi_pi

from . import reference_data
from .elliptic import EllipticCounts, atkin_lehner_refine, check_point_types, counts_gamma0
from .field import make_field, norm_achievable, prime_of_norm, supported_walk
from .forms import _primes, narrow_class_one
from .ntheory import Frozen, kronecker
from .numeric import (_log_int, _point, _sqrt_int, check_precision, least_clearing,
                      lower_rational, upper_rational)
from .zeta import cusp_resolution, local_chern_divisor_sum, zeta_minus_one

# The analytic estimate for the cusp contribution c is only proved for large
# discriminants; below the cutoff we always compute c exactly.
EXACT_C_CUTOFF = 500

P_CASES = ("generic", "p2_inert", "p3_inert")

TAIL_D = 853  # from here on, the tail lemma at _c1sq_intervals gives the table rows
P2_FLOOR_D = 850  # under the volume floor, p2_inert passes at n = 5 from here on


class ChernError(ValueError):
    pass


class ModeMixError(ChernError):
    """Exact assembly fed with bound-mode counts or counts for the wrong group."""


class LinearForm(Frozen):
    """Rational form  const + a2_coeff * a2  in the unknown order-2 count."""

    __slots__ = ("const", "a2_coeff")
    const: Fraction
    a2_coeff: Fraction

    def __init__(self, const: Fraction, a2_coeff: Fraction = Fraction(0)):
        self._set(const, a2_coeff)

    def __call__(self, a2) -> Fraction:
        return self.const + self.a2_coeff * Fraction(a2)

    @property
    def is_constant(self) -> bool:
        return self.a2_coeff == 0

    def __str__(self) -> str:
        if self.is_constant:
            return str(self.const)
        return f"{self.const} + {self.a2_coeff}*a2"


class ChernReport(NamedTuple):
    D: int
    q: int  # prime norm, n = q + 1
    n: int
    mode: str  # "exact" or "bound"
    zeta: "Fraction | None"
    c: "int | None"
    l: "int | None"  # noqa: E741 - established notation
    counts: "EllipticCounts | None"
    c1_sq: Fraction
    c2: LinearForm
    chi: LinearForm
    verdict: str  # "general_type" or "inconclusive"
    notes: "tuple[str, ...]" = ()


def chern_numbers(F, P, counts, cusp, zeta) -> ChernReport:
    """Exact ChernReport for the quotient surface of degree n = Nm(P)+1.

    Wants exact counts for the involution quotient plus the cusp cycle and
    zeta value of the field F.
    """
    if counts.mode != "exact":
        raise ModeMixError("exact Chern assembly requires exact counts")
    if counts.group_tag != "w_gamma0":
        raise ModeMixError(
            f"exact Chern assembly wants involution-quotient counts, got "
            f"group_tag={counts.group_tag!r}")
    n = P.q + 1
    zeta = Fraction(zeta)
    c, l = cusp.c, cusp.l  # noqa: E741
    a3p, a3m = counts.a3_plus, counts.a3_minus
    a4p, a4m = counts.a4_plus, counts.a4_minus
    a6p, a6m = counts.a6_plus, counts.a6_minus
    for name, val in (("a3_plus", a3p), ("a3_minus", a3m), ("a4_plus", a4p),
                      ("a4_minus", a4m), ("a6_plus", a6p), ("a6_minus", a6m)):
        if val is None:
            raise ChernError(f"exact assembly needs {name}; it is unknown here")
    c1_sq = 2 * n * zeta + c - Fraction(a3p, 3) - a4p - Fraction(8 * a6p, 3)
    c2_base = (n * zeta + l
               + Fraction(5 * a3p, 3) + Fraction(8 * a3m, 3)
               + Fraction(7 * a4p, 4) + Fraction(15 * a4m, 4)
               + Fraction(11 * a6p, 6) + Fraction(35 * a6m, 6))
    notes = tuple(counts.notes)
    if counts.a2 is None:
        c2 = LinearForm(c2_base, Fraction(3, 2))
        notes += ("a2_symbolic",)
    else:
        c2 = LinearForm(c2_base + Fraction(3 * counts.a2, 2))
    chi = LinearForm((c1_sq + c2.const) / 12, c2.a2_coeff / 12)
    # chi is nondecreasing in a2, so chi(0) > 1 certifies chi > 1 whatever
    # the true (nonnegative) a2 turns out to be.
    verdict = "general_type" if (c1_sq > 0 and chi(0) > 1) else "inconclusive"
    return ChernReport(D=F.D, q=P.q, n=n, mode="exact",
                       zeta=zeta, c=c, l=l, counts=counts, c1_sq=c1_sq,
                       c2=c2, chi=chi, verdict=verdict, notes=notes)


def c2_lower_check(D: int, n: int) -> bool:
    """Whether n * D^(3/2) / 360 > 12, decided by exact integer comparison."""
    if D <= 0:
        raise ChernError(f"positive discriminant required, got {D}")
    if n < 0:
        raise ChernError(f"nonnegative n required, got {n}")
    return n >= _c2_degree(D)


def _c2_degree(D: int) -> int:
    """The least n with n^2 D^3 > 4320^2, i.e. n * D^(3/2) / 360 > 12."""
    return isqrt(4320 ** 2 // D ** 3) + 1


def modes_at(D: int) -> "tuple[str, str]":
    """(c_mode, default zeta_mode) at D.

    The analytic cusp estimate is proved only for D > EXACT_C_CUTOFF, so up
    to the cutoff c is exact ("exact_c"), and so is the default volume term
    2*n*zeta_E(-1); above it the estimate ("bound_c") and the floor
    n*D^(3/2)/180 stand in.
    """
    if D <= EXACT_C_CUTOFF:
        return "exact_c", "exact"
    return "bound_c", "bound"


def _c1sq_intervals(D, ns, p_cases, zeta_modes, precision_bits):
    """{(zeta_mode, n, p_case): intervals (volume, cusp term, penalty)} of the
    c1^2 bound f(D, n) = volume + cusp term - penalty (_total), for every
    combination of the three tuples.  The cusp term, the penalties and
    zeta_E(-1) are free of n and of the volume variant; only the volume is
    evaluated per zeta_mode and degree.  The n-free terms are kept in one
    memo keyed by (D, precision_bits), of 64 keys: it holds all 63 table D
    below TAIL_D at one precision, so table_diff finds the terms of every
    such disputed row that theorem_table evaluated before it.  Each entry is
    a pure function of its key, filled term by term on first use, and every
    argument is checked on every call before the lookup.

    Tail lemma: for every D > EXACT_C_CUTOFF and n >= 3, with the volume
    floor, c2_lower_check holds and f(D, n) > 0 in each p_case at every
    degree where the table tests it, except that p2_inert fails exactly when
    D < P2_FLOOR_D = 850.  From TAIL_D = 853 on the same holds with the exact
    volume term.  Above EXACT_C_CUTOFF, with the volume floor,
        f(D, n) = n*D^(3/2)/180 - sqrt(D)*(3 log^2 D/(4 pi^2) + (21/40) log D)
                  - pen(D),
    where pen(D)/sqrt(D) is sqrt(3) log(3D)/(4 pi) (generic), that plus
    6 log(4D)/pi (p2_inert) or 4 sqrt(3) log(3D)/pi (p3_inert).
    - Base case.  f(501, n) > 0 at each case's least degree but p2_inert's:
      generic at n = 3 (+25.5), p3_inert at n = 10 (+123).  f grows with n,
      and the table tests p2_inert only at n = 5 and p3_inert only at n = 10.
      p2_inert at n = 5 has f(849) = -0.65 and f(850) = +0.035 (+2.10 at 853).
    - Monotonicity.  d/dD (f/sqrt D) = n/180 - 3 log D/(2 pi^2 D) - 21/(40 D)
      - pen', with pen' = sqrt(3)/(4 pi D), that plus 6/(pi D), or
      4 sqrt(3)/(pi D).  Every subtracted term decreases for D > e, so the
      derivative increases there; it is positive at 501 in each case
      (certified with iv in the tests), hence on all of [501, oo).  So
      f(D) >= f(501)*sqrt(D/501) for generic and p3_inert, and p2_inert's
      f/sqrt(D) changes sign once, between 849 and 850: it fails exactly for
      D <= 849.
    - Exact zeta (D fundamental).  zeta_E(2) = zeta(2)*L(2, chi_D) >= zeta(4)
      = pi^4/90, since L(2, chi_D) >= prod_p (1 + p^-2)^-1 = zeta(4)/zeta(2).
      With zeta_E(-1) = D^(3/2)*zeta_E(2)/(4 pi^4) that gives
      2*n*zeta_E(-1) >= n*D^(3/2)/180: the exact volume term only adds, so
      it passes wherever the floor does.  Below 853 it may also clear the
      p2_inert case the floor fails (at n = 5 it does at 613, 661, 709, 757,
      821 and 829), so those rows are evaluated.
    - Rounding.  At integer D > 500, |f| is at least 0.035 (p2_inert at
      850), over 5e-5 of the volume term, while the enclosures at >= 128 bits
      are relatively ~2^-120 wide, so the certified decisions agree with the
      lemma.
    - c2.  n^2 D^3 > 4320^2 already at n = 3, D = 501.
    So under the floor every row with D > EXACT_C_CUTOFF has n_min = 3 (with
    strict_n, the least n >= 3 with an achievable norm n - 1, at most 5 since
    q = 4 is one when 2 is inert) and the exclusion (5, "p2_inert") when 2 is
    inert and D < P2_FLOOR_D, none otherwise; from TAIL_D on, so does every
    row with the exact volume term.
    """
    for p_case in p_cases:
        if p_case not in P_CASES:
            raise ChernError(f"p_case must be one of {P_CASES}, got {p_case!r}")
    for zeta_mode in zeta_modes:
        _check_zeta_mode(zeta_mode)
    for n in ns:  # the penalty counts points of orders 2 and 3 (4 and 6) only
        check_point_types(D, n - 1)
    check_precision(precision_bits)
    b = precision_bits
    terms = _n_free_terms(D, b)
    cterm = terms.cterm
    pens = {p_case: terms.penalty(p_case) for p_case in p_cases}  # only the cases asked for
    bounds = {}
    for zeta_mode in zeta_modes:
        for n in ns:
            if zeta_mode == "exact":
                volume = 2 * n * terms.zeta
                vol = mpi_div(_point(volume.numerator, b), _point(volume.denominator, b), b)
            else:
                vol = _volume_floor(D, n, 180, b)
            for p_case, pen in pens.items():
                bounds[zeta_mode, n, p_case] = (vol, cterm, pen)
    return bounds


class _NFreeTerms:
    """The terms of the c1^2 bound at one (D, bits) that are free of n, each
    evaluated on first use: the cusp term, the order-3 factor
    sqrt(3D)*log(3D), each p_case's penalty and zeta_E(-1) (with the exact c,
    which comes from the same divisor sieve)."""

    def __init__(self, D, bits):
        self.D, self.bits, self.pi, self.pens = D, bits, mpi_pi(bits), {}

    @cached_property
    def cterm(self):
        D, b, pi = self.D, self.bits, self.pi
        if modes_at(D)[0] == "exact_c":
            self.zeta = zeta_minus_one(D)
            return _point(local_chern_divisor_sum(D), b)
        # -(sqrt(D)/2) * (3 log^2 D/(2 pi^2) + (21/20) log D), in that order
        logd = _log_int(D, b)
        return mpi_mul(mpi_neg(mpi_div(_sqrt_int(D, b), _point(2, b), b), b), mpi_add(
            mpi_div(mpi_mul(_point(3, b), mpi_pow_int(logd, 2, b), b),
                    mpi_mul(_point(2, b), mpi_pow_int(pi, 2, b), b), b),
            mpi_mul(mpi_div(_point(21, b), _point(20, b), b), logd, b), b), b)

    @cached_property
    def pen3(self):
        return mpi_mul(_sqrt_int(3 * self.D, self.bits), _log_int(3 * self.D, self.bits), self.bits)

    def penalty(self, p_case):
        if p_case not in self.pens:
            D, b, pi = self.D, self.bits, self.pi
            self.pens[p_case] = {
                "generic": lambda: mpi_div(self.pen3, mpi_mul(_point(4, b), pi, b), b),
                "p3_inert": lambda: mpi_div(mpi_mul(_point(4, b), self.pen3, b), pi, b),
                # p2_inert keeps the generic order-3 term and adds the order-2 one
                "p2_inert": lambda: mpi_add(self.penalty("generic"), mpi_div(mpi_mul(mpi_mul(
                    _point(3, b), _sqrt_int(4 * D, b), b), _log_int(4 * D, b), b), pi, b), b),
            }[p_case]()
        return self.pens[p_case]

    @cached_property
    def zeta(self):
        return zeta_minus_one(self.D)


@lru_cache(maxsize=64)  # the size is argued at _c1sq_intervals
def _n_free_terms(D, bits):
    return _NFreeTerms(D, bits)


def _volume_floor(D, n, denominator, bits):
    """The interval n * sqrt(D)^3 / denominator."""
    return mpi_div(mpi_mul(_point(n, bits), mpi_pow_int(_sqrt_int(D, bits), 3, bits), bits),
                   _point(denominator, bits), bits)


def _total(vol, cterm, pen, bits):
    """The interval vol + cterm - pen of the c1^2 bound."""
    return mpi_sub(mpi_add(vol, cterm, bits), pen, bits)


def _check_zeta_mode(zeta_mode: str) -> None:
    if zeta_mode not in ("exact", "bound"):
        raise ChernError(f"zeta_mode must be exact or bound, got {zeta_mode!r}")


def c1sq_lower_bound(D: int, n: int, p_case: str = "generic", *,
                     zeta_mode: str = "bound", precision_bits: int = 128) -> Fraction:
    """Certified lower bound for c1^2: volume + cusp term - elliptic penalty.

    The volume term is 2*n*zeta_E(-1) (zeta_mode="exact") or its floor
    n*D^(3/2)/180 (zeta_mode="bound").  The cusp term is the exact c up to
    EXACT_C_CUTOFF and the analytic estimate above it (`modes_at`).  The
    penalty covers the worst admissible elliptic-point counts: the generic
    order-3 budget, with extra terms when the prime of norm 4 (resp. 9)
    forces order-4 (resp. order-6) points, so it holds only where those are
    all the types (elliptic.check_point_types at q = n - 1).  All endpoints
    are rounded so the returned rational really is a lower bound.  A plain
    formula: it bounds a surface only at a supported D, which classify and
    theorem_table check, and it does not.
    """
    bounds = _c1sq_intervals(D, (n,), (p_case,), (zeta_mode,), precision_bits)
    return lower_rational(_total(*bounds[zeta_mode, n, p_case], precision_bits))


def c1sq_terms(D: int, n: int, p_case: str = "generic", *,
               zeta_mode: str = "bound", precision_bits: int = 128) -> dict:
    """Per-term breakdown of the c1^2 bound, a plain formula like it."""
    bounds = _c1sq_intervals(D, (n,), (p_case,), (zeta_mode,), precision_bits)
    return _terms(*bounds[zeta_mode, n, p_case], precision_bits)


def _terms(vol, cusp, pen, bits) -> dict:
    return {
        "volume_lb": lower_rational(vol),
        "c_term_lb": lower_rational(cusp),
        "penalty_ub": upper_rational(pen),
        "lower_bound": lower_rational(_total(vol, cusp, pen, bits)),
    }


def _inert_cases(D: int) -> "dict[int, str]":
    """p_case at the norm q = 4 of an inert 2 and q = 9 of an inert 3; every
    other prime is generic."""
    return {p * p: case for p, case in ((2, "p2_inert"), (3, "p3_inert"))
            if kronecker(D, p) == -1}


def _bound_report(D: int, q: int, zeta_mode, precision_bits: int) -> ChernReport:
    n = q + 1
    if n < 3:
        raise ChernError(f"surface degree n={n} below the minimum 3")
    check_point_types(D, q)
    p_case = _inert_cases(D).get(q, "generic")
    c_mode, default_zeta = modes_at(D)
    zeta_mode = zeta_mode or default_zeta
    ok2 = c2_lower_check(D, n)
    check_precision(precision_bits)
    c2_lb = lower_rational(_volume_floor(D, n, 360, precision_bits))
    c1_lb = c1sq_lower_bound(D, n, p_case, zeta_mode=zeta_mode,
                             precision_bits=precision_bits)
    verdict = "general_type" if (ok2 and c1_lb > 0) else "inconclusive"
    notes = (f"p_case:{p_case}", f"c_mode:{c_mode}", f"zeta_mode:{zeta_mode}",
             "c2_check:" + ("pass" if ok2 else "fail"))
    return ChernReport(
        D=D, q=q, n=n, mode="bound",
        zeta=zeta_minus_one(D) if zeta_mode == "exact" else None,
        c=local_chern_divisor_sum(D) if c_mode == "exact_c" else None,
        l=None, counts=None, c1_sq=c1_lb, c2=LinearForm(c2_lb),
        chi=LinearForm((c1_lb + c2_lb) / 12), verdict=verdict, notes=notes)


def classify(F, q: int, mode: str = "exact", *, zeta_mode: "str | None" = None,
             precision_bits: int = 128) -> ChernReport:
    """Full pipeline for one surface: field -> counts -> Chern -> verdict.

    F may be a FieldContext or a discriminant.  q is the norm of the prime.
    mode="exact" runs the closed-form Gamma0(P) counts + involution refinement
    (the action in closed form, see involution_action).  mode="bound" runs
    the certified estimates (there q need not be an achievable norm - degrees
    are swept formally); given a discriminant it takes only FieldContext's
    test, `supported_walk`, and builds no field, so no unit and no prime
    generator.  Both modes refuse the levels elliptic.check_point_types
    refuses: D = 5's order-5 levels, q = 0 or 1 mod 5, and D = 8 at every
    level.  zeta_mode, the volume term variant, is for bound mode only.
    """
    if mode == "bound":
        if not isinstance(F, int):
            return _bound_report(F.D, q, zeta_mode, precision_bits)
        supported_walk(F)
        return _bound_report(F, q, zeta_mode, precision_bits)
    if mode != "exact":
        raise ChernError(f"unknown mode {mode!r}")
    if zeta_mode is not None:
        raise ChernError(f"zeta_mode={zeta_mode!r} is for bound mode only")
    if isinstance(F, int):
        F = make_field(F)
    P = prime_of_norm(F, q)
    refined = atkin_lehner_refine(counts_gamma0(F, P), P)
    return chern_numbers(F, P, refined, cusp_resolution(F), zeta_minus_one(F.D))


class TableRow(NamedTuple):
    """One discriminant's verdict range: general type for n >= n_min except
    the listed exclusions (each an (n, reason) pair)."""

    D: int
    n_min: int
    exclusions: "tuple[tuple[int, str], ...]"
    n_min_alt: "int | None" = None
    exclusions_alt: "tuple[tuple[int, str], ...] | None" = None

    def allows(self, n: int) -> bool:
        return n >= self.n_min and all(n != e for e, _ in self.exclusions)


def default_discriminants(dmax: int = 853) -> "list[int]":
    """The D with 13 <= D <= dmax that `field.supported_walk` accepts, with the
    primes sieved once for all D.  The supported 5 and 8 lie below 13, where
    elliptic.check_point_types refuses some level."""
    small = list(_primes(isqrt(max(dmax - 1, 0) // 4)))  # every p with 4p^2 < D <= dmax
    return [D for D in _primes(max(dmax, 0))
            if D >= 13 and D % 4 == 1 and narrow_class_one(D, primes=small) is not None]


def _row(D, strict_n, zeta_modes, precision_bits):
    """n_min, exclusions of D's table row under each of zeta_modes in turn, in
    closed form.  The c1^2 bound f(D, n) = n*vol_1 + c - pen has vol_1 > 0 and
    c, pen free of n, so a case passes from n = floor((pen_hi - c_lo)/vol_1_lo)
    + 1 on, certified by n*vol_1_lo + c_lo - pen_hi <= f(D, n); c2 passes from
    _c2_degree(D) on.  The three endpoints are dyadic, m*2^e, so scaled to
    their least exponent they are integers with the same ratios and the floor
    is one integer division (numeric.least_clearing).  One evaluation at n = 1
    gives every volume variant's and inertia case's least degree.  Where the
    tail lemma at _c1sq_intervals decides the row (above EXACT_C_CUTOFF under
    the volume floor, from TAIL_D on under either volume term) nothing is
    evaluated: n_min = 3, with (5, "p2_inert") excluded when 2 is inert and
    D < P2_FLOOR_D."""
    check_point_types(D)
    inert = _inert_cases(D) if D < TAIL_D else {}  # the tail's rows exclude nothing
    cases = ("generic", *inert.values())
    evaluated = tuple(zeta_mode for zeta_mode in zeta_modes if D < TAIL_D and (
        zeta_mode == "exact" or modes_at(D)[0] == "exact_c"))
    bounds = _c1sq_intervals(D, (1,), cases, evaluated, precision_bits) if evaluated else {}
    row = ()
    for zeta_mode in zeta_modes:
        if zeta_mode in evaluated:
            least = {case: least_clearing(*bounds[zeta_mode, 1, case]) for case in cases}
            n_min = max(3, _c2_degree(D), least["generic"])
            exclusions = tuple((q + 1, case) for q, case in inert.items()
                               if not (c2_lower_check(D, q + 1) and q + 1 >= least[case]))
        else:
            n_min = 3
            exclusions = ((5, "p2_inert"),) if 4 in inert and D < P2_FLOOR_D else ()
        while strict_n and not norm_achievable(D, n_min - 1):
            n_min += 1
        row += (n_min, exclusions)
    return row


def theorem_table(d_list: "list[int] | None" = None, *, dmax: int = 853,
                  strict_n: bool = False, zeta_mode: "str | None" = None,
                  precision_bits: int = 128) -> "list[TableRow]":
    """General-type degree ranges for a sweep of discriminants.

    An explicit d_list is taken as a set, so a repeated D gives one row and
    one walk: each D is checked once by field.supported_walk and by
    elliptic.check_point_types at every level; default_discriminants(dmax)
    is certified already.  For each D: the least n >= 3 where both certified
    checks pass for a generic prime, plus failures of the special norm-4 /
    norm-9 cases at n = 5 / n = 10 (only where 2 resp. 3 stays prime), from
    at most one evaluation per D, which both volume variants share, and none
    where the tail lemma decides the row (_row).  With the default zeta_mode
    (exact below the cutoff), rows also carry the values of the floor-only
    zeta estimate, so both variants can be diffed.  Rows the lemma decides
    are not evaluated, so zeta_mode and precision_bits are checked on entry.
    """
    if zeta_mode is not None:
        _check_zeta_mode(zeta_mode)
    check_precision(precision_bits)
    if d_list is None:
        d_list = default_discriminants(dmax)
    else:
        d_list = sorted(set(d_list))
        for D in d_list:
            supported_walk(D)
    rows = []
    for D in d_list:
        zmode = zeta_mode or modes_at(D)[1]
        zmodes = (zmode, "bound") if zeta_mode is None and zmode == "exact" else (zmode,)
        rows.append(TableRow(D, *_row(D, strict_n, zmodes, precision_bits)))
    return rows


def _row_dict(n_min, exclusions):
    return {"n_min": n_min, "exclusions": exclusions}


def _disagree_at(row: TableRow, other: TableRow) -> "list[int]":
    """The degrees n >= 3 where row.allows(n) != other.allows(n), in order.

    Outside [min n_min, max n_min) the two n >= n_min tests agree, so the
    predicates can differ only there or at an exclusion of either row.  Every
    n_min is at least 3 and every exclusion at most 10, so this is the list a
    scan of the window 3 <= n <= max(n_min, 10) + 2 gives, without the scan.
    """
    lo, hi = sorted((row.n_min, other.n_min))
    candidates = set(range(lo, hi)).union(n for n, _ in row.exclusions + other.exclusions)
    return sorted(n for n in candidates if row.allows(n) != other.allows(n))


def table_diff(rows: "list[TableRow]", *, precision_bits: int = 128) -> dict:
    """Compare computed rows against the published table.

    Two rows agree when their allow-predicates coincide on every degree
    (_disagree_at lists the degrees where they do not); a row with the
    published n_min and excluded degrees has the published predicate, so it
    agrees without that test.  For each disagreement the report carries the
    degrees involved and the per-term bound breakdown there, under both zeta
    variants, from the n-free terms theorem_table left in _c1sq_intervals'
    memo (64 (D, precision) keys).  Disagreements are data:
    the published values come without the program that made them.
    """
    discrepancies = []
    unmatched = []
    compared = 0
    for row in rows:
        pub = reference_data.published_row(row.D)
        if pub is None:
            unmatched.append(row.D)
            continue
        compared += 1
        if row.n_min == pub[0] and {n for n, _ in row.exclusions} == pub[1]:
            continue  # the same n_min and excluded degrees: the same predicate
        pub_row = TableRow(D=row.D, n_min=pub[0],
                           exclusions=tuple((n, "published") for n in sorted(pub[1])))
        bad = _disagree_at(row, pub_row)
        if not bad:
            continue
        # one evaluation of the row's n-free terms serves every degree and variant
        cases = {n: _inert_cases(row.D).get(n - 1, "generic") for n in bad}
        zmodes = ("exact", "bound") if modes_at(row.D)[1] == "exact" else ("bound",)
        bounds = _c1sq_intervals(row.D, tuple(bad), tuple(dict.fromkeys(cases.values())),
                                 zmodes, precision_bits)
        breakdown = {}
        for n in bad:
            entry = {"c2_check": c2_lower_check(row.D, n)}
            for zmode in zmodes:
                entry[f"c1sq_{zmode}_zeta"] = _terms(*bounds[zmode, n, cases[n]],
                                                     precision_bits)
            entry["p_case"] = cases[n]
            breakdown[str(n)] = entry
        alt = None
        alt_agrees = None
        if row.n_min_alt is not None:
            alt = _row_dict(row.n_min_alt, row.exclusions_alt)
            alt_row = TableRow(D=row.D, n_min=row.n_min_alt,
                               exclusions=row.exclusions_alt)
            alt_agrees = not _disagree_at(alt_row, pub_row)
        discrepancies.append({
            "D": row.D,
            "computed": _row_dict(row.n_min, row.exclusions),
            "alt": alt,
            "alt_agrees_with_published": alt_agrees,
            "published": _row_dict(pub_row.n_min, pub_row.exclusions),
            "disagree_at": bad,
            "breakdown": breakdown,
        })
    return {
        "compared": compared,
        "agree": compared - len(discrepancies),
        "discrepancies": discrepancies,
        "unmatched": unmatched,
    }
