"""Elliptic fixed points of Hilbert modular groups.

Rotation types, exact counts and analytic upper bounds for PSL2(O), the Hecke
congruence subgroup Gamma0(P), and its Atkin-Lehner extension W.Gamma0(P),
plus a brute-force class enumerator whose output carries a completeness
certificate (per-order totals checked against class numbers).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .field import FieldContext, FieldElement, PrimeIdealData, ResidueField
from .forms import h_bound, h_definite
from .numeric import MIN_PRECISION_BITS


class EllipticError(ValueError):
    """Base class for elliptic-point computation errors."""


class NotEllipticError(EllipticError):
    pass


class NotEllipticModPError(EllipticError):
    """b, c and a-d all vanish mod P; impossible for an elliptic element."""


class InconsistentCountsError(EllipticError):
    pass


class CompletenessError(RuntimeError):
    """Enumeration missed classes (or found spurious ones) at this height
    bound / conjugation depth; the caller should raise those knobs."""


# ---------------------------------------------------------------------------
# 2x2 matrices over O_E
# ---------------------------------------------------------------------------


class Mat2:
    """A 2x2 matrix over O_E; just enough group arithmetic for this module."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: FieldElement, b: FieldElement, c: FieldElement, d: FieldElement):
        self.a, self.b, self.c, self.d = a, b, c, d

    @staticmethod
    def from_pairs(D: int, pairs) -> "Mat2":
        """Build from four (u, v) coordinate pairs."""
        a, b, c, d = (FieldElement(u, v, D) for (u, v) in pairs)
        return Mat2(a, b, c, d)

    @staticmethod
    def from_ints(D: int, a: int, b: int, c: int, d: int) -> "Mat2":
        f = lambda n: FieldElement.from_int(n, D)
        return Mat2(f(a), f(b), f(c), f(d))

    @staticmethod
    def identity(D: int) -> "Mat2":
        return Mat2.from_ints(D, 1, 0, 0, 1)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def det(self) -> FieldElement:
        return self.a * self.d - self.b * self.c

    def trace_el(self) -> FieldElement:
        return self.a + self.d

    def inverse(self) -> "Mat2":
        """Inverse for unit determinant (all we ever need)."""
        dinv = self.det().unit_inverse()
        return Mat2(self.d * dinv, -self.b * dinv, -self.c * dinv, self.a * dinv)

    def as_tuple(self) -> tuple:
        return (
            self.a.u, self.a.v, self.b.u, self.b.v,
            self.c.u, self.c.v, self.d.u, self.d.v,
        )

    def __eq__(self, other):
        return isinstance(other, Mat2) and self.as_tuple() == other.as_tuple()

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        return f"Mat2[{self.a!r}, {self.b!r}; {self.c!r}, {self.d!r}]"

    def is_scalar(self) -> bool:
        return self.b.is_zero() and self.c.is_zero() and self.a == self.d


def psl_canonical_tuple(g: Mat2) -> tuple:
    """Canonical key identifying g and -g (the same PSL2 element)."""
    t = g.as_tuple()
    tn = tuple(-x for x in t)
    return min(t, tn)


def is_elliptic(g: Mat2) -> bool:
    """Totally positive determinant and tr^2 < 4 det at both real places."""
    det = g.det()
    if not det.is_totally_positive():
        return False
    t = g.trace_el()
    disc = t * t - 4 * det
    return disc.sign_at(0) < 0 and disc.sign_at(1) < 0


def matrix_order(g: Mat2, cap: int = 24) -> int:
    """Order of g in the projective group (g^n scalar)."""
    if not is_elliptic(g):
        raise NotEllipticError(f"{g!r} is not elliptic")
    power = g
    for n in range(1, cap + 1):
        if power.is_scalar():
            return n
        power = power * g
    raise EllipticError(f"no order <= {cap} found; not torsion?")


# ---------------------------------------------------------------------------
# rotation types
# ---------------------------------------------------------------------------

# At a real place where an elliptic g of SL2(O) has trace t, it turns by
# theta = pi*k/n with 2cos(theta) = t.  Keyed by the (u, v) coordinates of t:
# trace 0 has order 2, traces 1 and -1 order 3.
_TRACE_ANGLES = {(0, 0): (2, 1), (2, 0): (3, 1), (-2, 0): (3, 2)}
# Order 5 only occurs for D = 5, where 2cos(pi*k/5) for k = 1..4 is
# (1+sqrt5)/2, (sqrt5-1)/2, (1-sqrt5)/2 and -(1+sqrt5)/2.
_TRACE_ANGLES_D5 = {**_TRACE_ANGLES,
                    (1, 1): (5, 1), (-1, 1): (5, 2), (1, -1): (5, 3), (-1, -1): (5, 4)}


@dataclass(frozen=True)
class EllipticClassRep:
    """One equivalence class of elliptic fixed points.

    `matrix` generates the isotropy group of the fixed point; `rtype` is the
    normalized rotation type (n; 1, b) with b coprime to n.
    """

    matrix: Mat2
    order: int
    rtype: tuple

    def __repr__(self):
        n, a, b = self.rtype
        return f"EllipticClassRep(({n};{a},{b}), {self.matrix!r})"


def rotation_type(g: Mat2) -> tuple:
    """Rotation type (n; 1, b) of an elliptic g of SL2(O).

    At real place j, g turns by theta_j = pi*k_j/n, read off exactly from the
    trace there (the conjugate trace at the second place), with the sign of
    c_j.  The pair of rotation factors e^(2 i theta_j) is normalized so the
    first exponent is 1: trace 0 gives (2;1,1), trace +-1 gives
    (3;1, sign c_0 * sign c_1).
    """
    mat = g.matrix if isinstance(g, EllipticClassRep) else g
    if not is_elliptic(mat):
        raise NotEllipticError(f"{mat!r} is not elliptic")
    D = mat.a.D
    if mat.det() != FieldElement.from_int(1, D):
        raise EllipticError(f"{mat!r} is not in SL2(O)")
    angles = _TRACE_ANGLES_D5 if D == 5 else _TRACE_ANGLES
    tr = mat.trace_el()
    ks = []
    for place, t in ((0, tr), (1, tr.conjugate())):
        hit = angles.get(t.as_pair())
        if hit is None:
            raise EllipticError(
                f"no rotation type for trace {tr!r}: only orders 2, 3 "
                "and, for D=5, 5 are supported")
        n, k = hit
        ks.append(k if mat.c.sign_at(place) > 0 else -k)
    k1, k2 = ks
    b = (pow(k1, -1, n) * k2) % n
    if b > n // 2:
        b -= n
    return (n, 1, b)


# ---------------------------------------------------------------------------
# coset-level counting for Gamma0(P)
# ---------------------------------------------------------------------------


def count_fixed_cosets(g, P: PrimeIdealData) -> int:
    """Number of cosets of Gamma0(P) in SL2(O) whose conjugate of g lands
    back in Gamma0(P).

    The lower-triangular coset delta_alpha contributes when
    c + (a-d)*alpha - b*alpha^2 = 0 in O/P; the extra coset delta_infinity
    contributes when b is in P.
    """
    mat = g.matrix if isinstance(g, EllipticClassRep) else g
    one = FieldElement.from_int(1, mat.a.D)
    if mat.det() != one or not is_elliptic(mat):
        raise NotEllipticError("need an elliptic element of SL2(O)")
    R = ResidueField(P)
    ra, rb = R.reduce(mat.a), R.reduce(mat.b)
    rc, rd = R.reduce(mat.c), R.reduce(mat.d)
    amd = R.add(ra, R.neg(rd))
    if rb == R.zero and rc == R.zero and amd == R.zero:
        raise NotEllipticModPError(
            "b, c and a-d all vanish mod P; not elliptic mod P"
        )
    count = 0
    if P.p == 2:
        # characteristic two: no usable discriminant, just try every residue
        for alpha in R.elements():
            val = R.add(rc, R.mul(amd, alpha))
            val = R.add(val, R.neg(R.mul(rb, R.mul(alpha, alpha))))
            if val == R.zero:
                count += 1
    elif rb == R.zero:
        count = 1 if amd != R.zero else 0
    else:
        # roots of -b x^2 + (a-d) x + c, odd characteristic
        disc = R.mul(amd, amd)
        four_bc = R.mul(rb, rc)
        four_bc = R.add(R.add(four_bc, four_bc), R.add(four_bc, four_bc))
        disc = R.add(disc, four_bc)
        if disc == R.zero:
            count = 1
        elif R.is_square(disc):
            count = 2
        else:
            count = 0
    if rb == R.zero:
        count += 1  # the delta_infinity coset: conjugate has lower-left -b
    return count


# ---------------------------------------------------------------------------
# count containers
# ---------------------------------------------------------------------------

_GROUP_TAGS = ("full", "gamma0", "w_gamma0")
_MODES = ("exact", "upper_bound")


@dataclass(frozen=True)
class EllipticCounts:
    """Counts (or upper bounds) of elliptic points by rotation type.

    Entries may be None when genuinely unknown (e.g. the order-2 count at the
    Atkin-Lehner level, where new points can appear).  In exact mode every
    known entry is a nonnegative integer.
    """

    a2: object = None
    a3_plus: object = None
    a3_minus: object = None
    a4_plus: object = 0
    a4_minus: object = 0
    a6_plus: object = 0
    a6_minus: object = 0
    mode: str = "exact"
    group_tag: str = "full"
    notes: tuple = ()

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"bad mode {self.mode!r}")
        if self.group_tag not in _GROUP_TAGS:
            raise ValueError(f"bad group tag {self.group_tag!r}")
        for name in ("a2", "a3_plus", "a3_minus", "a4_plus",
                     "a4_minus", "a6_plus", "a6_minus"):
            val = getattr(self, name)
            if val is None:
                continue
            if self.mode == "exact":
                if not isinstance(val, int) or val < 0:
                    raise ValueError(f"exact-mode {name}={val!r} must be a "
                                     "nonnegative integer")
            else:
                if not isinstance(val, (int, Fraction)) or val < 0:
                    raise ValueError(f"{name}={val!r} must be nonnegative")

    def entries(self) -> dict:
        return {
            "a2": self.a2,
            "a3_plus": self.a3_plus,
            "a3_minus": self.a3_minus,
            "a4_plus": self.a4_plus,
            "a4_minus": self.a4_minus,
            "a6_plus": self.a6_plus,
            "a6_minus": self.a6_minus,
        }


def counts_full_group(F: FieldContext) -> EllipticCounts:
    """Exact elliptic-point counts for PSL2(O), D > 12.

    a2 = h(-4D) and a3_plus = h(-3D)/2 are exact; a3_minus = h(-3D)/2 rests
    on the plus/minus split being even, which is recorded as a note.
    """
    if F.D <= 12:
        raise EllipticError(
            f"exact count formulas need D > 12 (D={F.D}); use the catalogue "
            "fixtures / enumerate_elliptic_reps for small D"
        )
    a2 = h_definite(4 * F.D)
    h3 = h_definite(3 * F.D)
    if h3 % 2:
        raise InconsistentCountsError(f"h(-3D) = {h3} is odd for D={F.D}")
    return EllipticCounts(
        a2=a2, a3_plus=h3 // 2, a3_minus=h3 // 2,
        mode="exact", group_tag="full", notes=("a3_minus_assumed_equal_split",),
    )


def bounds_gamma0(F: FieldContext, P: PrimeIdealData,
                  method: str = "classnumber",
                  precision_bits: int = MIN_PRECISION_BITS) -> EllipticCounts:
    """Upper bounds for Gamma0(P) counts, D > 12.

    Passing to Gamma0(P) multiplies each count by at most 3 (at most two
    lower-triangular cosets fix a point, plus possibly the infinity coset).
    method="classnumber" uses 3 * the exact full-group counts;
    method="analytic" replaces the class numbers by sqrt(N) log(N) / pi.
    """
    if F.D <= 12:
        raise EllipticError(f"bound lemmas need D > 12 (D={F.D})")
    if method == "classnumber":
        a2 = 3 * h_definite(4 * F.D)
        a3p = Fraction(3 * h_definite(3 * F.D), 2)
    elif method == "analytic":
        a2 = 3 * h_bound(4 * F.D, precision_bits)
        a3p = Fraction(3, 2) * h_bound(3 * F.D, precision_bits)
    else:
        raise ValueError(f"unknown method {method!r}")
    return EllipticCounts(
        a2=a2, a3_plus=a3p, a3_minus=None,
        mode="upper_bound", group_tag="gamma0",
        notes=(f"method:{method}",),
    )


@dataclass(frozen=True)
class ALFixedPoints:
    """How the Atkin-Lehner involution acts on the Gamma0(P) elliptic points.

    order2_to_4_plus/minus: order-2 points it fixes, by resulting 4-type;
    order3_fixed_plus/minus: order-3 points it fixes (only possible for
    P = (3) inert, where they become order-6 points); new_order2: order-2
    points of W.Gamma0(P) not lying over Gamma0(P) ones (None = unknown).
    """

    order2_to_4_plus: int = 0
    order2_to_4_minus: int = 0
    order3_fixed_plus: int = 0
    order3_fixed_minus: int = 0
    new_order2: int | None = None


def _half_exact(n: int, what: str) -> int:
    if n < 0 or n % 2:
        raise InconsistentCountsError(f"{what} = {n} is not an even nonnegative count")
    return n // 2


def atkin_lehner_refine(counts_gamma0: EllipticCounts, P: PrimeIdealData,
                        fixed: ALFixedPoints | None = None,
                        precision_bits: int = MIN_PRECISION_BITS) -> EllipticCounts:
    """Counts for W.Gamma0(P) from Gamma0(P) counts.

    The involution pairs up or fixes the Gamma0(P) points: fixed order-3
    points become order-6 points (possible only when P = (3) with 3 inert),
    fixed order-2 points become order-4 points (only when P = (2) with 2
    inert), and exchanged pairs descend to single points.  Exact mode
    enforces 2*a3_plus(W) + a6_plus(W) = a3_plus(Gamma0) and
    a4_plus + a4_minus <= a2(Gamma0).
    """
    if counts_gamma0.group_tag != "gamma0":
        raise ValueError("input counts must be tagged gamma0")
    is_p2 = P.splitting == "inert" and P.p == 2
    is_p3 = P.splitting == "inert" and P.p == 3
    g0 = counts_gamma0

    if g0.mode == "exact":
        fx = fixed or ALFixedPoints()
        if not is_p3 and (fx.order3_fixed_plus or fx.order3_fixed_minus):
            raise InconsistentCountsError(
                "order-3 points can only be fixed when P = (3) is inert"
            )
        if not is_p2 and (fx.order2_to_4_plus or fx.order2_to_4_minus):
            raise InconsistentCountsError(
                "order-2 points can only be fixed when P = (2) is inert"
            )
        a6p, a6m = fx.order3_fixed_plus, fx.order3_fixed_minus
        a3p = a3m = None
        if g0.a3_plus is not None:
            a3p = _half_exact(g0.a3_plus - a6p, "a3_plus(Gamma0) - fixed")
        if g0.a3_minus is not None:
            a3m = _half_exact(g0.a3_minus - a6m, "a3_minus(Gamma0) - fixed")
        a4p, a4m = fx.order2_to_4_plus, fx.order2_to_4_minus
        a2 = None
        if g0.a2 is not None:
            if a4p + a4m > g0.a2:
                raise InconsistentCountsError(
                    f"{a4p}+{a4m} fixed order-2 points exceed a2(Gamma0)={g0.a2}"
                )
            if fx.new_order2 is not None:
                a2 = _half_exact(g0.a2 - a4p - a4m, "exchanged order-2 points") \
                    + fx.new_order2
        if a3p is not None and 2 * a3p + a6p != g0.a3_plus:
            raise InconsistentCountsError("order-3 bookkeeping failed")
        return EllipticCounts(
            a2=a2, a3_plus=a3p, a3_minus=a3m,
            a4_plus=a4p, a4_minus=a4m, a6_plus=a6p, a6_minus=a6m,
            mode="exact", group_tag="w_gamma0", notes=g0.notes,
        )

    # bound mode: combine the analytic combination bound with the relation
    # 2*a3_plus(W) + a6_plus(W) = a3_plus(Gamma0) <= input bound.
    combo_candidates = [Fraction(2, 3) * h_bound(3 * P.D, precision_bits)]
    if g0.a3_plus is not None:
        combo_candidates.append(Fraction(g0.a3_plus))
    combo = min(combo_candidates)
    a3p = combo / 2
    a6p = combo if is_p3 else 0
    a4p = 0
    if is_p2:
        a4_candidates = [3 * h_bound(4 * P.D, precision_bits)]
        if g0.a2 is not None:
            a4_candidates.append(Fraction(g0.a2))
        a4p = min(a4_candidates)
    notes = g0.notes + ("w_bounds_independent_uppers",)
    return EllipticCounts(
        a2=None, a3_plus=a3p, a3_minus=None,
        a4_plus=a4p, a4_minus=None, a6_plus=a6p, a6_minus=None,
        mode="upper_bound", group_tag="w_gamma0", notes=notes,
    )


# ---------------------------------------------------------------------------
# brute-force class enumeration with completeness certificate
# ---------------------------------------------------------------------------


def _field_box(D: int, bound: int):
    """All x in O_E with |x| <= bound at both real places."""
    from math import isqrt

    vmax = (2 * bound) // isqrt(D) + 1
    out = []
    for v in range(-vmax, vmax + 1):
        for u in range(-2 * bound, 2 * bound + 1):
            if (u - v * D) % 2:
                continue
            x = FieldElement(u, v, D)
            lo = bound + x   # bound + x >= 0 at both places
            hi = bound - x   # bound - x >= 0 at both places
            if lo.sign_at(0) >= 0 and lo.sign_at(1) >= 0 \
                    and hi.sign_at(0) >= 0 and hi.sign_at(1) >= 0:
                out.append(x)
    return out


def _elliptic_traces(D: int):
    """Canonical representatives t (up to sign) with |t| < 2 at both places."""
    two = FieldElement.from_int(2, D)
    traces = []
    for t in _field_box(D, 2):
        if t.sign_at(0) < 0:
            continue  # -t is scanned instead; g and -g agree in PSL2
        if (two - t).is_totally_positive() and (two + t).is_totally_positive():
            traces.append(t)
    return traces


def _conj_generators(F: FieldContext):
    D = F.D
    zero = FieldElement.from_int(0, D)
    one = F.one()
    gens = [
        Mat2(zero, -one, one, zero),           # inversion
        Mat2(one, one, zero, one),             # translation by 1
        Mat2(one, F.omega, zero, one),         # translation by omega
        Mat2(F.eps, zero, zero, F.eps.unit_inverse()),  # unit scaling
    ]
    gens += [g.inverse() for g in gens]
    return [(g, g.inverse()) for g in gens]


def _size(g: Mat2) -> int:
    total = 0
    for x in (g.a, g.b, g.c, g.d):
        total += x.u * x.u + x.v * x.v * x.D
    return total


def _descend(g: Mat2, moves) -> Mat2:
    """Greedy conjugation descent to a local minimum of _size."""
    best, best_size = g, _size(g)
    improved = True
    while improved:
        improved = False
        for gamma, gamma_inv in moves:
            h = gamma * best * gamma_inv
            hs = _size(h)
            if hs < best_size:
                best, best_size = h, hs
                improved = True
    return best


def _conjugation_ball(F: FieldContext, depth: int, coeff_cap: int):
    """All products of at most `depth` conjugation generators, deduplicated."""
    gens = [g for g, _ in _conj_generators(F)]
    ident = Mat2.identity(F.D)
    seen = {psl_canonical_tuple(ident)}
    out = [(ident, ident)]
    frontier = [ident]
    for _ in range(depth):
        nxt = []
        for gamma in frontier:
            for m in gens:
                h = gamma * m
                if any(abs(x) > coeff_cap for x in h.as_tuple()):
                    continue
                key = psl_canonical_tuple(h)
                if key in seen:
                    continue
                seen.add(key)
                nxt.append(h)
                out.append((h, h.inverse()))
        frontier = nxt
    return out


def _generator_powers(g: Mat2, order: int):
    """g^k for k coprime to the order: all generators of the isotropy group."""
    powers = []
    cur = g
    for k in range(1, order):
        if gcd(k, order) == 1:
            powers.append(cur)
        cur = cur * g
    return powers


def enumerate_elliptic_reps(F: FieldContext, height_bound: int = 4,
                            ball_depth: int = 3, coeff_cap: int = 64,
                            expected: dict | None = None) -> list:
    """Representatives of all elliptic fixed-point classes of PSL2(O).

    Scans matrices (a, b; c, d) with elliptic trace, entries from a box of
    embedding height <= height_bound, then merges candidates into classes by
    conjugation descent plus a bounded conjugation ball.  Completeness is
    certified by comparing per-order totals with h(-4D)/h(-3D) (or the D=5
    catalogue totals); a mismatch raises CompletenessError.
    """
    D = F.D
    if expected is None:
        if D == 5:
            from .reference_data import PSL_POINT_TOTALS

            expected = dict(PSL_POINT_TOTALS[5])
        elif D > 12:
            expected = {2: h_definite(4 * D), 3: h_definite(3 * D)}
        else:
            raise EllipticError(f"no completeness reference for D={D}")

    moves = _conj_generators(F)
    ball = _conjugation_ball(F, ball_depth, coeff_cap)
    box = _field_box(D, height_bound)
    nonzero = [x for x in box if x]
    one = F.one()

    classes = []   # (representative, order)
    registry = {}  # canonical tuple of a known conjugate/power -> class index

    def register_class(rep: Mat2, order: int) -> None:
        idx = len(classes)
        classes.append((rep, order))
        for power in _generator_powers(rep, order):
            for gamma, gamma_inv in ball:
                registry.setdefault(
                    psl_canonical_tuple(gamma * power * gamma_inv), idx
                )

    for t in _elliptic_traces(D):
        for c in nonzero:
            for d in box:
                a = t - d
                b = (a * d - one).divide_exact(c)
                if b is None:
                    continue
                g = Mat2(a, b, c, d)
                h = _descend(g, moves)
                key = psl_canonical_tuple(h)
                if key in registry:
                    continue
                hit = None
                for gamma, gamma_inv in ball:
                    probe = psl_canonical_tuple(gamma * h * gamma_inv)
                    if probe in registry:
                        hit = registry[probe]
                        break
                if hit is not None:
                    registry[key] = hit
                    continue
                register_class(h, matrix_order(h))

    tally: dict[int, int] = {}
    for _, order in classes:
        tally[order] = tally.get(order, 0) + 1
    if tally != expected:
        raise CompletenessError(
            f"per-order class totals {tally} != expected {expected} for D={D} "
            f"(height_bound={height_bound}, ball_depth={ball_depth})"
        )

    reps = [
        EllipticClassRep(matrix=rep, order=order, rtype=rotation_type(rep))
        for rep, order in classes
    ]
    reps.sort(key=lambda r: (r.order, r.rtype, r.matrix.as_tuple()))
    return reps


def counts_gamma0_from_reps(F: FieldContext, P: PrimeIdealData,
                            reps: list) -> EllipticCounts:
    """Exact Gamma0(P) counts from a certified full-group catalogue.

    Each full-group class splits into as many Gamma0(P) classes as there are
    cosets whose conjugate of the generator lies in Gamma0(P).
    """
    totals: dict[tuple, int] = {}
    for rep in reps:
        totals[rep.rtype] = totals.get(rep.rtype, 0) \
            + count_fixed_cosets(rep, P)
    known = {(2, 1, 1), (3, 1, 1), (3, 1, -1)}
    leftovers = {k: v for k, v in totals.items() if k not in known and v}
    if leftovers:
        raise EllipticError(
            f"unexpected congruence-level types {sorted(leftovers)}; only "
            "orders 2 and 3 are supported here"
        )
    return EllipticCounts(
        a2=totals.get((2, 1, 1), 0),
        a3_plus=totals.get((3, 1, 1), 0),
        a3_minus=totals.get((3, 1, -1), 0),
        mode="exact", group_tag="gamma0",
    )
