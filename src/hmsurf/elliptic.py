"""Elliptic fixed points of Hilbert modular groups.

Rotation types, exact counts and analytic upper bounds for PSL2(O), the Hecke
congruence subgroup Gamma0(P), and its Atkin-Lehner extension W.Gamma0(P).
The Gamma0(P) counts are in closed form: class numbers times root counts
in O/P.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def is_elliptic(g: Mat2) -> bool:
    """Totally positive determinant and tr^2 < 4 det at both real places."""
    det = g.det()
    if not det.is_totally_positive():
        return False
    t = g.trace_el()
    disc = t * t - 4 * det
    return disc.sign_at(0) < 0 and disc.sign_at(1) < 0


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


def rotation_type(g: Mat2) -> tuple:
    """Rotation type (n; 1, b) of an elliptic g of SL2(O).

    At real place j, g turns by theta_j = pi*k_j/n, read off exactly from the
    trace there (the conjugate trace at the second place), with the sign of
    c_j.  The pair of rotation factors e^(2 i theta_j) is normalized so the
    first exponent is 1: trace 0 gives (2;1,1), trace +-1 gives
    (3;1, sign c_0 * sign c_1).
    """
    if not is_elliptic(g):
        raise NotEllipticError(f"{g!r} is not elliptic")
    D = g.a.D
    if g.det() != FieldElement.from_int(1, D):
        raise EllipticError(f"{g!r} is not in SL2(O)")
    angles = _TRACE_ANGLES_D5 if D == 5 else _TRACE_ANGLES
    tr = g.trace_el()
    ks = []
    for place, t in ((0, tr), (1, tr.conjugate())):
        hit = angles.get(t.as_pair())
        if hit is None:
            raise EllipticError(
                f"no rotation type for trace {tr!r}: only orders 2, 3 "
                "and, for D=5, 5 are supported")
        n, k = hit
        ks.append(k if g.c.sign_at(place) > 0 else -k)
    k1, k2 = ks
    b = (pow(k1, -1, n) * k2) % n
    if b > n // 2:
        b -= n
    return (n, 1, b)


# ---------------------------------------------------------------------------
# coset-level counting for Gamma0(P)
# ---------------------------------------------------------------------------


def count_fixed_cosets(g: Mat2, P: PrimeIdealData) -> int:
    """Number of cosets of Gamma0(P) in SL2(O) whose conjugate of g lands
    back in Gamma0(P).

    The lower-triangular coset delta_alpha contributes when
    c + (a-d)*alpha - b*alpha^2 = 0 in O/P; the extra coset delta_infinity
    contributes when b is in P.
    """
    one = FieldElement.from_int(1, g.a.D)
    if g.det() != one or not is_elliptic(g):
        raise NotEllipticError("need an elliptic element of SL2(O)")
    R = ResidueField(P)
    ra, rb = R.reduce(g.a), R.reduce(g.b)
    rc, rd = R.reduce(g.c), R.reduce(g.d)
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

    a2 = h(-4D) and a3_plus = a3_minus = h(-3D)/2.  The even plus/minus
    split is proved in counts_gamma0 (take P = O there); the note
    a3_minus_assumed_equal_split predates that proof and is kept so the
    printed full-group counts stay unchanged.
    """
    if F.D <= 12:
        raise EllipticError(
            f"exact count formulas need D > 12 (D={F.D})")
    a2 = h_definite(4 * F.D)
    h3 = h_definite(3 * F.D)
    if h3 % 2:
        raise InconsistentCountsError(f"h(-3D) = {h3} is odd for D={F.D}")
    return EllipticCounts(
        a2=a2, a3_plus=h3 // 2, a3_minus=h3 // 2,
        mode="exact", group_tag="full", notes=("a3_minus_assumed_equal_split",),
    )


def counts_gamma0(F: FieldContext, P: PrimeIdealData) -> EllipticCounts:
    """Exact Gamma0(P) counts in closed form, for D > 12 and for D = 5.

    A PSL2(O) class of elliptic points with isotropy generator g splits into
    as many Gamma0(P) classes as g fixes cosets of Gamma0(P).  That number is
    the count of roots of x^2 - t*x + 1 in O/P (t the trace of g), so
    count_fixed_cosets of the companion matrix (0 -1; 1 t) gives it for every
    class of that trace at once.  Order 2 has t = 0, order 3 has t = +-1:

        a2 = h(-4D) * N(0),   a3_plus = a3_minus = h(-3D)/2 * N(1),

    with the D = 5 class totals taken from PSL_POINT_TOTALS instead.  Order-5
    points (D = 5 only) meet Gamma0(P) exactly when N(omega) > 0, that is
    when q = 0 or 1 mod 5; those levels are refused.

    The equal plus/minus split is proved, not assumed.  Narrow class number
    one gives a unit eps of norm -1, so eps and eps' have opposite signs and
    (z1, z2) -> (eps*z1, eps'*conj(z2)) maps H x H to itself.  It conjugates
    each g to diag(eps, 1) g diag(eps, 1)^-1, which keeps SL2(O) and the
    condition c in P, so it normalises both groups; being antiholomorphic
    in z2 it sends type (n;1,b) points onto type (n;1,-b) points
    (van der Geer, Hilbert Modular Surfaces, 1988, ch. I; Hirzebruch,
    Hilbert modular surfaces, Enseign. Math. 19 (1973), sec. 3).
    """
    if F.eps_norm != -1:
        raise InconsistentCountsError(
            f"D={F.D} has no unit of norm -1: the a3 plus/minus split is unproved")
    zero, one = FieldElement.from_int(0, F.D), F.one()

    def fixed(t: FieldElement) -> int:
        return count_fixed_cosets(Mat2(zero, -one, one, t), P)

    if F.D == 5:
        from .reference_data import PSL_POINT_TOTALS  # imports this module

        if fixed(F.omega):
            raise EllipticError(
                f"order-5 points meet Gamma0(P) for D=5, norm {P.q}; only "
                "orders 2 and 3 are supported here")
        a2, a3 = PSL_POINT_TOTALS[5][2], PSL_POINT_TOTALS[5][3] // 2
    else:
        full = counts_full_group(F)
        a2, a3 = full.a2, full.a3_plus
    a2 *= fixed(zero)
    a3 *= fixed(one)
    return EllipticCounts(a2=a2, a3_plus=a3, a3_minus=a3,
                          mode="exact", group_tag="gamma0")


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
