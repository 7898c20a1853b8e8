"""Elliptic fixed points of Hilbert modular groups.

Exact counts and analytic upper bounds for PSL2(O), the Hecke congruence
subgroup Gamma0(P), and its Atkin-Lehner extension W.Gamma0(P).  The
Gamma0(P) counts are in closed form: class numbers times root counts in O/P.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .field import FieldContext, PrimeIdealData
from .forms import h_bound, h_definite
from .ntheory import Frozen, kronecker
from .numeric import MIN_PRECISION_BITS
from .reference_data import PSL_POINT_TOTALS


class EllipticError(ValueError):
    """Base class for elliptic-point computation errors."""


class InconsistentCountsError(RuntimeError):
    """A parity or bookkeeping cross-check failed: a broken internal invariant."""


def root_count(t: int, P: PrimeIdealData) -> int:
    """Number of roots of x^2 - t*x + 1 in O/P = F_q, q = p^f, for an integer t.

    In odd characteristic the count is 1 + chi(t^2 - 4), chi the quadratic
    character of F_q.  For f = 1 that is the Legendre symbol; for f = 2 every
    element of F_p is a square in F_{p^2}, so chi(t^2 - 4) = (t^2 - 4|p)^2.
    For p = 2 and t even, x^2 + 1 = (x + 1)^2 has one root, and
    (t^2 - 4|2) = 0; for t odd, x^2 + x + 1 has roots only in F_4, and
    (t^2 - 4|2) = (5|2) = -1.  Hence 1 + (t^2 - 4|p)^f in every case.
    """
    return 1 + kronecker(t * t - 4, P.p) ** P.f


# ---------------------------------------------------------------------------
# count containers
# ---------------------------------------------------------------------------

_GROUP_TAGS = ("full", "gamma0", "w_gamma0")
_MODES = ("exact", "upper_bound")


class EllipticCounts(Frozen):
    """Counts (or upper bounds) of elliptic points by rotation type.

    Entries may be None when genuinely unknown (e.g. the order-2 count at the
    Atkin-Lehner level, where new points can appear).  In exact mode every
    known entry is a nonnegative integer.
    """

    __slots__ = ("a2", "a3_plus", "a3_minus", "a4_plus", "a4_minus", "a6_plus",
                 "a6_minus", "mode", "group_tag", "notes")
    a2: object
    a3_plus: object
    a3_minus: object
    a4_plus: object
    a4_minus: object
    a6_plus: object
    a6_minus: object
    mode: str
    group_tag: str
    notes: tuple

    def __init__(self, a2=None, a3_plus=None, a3_minus=None, a4_plus=0, a4_minus=0,
                 a6_plus=0, a6_minus=0, mode="exact", group_tag="full", notes=()):
        if mode not in _MODES:
            raise ValueError(f"bad mode {mode!r}")
        if group_tag not in _GROUP_TAGS:
            raise ValueError(f"bad group tag {group_tag!r}")
        set_ = object.__setattr__
        for name, val in zip(self.__slots__, (a2, a3_plus, a3_minus, a4_plus, a4_minus,
                                              a6_plus, a6_minus)):
            if val is None:
                pass
            elif mode == "exact":
                if not isinstance(val, int) or val < 0:
                    raise ValueError(f"exact-mode {name}={val!r} must be a "
                                     "nonnegative integer")
            elif not isinstance(val, (int, Fraction)) or val < 0:
                raise ValueError(f"{name}={val!r} must be nonnegative")
            set_(self, name, val)
        set_(self, "mode", mode)
        set_(self, "group_tag", group_tag)
        set_(self, "notes", notes)

    def __eq__(self, other):
        return type(other) is EllipticCounts and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__)

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


def check_point_types(D: int, q: "int | None" = None) -> None:
    """EllipticError unless Gamma0(P), P of norm q, has elliptic points of
    orders 2 and 3 only (4 and 6 at an inert 2 or 3), as the count formulas
    here and chern's bound penalty assume; q=None asks it of every level.
    Of the supported D (field.supported_walk) only 5 and 8 lie below 13: D = 5
    has order-5 points exactly at q = 0, 1 mod 5 (counts_gamma0), and D = 8
    has order-4 points (van der Geer, Hilbert Modular Surfaces, 1988, ch. I).
    """
    if not (D > 12 or D == 5 and q is not None and q % 5 not in (0, 1)):
        at = " at every level" if q is None else f", norm {q}"
        raise EllipticError(f"the formulas here count elliptic points of orders 2 and 3 only: "
                            f"they need D > 12, or D = 5 at a norm q = 2, 3, 4 mod 5 (D={D}{at})")


def counts_full_group(F: FieldContext) -> EllipticCounts:
    """Exact elliptic-point counts for PSL2(O), D > 12 (check_point_types(D)).

    a2 = h(-4D) and a3_plus = a3_minus = h(-3D)/2.  The even plus/minus
    split is proved in counts_gamma0 (take P = O there); the note
    a3_minus_assumed_equal_split predates that proof and is kept so the
    printed full-group counts stay unchanged.
    """
    check_point_types(F.D)
    a2 = h_definite(4 * F.D)
    h3 = h_definite(3 * F.D)
    if h3 % 2:
        raise InconsistentCountsError(f"h(-3D) = {h3} is odd for D={F.D}")
    return EllipticCounts(
        a2=a2, a3_plus=h3 // 2, a3_minus=h3 // 2,
        mode="exact", group_tag="full", notes=("a3_minus_assumed_equal_split",),
    )


def counts_gamma0(F: FieldContext, P: PrimeIdealData) -> EllipticCounts:
    """Exact Gamma0(P) counts in closed form, where check_point_types admits P.

    A PSL2(O) class of elliptic points with isotropy generator g splits into
    as many Gamma0(P) classes as g fixes cosets of Gamma0(P), i.e. points of
    the projective line over O/P.  Those are the eigenlines of g mod P, one
    for each root of its characteristic polynomial x^2 - t*x + 1 (t the trace
    of g), so root_count(t, P) gives the split for every class of that trace
    at once.  (g is never scalar mod P: g = +-1 mod P would put
    det(g -+ 1) = 2 -+ t in P^2, and neither 2 nor 3 ramifies here.)  Order 2
    has t = 0, order 3 has t = +-1:

        a2 = h(-4D) * N(0),   a3_plus = a3_minus = h(-3D)/2 * N(1),

    with the D = 5 class totals taken from PSL_POINT_TOTALS instead.  Order-5
    points (D = 5 only) have trace +-omega or +-omega'; the roots of
    x^2 - omega*x + 1 are primitive 10th roots of unity, which F_q holds only
    when 10 | q - 1, and at q = 5 it is (x + 1)^2.  So they meet Gamma0(P)
    exactly when q = 0 or 1 mod 5, and check_point_types refuses those levels.

    The equal plus/minus split is proved, not assumed.  Narrow class number
    one gives a unit eps of norm -1, so eps and eps' have opposite signs and
    (z1, z2) -> (eps*z1, eps'*conj(z2)) maps H x H to itself.  It conjugates
    each g to diag(eps, 1) g diag(eps, 1)^-1, which keeps SL2(O) and the
    condition c in P, so it normalises both groups; being antiholomorphic
    in z2 it sends type (n;1,b) points onto type (n;1,-b) points
    (van der Geer, Hilbert Modular Surfaces, 1988, ch. I; Hirzebruch,
    Hilbert modular surfaces, Enseign. Math. 19 (1973), sec. 3).
    """
    check_point_types(F.D, P.q)
    if F.D == 5:
        a2, a3 = PSL_POINT_TOTALS[5][2], PSL_POINT_TOTALS[5][3] // 2
    else:
        full = counts_full_group(F)
        a2, a3 = full.a2, full.a3_plus
    a2 *= root_count(0, P)
    a3 *= root_count(1, P)
    return EllipticCounts(a2=a2, a3_plus=a3, a3_minus=a3,
                          mode="exact", group_tag="gamma0")


def bounds_gamma0(F: FieldContext, P: PrimeIdealData) -> EllipticCounts:
    """Upper bounds for Gamma0(P) counts, D > 12 (check_point_types(D)).

    Passing to Gamma0(P) multiplies each count by at most 3 (at most two
    lower-triangular cosets fix a point, plus possibly the infinity coset),
    so the bounds are 3 * the exact full-group counts.
    """
    check_point_types(F.D)
    return EllipticCounts(
        a2=3 * h_definite(4 * F.D), a3_plus=Fraction(3 * h_definite(3 * F.D), 2),
        a3_minus=None, mode="upper_bound", group_tag="gamma0",
        notes=("method:classnumber",),
    )


class ALFixedPoints(NamedTuple):
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


def involution_action(P: PrimeIdealData, g0: EllipticCounts) -> ALFixedPoints:
    """How the Atkin-Lehner involution acts on the Gamma0(P) elliptic points.

    g0 are the exact Gamma0(P) counts.  Lemma: the involution fixes a
    Gamma0(P) elliptic point only when P = (2) or P = (3) is inert.  Suppose
    it fixes a point of order 2 (resp. 3).  Its stabiliser in W.Gamma0(P) is
    cyclic of order 4 (resp. 6), generated by some w not in Gamma0(P) with
    det w = pi*u, pi a totally positive generator of P and u a unit, and
    tr(w)^2 = 2 det w (resp. 3 det w), as the eigenvalue ratio of w is a
    primitive 4th (resp. 6th) root of unity.  The Atkin-Lehner coset has
    diagonal entries in P, so P | tr w, hence P^2 | 2*pi*u (resp. 3*pi*u)
    and P | 2 (resp. 3).  Taking norms, 4q (resp. 9q) = Nm(tr w)^2 is a
    square, so q = p^2 and P is inert (van der Geer, Hilbert Modular
    Surfaces, 1988, ch. I).  So at every other prime the involution fixes
    nothing, and only the count of new order-2 points stays unknown.

    At an inert (2) it fixes every order-2 point.  Take g in Gamma0((2)) of
    order 2: its characteristic polynomial is x^2 + 1 = (x + 1)^2 mod 2, and
    g is upper triangular mod P with the roots on its diagonal, so
    a = d = 1 mod P.  Then 1 + g has its diagonal and lower-left entries in
    P and det(1 + g) = 2 + tr g = 2, so it lies in the Atkin-Lehner coset;
    it commutes with g, so it fixes g's point.  At an inert (3) the same
    holds for g of order 3 and trace t = +-1: the polynomial is (x + t)^2
    mod 3, and 1 + t*g has det 1 + 2t^2 = 3.  The lemma rules out every
    other fixed type.  The norm -1 symmetry of counts_gamma0 maps the
    fixed (n;1,b) points onto the fixed (n;1,-b) ones, so
    a4_plus = a4_minus = a2(Gamma0)/2 at an inert (2), and
    a6_plus = a3_plus(Gamma0), a6_minus = a3_minus(Gamma0) at an inert (3).
    """
    if P.splitting != "inert" or P.p > 3:
        return ALFixedPoints()
    if P.p == 2:
        a4 = _half_exact(g0.a2, "a2(Gamma0) at an inert (2)")
        return ALFixedPoints(order2_to_4_plus=a4, order2_to_4_minus=a4)
    return ALFixedPoints(order3_fixed_plus=g0.a3_plus,
                         order3_fixed_minus=g0.a3_minus)


def atkin_lehner_refine(counts_gamma0: EllipticCounts, P: PrimeIdealData,
                        precision_bits: int = MIN_PRECISION_BITS) -> EllipticCounts:
    """Counts for W.Gamma0(P) from Gamma0(P) counts.

    The involution pairs up or fixes the Gamma0(P) points: fixed order-3
    points become order-6 points (possible only when P = (3) with 3 inert),
    fixed order-2 points become order-4 points (only when P = (2) with 2
    inert), and exchanged pairs descend to single points.  Exact mode
    takes the action from involution_action(P, counts_gamma0) and enforces
    2*a3_plus(W) + a6_plus(W) = a3_plus(Gamma0), a4_plus + a4_minus <= a2(Gamma0).
    """
    if counts_gamma0.group_tag != "gamma0":
        raise ValueError("input counts must be tagged gamma0")
    is_p2 = P.splitting == "inert" and P.p == 2
    is_p3 = P.splitting == "inert" and P.p == 3
    g0 = counts_gamma0

    if g0.mode == "exact":
        fx = involution_action(P, g0)
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
