"""Exact arithmetic in real quadratic fields E = Q(sqrt(D)) of narrow class number one.

Elements of the ring of integers O_E are stored as coordinate pairs (u, v)
meaning (u + v*sqrt(D))/2 with the parity constraint u = v*D (mod 2), so every
operation is integer arithmetic and every sign/comparison is decided exactly
(compare u^2 against v^2*D; no floating point anywhere).

Supported discriminants: prime D = 1 (mod 4), or D = 8.  `make_field` also
certifies narrow class number one, which forces the fundamental unit to have
norm -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .ntheory import is_fundamental_discriminant, is_prime, is_square, kronecker


class FieldError(ValueError):
    """Base class for field construction/usage errors."""

    code = "field_error"


class NotFundamentalError(FieldError):
    code = "not_fundamental"


class UnsupportedShapeError(FieldError):
    code = "unsupported_shape"


class NarrowClassError(FieldError):
    code = "narrow_class_not_one"


@dataclass(frozen=True)
class FieldElement:
    """(u + v*sqrt(D))/2 with u = v*D mod 2; immutable and hashable."""

    u: int
    v: int
    D: int

    def __post_init__(self):
        if (self.u - self.v * self.D) % 2 != 0:
            raise ValueError(f"bad parity for ({self.u}+{self.v}*sqrt{self.D})/2")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_int(n: int, D: int) -> "FieldElement":
        return FieldElement(2 * n, 0, D)

    @staticmethod
    def omega(D: int) -> "FieldElement":
        """Module generator: (1+sqrt(D))/2 for odd D, sqrt(2) for D = 8."""
        if D % 2 == 1:
            return FieldElement(1, 1, D)
        if D == 8:
            return FieldElement(0, 1, D)
        raise UnsupportedShapeError(f"no integral basis rule for D={D}")

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.D != self.D:
                raise ValueError("mixed discriminants")
            return other
        if isinstance(other, int):
            return FieldElement.from_int(other, self.D)
        return NotImplemented

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.u + o.u, self.v + o.v, self.D)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.u - o.u, self.v - o.v, self.D)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        u = (self.u * o.u + self.v * o.v * self.D) // 2
        v = (self.u * o.v + self.v * o.u) // 2
        return FieldElement(u, v, self.D)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.u, -self.v, self.D)

    def __pow__(self, k: int):
        if k < 0:
            inv = self.unit_inverse()
            return inv ** (-k)
        result = FieldElement.from_int(1, self.D)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> "FieldElement":
        return FieldElement(self.u, -self.v, self.D)

    def norm(self) -> int:
        return (self.u * self.u - self.v * self.v * self.D) // 4

    def trace(self) -> int:
        return self.u

    def unit_inverse(self) -> "FieldElement":
        """Inverse of a unit (norm +-1)."""
        n = self.norm()
        if n == 1:
            return self.conjugate()
        if n == -1:
            return -self.conjugate()
        raise ValueError(f"{self!r} is not a unit")

    def divide_exact(self, other) -> "FieldElement | None":
        """self/other if it lies in O_E, else None."""
        o = self._coerce(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero element")
        prod = self * o.conjugate()
        if prod.u % n or prod.v % n:
            return None
        try:
            return FieldElement(prod.u // n, prod.v // n, self.D)
        except ValueError:
            return None

    # -- exact order/sign features -------------------------------------------

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def __bool__(self):
        return not self.is_zero()

    def sign_at(self, place: int) -> int:
        """Exact sign of the real embedding (place 0: sqrt(D) > 0, place 1: < 0)."""
        u, v = self.u, (self.v if place == 0 else -self.v)
        # sign of u + v*sqrt(D)
        if v == 0:
            return 0 if u == 0 else (1 if u > 0 else -1)
        if u == 0:
            return 1 if v > 0 else -1
        if u > 0 and v > 0:
            return 1
        if u < 0 and v < 0:
            return -1
        # opposite signs: compare u^2 with v^2 D
        lhs, rhs = u * u, v * v * self.D
        if lhs == rhs:  # impossible for nonsquare D, kept for safety
            return 0
        bigger_rational = lhs > rhs
        return (1 if bigger_rational else -1) if u > 0 else (-1 if bigger_rational else 1)

    def is_totally_positive(self) -> bool:
        return self.sign_at(0) > 0 and self.sign_at(1) > 0

    def compare(self, other) -> int:
        """Exact comparison under the first embedding."""
        o = self._coerce(other)
        return (self - o).sign_at(0)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def as_pair(self) -> tuple[int, int]:
        return (self.u, self.v)

    def __repr__(self):
        return f"({self.u}{self.v:+d}*sqrt{self.D})/2"


# ---------------------------------------------------------------------------
# fundamental unit by the classical (plus) continued fraction of omega
# ---------------------------------------------------------------------------


def _floor_quad(P: int, Q: int, D: int) -> int:
    """Exact floor((P + sqrt(D))/Q) for nonsquare D > 0, Q != 0."""
    s = isqrt(D)
    if Q > 0:
        return (P + s) // Q
    return (-P - s - 1) // (-Q)


def fundamental_unit(D: int) -> FieldElement:
    """Fundamental unit eps > 1 of O_E via the continued fraction of omega.

    Runs the standard quadratic-irrational expansion until the (P, Q) state
    repeats; the closing matrix identity yields a unit that generates the
    stabilizer of the module Z + Z*omega = O_E, i.e. the fundamental unit up
    to sign and inversion, which we then normalize to eps > 1.
    """
    if D % 2 == 1:
        P0, Q0 = 1, 2
    else:
        P0, Q0 = 0, 2  # omega = sqrt(2) written over the sqrt(8) surd
    # convergent matrices M_k = [[A_k, A_{k-1}], [B_k, B_{k-1}]]
    mats = [(1, 0, 0, 1)]
    seen: dict[tuple[int, int], int] = {}
    P, Q = P0, Q0
    for k in range(10 ** 6):
        if (P, Q) in seen:
            j = seen[(P, Q)]
            break
        seen[(P, Q)] = k
        a = _floor_quad(P, Q, D)
        A, Ap, B, Bp = mats[-1]
        mats.append((a * A + Ap, A, a * B + Bp, B))
        P = a * Q - P
        Q = (D - P * P) // Q
    else:  # pragma: no cover
        raise RuntimeError("continued fraction failed to cycle")
    # alpha_j == alpha_k, so M_k * M_j^{-1} fixes omega: it is multiplication
    # by a unit on Z + Z*omega.
    A, Ap, B, Bp = mats[k]
    a2, b2, c2, d2 = mats[j]
    det = a2 * d2 - b2 * c2  # +-1
    inv = (d2 * det, -b2 * det, -c2 * det, a2 * det)
    g = (
        A * inv[0] + Ap * inv[2],
        A * inv[1] + Ap * inv[3],
        B * inv[0] + Bp * inv[2],
        B * inv[1] + Bp * inv[3],
    )
    # unit eta = c*omega + d from the bottom row of g
    c, d = g[2], g[3]
    if D % 2 == 1:
        eta = FieldElement(2 * d + c, c, D)
    else:
        eta = FieldElement(2 * d, c, D)
    one = FieldElement.from_int(1, D)
    if eta.norm() not in (1, -1):  # pragma: no cover - algebra guarantees a unit
        raise RuntimeError(f"continued fraction produced a non-unit for D={D}")
    # normalize: eps > 1 under the first embedding
    if eta.sign_at(0) < 0:
        eta = -eta
    if eta < one:
        eta = eta.unit_inverse()
        if eta.sign_at(0) < 0:
            eta = -eta
    return eta


# ---------------------------------------------------------------------------
# field context and prime splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldContext:
    """A certified field: discriminant, fundamental unit, narrow class data."""

    D: int
    eps: FieldElement
    eps_norm: int
    eps_plus: FieldElement  # fundamental totally positive unit
    h_plus: int

    @property
    def omega(self) -> FieldElement:
        return FieldElement.omega(self.D)

    def one(self) -> FieldElement:
        return FieldElement.from_int(1, self.D)

    def element(self, u: int, v: int) -> FieldElement:
        return FieldElement(u, v, self.D)


def make_field(D: int) -> FieldContext:
    """Validate D and build the field context.

    Raises NotFundamentalError / UnsupportedShapeError / NarrowClassError with
    distinct codes for the three rejection reasons.
    """
    if not isinstance(D, int) or D < 5:
        raise UnsupportedShapeError(f"D={D} not supported (need D >= 5)")
    if not is_fundamental_discriminant(D):
        raise NotFundamentalError(f"D={D} is not a fundamental discriminant")
    if not (D == 8 or (D % 4 == 1 and is_prime(D))):
        raise UnsupportedShapeError(
            f"D={D} not of the supported shape (prime = 1 mod 4, or 8)"
        )
    from .forms import h_narrow_indefinite  # local import to avoid a cycle

    h_plus = h_narrow_indefinite(D)
    if h_plus != 1:
        raise NarrowClassError(f"D={D} has narrow class number {h_plus}, need 1")
    eps = fundamental_unit(D)
    n = eps.norm()
    eps_plus = eps * eps if n == -1 else eps
    return FieldContext(D=D, eps=eps, eps_norm=n, eps_plus=eps_plus, h_plus=h_plus)


@dataclass(frozen=True)
class PrimeIdealData:
    """A prime ideal of O_E above the rational prime p.

    q = p^f is the residue norm; `generator` is a totally positive generator
    (narrow class number one makes one exist).  For degree-one primes,
    `omega_image` is the image of omega in O/P = F_p; it pins down which of
    the two conjugate primes this is.
    """

    D: int
    p: int
    splitting: str  # "split" | "inert" | "ramified"
    f: int
    generator: FieldElement
    omega_image: int | None

    @property
    def q(self) -> int:
        return self.p ** self.f


def _positive_generator_scan(x: FieldElement, eps: FieldElement, window: int = 64) -> FieldElement:
    """Totally positive associate of x, canonicalized.

    Scans +-x * eps^k for |k| <= window and returns the totally positive
    candidate with the smallest coordinate pair (deterministic output).
    """
    candidates = []
    D = x.D
    e = FieldElement.from_int(1, D)
    powers = [e]
    for _ in range(window):
        powers.append(powers[-1] * eps)
    inv = eps.unit_inverse()
    cur = e
    neg_powers = []
    for _ in range(window):
        cur = cur * inv
        neg_powers.append(cur)
    for unit in powers + neg_powers:
        for sign in (1, -1):
            y = x * unit if sign == 1 else -(x * unit)
            if y.is_totally_positive():
                candidates.append(y)
    if not candidates:
        raise FieldError(f"no totally positive associate of {x!r} in the unit window")
    return min(candidates, key=lambda y: (abs(y.u) + abs(y.v), y.u, y.v))


def _norm_equation(D: int, rhs: int, vmax: int) -> FieldElement | None:
    """Smallest-|v| solution of N((u+v*sqrt D)/2) = +-rhs, i.e.
    u^2 - v^2 D = +-4*rhs, with 0 <= v <= vmax; None if there is none."""
    v = 0
    while v <= vmax:
        for s in (4 * rhs + v * v * D, -4 * rhs + v * v * D):
            if s >= 0 and is_square(s):
                u = isqrt(s)
                if (u - v * D) % 2 == 0:
                    x = FieldElement(u, v, D)
                    if abs(x.norm()) == abs(rhs):
                        return x
        v += 1
    return None


def split_prime(F: FieldContext, p: int) -> tuple[PrimeIdealData, ...]:
    """All primes of O_E above the rational prime p with canonical generators."""
    if not is_prime(p):
        raise FieldError(f"p={p} is not prime")
    D = F.D
    sym = kronecker(D, p)
    if sym == -1:
        gen = FieldElement.from_int(p, D)
        return (
            PrimeIdealData(D=D, p=p, splitting="inert", f=2, generator=gen, omega_image=None),
        )
    # degree one: need an element of norm +-p.  One exists (h+ = 1), but its
    # smallest v can exceed the search cap when the fundamental unit is large.
    vmax = 4 * p + D
    x = _norm_equation(D, p, vmax)
    if x is None:
        raise FieldError(f"no element of norm +-{p} found for D={D} within the "
                         f"search cap v <= 4p + D = {vmax}")
    if x.norm() < 0:
        if F.eps_norm != -1:  # pragma: no cover
            raise FieldError("cannot fix the norm sign without a norm -1 unit")
        x = x * F.eps
    gen = _positive_generator_scan(x, F.eps)
    if sym == 0:
        r = _omega_image_for(gen, p)
        return (
            PrimeIdealData(D=D, p=p, splitting="ramified", f=1, generator=gen, omega_image=r),
        )
    gen2 = _positive_generator_scan(gen.conjugate(), F.eps)
    prim1 = PrimeIdealData(
        D=D, p=p, splitting="split", f=1, generator=gen, omega_image=_omega_image_for(gen, p)
    )
    prim2 = PrimeIdealData(
        D=D, p=p, splitting="split", f=1, generator=gen2, omega_image=_omega_image_for(gen2, p)
    )
    # deterministic ordering: smaller omega image first
    if prim2.omega_image < prim1.omega_image:
        prim1, prim2 = prim2, prim1
    return (prim1, prim2)


def _omega_image_for(gen: FieldElement, p: int) -> int:
    """The residue r with omega = r (mod (gen)), (gen) of norm p.

    gen = rat + v*omega maps to rat + v*r = 0 in F_p.  p does not divide v:
    otherwise p | rat too (rat = gen - v*omega lies in P, so in pZ), and
    p^2 would divide N(gen) = +-p.
    """
    rat = (gen.u - gen.v) // 2 if gen.D % 2 == 1 else gen.u // 2
    return -rat * pow(gen.v, -1, p) % p
