"""Exact arithmetic in real quadratic fields E = Q(sqrt(D)) of narrow class number one.

Elements of the ring of integers O_E are stored as coordinate pairs (u, v)
meaning (u + v*sqrt(D))/2 with the parity constraint u = v*D (mod 2), so every
operation is integer arithmetic and every sign/comparison is decided exactly
(compare u^2 against v^2*D; no floating point anywhere).

Supported discriminants: prime D = 1 (mod 4), or D = 8.  `FieldContext` also
certifies narrow class number one, which forces the fundamental unit to have
norm -1.
"""

from __future__ import annotations

from math import isqrt

from .forms import _reduce, narrow_class_one, walk_element
from .ntheory import Frozen, is_prime, kronecker, sqrt_mod


class FieldError(ValueError):
    """Base class for field construction/usage errors."""


class UnsupportedShapeError(FieldError):
    """D is not of a supported shape (a prime = 1 mod 4, or 8)."""


class NarrowClassError(FieldError):
    """The narrow class number of D is not one."""

    def __init__(self, D: int):
        super().__init__(f"D={D} does not have narrow class number 1")


class FieldElement(Frozen):
    """(u + v*sqrt(D))/2 with u = v*D mod 2; immutable and hashable."""

    __slots__ = ("u", "v", "D")
    u: int
    v: int
    D: int

    def __init__(self, u: int, v: int, D: int):
        if (u - v * D) % 2 != 0:
            raise ValueError(f"bad parity for ({u}+{v}*sqrt{D})/2")
        # inline, not self._set: every ring operation builds one, and the
        # three direct calls take about half the time of _set's loop
        set_ = object.__setattr__
        set_(self, "u", u)
        set_(self, "v", v)
        set_(self, "D", D)

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

    def conjugate(self) -> "FieldElement":
        return FieldElement(self.u, -self.v, self.D)

    def norm(self) -> int:
        return (self.u * self.u - self.v * self.v * self.D) // 4

    # -- exact order/sign features -------------------------------------------

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def __bool__(self):
        return not self.is_zero()

    def sign_at(self, place: int) -> int:
        """Exact sign of the real embedding (place 0: sqrt(D) > 0, place 1: < 0).

        x|x| is odd and increasing, so u + w has the sign of u|u| + w|w|, and
        w = v*sqrt(D) has w|w| = v|v|D."""
        v = self.v if place == 0 else -self.v
        s = self.u * abs(self.u) + v * abs(v) * self.D
        return (s > 0) - (s < 0)

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
# field context and prime splitting
# ---------------------------------------------------------------------------


def supported_walk(D: int) -> list[tuple[int, int, int]]:
    """The one test of a supported D: its principal half walk f_0, ...,
    f_(m+1) (`narrow_class_one`), or a refusal.

    Raises UnsupportedShapeError unless D = 8 or D is a prime = 1 (mod 4), and
    NarrowClassError unless the half walk certifies h+ = 1; neither refusal
    factors D or counts its classes.
    """
    if not isinstance(D, int) or D < 5:
        raise UnsupportedShapeError(f"D={D} not supported (need D >= 5)")
    if not (D == 8 or (D % 4 == 1 and is_prime(D))):
        raise UnsupportedShapeError(
            f"D={D} not of the supported shape (prime = 1 mod 4, or 8)"
        )
    walk = narrow_class_one(D)
    if walk is None:
        raise NarrowClassError(D)
    return walk


class FieldContext(Frozen):
    """The field of a D that `supported_walk` certifies to have h+ = 1, built
    from D alone: D, the fundamental unit eps (of norm -1), eps_plus = eps^2,
    the fundamental totally positive unit, the step quotients of the
    principal rho walk that gives eps, read off its first half and that
    half's mirror image (omega's partial quotients, see zeta.minus_cf_cycle),
    and that half walk, the certificate's forms f_0, ..., f_(m+1) as
    (|a|, b, |c|), on which split_prime finds its reduced forms.

    The principal walk f_0 = (1, b0, c0), ..., f_l = -f_0 = (-1, b0, -c0),
    l = 2m + 1, has the step quotients t_j = (b_j + b_(j+1))/(2c_j) and the
    unit walk_element(f_l, (t_0, ..., t_(l-1))).  The half walk gives them
    all, by the mirror f_j* = f_(-j-1) and the negation f_(i+l) = -f_i proved
    in `narrow_class_one`:
    * f* = (c, b, a) and a_j = c_(j-1), so f_(-j-1) has b_j and c_(j-1), and
      f_(-j) has b_(j-1): t_(-j-1) = t_(j-1).  Negation keeps b and negates
      c: t_(i+l) = -t_i.
    * So t_(l-2-j) = -t_(-j-2) = -t_j (0 <= j <= l - 2), and t_(l-1) =
      -t_(-1) = -b0, as f_(-1) = f_0* = (c0, b0, 1).
    * The half walk holds (|a_j|, b_j, |c_j|), and c_j has the sign (-1)^(j+1)
      (`forms._cycle_step`), so t_j = (-1)^(j+1)(b_j + b_(j+1))/(2|c_j|).
    With H = (|t_0|, ..., |t_(m-1)|), the period's |t| are H, then H reversed,
    then b0, and t_j has the sign (-1)^(j+1): t_(l-2-j) = -t_j has the sign
    (-1)^(l-1-j) as l is odd, and t_(l-1) = -b0 the sign (-1)^l.

    The walk's unit eta = (u + v*sqrt(D))/2 generates the units modulo -1, so
    +-eta and +-eta' = (+-u +- v*sqrt(D))/2 are +-eps and +-1/eps (N(eta) = -1).
    As eps > 1 > -eps' = 1/eps > 0, u = eps + eps' and v*sqrt(D) = eps - eps'
    are positive at eps: eps = (|u| + |v|*sqrt(D))/2, and eps_plus = eps^2.
    """

    __slots__ = ("D", "eps", "eps_plus", "quotients", "walk")
    D: int
    eps: FieldElement
    eps_plus: FieldElement
    quotients: tuple[int, ...]
    walk: tuple[tuple[int, int, int], ...]

    def __init__(self, D: int):
        walk = supported_walk(D)
        _, b0, abs_c0 = walk[0]
        half = [(b + b1) // (2 * c) for (_, b, c), (_, b1, _) in zip(walk[:-2], walk[1:])]
        quotients = tuple(t if j % 2 else -t for j, t in enumerate((*half, *reversed(half), b0)))
        u, v = walk_element((-1, b0, abs_c0), quotients)
        eps = FieldElement(abs(u), abs(v), D)
        self._set(D, eps, eps * eps, quotients, tuple(walk))

    @property
    def omega(self) -> FieldElement:
        return FieldElement.omega(self.D)


def make_field(D: int) -> FieldContext:
    """FieldContext(D), as a function: the perfbench tracer times the public
    functions of each layer, not its classes."""
    return FieldContext(D)


class PrimeIdealData(Frozen):
    """A prime ideal of O_E above the rational prime p, built from p, its
    splitting and a totally positive generator (narrow class number one makes
    one exist); D, f and omega_image follow from them.

    q = p^f is the residue norm, f = 2 for an inert p and 1 otherwise.  For
    degree-one primes, `omega_image` is the image of omega in O/P = F_p; it
    pins down which of the two conjugate primes this is.  The generator
    g = rat + v*omega maps to rat + v*omega_image = 0 in F_p.  p does not
    divide v: otherwise p | rat too (rat = g - v*omega lies in P, so in pZ),
    and p^2 would divide N(g) = +-p.
    """

    __slots__ = ("D", "p", "splitting", "f", "generator", "omega_image")
    D: int
    p: int
    splitting: str  # "split" | "inert" | "ramified"
    f: int
    generator: FieldElement
    omega_image: int | None

    def __init__(self, p: int, splitting: str, generator: FieldElement):
        g = generator
        if splitting == "inert":
            self._set(g.D, p, splitting, 2, g, None)
        else:
            rat = (g.u - g.v) // 2 if g.D % 2 == 1 else g.u // 2
            self._set(g.D, p, splitting, 1, g, -rat * pow(g.v, -1, p) % p)

    @property
    def q(self) -> int:
        return self.p ** self.f


def _positive_generator(x: FieldElement, F: FieldContext) -> FieldElement:
    """The totally positive associate y of x with the least (|u|+|v|, u, v).

    After the norm is made positive, the totally positive associates are
    y*eps_plus^k, whose embeddings s1*L^k and s2*L^-k (L = eps_plus > 1)
    give |u| + |v| = s1*L^k + s2*L^-k + |s1*L^k - s2*L^-k|/sqrt(D).  Each
    term is convex in real k (the last is |g| for an increasing g with
    g'' = g*log(L)^2), the sum falls before the balance point s1*L^k =
    s2*L^-k and rises after it, so the least key over all k is at one of
    the two integers around that point.  The loops stop with v(y) < 0 <
    v(y*eps_plus), i.e. s1 < s2 at y and s1 > s2 at y*eps_plus (v is never
    0: N(y) = p is not a square).
    """
    if x.norm() < 0:
        x = x * F.eps
    y = x if x.u > 0 else -x
    while y.v > 0:
        y = y * F.eps_plus.conjugate()  # eps_plus^-1, as N(eps_plus) = 1
    z = y * F.eps_plus
    while z.v < 0:
        y, z = z, z * F.eps_plus
    return min((y, z), key=lambda w: (abs(w.u) + abs(w.v), w.u, w.v))


def split_prime(F: FieldContext, p: int) -> tuple[PrimeIdealData, ...]:
    """All primes of O_E above the rational prime p with canonical generators.

    A degree-one prime is (p, (b + sqrt(D))/2) with b = D mod 2 and
    b^2 = D mod 4p, b taken in (sqrt(D) - 2p, sqrt(D)).  A rho walk from the
    form g = (p, b, (b^2 - D)/4p) to a form (+-1, b', c') gives an element x
    of norm +-p (`walk_element`), so (x) is the prime or its conjugate, the
    only ideals of norm p.  The walk reads the principal cycle off F.walk:
    * `forms._reduce` takes g to a reduced form, or to |a| = 1 where the walk
      ends.  h+ = 1, so g is properly equivalent to f_0 = (1, b0, c0), and
      reduced forms are equivalent exactly when they share a cycle: the form
      is sigma*f_k (sigma = +-1, -f = (-a, b, -c)) on the principal cycle
      f_0, ..., f_(2l-1), f_(i+l) = -f_i, l = len(F.quotients).
    * The |a| = 1 forms there are f_0 and f_l, so (|a|, b, |c|) of f_0, ...,
      f_(l-1) are distinct, and they are all on the half walk f_0, ...,
      f_(m+1), l = 2m + 1: f_j itself, or f_(l-1-j) = -f_j* = (-c_j, b_j, -a_j)
      for j <= m (`forms.narrow_class_one`).  a(f_k) has the sign (-1)^k, which
      gives sigma.  A form not found breaks h+ = 1: RuntimeError, no loop.
    * rho(-f) = -rho(f) with the quotient negated, so the walk goes on from
      sigma*f_k to sigma*f_l = (-sigma, b0, -sigma*c0) with the quotients
      sigma*t_k, ..., sigma*t_(l-1), the suffix of F.quotients.
    The generator depends only on (x): the totally positive associates of x
    are y*eps_plus^k, and the least key among them is taken.  For split p the
    second generator is the first's conjugate: conjugation maps the totally
    positive associates y of x onto those of x', and y's key (|u|+|v|, u, v)
    to (|u|+|v|, u, -v).  Two associates tying on (|u|+|v|, u) would be y and
    y', making P = P'.  So the least key maps to the least key, and the
    output is the same whether (x) is the prime or its conjugate.
    """
    if not is_prime(p):
        raise FieldError(f"p={p} is not prime")
    D = F.D
    sym = kronecker(D, p)
    if sym == -1:
        return (PrimeIdealData(p, "inert", FieldElement.from_int(p, D)),)
    b, s = sqrt_mod(D, p), isqrt(D)
    b += p * ((b - D) % 2)
    b = s - (s - b) % (2 * p)
    end, quotients = _reduce((p, b, (b * b - D) // (4 * p)), D, s)
    if abs(end[0]) != 1:
        k = _cycle_position(F, end)
        sigma = 1 if (end[0] > 0) == (k % 2 == 0) else -1
        _, b0, abs_c0 = F.walk[0]
        quotients += [sigma * t for t in F.quotients[k:]]
        end = (-sigma, b0, sigma * abs_c0)
    x = FieldElement(*walk_element(end, quotients), D)
    g = _positive_generator(x, F)
    gens = (g, g.conjugate()) if sym == 1 else (g,)
    splitting = "split" if sym == 1 else "ramified"
    primes = [PrimeIdealData(p, splitting, g) for g in gens]
    # deterministic ordering: smaller omega image first
    return tuple(sorted(primes, key=lambda P: P.omega_image))


def _cycle_position(F: FieldContext, form: tuple[int, int, int]) -> int:
    """The k < l with form = +-f_k on F's principal cycle: f_k is F.walk[k],
    or f_(l-1-j) has the |a| and |c| of F.walk[j] swapped (`split_prime`)."""
    a, b, c = form
    key, mirror = (abs(a), b, abs(c)), (abs(c), b, abs(a))
    if key in F.walk:
        return F.walk.index(key)
    if mirror in F.walk:
        return len(F.quotients) - 1 - F.walk.index(mirror)
    raise RuntimeError(f"the reduced form {form} is not on the principal cycle of D={F.D}")


def norm_achievable(D: int, q: int) -> bool:
    """Whether q occurs as the norm of a prime ideal of the field."""
    if q >= 2 and is_prime(q):
        return kronecker(D, q) >= 0
    p = isqrt(max(q, 0))
    return p * p == q and is_prime(p) and kronecker(D, p) == -1


def prime_of_norm(F: FieldContext, q: int) -> PrimeIdealData:
    """The prime of norm q (the first of two over a split p), or FieldError."""
    if not norm_achievable(F.D, q):
        raise FieldError(f"no prime of norm {q} in the field of discriminant {F.D}")
    p = isqrt(q)  # q = p^2 for an inert p, else q is the prime itself
    return split_prime(F, p if p * p == q else q)[0]

