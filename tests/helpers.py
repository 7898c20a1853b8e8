"""Shared test machinery: independent oracles and random generators.

Everything here is deliberately written from scratch against the definitions,
not by calling back into the package internals, so the tests have teeth.  The
matrices, rotation types and residue fields the elliptic oracles need live
here; the class enumerator borrows only field arithmetic and class numbers
from the package, and the Gamma0(P) counts it feeds are computed on the
projective line, independently of the closed form they check.
"""

import functools
from collections import deque
from dataclasses import dataclass
from math import gcd, isqrt, sqrt

from hmsurf.elliptic import EllipticCounts, EllipticError
from hmsurf.field import FieldElement, make_field
from hmsurf.forms import h_definite
from hmsurf.reference_data import PSL_POINT_TOTALS
from hmsurf.trees import TreeGraph


# ---------------------------------------------------------------------------
# trees: generation
# ---------------------------------------------------------------------------

def random_tree(rng, n, shape=None):
    """Random labeled tree on n vertices.

    shape picks the attachment law so the corpus is not all "uniform random
    attachment" blobs: paths, stars, caterpillars and brooms show up too.
    """
    if shape is None:
        shape = rng.choice(["attach", "attach", "path", "star", "caterpillar", "binary"])
    labels = list(range(n))
    if rng.random() < 0.2:
        labels = ["n%d" % i for i in labels]
    rng.shuffle(labels)
    edges = []
    if shape == "path":
        edges = [(labels[i - 1], labels[i]) for i in range(1, n)]
    elif shape == "star":
        edges = [(labels[0], labels[i]) for i in range(1, n)]
    elif shape == "caterpillar":
        spine = max(1, n // 3)
        for i in range(1, spine):
            edges.append((labels[i - 1], labels[i]))
        for i in range(spine, n):
            edges.append((labels[rng.randrange(spine)], labels[i]))
    elif shape == "binary":
        for i in range(1, n):
            edges.append((labels[(i - 1) // 2], labels[i]))
    else:  # random attachment
        for i in range(1, n):
            edges.append((labels[rng.randrange(i)], labels[i]))
    return TreeGraph(labels, edges)


def random_subset(rng, T, kmax=6):
    verts = sorted(T.vertices, key=lambda v: (str(v), repr(v)))
    k = rng.randint(1, min(kmax, len(verts)))
    return set(rng.sample(verts, k))


def symmetric_tree(rng, copies, depth):
    """Hub plus `copies` identical random branches; returns (tree, rotation,
    orbit) where rotation cyclically permutes the branches and orbit is the
    set of images of one marked branch vertex (a single-orbit set)."""
    branch_parent = [None]
    for j in range(1, depth):
        branch_parent.append(rng.randrange(j))
    hub = "hub"
    vertices = [hub]
    edges = []
    for i in range(copies):
        for j in range(depth):
            v = "b%d_%d" % (i, j)
            vertices.append(v)
            if branch_parent[j] is None:
                edges.append((hub, v))
            else:
                edges.append(("b%d_%d" % (i, branch_parent[j]), v))
    T = TreeGraph(vertices, edges)
    rotation = {hub: hub}
    for i in range(copies):
        for j in range(depth):
            rotation["b%d_%d" % (i, j)] = "b%d_%d" % ((i + 1) % copies, j)
    mark = rng.randrange(depth)
    orbit = {"b%d_%d" % (i, mark) for i in range(copies)}
    return T, rotation, orbit


# ---------------------------------------------------------------------------
# trees: brute-force centre oracle
# ---------------------------------------------------------------------------

def _adjacency(T):
    adj = {v: [] for v in T.vertices}
    for e in T.edges:
        a, b = tuple(e)
        adj[a].append(b)
        adj[b].append(a)
    return adj

def _bfs(adj, src):
    dist = {src: 0}
    parent = {src: None}
    dq = deque([src])
    while dq:
        x = dq.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                parent[y] = x
                dq.append(y)
    return dist, parent

def brute_centres(T, S):
    """Midpoints of *every* maximizing pair in S, as a set of normalized
    centres.  All-pairs BFS; nothing shared with the double-sweep code."""
    S = sorted(S, key=lambda v: (str(v), repr(v)))
    adj = _adjacency(T)
    runs = {s: _bfs(adj, s) for s in S}
    diam = max(runs[s][0][t] for s in S for t in S)
    centres = set()
    for s in S:
        dist, parent = runs[s]
        for t in S:
            if dist[t] != diam:
                continue
            path = [t]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            path.reverse()  # now s ... t
            if diam % 2 == 0:
                centres.add(("vertex", path[diam // 2]))
            else:
                u, w = path[diam // 2], path[diam // 2 + 1]
                centres.add(("edge", frozenset((u, w))))
    return diam, centres

def normalize_centre(res):
    if res.kind == "vertex":
        return ("vertex", res.payload)
    return ("edge", frozenset(res.endpoints()))


# ---------------------------------------------------------------------------
# field elements as floats, for order and size checks
# ---------------------------------------------------------------------------

def real(x):
    """Float value of x = (u + v*sqrt(D))/2 at the first real place."""
    return (x.u + x.v * sqrt(x.D)) / 2


# ---------------------------------------------------------------------------
# elliptic: 2x2 matrices over O_E, rotation types and residue fields
# ---------------------------------------------------------------------------

class NotEllipticError(EllipticError):
    pass


class Mat2:
    """A 2x2 matrix over O_E; just enough group arithmetic for the oracles."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @staticmethod
    def from_pairs(D, pairs):
        """Build from four (u, v) coordinate pairs."""
        return Mat2(*(FieldElement(u, v, D) for u, v in pairs))

    @staticmethod
    def identity(D):
        return mat(D, 1, 0, 0, 1)

    def __mul__(self, other):
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace_el(self):
        return self.a + self.d

    def inverse(self):
        """Inverse for unit determinant (all we ever need)."""
        dinv = self.det().unit_inverse()
        return Mat2(self.d * dinv, -self.b * dinv, -self.c * dinv, self.a * dinv)

    def as_tuple(self):
        return (self.a.u, self.a.v, self.b.u, self.b.v,
                self.c.u, self.c.v, self.d.u, self.d.v)

    def __eq__(self, other):
        return isinstance(other, Mat2) and self.as_tuple() == other.as_tuple()

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        return f"Mat2[{self.a!r}, {self.b!r}; {self.c!r}, {self.d!r}]"


def _fe(D, x):
    return x if isinstance(x, FieldElement) else FieldElement.from_int(x, D)

def mat(D, a, b, c, d):
    return Mat2(_fe(D, a), _fe(D, b), _fe(D, c), _fe(D, d))

def is_elliptic(g):
    """Totally positive determinant and tr^2 < 4 det at both real places."""
    det = g.det()
    if not det.is_totally_positive():
        return False
    t = g.trace_el()
    disc = t * t - 4 * det
    return disc.sign_at(0) < 0 and disc.sign_at(1) < 0


# At a real place where an elliptic g of SL2(O) has trace t, it turns by
# theta = pi*k/n with 2cos(theta) = t.  Keyed by the (u, v) coordinates of t:
# trace 0 has order 2, traces 1 and -1 order 3.
_TRACE_ANGLES = {(0, 0): (2, 1), (2, 0): (3, 1), (-2, 0): (3, 2)}
# Order 5 only occurs for D = 5, where 2cos(pi*k/5) for k = 1..4 is
# (1+sqrt5)/2, (sqrt5-1)/2, (1-sqrt5)/2 and -(1+sqrt5)/2.
_TRACE_ANGLES_D5 = {**_TRACE_ANGLES,
                    (1, 1): (5, 1), (-1, 1): (5, 2), (1, -1): (5, 3), (-1, -1): (5, 4)}


def rotation_type(g):
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


class ResidueField:
    """O_E/P as F_q, with e0 + e1*theta encoded as the int e0 + e1*p in [0, q).

    theta is the class of omega: theta^2 = theta + (D-1)/4 for odd D and
    theta^2 = 2 for D = 8.  For f = 1, omega reduces to omega_image, so e1 = 0
    and the encoding is F_p itself.
    """

    zero, one = 0, 1

    def __init__(self, P):
        self.P, self.p, self.q = P, P.p, P.q
        self.t1, self.t0 = (1, (P.D - 1) // 4) if P.D % 2 else (0, 2)

    def reduce(self, x):
        rat = (x.u - x.v) // 2 if x.D % 2 else x.u // 2  # x = rat + v*omega
        if self.P.f == 1:
            return (rat + x.v * self.P.omega_image) % self.p
        return rat % self.p + x.v % self.p * self.p

    def add(self, a, b):
        p = self.p
        return (a + b) % p + (a // p + b // p) % p * p

    def mul(self, a, b):
        p = self.p
        a0, a1, b0, b1 = a % p, a // p, b % p, b // p
        cross = a1 * b1  # theta^2 = t1*theta + t0
        return ((a0 * b0 + cross * self.t0) % p
                + (a0 * b1 + a1 * b0 + cross * self.t1) % p * p)

    def elements(self):
        return range(self.q)


def isotropy_generators_d5_p2():
    """The six Gamma0((2))-inequivalent elliptic points for D=5.

    Each entry is (rotation type, generator of the isotropy group); the
    generators live in Gamma0((2)) of Q(sqrt(5)).  Coordinate pairs (u, v)
    encode (u + v*sqrt(5))/2.
    """
    rows = [
        ((2, 1, 1), ((2, 0), (-2, 0), (4, 0), (-2, 0))),
        ((2, 1, 1), ((-2, 0), (-1, 1), (-2, -2), (2, 0))),
        ((3, 1, 1), ((1, 1), (-2, 0), (4, 0), (1, -1))),
        ((3, 1, 1), ((3, 1), (-2, 0), (6, 2), (-1, -1))),
        ((3, 1, -1), ((1, -1), (-1, 1), (-2, -2), (1, 1))),
        ((3, 1, -1), ((-1, -1), (-1, 1), (-8, -4), (3, 1))),
    ]
    return [(rtype, Mat2.from_pairs(5, pairs)) for rtype, pairs in rows]


def isotropy_generators_d13_degree_one():
    """The four Gamma0(P)-inequivalent elliptic points for D=13 with P the
    norm-3 prime generated by an associate of 4+sqrt(13)."""
    rows = [
        ((3, 1, 1), ((-2, 0), (2, 0), (-6, 0), (4, 0))),
        ((3, 1, 1), ((-1, 1), (-4, 0), (5, -1), (3, -1))),
        ((3, 1, -1), ((4, 0), (-1, 1), (-1, -1), (-2, 0))),
        ((3, 1, -1), ((5, 1), (3, 1), (-2, -2), (-3, -1))),
    ]
    return [(rtype, Mat2.from_pairs(13, pairs)) for rtype, pairs in rows]


# ---------------------------------------------------------------------------
# elliptic: random group elements and the projective fixed-point oracle
# ---------------------------------------------------------------------------

def rand_o_elt(F, rng, lim=2):
    return (FieldElement.from_int(rng.randint(-lim, lim), F.D)
            + F.omega * FieldElement.from_int(rng.randint(-lim, lim), F.D))

def rand_sl2(F, rng, steps=4, lim=2):
    """Random product of elementary matrices and the inversion; determinant 1."""
    D = F.D
    g = Mat2.identity(D)
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0:
            g = g * mat(D, 1, rand_o_elt(F, rng, lim), 0, 1)
        elif kind == 1:
            g = g * mat(D, 1, 0, rand_o_elt(F, rng, lim), 1)
        else:
            g = g * mat(D, 0, -1, 1, 0)
    return g

def rand_elliptic(F, rng, steps=3, lim=1):
    """Random elliptic element: conjugate of an order-2 or order-3 seed."""
    D = F.D
    seeds = [
        mat(D, 0, -1, 1, 0),       # trace 0, order 2
        mat(D, 0, -1, 1, -1),      # trace -1, order 3
        mat(D, 0, -1, 1, 1),       # trace 1, order 3
        mat(D, 1, -1, 2, -1),      # trace 0 again, different axis
    ]
    seed = rng.choice(seeds)
    if rng.random() < 0.5:
        seed = -seed
    h = rand_sl2(F, rng, steps=steps, lim=lim)
    return h * seed * h.inverse()

def p1_fixed_count(g, P):
    """Fixed points of the reduction of g acting on the projective line over
    O/P by right multiplication of row vectors.  Enumerates all q+1 points
    and tests proportionality by cross-product; no quadratic-formula cases."""
    R = ResidueField(P)
    a, b = R.reduce(g.a), R.reduce(g.b)
    c, d = R.reduce(g.c), R.reduce(g.d)
    points = [(t, R.one) for t in R.elements()] + [(R.one, R.zero)]
    count = 0
    for x, y in points:
        xi = R.add(R.mul(x, a), R.mul(y, c))
        yi = R.add(R.mul(x, b), R.mul(y, d))
        if R.mul(xi, y) == R.mul(yi, x):
            count += 1
    return count


# ---------------------------------------------------------------------------
# elliptic: brute-force class enumeration with a completeness certificate,
# the oracle for the closed-form Gamma0(P) counts
# ---------------------------------------------------------------------------

class CompletenessError(RuntimeError):
    """Enumeration missed classes (or found spurious ones) at this height
    bound / conjugation depth; the caller should raise those knobs."""


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


def psl_canonical_tuple(g):
    """Canonical key identifying g and -g (the same PSL2 element)."""
    t = g.as_tuple()
    return min(t, tuple(-x for x in t))


def matrix_order(g, cap=24):
    """Order of g in the projective group (g^n scalar)."""
    if not is_elliptic(g):
        raise NotEllipticError(f"{g!r} is not elliptic")
    power = g
    for n in range(1, cap + 1):
        if power.b.is_zero() and power.c.is_zero() and power.a == power.d:
            return n
        power = power * g
    raise EllipticError(f"no order <= {cap} found; not torsion?")


def _field_box(D, bound):
    """All x in O_E with |x| <= bound at both real places."""
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


def _elliptic_traces(D):
    """Canonical representatives t (up to sign) with |t| < 2 at both places."""
    two = FieldElement.from_int(2, D)
    traces = []
    for t in _field_box(D, 2):
        if t.sign_at(0) < 0:
            continue  # -t is scanned instead; g and -g agree in PSL2
        if (two - t).is_totally_positive() and (two + t).is_totally_positive():
            traces.append(t)
    return traces


def _conj_generators(F):
    zero = FieldElement.from_int(0, F.D)
    one = F.one()
    gens = [
        Mat2(zero, -one, one, zero),           # inversion
        Mat2(one, one, zero, one),             # translation by 1
        Mat2(one, F.omega, zero, one),         # translation by omega
        Mat2(F.eps, zero, zero, F.eps.unit_inverse()),  # unit scaling
    ]
    gens += [g.inverse() for g in gens]
    return [(g, g.inverse()) for g in gens]


def _size(g):
    return sum(x.u * x.u + x.v * x.v * x.D for x in (g.a, g.b, g.c, g.d))


def _descend(g, moves):
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


def _conjugation_ball(F, depth, coeff_cap):
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


def _generator_powers(g, order):
    """g^k for k coprime to the order: all generators of the isotropy group."""
    powers = []
    cur = g
    for k in range(1, order):
        if gcd(k, order) == 1:
            powers.append(cur)
        cur = cur * g
    return powers


@functools.lru_cache(maxsize=None)
def enumerate_elliptic_reps(F, height_bound=4, ball_depth=3, coeff_cap=64):
    """Representatives of all elliptic fixed-point classes of PSL2(O).

    Scans matrices (a, b; c, d) with elliptic trace, entries from a box of
    embedding height <= height_bound, then merges candidates into classes by
    conjugation descent plus a bounded conjugation ball.  Completeness is
    certified by comparing per-order totals with h(-4D)/h(-3D) (or the D=5
    catalogue totals); a mismatch raises CompletenessError.  Memoised per
    field and knobs, so every test file shares one scan per D.
    """
    D = F.D
    if D == 5:
        expected = PSL_POINT_TOTALS[5]
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

    def register_class(rep, order):
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
                h = _descend(Mat2(a, b, c, d), moves)
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

    tally = {}
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
    return tuple(reps)


def certified_reps(D):
    """The certified catalogue of D at the default knobs."""
    return enumerate_elliptic_reps(make_field(D))


def counts_gamma0_from_reps(F, P, reps):
    """Exact Gamma0(P) counts from a certified full-group catalogue.

    Each full-group class splits into as many Gamma0(P) classes as its
    generator has fixed points on the projective line over O/P.
    """
    totals = {}
    for rep in reps:
        totals[rep.rtype] = totals.get(rep.rtype, 0) + p1_fixed_count(rep.matrix, P)
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
