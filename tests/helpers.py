"""Shared test machinery: independent oracles and random generators.

Everything here is deliberately written from scratch against the definitions,
not by calling back into the package internals, so the tests have teeth.  The
matrices, rotation types and residue fields the elliptic oracles need live
here; the class enumerator borrows only field arithmetic and class numbers
from the package, and the Gamma0(P) counts it feeds are computed on the
projective line, independently of the closed form they check.
"""

import functools
import importlib.util
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod, sqrt
from pathlib import Path

import pytest
import sympy
from mpmath import iv

from hmsurf import elliptic
from hmsurf.chern import ChernError, c1sq_lower_bound, c2_lower_check, modes_at, norm_achievable
from hmsurf.elliptic import EllipticCounts, EllipticError
from hmsurf.field import (FieldElement, FieldError, NarrowClassError, PrimeIdealData,
                          UnsupportedShapeError, _positive_generator, make_field,
                          supported_walk)
from hmsurf.forms import h_definite, reduced_indefinite_forms, walk_element
from hmsurf.ntheory import kronecker, sqrt_mod
from hmsurf.numeric import check_precision
from hmsurf.reference_data import PSL_POINT_TOTALS
from hmsurf.trees import TreeError, TreeGraph, center_distance, tree_center
from hmsurf.zeta import local_chern_divisor_sum, zeta_minus_one


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
# trees: automorphism actions and the two centre theorems (criterion 8)
# ---------------------------------------------------------------------------

class ActionError(TreeError):
    """A permutation is not a tree automorphism, or a precondition on the
    action (S-stability, transitivity on S) fails."""


class GroupAction:
    """A finite list of permutations of a tree's vertices, each required to
    send edges to edges."""

    __slots__ = ("tree", "perms")

    def __init__(self, tree: TreeGraph, perms):
        maps = []
        for i, p in enumerate(perms):
            p = dict(p)
            if set(p) != tree.vertices or set(p.values()) != tree.vertices:
                raise ActionError(f"permutation #{i} is not a bijection of the vertices")
            for e in tree.edges:
                u, v = tuple(e)
                if frozenset((p[u], p[v])) not in tree.edges:
                    raise ActionError(
                        f"permutation #{i} breaks edge {{{u!r}, {v!r}}}")
            maps.append(p)
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "perms", tuple(maps))

    def __setattr__(self, name, value):
        raise AttributeError("GroupAction is immutable")

    def __len__(self):
        return len(self.perms)

    def stabilizes(self, S) -> bool:
        S = set(S)
        return all({p[s] for s in S} == S for p in self.perms)

    def orbit(self, v) -> frozenset:
        """Orbit of v under the group generated by the listed permutations.
        (Closure under the maps alone suffices: a bijection of a finite set
        has finite order, so its inverse is one of its powers.)"""
        seen = {v}
        todo = [v]
        while todo:
            x = todo.pop()
            for p in self.perms:
                y = p[x]
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return frozenset(seen)


def verify_center_invariance(T: TreeGraph, S, G: GroupAction) -> bool:
    """Whether every permutation fixes the centre of S (an edge may be
    flipped).  Demands that the action stabilizes S, since the statement is
    about stable subsets."""
    if G.tree != T:
        raise ActionError("action belongs to a different tree")
    if not G.stabilizes(S):
        raise ActionError("the action does not map S onto S")
    c = tree_center(T, S)
    for p in G.perms:
        if c.kind == "vertex":
            if p[c.payload] != c.payload:
                return False
        else:
            if frozenset(p[x] for x in c.payload) != c.payload:
                return False
    return True


def verify_equidistance(T: TreeGraph, S, G: GroupAction) -> bool:
    """Whether all members of S are equally far from the centre (nearer
    endpoint for an edge centre).  Requires the action to be transitive on S
    - the orbit setting - and raises otherwise."""
    S = set(S)
    if not S:
        raise TreeError("S must be nonempty")
    if G.tree != T:
        raise ActionError("action belongs to a different tree")
    some = next(iter(S))
    if not S <= G.orbit(some):
        raise ActionError("the action is not transitive on S")
    c = tree_center(T, S)
    dists = {center_distance(T, c, s) for s in S}
    return len(dists) == 1


# ---------------------------------------------------------------------------
# modular curves: genus, integrality forcing, adjunction (criterion 6)
# ---------------------------------------------------------------------------

class UniquenessError(ChernError):
    """An integrality argument did not pin down a unique count."""


def genus_gamma0_rational(N: int) -> int:
    """Genus of the compactified level-N modular curve (Hecke congruence type),
    by the index / elliptic-count / cusp-count formula."""
    if N < 1:
        raise ChernError(f"level must be >= 1, got {N}")
    ps = sympy.primefactors(N)
    mu = N
    for p in ps:
        mu = mu // p * (p + 1)
    nu2 = 0 if N % 4 == 0 else prod(1 + kronecker(-4, p) for p in ps)
    nu3 = 0 if N % 9 == 0 else prod(1 + kronecker(-3, p) for p in ps)
    nuinf = sum(sympy.totient(gcd(d, N // d)) for d in sympy.divisors(N))
    g = (Fraction(12 + mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3)
         - Fraction(int(nuinf), 2))
    if g.denominator != 1 or g < 0:
        raise ChernError(f"genus formula broke down for N={N}: got {g}")
    return int(g)


def curve_chern_integrality(vol_term, cusp_term: int, avail_n3: int,
                            avail_n4: int) -> "tuple[int, int, int]":
    """The unique (n3, n4) with 0 <= n3 <= avail_n3, 0 <= n4 <= avail_n4 making

        vol_term + cusp_term + n3/3 + n4/2

    an integer; that integer (the curve's c1-pairing) is returned third.
    Raises UniquenessError when no or several assignments work - the point of
    the argument is being forced.
    """
    if avail_n3 < 0 or avail_n4 < 0:
        raise ChernError("available point counts must be nonnegative")
    base = Fraction(vol_term) + cusp_term
    hits = []
    for n3 in range(avail_n3 + 1):
        for n4 in range(avail_n4 + 1):
            total = base + Fraction(n3, 3) + Fraction(n4, 2)
            if total.denominator == 1:
                hits.append((n3, n4, int(total)))
    if len(hits) != 1:
        raise UniquenessError(
            f"{len(hits)} integral (n3, n4) assignments, need exactly one")
    return hits[0]


def adjunction_self_intersection(c1_pairing: int, genus: int) -> int:
    """Self-intersection from the adjunction identity: F^2 = 2g - 2 + c1.F."""
    if genus < 0:
        raise ChernError(f"genus must be nonnegative, got {genus}")
    return 2 * genus - 2 + c1_pairing


# ---------------------------------------------------------------------------
# certified terms: the same expressions in mpmath's iv context
# ---------------------------------------------------------------------------

@contextmanager
def interval_precision(bits: int):
    """Temporarily set the shared iv context precision (128 to 8192 bits)."""
    check_precision(bits)
    saved = iv.prec
    iv.prec = bits
    try:
        yield iv
    finally:
        iv.prec = saved


def interval_fraction(q: Fraction):
    """Exact Fraction -> interval (dyadic endpoints enclose the rational)."""
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def iv_c1sq_intervals(D, ns, p_cases, zeta_modes, precision_bits):
    """{(zeta_mode, n, p_case): iv intervals (volume, cusp term, penalty,
    total)}: chern._c1sq_intervals written in iv's operators, for the
    kernels to match endpoint for endpoint."""
    with interval_precision(precision_bits):
        if modes_at(D)[0] == "exact_c":
            cterm = interval_fraction(Fraction(local_chern_divisor_sum(D)))
        else:
            logd = iv.log(D)
            cterm = -(iv.sqrt(D) / 2) * (3 * logd ** 2 / (2 * iv.pi ** 2)
                                         + (iv.mpf(21) / 20) * logd)
        pen3 = iv.sqrt(3 * D) * iv.log(3 * D)
        penalty = {"generic": lambda: pen3 / (4 * iv.pi),
                   "p3_inert": lambda: 4 * pen3 / iv.pi,
                   # p2_inert keeps the generic order-3 term and adds the order-2 one
                   "p2_inert": lambda: (pen3 / (4 * iv.pi)
                                        + 3 * iv.sqrt(4 * D) * iv.log(4 * D) / iv.pi)}
        pens = {p_case: penalty[p_case]() for p_case in p_cases}  # only the cases asked for
        bounds = {}
        for zeta_mode in zeta_modes:
            for n in ns:
                if zeta_mode == "exact":
                    vol = interval_fraction(2 * n * zeta_minus_one(D))
                else:
                    vol = n * iv.sqrt(D) ** 3 / 180
                for p_case, pen in pens.items():
                    bounds[zeta_mode, n, p_case] = (vol, cterm, pen, vol + cterm - pen)
        return bounds


def iv_c2_floor(D, n, precision_bits):
    """The c2 floor n * D^(3/2) / 360 of chern._bound_report, in iv."""
    with interval_precision(precision_bits):
        return n * iv.sqrt(D) ** 3 / 360


def iv_sqrt_log_over_pi(N, precision_bits):
    """numeric.sqrt_log_over_pi in iv."""
    with interval_precision(precision_bits):
        return iv.sqrt(N) * iv.log(N) / iv.pi


# ---------------------------------------------------------------------------
# table rows: the degree scan
# ---------------------------------------------------------------------------

SCAN_N_MAX = 200


def row_scan(D, strict_n, zeta_mode, precision_bits):
    """(n_min, exclusions) of D's table row by trying n = 3 .. SCAN_N_MAX in
    turn, one certified c1^2 evaluation per degree, for the closed form in
    chern._row to match."""
    def passes(n, p_case):
        return (c2_lower_check(D, n)
                and c1sq_lower_bound(D, n, p_case, zeta_mode=zeta_mode,
                                     precision_bits=precision_bits) > 0)

    n_min = next((n for n in range(3, SCAN_N_MAX + 1)
                  if (not strict_n or norm_achievable(D, n - 1)) and passes(n, "generic")),
                 None)
    if n_min is None:
        raise ChernError(f"no passing degree n <= {SCAN_N_MAX} for D={D}")
    exclusions = []
    if kronecker(D, 2) == -1 and not passes(5, "p2_inert"):
        exclusions.append((5, "p2_inert"))
    if kronecker(D, 3) == -1 and not passes(10, "p3_inert"):
        exclusions.append((10, "p3_inert"))
    return n_min, tuple(exclusions)


def window_disagreements(row, other):
    """The degrees where two table rows' allow-predicates differ, by testing
    every n in the window 3 <= n <= max(n_min, 10) + 2, for chern._disagree_at
    to match."""
    hi = max(row.n_min, other.n_min, 10) + 2
    return [n for n in range(3, hi + 1) if row.allows(n) != other.allows(n)]


def is_supported(D):
    """Whether field.supported_walk accepts D."""
    try:
        supported_walk(D)
    except FieldError:
        return False
    return True


def load_audit_row():
    """scripts/audit_row.py, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "audit_row.py"
    spec = importlib.util.spec_from_file_location("audit_row", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# forms: reduced indefinite forms by scanning the whole window
# ---------------------------------------------------------------------------

def oracle_reduced_indefinite_forms(D):
    """Primitive reduced forms (a, b, c) of discriminant D > 0, nonsquare.

    Every b in (0, sqrt(D)), every |a| in a padded window around
    sqrt(D) - b < 2|a| < sqrt(D) + b and both signs of a: O(D) candidates,
    each checked against the definition with squared comparisons.
    """
    forms = set()
    s = isqrt(D)
    for b in range(1, s + 1):
        for a_abs in range(max(1, (s - b) // 2), (s + b) // 2 + 2):
            for a in (a_abs, -a_abs):
                if (b * b - D) % (4 * a):
                    continue
                c = (b * b - D) // (4 * a)
                two_a = 2 * a_abs
                # sqrt(D) - b < 2|a| < sqrt(D) + b, with b^2 < D
                if b * b >= D or (two_a + b) ** 2 <= D:
                    continue
                if two_a >= b and (two_a - b) ** 2 >= D:
                    continue
                if gcd(gcd(a, b), c) == 1:
                    forms.add((a, b, c))
    return sorted(forms)


# ---------------------------------------------------------------------------
# forms: the signed rho walk, the oracle for forms._cycle_step and forms._reduce
# ---------------------------------------------------------------------------

def rho_step(form, D, s):
    """The reduction operator on signed forms: (a,b,c) -> (c,b',c') with
    b' = -b mod 2|c|, s = isqrt(D).

    b' lies in (-|c|, |c|] when |c| > sqrt(D), else in (sqrt(D) - 2|c|, sqrt(D)),
    i.e. (s - 2|c|, s] as D is nonsquare.  The steps reach a reduced form,
    then run round its cycle (Buchmann & Vollmer, Binary Quadratic Forms,
    2007, ch. 6).
    """
    _, b, c = form
    two_c = 2 * abs(c)
    if c * c > D:
        b1 = (-b) % two_c
        if b1 > abs(c):
            b1 -= two_c
    else:
        b1 = s - (s + b) % two_c
    return (c, b1, (b1 * b1 - D) // (4 * c))


def principal_form(D):
    """The principal reduced form (1, b, (b^2 - D)/4), b the largest b < sqrt(D)
    with b = D mod 2."""
    s = isqrt(D)
    b = s - (s - D) % 2
    return (1, b, (b * b - D) // 4)


def unit_form_walk(form, D):
    """Walk rho steps from (a0, b, c) to the first form (a', b', c') with a' = +-1.

    Returns that form and the step quotients t = (b + b')/(2c) in walk order.
    The walk is eventually periodic, and Brent's check (Brent 1980) compares
    the next 2^k forms with the one reached after 2^k - 1 steps, so a walk
    that never meets (+-1, b, c) raises RuntimeError.
    """
    s, held = isqrt(D), form
    quotients = []
    while True:
        for _ in range(len(quotients) + 1):  # 2^k steps after the first 2^k - 1
            _, b, c = form
            form = rho_step(form, D, s)
            quotients.append((b + form[1]) // (2 * c))
            if abs(form[0]) == 1:
                return form, quotients
            if form == held:
                raise RuntimeError(f"no form (+-1, b, c) in the cycle of {form}, D={D}")
        held = form


def oracle_split_generators(F, p):
    """The generators split_prime(F, p) gives for a split or ramified p, from a
    signed rho walk of (p, b, (b^2 - D)/4p), b in [0, 2p), to the first form
    (+-1, b', c') (`unit_form_walk`); a split p's two in omega-image order.
    Only the walk is the oracle's: the choice of associate and the omega
    image are the package's `_positive_generator` and `PrimeIdealData`."""
    D = F.D
    b = sqrt_mod(D, p)
    b += p * ((b - D) % 2)
    end, quotients = unit_form_walk((p, b, (b * b - D) // (4 * p)), D)
    g = _positive_generator(FieldElement(*walk_element(end, quotients), D), F)
    gens = (g, g.conjugate()) if kronecker(D, p) == 1 else (g,)
    return sorted(gens, key=lambda x: PrimeIdealData(p, "split", x).omega_image)


def signed_cycle_count(D):
    """h+(D) as the number of rho cycles of signed reduced forms (`rho_step`),
    listed by forms.reduced_indefinite_forms, which test_forms checks against
    the window scan `oracle_reduced_indefinite_forms`."""
    s, left, cycles = isqrt(D), set(reduced_indefinite_forms(D)), 0
    while left:
        f = g = left.pop()
        while (g := rho_step(g, D, s)) != f:
            left.remove(g)
        cycles += 1
    return cycles


# ---------------------------------------------------------------------------
# field: make_field from the full principal walk
# ---------------------------------------------------------------------------

def full_principal_walk(D):
    """Every form f_0 = principal_form(D), ..., f_l of the principal rho walk
    up to the first form (+-1, b, c), for a fundamental D > 0."""
    s, walk = isqrt(D), [principal_form(D)]
    while True:
        walk.append(rho_step(walk[-1], D, s))
        if abs(walk[-1][0]) == 1:
            return walk


def full_walk_certificate(D, walk):
    """h+(D) = 1 from the full principal walk: it ends at -1 and meets every
    prime p with 4p^2 < D and (D/p) >= 0 as some |a| (Minkowski's bound)."""
    met = {abs(a) for a, _, _ in walk}
    return walk[-1][0] == -1 and all(
        p in met or kronecker(D, p) < 0 for p in sympy.primerange(2, isqrt((D - 1) // 4) + 1))


def oracle_make_field(D):
    """make_field's (D, eps, quotients, walk) from the full principal walk:
    the shape test, the full walk's certificate, eps and the quotients of
    `unit_form_walk` from the principal form, and the walk's first (l + 3)/2
    forms without signs; the refusals are make_field's."""
    if not isinstance(D, int) or D < 5:
        raise UnsupportedShapeError(f"D={D} not supported (need D >= 5)")
    if not (D == 8 or (D % 4 == 1 and sympy.isprime(D))):
        raise UnsupportedShapeError(
            f"D={D} not of the supported shape (prime = 1 mod 4, or 8)")
    walk = full_principal_walk(D)
    if not full_walk_certificate(D, walk):
        raise NarrowClassError(D)
    end, quotients = unit_form_walk(principal_form(D), D)
    u, v = walk_element(end, quotients)
    eps = FieldElement(abs(u), abs(v), D)
    half = tuple((abs(a), b, abs(c)) for a, b, c in walk[:len(walk) // 2 + 1])
    return D, eps, tuple(quotients), half


# ---------------------------------------------------------------------------
# zeta: the minus continued fraction of omega, expanded step by step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadIrrational:
    """(P + sqrt(D))/Q with Q | D - P^2 (so the expansion stays integral)."""

    P: int
    Q: int
    D: int

    def __post_init__(self):
        if self.Q == 0 or (self.D - self.P * self.P) % self.Q != 0:
            raise ValueError(f"invalid state ({self.P}+sqrt{self.D})/{self.Q}")

    def floor(self):
        """Exact floor((P + sqrt(D))/Q) for nonsquare D > 0."""
        s = isqrt(self.D)
        return (self.P + s) // self.Q if self.Q > 0 else (-self.P - s - 1) // -self.Q

    def ceil(self):
        return self.floor() + 1  # never an integer for nonsquare D

    def minus_step(self):
        """(b, w') with w' = 1/(b - w), b = ceil(w)."""
        b = self.ceil()
        P1 = b * self.Q - self.P
        return b, QuadIrrational(P1, (P1 * P1 - self.D) // self.Q, self.D)


def oracle_minus_cf_period(D):
    """Period of the minus continued fraction of omega, as the expansion
    meets it: run the minus steps w -> 1/(ceil(w) - w) in (P, Q) state form
    until a state repeats."""
    w = QuadIrrational(1, 2, D) if D % 2 else QuadIrrational(0, 2, D)
    seen = {}
    digits = []
    while (w.P, w.Q) not in seen:
        seen[w.P, w.Q] = len(digits)
        b, w = w.minus_step()
        digits.append(b)
    return tuple(digits[seen[w.P, w.Q]:])


def linear_product(mats):
    """The product of 2x2 integer matrices (m00, m01, m10, m11), in order and
    one factor at a time: the oracle for forms.step_product, fed step
    matrices (0, -1, 1, t) or the minus cycle's (b, -1, 1, 0)."""
    a, b, c, d = 1, 0, 0, 1
    for e, f, g, h in mats:
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return a, b, c, d


# ---------------------------------------------------------------------------
# field elements as floats, for order and size checks
# ---------------------------------------------------------------------------

def real(x):
    """Float value of x = (u + v*sqrt(D))/2 at the first real place."""
    return (x.u + x.v * sqrt(x.D)) / 2


def divide_exact(x, y):
    """x/y if it lies in O_E, else None; ZeroDivisionError for y = 0."""
    n, prod = y.norm(), x * y.conjugate()
    if prod.u % n or prod.v % n or (prod.u // n - prod.v // n * x.D) % 2:
        return None
    return FieldElement(prod.u // n, prod.v // n, x.D)


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
        det = self.det()
        assert abs(det.norm()) == 1, f"{det!r} is not a unit"
        dinv = det.conjugate() * det.norm()
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
    if det.sign_at(0) <= 0 or det.sign_at(1) <= 0:
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
        if all(x.sign_at(j) > 0 for x in (two - t, two + t) for j in (0, 1)):
            traces.append(t)
    return traces


def _conj_generators(F):
    zero = FieldElement.from_int(0, F.D)
    one = FieldElement.from_int(1, F.D)
    gens = [
        Mat2(zero, -one, one, zero),           # inversion
        Mat2(one, one, zero, one),             # translation by 1
        Mat2(one, F.omega, zero, one),         # translation by omega
        Mat2(F.eps, zero, zero, F.eps.conjugate() * F.eps.norm()),  # unit scaling
    ]
    gens += [g.inverse() for g in gens]
    return [(g, g.inverse()) for g in gens]


def _size(g):
    return sum(x.u * x.u + x.v * x.v * x.D for x in (g.a, g.b, g.c, g.d))


def _descend(g, moves):
    """Greedy conjugation descent to a local minimum h of _size; returns h
    and the conjugator delta with h = delta * g * delta^-1."""
    best, best_size = g, _size(g)
    delta = Mat2.identity(g.a.D)
    improved = True
    while improved:
        improved = False
        for gamma, gamma_inv in moves:
            h = gamma * best * gamma_inv
            hs = _size(h)
            if hs < best_size:
                best, best_size, delta = h, hs, gamma * delta
                improved = True
    return best, delta


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
    one = FieldElement.from_int(1, F.D)

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
                b = divide_exact(a * d - one, c)
                if b is None:
                    continue
                h, _ = _descend(Mat2(a, b, c, d), moves)
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


@functools.lru_cache(maxsize=None)
def _ball_targets(F, reps, ball_depth, coeff_cap):
    """The conjugation ball, and each ball conjugate of a catalogue generator
    mapped to (index, inverse conjugator)."""
    ball = _conjugation_ball(F, ball_depth, coeff_cap)
    targets = {}
    for i, rep in enumerate(reps):
        for power in _generator_powers(rep.matrix, rep.order):
            for gamma, gamma_inv in ball:
                targets.setdefault(psl_canonical_tuple(gamma * power * gamma_inv),
                                   (i, gamma_inv))
    return ball, targets


def psl_class_of(F, h, reps, ball_depth=3, coeff_cap=64):
    """(i, delta): delta in SL2(O) conjugates the elliptic h into the isotropy
    group of reps[i], so delta maps the fixed point of h to that of reps[i].

    The same descent and conjugation ball the enumerator merges classes with:
    a ball conjugate of the descended h meets a ball conjugate of a generator.
    Raises CompletenessError if the ball is too small to find delta.
    """
    ball, targets = _ball_targets(F, reps, ball_depth, coeff_cap)
    h, delta = _descend(h, _conj_generators(F))
    for gamma, gamma_inv in ball:
        hit = targets.get(psl_canonical_tuple(gamma * h * gamma_inv))
        if hit is not None:
            return hit[0], hit[1] * gamma * delta
    raise CompletenessError(f"{h!r} is not conjugate to a catalogue generator "
                            f"within depth {ball_depth}")


def atkin_lehner_fixed_classes(F, P, w, reps):
    """Rotation type -> number of Gamma0(P) elliptic classes that w fixes.

    w is any matrix of the Atkin-Lehner coset.  A Gamma0(P) class is a
    catalogue generator g with a line L of P^1(O/P) that g fixes: the point
    gamma*z_g for gamma in SL2(O) with bottom row on L, since the cosets
    Gamma0(P)*gamma are the bottom rows mod P.  Here gamma is (0 -1; 1 x)
    for L = (1 : x) and the identity for L = (0 : 1).  w*gamma*z_g is fixed
    by h = (w gamma) g (w gamma)^-1; psl_class_of gives delta with
    w*gamma*z_g = delta^-1 z_i, so the image class is reps[i] with the
    bottom row of delta^-1.
    """
    R = ResidueField(P)

    def lift(e):  # e0 + e1*theta back to O, theta the class of omega
        return FieldElement.from_int(e % R.p, F.D) + F.omega * (e // R.p)

    def same_line(r1, r2):
        return R.mul(r1[0], r2[1]) == R.mul(r1[1], r2[0])

    def bottom(g):
        return (R.reduce(g.c), R.reduce(g.d))

    lines = [(0, 1)] + [(1, x) for x in R.elements()]
    det = w.det()
    fixed = {}
    for i, rep in enumerate(reps):
        g = rep.matrix
        for line in lines:
            gamma = Mat2.identity(F.D) if line == (0, 1) else mat(F.D, 0, -1, 1, lift(line[1]))
            if not same_line(bottom(gamma * g), line):
                continue  # gamma*z_g is not elliptic for Gamma0(P)
            wg = w * gamma
            num = wg * g * Mat2(wg.d, -wg.b, -wg.c, wg.a)  # times adj(wg) = det(wg) wg^-1
            h = Mat2(*(divide_exact(x, det) for x in (num.a, num.b, num.c, num.d)))
            j, delta = psl_class_of(F, h, reps)
            if j == i and same_line(bottom(delta.inverse()), line):
                fixed[rep.rtype] = fixed.get(rep.rtype, 0) + 1
    return fixed


# ---------------------------------------------------------------------------
# elliptic: the refine bookkeeping driven by an injected involution action
# ---------------------------------------------------------------------------

def refine_with_action(g0, P, action):
    """atkin_lehner_refine(g0, P) with involution_action patched to return
    `action`, so the bookkeeping checks can be fed actions the lemma never
    produces."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elliptic, "involution_action", lambda _P, _g0: action)
        return elliptic.atkin_lehner_refine(g0, P)
