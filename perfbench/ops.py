"""Seeded op lists for the three workloads.

An op is the argv of one `hmsurf` command.  A session is a list of ops that
runs in one fresh interpreter.  Every op is drawn from a finite universe built
from `data/pools.json`, so that each one has a golden recorded at the seed
commit (see record.py).  The same seed always gives the same sessions.

sweep    each table runs as its own session.  A `table --dmax 853` fixture
         and a table at a dmax drawn from SWEEP_DMAX take turns, so that
         both are sampled across the whole run; the first two larger
         tables carry `--strict-n` and `--zeta-mode bound`, in an order the
         seed picks.
exact    each session holds the three exact `classify` fixtures and a fixed
         mix of seeded exact ops (see EXACT_MIX).
queries  each session holds the README single-surface examples and a fixed
         mix of seeded single-surface ops (see QUERY_MIX), with D drawn so
         that about half of the D-bearing ops revisit a D already seen in the
         session.  Bound-mode `elliptic` is drawn in two strata, by whether
         the op failed at the reference commit (its golden), so that every
         session has the same number of failing ops.
Sessions of exact and queries run in a seeded order, fixtures included.
"""

from __future__ import annotations

import itertools
import json
import os
import random

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
POOLS_PATH = os.path.join(DATA_DIR, "pools.json")

WORKLOADS = ("sweep", "exact", "queries")

SWEEP_DMAX = tuple(range(9000, 11001, 100))
SWEEP_VARIANTS = (("--strict-n",), ("--zeta-mode", "bound"))

# (D, q) pairs that have involution fixed-point data at the reference commit.
EXACT_FIXTURES = ((5, 4), (13, 4), (13, 3))
# Seeded ops per exact session: (stratum, count).  Each stratum is a class of
# inputs that all behave alike at the reference commit, so that every session has
# the same share of failing ops whatever q the seed picks:
#   e13          elliptic, D = 13, any q: counts from the enumerator
#   e13_fixture  ... --refine at a q with involution data
#   e13_generic  ... --refine at any other q: exit 2, no involution data
#   e5           elliptic, D = 5, q = 2, 3, 4 mod 5: counts from the catalogue
#   e5_order5    elliptic, D = 5, q = 0, 1 mod 5: exit 2, order-5 points meet
#                Gamma0(p) and are not supported
#   e_table      elliptic, a table D other than 13, any q, either flag: exit 3
#                (CompletenessError) or exit 2 (no element of norm q found)
#   c_generic    classify, a table D at a q without involution data: exit 2
EXACT_MIX = (
    ("e13", 4), ("e13_fixture", 1), ("e13_generic", 1),
    ("e5", 1), ("e5_order5", 1),
    ("e_table", 5), ("c_generic", 4),
)

QUERY_FIXTURES = (
    ("field", "--disc", "13"),
    ("zeta", "--disc", "13"),
    ("cusp", "--disc", "13"),
    ("classnumber", "--disc", "-23"),
    ("classify", "--disc", "13", "--prime-norm", "103", "--mode", "bound"),
)
# Seeded ops per queries session: (kind, count).  Bound-mode elliptic comes
# in two strata, about in the shares of its universe (1,156 of 3,314 (D, q)
# fail):
#   elliptic_bound          exits 0 at the reference commit
#   elliptic_bound_refused  exits 2 there: `field._norm_equation` finds no
#                           element of norm q below its search cap
QUERY_MIX = (
    ("field", 35), ("zeta", 35), ("cusp", 35),
    ("h_real", 15), ("h_4d", 15), ("h_3d", 15),
    ("elliptic_full", 30), ("elliptic_bound", 20), ("elliptic_bound_refused", 10),
    ("classify_bound", 30), ("tree", 24),
)
# -N ops per session from each decade 10^1 ... 10^7.  The top decade gets the
# most, so that the tail percentile falls among large -N class numbers.
QUERY_NEG_PER_DECADE = (2, 2, 2, 2, 2, 4)
QUERY_REVISIT = 0.5

N_TREES = 12
TREE_SET_SIZES = (1, 2, 3, 5, 8, 13)


def load_pools(path: str = POOLS_PATH) -> dict:
    """Input pools written by record.py; keys of norm tables become ints."""
    with open(path, "r", encoding="utf-8") as fh:
        pools = json.load(fh)
    for key in ("exact_norms", "query_norms"):
        pools[key] = {int(d): qs for d, qs in pools[key].items()}
    return pools


def op_key(argv) -> str:
    return " ".join(argv)


# -- trees -------------------------------------------------------------------


def tree_name(i: int) -> str:
    return f"tree{i:02d}.txt"


def tree_edges(i: int) -> "list[tuple[str, str]]":
    """Tree i of the fixed pool: 50 to 500 vertices.  Even i attach each new
    vertex anywhere (shallow trees), odd i near the newest vertices (long
    paths), so the centre search sees both shapes."""
    rng = random.Random(f"tree-{i}")
    n = 50 + (450 * i) // (N_TREES - 1)
    reach = None if i % 2 == 0 else 3
    edges = []
    for v in range(1, n):
        lo = 0 if reach is None else max(0, v - reach)
        edges.append((f"v{rng.randrange(lo, v)}", f"v{v}"))
    return edges


def tree_sets(i: int) -> "list[str]":
    n = len(tree_edges(i)) + 1
    rng = random.Random(f"tree-sets-{i}")
    return [",".join(f"v{x}" for x in sorted(rng.sample(range(n), k)))
            for k in TREE_SET_SIZES]


def write_trees(directory: str) -> None:
    for i in range(N_TREES):
        with open(os.path.join(directory, tree_name(i)), "w", encoding="utf-8") as fh:
            fh.writelines(f"{u} {v}\n" for u, v in tree_edges(i))


def tree_op(i: int, vertex_set: str) -> list:
    return ["tree-center", "--in", tree_name(i), "--set", vertex_set]


# -- op constructors ------------------------------------------------------------


def table_op(dmax: int, variant=()) -> list:
    return ["table", "--dmax", str(dmax), *variant]


def elliptic_exact_op(D: int, q: int, refine: bool) -> list:
    return ["elliptic", "--disc", str(D), "--prime-norm", str(q)] + (
        ["--refine"] if refine else [])


def classify_exact_op(D: int, q: int) -> list:
    return ["classify", "--disc", str(D), "--prime-norm", str(q)]


def generic_norms(D: int, pools: dict) -> list:
    return [q for q in pools["exact_norms"][D] if (D, q) not in EXACT_FIXTURES]


def query_op(kind: str, D: int, q: "int | None", refine: bool) -> list:
    d = str(D)
    if kind in ("field", "zeta", "cusp"):
        return [kind, "--disc", d]
    if kind == "h_real":
        return ["classnumber", "--disc", d]
    if kind == "h_4d":
        return ["classnumber", "--disc", str(-4 * D)]
    if kind == "h_3d":
        return ["classnumber", "--disc", str(-3 * D)]
    if kind == "elliptic_full":
        return ["elliptic", "--disc", d]
    if kind == "elliptic_bound":
        return ["elliptic", "--disc", d, "--mode", "bound", "--prime-norm", str(q)] + (
            ["--refine"] if refine else [])
    if kind == "classify_bound":
        return ["classify", "--disc", d, "--prime-norm", str(q), "--mode", "bound"]
    raise ValueError(f"unknown query kind {kind!r}")


def neg_op(N: int) -> list:
    return ["classnumber", "--disc", str(-N)]


# -- universes: every op any seed can draw ------------------------------------------


def universe(workload: str, pools: dict) -> "list[list[str]]":
    ops = []
    if workload == "sweep":
        ops.append(table_op(853))
        for dmax in SWEEP_DMAX:
            for variant in ((),) + SWEEP_VARIANTS:
                ops.append(table_op(dmax, variant))
    elif workload == "exact":
        ops += [classify_exact_op(D, q) for D, q in EXACT_FIXTURES]
        for D in [5] + pools["table_discs"]:
            for q in pools["exact_norms"][D]:
                ops += [elliptic_exact_op(D, q, False), elliptic_exact_op(D, q, True)]
        for D in pools["table_discs"]:
            ops += [classify_exact_op(D, q) for q in generic_norms(D, pools)]
    elif workload == "queries":
        ops += [list(argv) for argv in QUERY_FIXTURES]
        for D in pools["query_discs"]:
            for kind in ("field", "zeta", "cusp", "h_real", "h_4d", "h_3d",
                         "elliptic_full"):
                ops.append(query_op(kind, D, None, False))
            for q in pools["query_norms"][D]:
                ops.append(query_op("elliptic_bound", D, q, False))
                ops.append(query_op("elliptic_bound", D, q, True))
                ops.append(query_op("classify_bound", D, q, False))
        for decade in pools["neg_discs"]:
            ops += [neg_op(N) for N in decade]
        for i in range(N_TREES):
            ops += [tree_op(i, s) for s in tree_sets(i)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# -- seeded sessions --------------------------------------------------------------
#
# A session is a list of (argv, is_fixture, D) triples; D is the field
# discriminant the op works in, or None for tables, trees and -N.


def sweep_sessions(seed: int):
    """Endless: the 853 fixture and one larger table, in turn.  The first two
    larger tables carry the two variants, in an order the seed picks."""
    rng = random.Random(f"sweep-{seed}")
    variants = rng.sample(SWEEP_VARIANTS, len(SWEEP_VARIANTS))
    while True:
        yield [(table_op(853), True, None)]
        variant = variants.pop(0) if variants else ()
        yield [(table_op(rng.choice(SWEEP_DMAX), variant), False, None)]


def exact_session(rng: random.Random, pools: dict) -> list:
    norms = pools["exact_norms"]
    others = [D for D in pools["table_discs"] if D != 13]
    fixture_q13 = [q for D, q in EXACT_FIXTURES if D == 13]
    session = [(classify_exact_op(D, q), True, D) for D, q in EXACT_FIXTURES]
    for stratum, count in EXACT_MIX:
        for _ in range(count):
            if stratum == "e13":
                D, argv = 13, elliptic_exact_op(13, rng.choice(norms[13]), False)
            elif stratum == "e13_fixture":
                D, argv = 13, elliptic_exact_op(13, rng.choice(fixture_q13), True)
            elif stratum == "e13_generic":
                D, argv = 13, elliptic_exact_op(13, rng.choice(generic_norms(13, pools)), True)
            elif stratum in ("e5", "e5_order5"):
                qs = [q for q in norms[5] if (q % 5 in (0, 1)) == (stratum == "e5_order5")]
                D, argv = 5, elliptic_exact_op(5, rng.choice(qs), False)
            elif stratum == "e_table":
                D = rng.choice(others)
                argv = elliptic_exact_op(D, rng.choice(norms[D]), rng.random() < 0.5)
            else:
                D = rng.choice(pools["table_discs"])
                argv = classify_exact_op(D, rng.choice(generic_norms(D, pools)))
            session.append((argv, False, D))
    rng.shuffle(session)
    return session


def query_norms(pools: dict, refused: "set[str]") -> dict:
    """kind -> D -> the norms q that kind may draw at D.  refused holds the
    keys of the ops that failed at the reference commit."""
    def fails(D, q):
        return op_key(query_op("elliptic_bound", D, q, False)) in refused

    every = pools["query_norms"]
    return {
        "elliptic_bound": {D: [q for q in qs if not fails(D, q)] for D, qs in every.items()},
        "elliptic_bound_refused": {D: [q for q in qs if fails(D, q)] for D, qs in every.items()},
        None: every,
    }


def query_session(rng: random.Random, pools: dict, norms: dict, neg_cycles) -> list:
    """One queries session.  norms is query_norms(); neg_cycles yields, per
    decade, the -N values in a seeded order that repeats, so each run spreads
    its picks evenly."""
    kinds = [kind for kind, count in QUERY_MIX for _ in range(count)]
    kinds += [("neg", k) for k, count in enumerate(QUERY_NEG_PER_DECADE)
              for _ in range(count)]
    rng.shuffle(kinds)
    fresh = list(pools["query_discs"])
    rng.shuffle(fresh)
    seen = []
    session = [(list(argv), True, None) for argv in QUERY_FIXTURES]
    for kind in kinds:
        if isinstance(kind, tuple):
            session.append((neg_op(next(neg_cycles[kind[1]])), False, None))
            continue
        if kind == "tree":
            i = rng.randrange(N_TREES)
            session.append((tree_op(i, rng.choice(tree_sets(i))), False, None))
            continue
        allowed = norms.get(kind, norms[None])
        revisits = [D for D in seen if allowed[D]]
        if revisits and rng.random() < QUERY_REVISIT:
            D = rng.choice(revisits)
        else:
            D = fresh.pop(max(i for i, d in enumerate(fresh) if allowed[d]))
            seen.append(D)
        q = rng.choice(allowed[D])
        op_kind = "elliptic_bound" if kind == "elliptic_bound_refused" else kind
        session.append((query_op(op_kind, D, q, rng.random() < 0.5), False, D))
    rng.shuffle(session)
    return session


def sessions(workload: str, seed: int, pools: dict, refused: "set[str]"):
    """The endless seeded session stream of a workload.  refused holds the
    keys of the ops that failed at the reference commit (see query_norms)."""
    if workload == "sweep":
        yield from sweep_sessions(seed)
        return
    rng = random.Random(f"{workload}-{seed}")
    if workload == "exact":
        while True:
            yield exact_session(rng, pools)
    norms = query_norms(pools, refused)
    neg_cycles = [itertools.cycle(rng.sample(decade, len(decade)))
                  for decade in pools["neg_discs"]]
    while True:
        yield query_session(rng, pools, norms, neg_cycles)


def trace_session_count(workload: str, seconds: int) -> int:
    """Sessions in a traced run: a fixed number for a (seed, seconds) pair, so
    that the per-layer counts repeat exactly.  At the reference commit the
    untraced pass takes a fifth to a half of `seconds`."""
    if workload == "sweep":
        return 2 * max(2, seconds // 10)
    if workload == "exact":
        return max(1, seconds // 30)
    return max(2, seconds // 5)
