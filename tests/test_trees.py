import itertools
import random

import networkx as nx
import pytest

from hmsurf.trees import (
    CenterResult,
    NotATreeError,
    TreeError,
    TreeGraph,
    center_distance,
    load_tree,
    read_edge_list,
    to_dot,
    tree_center,
)

from helpers import (
    ActionError,
    GroupAction,
    _adjacency,
    _bfs,
    brute_centres,
    normalize_centre,
    random_subset,
    random_tree,
    symmetric_tree,
    verify_center_invariance,
    verify_equidistance,
)


def path_tree(labels):
    return TreeGraph(labels, list(zip(labels, labels[1:])))


# ---------------------------------------------------------------------------
# basic graph mechanics
# ---------------------------------------------------------------------------

def test__tree_construction_rejections():
    with pytest.raises(NotATreeError):
        TreeGraph([], [])
    with pytest.raises(NotATreeError, match="loop"):
        TreeGraph(["a"], [("a", "a")])
    with pytest.raises(NotATreeError, match="repeated"):
        TreeGraph(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(NotATreeError, match="leaves the vertex set"):
        TreeGraph(["a", "b"], [("a", "c")])
    with pytest.raises(NotATreeError, match="edges"):
        TreeGraph(["a", "b", "c"], [("a", "b")])
    # right edge count but a triangle plus an isolated vertex
    with pytest.raises(NotATreeError, match="connected"):
        TreeGraph("abcd", [("a", "b"), ("b", "c"), ("c", "a")])


def test__tree_basics():
    T = path_tree("abcde")
    assert len(T) == 5
    assert {v for e in T.edges if "c" in e for v in e} == {"b", "c", "d"}
    assert T.distances("a") == {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4}
    assert T.distances("b")["e"] == 3 and T.distances("d")["d"] == 0
    one = TreeGraph(["x"], [])
    assert len(one) == 1 and one.distances("x") == {"x": 0}
    with pytest.raises(TreeError):
        T.distances("z")
    assert T == path_tree("abcde") and hash(T) == hash(path_tree("abcde"))
    assert T != path_tree("abcd")
    with pytest.raises(AttributeError):
        T.vertices = frozenset()


def test__center_result_validation():
    with pytest.raises(TreeError):
        CenterResult("face", "a")
    with pytest.raises(TreeError):
        CenterResult("edge", ("a", "a"))
    v = CenterResult("vertex", "a")
    e = CenterResult("edge", ("b", "a"))
    assert v.endpoints() == ("a",) and e.endpoints() == ("a", "b")
    assert e == CenterResult("edge", ("a", "b")) and v != e
    assert "vertex" in repr(v) and "'a'" in repr(e)
    assert len({v, e, CenterResult("vertex", "a")}) == 2


# ---------------------------------------------------------------------------
# centres: worked examples, then the brute-force oracle
# ---------------------------------------------------------------------------

def test__center_worked_examples():
    T3 = path_tree("abc")
    assert tree_center(T3, {"a", "c"}) == CenterResult("vertex", "b")
    T4 = path_tree("abcd")
    assert tree_center(T4, {"a", "d"}) == CenterResult("edge", ("b", "c"))
    star = TreeGraph("xabcd", [("x", c) for c in "abcd"])
    assert tree_center(star, set("abcd")) == CenterResult("vertex", "x")
    # singletons and adjacent pairs
    assert tree_center(T4, {"c"}) == CenterResult("vertex", "c")
    assert tree_center(T4, {"b", "c"}) == CenterResult("edge", ("b", "c"))
    # S need not contain its own centre
    assert tree_center(star, {"a", "b"}) == CenterResult("vertex", "x")
    one = TreeGraph(["v"], [])
    assert tree_center(one, {"v"}) == CenterResult("vertex", "v")


def test__center_input_validation():
    T = path_tree("abc")
    with pytest.raises(TreeError, match="nonempty"):
        tree_center(T, set())
    with pytest.raises(TreeError, match="subset"):
        tree_center(T, {"a", "z"})


def test__center_matches_all_pairs_oracle():
    rng = random.Random(61409)
    for case in range(400):
        n = rng.choice([1, 2, 3, 4, 5, 8, 13, 21, 34, 60])
        T = random_tree(rng, n, shape=rng.choice(
            [None, "path", "star", "caterpillar", "binary"]))
        S = random_subset(rng, T)
        res = tree_center(T, S)
        diam, centres = brute_centres(T, S)
        # every diameter-realizing pair has the same middle - the heart of
        # the well-definedness claim - and the sweep finds exactly it
        assert centres == {normalize_centre(res)}, (case, sorted(map(str, S)))
        assert res.kind == ("vertex" if diam % 2 == 0 else "edge")
        # distance to the centre is the least oracle BFS distance from its
        # endpoints, and no member of S is farther than half the diameter
        runs = [_bfs(_adjacency(T), w)[0] for w in res.endpoints()]
        for s in S:
            lo = center_distance(T, res, s)
            assert lo == min(dist[s] for dist in runs) <= (diam + 1) // 2
        dmax = max(T.distances(a)[b] for a in S for b in S)
        assert dmax == diam


def test__center_distance_definition():
    T = path_tree("abcde")
    c = tree_center(T, {"a", "d"})  # edge {b, c}
    assert c == CenterResult("edge", ("b", "c"))
    assert center_distance(T, c, "a") == 1
    assert center_distance(T, c, "b") == 0
    assert center_distance(T, c, "e") == 2
    v = tree_center(T, {"a", "e"})
    assert center_distance(T, v, "c") == 0 and center_distance(T, v, "e") == 2


def test__full_vertex_set_matches_networkx_center():
    rng = random.Random(2207)
    for _ in range(60):
        n = rng.randint(2, 40)
        T = random_tree(rng, n)
        G = nx.Graph()
        G.add_nodes_from(T.vertices)
        G.add_edges_from(tuple(e) for e in T.edges)
        res = tree_center(T, T.vertices)
        assert set(res.endpoints()) == set(nx.center(G))


# ---------------------------------------------------------------------------
# group actions
# ---------------------------------------------------------------------------

def test__action_validation():
    T = path_tree("abc")
    ident = {v: v for v in "abc"}
    flip = {"a": "c", "b": "b", "c": "a"}
    G = GroupAction(T, [ident, flip])
    assert len(G) == 2
    assert G.stabilizes({"a", "c"}) and not G.stabilizes({"a"})
    assert G.orbit("a") == frozenset({"a", "c"})
    assert G.orbit("b") == frozenset({"b"})
    with pytest.raises(ActionError, match="bijection"):
        GroupAction(T, [{"a": "a", "b": "b"}])
    with pytest.raises(ActionError, match="bijection"):
        GroupAction(T, [{"a": "a", "b": "a", "c": "c"}])
    with pytest.raises(ActionError, match="breaks edge"):
        GroupAction(T, [{"a": "b", "b": "a", "c": "c"}])
    with pytest.raises(AttributeError):
        G.perms = ()


def test__invariance_verifier_preconditions():
    T = path_tree("abc")
    flip = GroupAction(T, [{"a": "c", "b": "b", "c": "a"}])
    with pytest.raises(ActionError, match="map S onto S"):
        verify_center_invariance(T, {"a"}, flip)
    other = path_tree("abcd")
    act4 = GroupAction(other, [{v: v for v in "abcd"}])
    with pytest.raises(ActionError, match="different tree"):
        verify_center_invariance(T, {"a", "c"}, act4)
    with pytest.raises(ActionError, match="different tree"):
        verify_equidistance(T, {"a", "c"}, act4)
    ident = GroupAction(T, [{v: v for v in "abc"}])
    with pytest.raises(ActionError, match="transitive"):
        verify_equidistance(T, {"a", "c"}, ident)
    with pytest.raises(TreeError, match="nonempty"):
        verify_equidistance(T, set(), ident)


def test__invariance_on_symmetric_trees():
    rng = random.Random(90125)
    for copies, depth in [(2, 2), (3, 2), (4, 3), (5, 1), (3, 4)]:
        T, rot, orbit = symmetric_tree(rng, copies, depth)
        G = GroupAction(T, [rot])
        assert G.stabilizes(orbit)
        assert G.orbit(next(iter(orbit))) == orbit
        assert verify_center_invariance(T, orbit, G)
        assert verify_equidistance(T, orbit, G)
        # hub is fixed by the rotation
        assert rot["hub"] == "hub"


def test__invariance_under_full_automorphism_group():
    # small trees, every automorphism, every orbit as S: both theorems hold
    rng = random.Random(777)
    checked = 0
    for _ in range(25):
        n = rng.randint(2, 7)
        T = random_tree(rng, n)
        vs = sorted(T.vertices, key=str)
        autos = []
        for perm in itertools.permutations(vs):
            p = dict(zip(vs, perm))
            if all(frozenset((p[u], p[v])) in T.edges for u, v in map(tuple, T.edges)):
                autos.append(p)
        G = GroupAction(T, autos)
        for v in vs:
            S = G.orbit(v)
            assert verify_center_invariance(T, S, G)
            assert verify_equidistance(T, S, G)
            checked += 1
    assert checked >= 50


def test__identity_action_always_invariant():
    rng = random.Random(3333)
    for _ in range(40):
        T = random_tree(rng, rng.randint(1, 25))
        S = random_subset(rng, T)
        ident = GroupAction(T, [{v: v for v in T.vertices}])
        assert verify_center_invariance(T, S, ident)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def test__read_edge_list():
    text = """\
# caption lines are skipped
a b
b c   # trailing notes too

c d
"""
    T = read_edge_list(text.splitlines())
    assert T == path_tree("abcd")
    assert read_edge_list(["solo"]) == TreeGraph(["solo"], [])
    with pytest.raises(TreeError, match="line 1"):
        read_edge_list(["a b c"])
    with pytest.raises(NotATreeError):
        read_edge_list(["a b", "c d"])  # disconnected


def test__load_tree_roundtrip(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("x y\ny z\n# done\n", encoding="utf-8")
    assert load_tree(p) == path_tree("xyz")


def test__to_dot_deterministic():
    a = TreeGraph("abcd", [("a", "b"), ("b", "c"), ("b", "d")])
    b = TreeGraph(list("dcba"), [("d", "b"), ("c", "b"), ("b", "a")])
    assert a == b
    dot = to_dot(a)
    assert dot == to_dot(b)
    assert dot.startswith("graph tree {") and dot.endswith("}\n")
    assert dot.count("--") == 3 and '"a" -- "b";' in dot


def test__to_dot_escapes_labels():
    T = read_edge_list(['a"x b', 'b c\\d'])
    assert to_dot(T) == ('graph tree {\n  "a\\"x";\n  "b";\n  "c\\\\d";\n'
                         '  "a\\"x" -- "b";\n  "b" -- "c\\\\d";\n}\n')
