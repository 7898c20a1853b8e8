"""Finite trees and centres of vertex subsets.

This is the graph layer of the isogeny-class formalism: vertices are opaque
labels, edges unordered pairs, and the object of interest is the centre
(middle vertex or middle edge) of a longest path between members of a chosen
subset S.  For Galois-stable S the centre is an invariant of the action and
every member of a transitive orbit sits at the same distance from it; both
facts are theorems, checked by the tests against random automorphism
actions.
"""

from __future__ import annotations

from .ntheory import Frozen


class TreeError(ValueError):
    pass


class NotATreeError(TreeError):
    """Input graph is disconnected, has a cycle, loop, or repeated edge."""


def _ckey(v):
    # Canonical ordering for opaque labels: by text, with the raw repr as a
    # tiebreak so distinct labels with equal str() still order reproducibly.
    return (str(v), repr(v))


class TreeGraph(Frozen):
    """Immutable finite tree.  Connectivity and the edge count are checked on
    every construction; since |E| = |V| - 1 and the graph is connected, it is
    automatically acyclic.  Equal trees have equal vertex and edge sets."""

    __slots__ = ("vertices", "edges", "_adj", "_dist")
    vertices: frozenset
    edges: frozenset

    def __init__(self, vertices, edges):
        vs = frozenset(vertices)
        if not vs:
            raise NotATreeError("a tree needs at least one vertex")
        adj = {v: set() for v in vs}
        eset = set()
        for e in edges:
            u, v = e
            if u == v:
                raise NotATreeError(f"loop at {u!r}")
            if u not in adj or v not in adj:
                raise NotATreeError(f"edge {e!r} leaves the vertex set")
            if v in adj[u]:
                raise NotATreeError(f"repeated edge {e!r}")
            eset.add(frozenset((u, v)))
            adj[u].add(v)
            adj[v].add(u)
        if len(eset) != len(vs) - 1:
            raise NotATreeError(
                f"{len(vs)} vertices need {len(vs) - 1} edges, got {len(eset)}")
        self._set(vs, frozenset(eset), {v: frozenset(n) for v, n in adj.items()}, {})
        # reachability from an arbitrary root; with the count right this is
        # exactly the tree test
        if len(self.distances(next(iter(vs)))) != len(vs):
            raise NotATreeError("graph is not connected")

    def _key(self):  # _adj follows from the edges; _dist is a cache
        return self.vertices, self.edges

    def __len__(self):
        return len(self.vertices)

    def distances(self, source) -> dict:
        """BFS distance map from one vertex to every vertex.  Kept per source,
        since the tree never changes; callers must not modify it."""
        if source in self._dist:
            return self._dist[source]
        if source not in self._adj:
            raise TreeError(f"{source!r} is not a vertex")
        dist = {source: 0}
        todo = [source]
        for x in todo:  # the queue: read in order while it grows
            for y in self._adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    todo.append(y)
        self._dist[source] = dist
        return dist


class CenterResult(Frozen):
    """Centre of a vertex subset: either one vertex or one edge."""

    __slots__ = ("kind", "payload")
    kind: str
    payload: object

    def __init__(self, kind: str, payload):
        if kind not in ("vertex", "edge"):
            raise TreeError(f"bad centre kind {kind!r}")
        if kind == "edge":
            payload = frozenset(payload)
            if len(payload) != 2:
                raise TreeError("an edge centre needs two distinct endpoints")
        self._set(kind, payload)

    def __repr__(self):
        return f"CenterResult(kind={self.kind!r}, payload={self.payload!r})"

    def endpoints(self) -> tuple:
        """The centre's vertices: one for a vertex centre, two for an edge."""
        if self.kind == "vertex":
            return (self.payload,)
        return tuple(sorted(self.payload, key=_ckey))


def tree_center(T: TreeGraph, S) -> CenterResult:
    """Centre of the subset S: middle vertex (even longest S-distance) or
    middle edge (odd) of a path realizing max distance between members of S.

    Double sweep, restricted to S: the farthest-in-S vertex u from any start
    is an end of a longest S-path, by the usual exchange argument, and the
    farthest v from u is its other end.  All longest S-paths share the same
    middle, so ties are broken canonically only for reproducible output.  In
    a tree x is on the u-v path exactly when d(u, x) + d(x, v) = diam; the
    middle is the x there with |d(u, x) - d(x, v)| <= 1.
    """
    S = set(S)
    if not S:
        raise TreeError("S must be nonempty")
    if not S <= T.vertices:
        raise TreeError("S must be a subset of the vertices")

    def farthest(from_v):
        dist = T.distances(from_v)
        best = max(dist[s] for s in S)
        return min((s for s in S if dist[s] == best), key=_ckey), best

    start = min(S, key=_ckey)
    u, _ = farthest(start)
    v, diam = farthest(u)
    du, dv = T.distances(u), T.distances(v)
    mid = [x for x in T.vertices if du[x] + dv[x] == diam and abs(du[x] - dv[x]) <= 1]
    if diam % 2 == 0:
        return CenterResult("vertex", mid[0])
    return CenterResult("edge", mid)


def center_distance(T: TreeGraph, center: CenterResult, v) -> int:
    """Distance from v to the centre: to the vertex, or to the nearer
    endpoint of the edge.  Read off the BFS maps of the centre's endpoints,
    so one search per endpoint serves every v."""
    return min(T.distances(w)[v] for w in center.endpoints())


def read_edge_list(lines) -> TreeGraph:
    """Parse 'u v' pairs (one per line, '#' comments allowed) into a tree.
    Labels are kept as text.  A single line 'u' declares an isolated root,
    usable only for the one-vertex tree."""
    vertices = set()
    edges = []
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            vertices.add(parts[0])
        elif len(parts) == 2:
            vertices.update(parts)
            edges.append(tuple(parts))
        else:
            raise TreeError(f"line {ln}: expected 'u v', got {raw!r}")
    return TreeGraph(vertices, edges)


def load_tree(path) -> TreeGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return read_edge_list(fh)


def _dot_id(v) -> str:
    """v as a quoted DOT ID: backslash and double quote are escaped."""
    return '"' + str(v).replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(T: TreeGraph) -> str:
    """DOT text with canonically ordered vertices and edges."""
    out = ["graph tree {"]
    for v in sorted(T.vertices, key=_ckey):
        out.append(f"  {_dot_id(v)};")
    for e in sorted(T.edges, key=lambda e: tuple(sorted((str(x) for x in e)))):
        a, b = sorted(e, key=_ckey)
        out.append(f"  {_dot_id(a)} -- {_dot_id(b)};")
    out.append("}")
    return "\n".join(out) + "\n"
