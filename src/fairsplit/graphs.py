"""Graphs, vertex partitions, and the standard instance families.

Vertices are integers 1..n.  For paths and cycles the label order is the
traversal order, which is what the stability notions refer to.
"""

from __future__ import annotations

from math import comb

from .errors import INSTANCE_EDGE_LIMIT, InputError, check_size


class Graph:
    def __init__(self, n, edges):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        self.n = n
        es = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise InputError("edge endpoint out of range: (%s, %s)" % (u, v))
            if u < v:
                es.add((u, v))
            elif v < u:
                es.add((v, u))
            else:
                raise InputError("loop at vertex %d" % u)
        adj = self.adj = {v: set() for v in range(1, n + 1)}
        for a, b in es:
            adj[a].add(b)
            adj[b].add(a)
        self.edges = frozenset(es)

    @property
    def vertices(self):
        return range(1, self.n + 1)

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __repr__(self):
        return "Graph(n=%d, edges=%d)" % (self.n, len(self.edges))


class VertexPartition:
    """An ordered partition V_1, ..., V_m of the vertex set 1..n."""

    def __init__(self, blocks, n=None):
        self.blocks = [tuple(sorted(set(b))) for b in blocks]
        index = self._block_of = {}  # label -> position of its block
        for j, b in enumerate(self.blocks):
            if not b:
                raise InputError("empty partition block")
            for v in b:
                if v in index:
                    raise InputError("vertex %d appears in two blocks" % v)
                index[v] = j
        self.ground = frozenset(index)
        if n is not None and not self.covers(n):
            raise InputError("partition does not cover 1..%d exactly" % n)

    @property
    def m(self):
        return len(self.blocks)

    def covers(self, n):
        """Is the ground set exactly 1..n?"""
        return len(self.ground) == n and self.ground.issuperset(range(1, n + 1))

    def sizes(self):
        return [len(b) for b in self.blocks]

    def __eq__(self, other):
        return isinstance(other, VertexPartition) and self.blocks == other.blocks

    def __repr__(self):
        return "VertexPartition(%r)" % (self.blocks,)


def single_block_partition(n):
    return VertexPartition([range(1, n + 1)], n)


def consecutive_partition(sizes):
    """Blocks of the given sizes, filled with consecutive labels from 1."""
    blocks, start = [], 1
    for s in sizes:
        if s < 1:
            raise InputError("block sizes must be positive")
        blocks.append(range(start, start + s))
        start += s
    return VertexPartition(blocks, start - 1)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n):
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def power_path(n, r):
    """Path power: edges between labels at distance at most r."""
    if r < 0:
        raise InputError("radius must be nonnegative")
    return Graph(n, [(i, j) for i in range(1, n + 1)
                     for j in range(i + 1, min(i + r, n) + 1)])


def _power_path_edges(n, r):
    """len(power_path(n, r).edges): n - d label pairs at each distance
    d <= min(r, n - 1)."""
    d = max(min(r, n - 1), 0)
    return d * (2 * n - d - 1) // 2


def _cliques_size(n, q, path=False):
    """(vertices, edges) of n disjoint (q-1)-cliques plus one more vertex,
    with `path` also a path through all of them; checks the parameters."""
    if n < 1 or q < 2:
        raise InputError("need n >= 1 and q >= 2")
    if path and q >= 3 and n < 2:
        raise InputError("cliques would overlap path edges; need n >= 2 for q >= 3")
    size = (q - 1) * n + 1
    return size, n * comb(q - 1, 2) + (size - 1 if path else 0)


def cliques_plus_isolated(n, q):
    """Disjoint union of n cliques of size q-1 and one isolated vertex."""
    size, _ = _cliques_size(n, q)
    edges = []
    for c in range(n):
        block = range(c * (q - 1) + 1, (c + 1) * (q - 1) + 1)
        edges += [(u, v) for u in block for v in block if u < v]
    return Graph(size, edges)


def path_union_cliques(n, q):
    """Edge-disjoint union of a path on (q-1)n+1 vertices and n pairwise
    vertex-disjoint cliques of size q-1.

    Clique c consists of the labels c, c+n, ..., c+(q-2)n, so clique members
    are at label distance n and share no path edge.  Requires n >= 2 when the
    cliques have any edges (q >= 3).
    """
    size, _ = _cliques_size(n, q, path=True)
    edges = [(i, i + 1) for i in range(1, size)]
    for c in range(1, n + 1):
        members = [c + i * n for i in range(q - 1)]
        edges += [(u, v) for u in members for v in members if u < v]
    return Graph(size, edges)


def matching_graph(n):
    """n vertices, edges (1,2), (3,4), ...; a leftover odd vertex stays bare."""
    return Graph(n, [(i, i + 1) for i in range(1, n, 2)])


# kind -> (builder, size); size gives the builder's (vertices, edges) by
# arithmetic, so that generate_family can refuse a family before building it
FAMILIES = {
    "path": (lambda n, **kw: path_graph(n), lambda n, **kw: (n, n - 1)),
    "cycle": (lambda n, **kw: cycle_graph(n), lambda n, **kw: (n, n)),
    "power_path": (lambda n, r, **kw: power_path(n, r),
                   lambda n, r, **kw: (n, _power_path_edges(n, r))),
    "cliques_plus_isolated": (lambda n, q, **kw: cliques_plus_isolated(n, q),
                              lambda n, q, **kw: _cliques_size(n, q)),
    "path_union_cliques": (lambda n, q, **kw: path_union_cliques(n, q),
                           lambda n, q, **kw: _cliques_size(n, q, path=True)),
    "edgeless": (lambda n, **kw: Graph(n, []), lambda n, **kw: (n, 0)),
    "matching": (lambda n, **kw: matching_graph(n), lambda n, **kw: (n, n // 2)),
}


def generate_family(kind, **params):
    """The family's graph, once its vertex and edge counts, computed by
    arithmetic, pass the instance limits (ResourceBudget otherwise)."""
    if kind not in FAMILIES:
        raise InputError("unknown family %r (have %s)" % (kind, sorted(FAMILIES)))
    build, size = FAMILIES[kind]
    try:
        vertices, edges = size(**params)
        check_size("generated vertices", vertices)
        check_size("generated edges", edges, INSTANCE_EDGE_LIMIT)
        return build(**params)
    except TypeError as e:
        raise InputError("bad parameters for family %r: %s" % (kind, e))


def is_independent(g, s):
    """No edge inside s, a set of g's vertices: each member's neighbours are
    tested against the members before it, so every edge is looked at once,
    from its later end, in O(sum of degrees)."""
    adj = g.adj
    earlier = set()
    for v in s:
        if not adj[v].isdisjoint(earlier):
            return False
        earlier.add(v)
    return True
