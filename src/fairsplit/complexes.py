"""Simplicial complexes given by their facets.

The package builds two kinds of complex: the independence complex of a
graph, and a complex read from a complex/1 document (serial.complex_load).
Vertices are integers or strings.  A complex keeps its facets as given,
in input order with exact repeats dropped: a facet may lie inside another,
since homology collects each face once whatever facets contain it.
"""

from __future__ import annotations

from .errors import InputError
from .graphs import Graph

FACE_BUDGET = 10 ** 7


def vertex_key(v):
    """Total order over vertex labels: integers, then strings."""
    return (isinstance(v, str), v)


class SimplicialComplex:
    """A complex given by its facets; the empty face is always a face.

    facets=[] is the void complex (no faces at all, not even the empty one);
    facets=[()] is the complex whose only face is empty.  Vertices given
    beyond the facets' are ghosts: part of the ground set, not faces.
    """

    def __init__(self, facets, vertices=None):
        self.facets = tuple(dict.fromkeys(map(frozenset, facets)))
        implied = set().union(*self.facets)
        if vertices is None:
            self.vertices = tuple(sorted(implied, key=vertex_key))
        else:
            vs = set(vertices)
            if not implied <= vs:
                raise InputError("facets mention vertices outside the vertex set")
            self.vertices = tuple(sorted(vs, key=vertex_key))

    def is_void(self):
        return not self.facets

    def dim(self):
        if self.is_void():
            raise InputError("void complex has no dimension")
        return max(len(f) for f in self.facets) - 1

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.facets == other.facets and self.vertices == other.vertices)

    def __repr__(self):
        return "SimplicialComplex(%d vertices, %d facets)" % (len(self.vertices), len(self.facets))


def _bits(mask):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def independence_complex(g: Graph):
    """Facets are the maximal independent sets: Bron--Kerbosch with pivoting
    on vertex bitmasks (bit v is vertex v), driven by an explicit stack so
    that no graph depends on the recursion limit.

    A frame is [r, p, x, todo]: the independent set r, the vertices p that
    may still join it, the vertices x that would extend it but were already
    tried, and todo, the members of p outside the pivot's non-neighbours
    that are left to branch on, lowest first."""
    if g.n == 0:
        return SimplicialComplex([()])
    everyone = (1 << (g.n + 1)) - 2
    non_adj = [0] * (g.n + 1)
    for v in g.vertices:
        non_adj[v] = everyone & ~sum(1 << u for u in g.adj[v]) & ~(1 << v)

    def frame(r, p, x):
        pivot = max(_bits(p | x), key=lambda u: (p & non_adj[u]).bit_count())
        return [r, p, x, p & ~non_adj[pivot]]

    out = []
    stack = [frame(0, everyone, 0)]
    while stack:
        top = stack[-1]
        r, p, x, todo = top
        if not todo:
            stack.pop()
            continue
        low = todo & -todo
        top[1], top[2], top[3] = p ^ low, x | low, todo ^ low
        v = low.bit_length() - 1
        p, x = p & non_adj[v], x & non_adj[v]
        if p:
            stack.append(frame(r | low, p, x))
        elif not x:
            out.append(tuple(_bits(r | low)))
    return SimplicialComplex(out, vertices=g.vertices)
