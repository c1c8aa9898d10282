"""Simplicial complexes stored as facet antichains.

The package builds two kinds of complex: the independence complex of a
graph, and a complex read from a complex/1 document (serial.complex_load).
Vertices may be integers, strings, or (nested) tuples; a complex keeps its
facets reduced to maximal faces and sorted canonically.  Face enumeration is
always guarded by an explicit budget so that a runaway complex raises
ResourceBudget instead of eating the machine.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InputError, ResourceBudget
from .graphs import Graph

FACE_BUDGET = 10 ** 7


def vertex_key(v):
    """Total order over mixed vertex labels: integers, strings, then tuples."""
    if isinstance(v, tuple):
        return (2, tuple(vertex_key(x) for x in v))
    if isinstance(v, str):
        return (1, v)
    return (0, v)


def _face_key(f):
    return (len(f), tuple(sorted(vertex_key(v) for v in f)))


class SimplicialComplex:
    """A complex given by its facets; the empty face is always a face.

    facets=[] is the void complex (no faces at all, not even the empty one);
    facets=[()] is the complex whose only face is empty.
    """

    def __init__(self, facets, vertices=None):
        fs = {frozenset(f) for f in facets}
        maximal = [f for f in fs if not any(f < g for g in fs)]
        self.facets = tuple(sorted(maximal, key=_face_key))
        implied = set().union(*maximal) if maximal else set()
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

    def faces(self, budget=FACE_BUDGET):
        """All faces including the empty one (unless void), as frozensets."""
        seen = set()
        if self.facets:
            seen.add(frozenset())
        for f in self.facets:
            elems = sorted(f, key=vertex_key)
            for r in range(1, len(elems) + 1):
                for c in combinations(elems, r):
                    fc = frozenset(c)
                    if fc not in seen:
                        seen.add(fc)
                        if len(seen) > budget:
                            raise ResourceBudget("face budget %d exceeded" % budget)
        return seen

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.facets == other.facets and self.vertices == other.vertices)

    def __repr__(self):
        return "SimplicialComplex(%d vertices, %d facets)" % (len(self.vertices), len(self.facets))


def independence_complex(g: Graph):
    """Facets are the maximal independent sets (Bron--Kerbosch with pivot)."""
    out = []
    non_adj = {v: set(g.vertices) - g.adj[v] - {v} for v in g.vertices}

    def expand(r, p, x):
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda u: len(p & non_adj[u]))
        for v in sorted(p - non_adj[pivot]):
            expand(r | {v}, p & non_adj[v], x & non_adj[v])
            p = p - {v}
            x = x | {v}

    if g.n == 0:
        return SimplicialComplex([()])
    expand(set(), set(g.vertices), set())
    return SimplicialComplex(out, vertices=g.vertices)
