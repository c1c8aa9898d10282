"""Simplicial complexes stored as facet antichains.

The package builds two kinds of complex: the independence complex of a
graph, and a complex read from a complex/1 document (serial.complex_load).
Vertices may be integers, strings, or (nested) tuples; a complex keeps its
facets reduced to maximal faces and sorted canonically.
"""

from __future__ import annotations

from .errors import InputError
from .graphs import Graph

FACE_BUDGET = 10 ** 7

# The maximality filter indexes one block of this many faces at a time by
# vertex, as bitmasks over the block: one mask of at most _BLOCK bits per
# vertex of the block's faces, however many faces there are.
_BLOCK = 1024


def vertex_key(v):
    """Total order over mixed vertex labels: integers, strings, then tuples."""
    if isinstance(v, tuple):
        return (2, tuple(vertex_key(x) for x in v))
    if isinstance(v, str):
        return (1, v)
    return (0, v)


def _face_key(f):
    return (len(f), tuple(sorted(vertex_key(v) for v in f)))


def _maximal(faces):
    """The faces of the set `faces` that lie in no other of them.

    Each face is listed under one of its vertices.  In a block of faces, a
    vertex's mask has the bits of the block's faces through it; a face listed
    under a vertex of the block ANDs the masks of its vertices, and the bits
    left are the block's faces that contain it."""
    if len(faces) > 1:
        faces.discard(frozenset())
    faces = list(faces)
    listed = {}
    for j, f in enumerate(faces):
        for v in f:
            listed.setdefault(v, []).append(j)
            break
    inside = set()
    for lo in range(0, len(faces), _BLOCK):
        hi = min(lo + _BLOCK, len(faces))
        masks = {}
        for i in range(lo, hi):
            for v in faces[i]:
                masks[v] = masks.get(v, 0) | 1 << (i - lo)
        for v in masks:
            for j in listed.get(v, ()):
                m = masks[v]
                for u in faces[j]:
                    m &= masks.get(u, 0)
                # a face in the block finds itself too
                if m != (1 << (j - lo) if lo <= j < hi else 0):
                    inside.add(j)
    return [f for j, f in enumerate(faces) if j not in inside]


class SimplicialComplex:
    """A complex given by its facets; the empty face is always a face.

    facets=[] is the void complex (no faces at all, not even the empty one);
    facets=[()] is the complex whose only face is empty.
    """

    def __init__(self, facets, vertices=None):
        maximal = _maximal({frozenset(f) for f in facets})
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
