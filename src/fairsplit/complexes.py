"""Simplicial complexes stored as facet antichains.

Vertices may be integers, strings, or (nested) tuples; every constructor
returns facets reduced to maximal faces and sorted canonically.  Face
enumeration is always guarded by an explicit budget so that a runaway
construction raises ResourceBudget instead of eating the machine.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InputError, ResourceBudget
from .graphs import Graph

FACE_BUDGET = 10 ** 7


def vertex_key(v):
    """Total order over the mixed vertex universes the constructors create."""
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

    def is_face(self, s):
        s = frozenset(s)
        return any(s <= f for f in self.facets)

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

    def face_count(self, budget=FACE_BUDGET):
        return len(self.faces(budget))

    def f_vector(self, budget=FACE_BUDGET):
        """Counts of nonempty faces by dimension 0, 1, ..."""
        if self.is_void():
            return []
        out = [0] * (self.dim() + 1)
        for f in self.faces(budget):
            if f:
                out[len(f) - 1] += 1
        return out

    def euler_characteristic(self, budget=FACE_BUDGET):
        return sum((-1) ** d * c for d, c in enumerate(self.f_vector(budget)))

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.facets == other.facets and self.vertices == other.vertices)

    def __repr__(self):
        return "SimplicialComplex(%d vertices, %d facets)" % (len(self.vertices), len(self.facets))


def full_simplex(vertices):
    vertices = list(vertices)
    return SimplicialComplex([vertices] if vertices else [()])


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


def skeleton(k: SimplicialComplex, dim):
    """Faces of dimension <= dim; dim = -1 keeps only the empty face."""
    if dim < -1:
        raise InputError("skeleton dimension must be >= -1")
    if k.is_void():
        return SimplicialComplex([])
    if dim == -1:
        return SimplicialComplex([()], vertices=k.vertices)
    size = dim + 1
    facets = set()
    for f in k.facets:
        if len(f) <= size:
            facets.add(f)
        else:
            facets.update(frozenset(c) for c in combinations(sorted(f, key=vertex_key), size))
    return SimplicialComplex(facets, vertices=k.vertices)


def join(k: SimplicialComplex, l: SimplicialComplex):
    """Simplicial join; vertices are tagged (1, v) / (2, w) only when the two
    vertex sets collide, otherwise original labels are kept."""
    if k.is_void() or l.is_void():
        return SimplicialComplex([])
    collide = set(k.vertices) & set(l.vertices)
    tag1 = (lambda v: (1, v)) if collide else (lambda v: v)
    tag2 = (lambda v: (2, v)) if collide else (lambda v: v)
    facets = [{tag1(v) for v in f} | {tag2(w) for w in g}
              for f in k.facets for g in l.facets]
    verts = {tag1(v) for v in k.vertices} | {tag2(w) for w in l.vertices}
    return SimplicialComplex(facets, vertices=verts)


def cone(k: SimplicialComplex, apex="apex"):
    if apex in k.vertices:
        raise InputError("apex already a vertex")
    return join(k, SimplicialComplex([[apex]]))


def deleted_join_faces(k: SimplicialComplex, q, budget=FACE_BUDGET):
    """All faces of the q-fold deleted join, as q-tuples of pairwise disjoint
    faces of k (the empty tuple component is allowed)."""
    if q < 1:
        raise InputError("q must be positive")
    faces = sorted(k.faces(budget), key=_face_key)
    out = [()]
    for _ in range(q):
        nxt = []
        for partial in out:
            used = set().union(*partial) if partial else set()
            for f in faces:
                if not (f & used):
                    nxt.append(partial + (f,))
                    if len(nxt) > budget:
                        raise ResourceBudget("deleted join face budget exceeded")
        out = nxt
    return out


def deleted_join(k: SimplicialComplex, q, budget=FACE_BUDGET):
    """The q-fold deleted join as a complex on tagged vertices (i, v), i=1..q.

    A face is a disjoint union of q faces of k placed in distinct copies; the
    facets are computed by a local maximality test over all faces.
    """
    tuples = deleted_join_faces(k, q, budget)
    facets = []
    for tup in tuples:
        used = set().union(*tup) if any(tup) else set()
        free = [v for v in k.vertices if v not in used]
        if any(k.is_face(tup[i] | {v}) for v in free for i in range(q)):
            continue
        facets.append({(i + 1, v) for i in range(q) for v in tup[i]})
    verts = {(i + 1, v) for i in range(q) for v in k.vertices}
    return SimplicialComplex(facets, vertices=verts)


def barycentric_subdivision(k: SimplicialComplex, budget=FACE_BUDGET):
    """Vertices are the nonempty faces of k (as sorted tuples), facets the
    maximal chains under inclusion."""
    if k.is_void():
        return SimplicialComplex([])
    chains = []

    def grow(chain, top):
        if len(chains) > budget:
            raise ResourceBudget("barycentric budget exceeded")
        if len(top) == 1:
            chains.append([tuple(sorted(c, key=vertex_key)) for c in chain])
            return
        for v in sorted(top, key=vertex_key):
            grow(chain + [top - {v}], top - {v})

    for f in k.facets:
        if not f:
            continue
        grow([f], set(f))
    if not chains:  # only the empty face
        return SimplicialComplex([()])
    return SimplicialComplex(chains)


def skeleton_join(ks):
    """Join over j of the (k_j - 1)-skeleton of a simplex on 2 k_j + 1
    vertices, on globally numbered vertices 1, 2, ...; faces are exactly the
    sets with at most k_j vertices in the j-th block.  Its dimension is
    sum(k_j) - 1."""
    ks = list(ks)
    if not ks or any(k < 1 for k in ks):
        raise InputError("need positive block parameters")
    out = None
    start = 1
    for kj in ks:
        block = list(range(start, start + 2 * kj + 1))
        start += 2 * kj + 1
        piece = skeleton(full_simplex(block), kj - 1)
        out = piece if out is None else join(out, piece)
    return out


def constraint_subcomplex(k: SimplicialComplex, partition, caps, budget=FACE_BUDGET):
    """Faces of k with at most caps[j] vertices in partition block j."""
    if len(caps) != partition.m:
        raise InputError("need one cap per block")
    ok = []
    for f in k.faces(budget):
        if all(sum(1 for v in f if v in set(b)) <= c
               for b, c in zip(partition.blocks, caps)):
            ok.append(f)
    if not ok:
        return SimplicialComplex([])
    return SimplicialComplex(ok, vertices=k.vertices)
