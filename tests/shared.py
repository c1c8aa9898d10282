"""Constructions and references that several test modules share.

No command of the package needs them, so they live with the tests: complex
constructions (simplices, skeleta, joins, cones), their face enumeration and
the face test, the scalar constraint-map rule the vectorised one is checked
against, the parameter triples and vertex orders the constraint-map tests
sweep, small graph and splitting helpers, the path conditions' default
Budget among them, and the exact LP's Fraction-row reference.
"""

import itertools
import random
from fractions import Fraction
from itertools import combinations

from fairsplit.complexes import FACE_BUDGET, SimplicialComplex
from fairsplit.conditions import PATH_SEARCH_BUDGET
from fairsplit.errors import Budget, InputError, ResourceBudget
from fairsplit.graphs import Graph

# ---------------------------------------------------------------------------
# complex constructions


def label_key(v):
    """Total order over the labels the tests use: integers, strings, then
    (nested) tuples, such as the tagged vertices of joins.  A complex sorts
    its vertices by complexes.vertex_key, which orders tuples only by plain
    comparison, so a construction whose tuple labels mix integers and
    strings labels its vertices by this key instead."""
    if isinstance(v, tuple):
        return (2, tuple(label_key(x) for x in v))
    if isinstance(v, str):
        return (1, v)
    return (0, v)


def faces(k: SimplicialComplex, budget=FACE_BUDGET):
    """All faces including the empty one (unless void), as frozensets."""
    seen = set()
    if k.facets:
        seen.add(frozenset())
    for f in k.facets:
        elems = sorted(f, key=label_key)
        for r in range(1, len(elems) + 1):
            for c in combinations(elems, r):
                fc = frozenset(c)
                if fc not in seen:
                    seen.add(fc)
                    if len(seen) > budget:
                        raise ResourceBudget("face budget %d exceeded" % budget)
    return seen


def is_face(k: SimplicialComplex, s):
    """Does s lie in some facet of k?"""
    s = frozenset(s)
    return any(s <= f for f in k.facets)


def full_simplex(vertices):
    vertices = list(vertices)
    return SimplicialComplex([vertices] if vertices else [()])


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
            facets.update(frozenset(c) for c in combinations(sorted(f, key=label_key), size))
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


# ---------------------------------------------------------------------------
# the scalar constraint-map rule, face by face


def all_faces(inst):
    """Every face of the deleted join as a digit tuple, in C order."""
    return itertools.product(range(inst.q + 1), repeat=inst.n)


def slot_sizes(digits, q):
    counts = [0] * q
    for d in digits:
        if d:
            counts[d - 1] += 1
    return counts


def is_constrained_face(digits, q, k, t):
    """Membership in the constrained region, with a reason string."""
    counts = slot_sizes(digits, q)
    big = [j + 1 for j, c in enumerate(counts) if c > k - 1]
    if big:
        return False, "slot %d has %d > k-1 vertices" % (big[0], counts[big[0] - 1])
    small = sum(1 for c in counts if c <= k - 2)
    if small < t - 1:
        return False, "only %d slots at k-2 or fewer (need %d)" % (small, t - 1)
    return True, "all slots <= k-1 and %d slots <= k-2" % small


def valid_parameter_triples(max_ground):
    """All (q, k, t) with q >= 2, 1 <= t <= q, k >= min(t, 2) and ground set
    size qk - t between 1 and max_ground."""
    out = set()
    for q in range(2, max_ground + 2):
        for t in range(1, q + 1):
            k = min(t, 2)
            while q * k - t <= max_ground:
                if q * k - t >= 1:
                    out.add((q, k, t))
                k += 1
    return sorted(out)


def random_vertex_orders(n, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        order = list(range(n))
        rng.shuffle(order)
        out.append(tuple(order))
    return out


# ---------------------------------------------------------------------------
# graphs and splittings


def relabel(g: Graph, perm):
    """New graph with vertex v renamed perm[v]; perm maps 1..n onto 1..n."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def second_neighborhood(g: Graph, v):
    """Vertices at distance exactly two from v."""
    out = set()
    for u in g.adj[v]:
        out |= g.adj[u]
    out.discard(v)
    out -= g.adj[v]
    return out


def path_budget():
    """The Budget check_conditions gives the path conditions by default."""
    return Budget(PATH_SEARCH_BUDGET, "simple-path search budget exceeded")


def covered(s):
    """The vertices the sets of splitting s use."""
    out = set()
    for part in s.sets:
        out.update(part)
    return out


# ---------------------------------------------------------------------------
# the exact LP's reference: Fraction rows and a textbook phase-1 simplex


def frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def fraction_simplex_reference(a_rows, b):
    """Some x >= 0 with Ax = b, or None if the system is infeasible."""
    a_rows = frac_rows(a_rows)
    b = [Fraction(x) for x in b]
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    if any(len(r) != n for r in a_rows):
        raise InputError("ragged constraint matrix")
    if len(b) != m:
        raise InputError("rhs length mismatch")
    if m == 0:
        return [Fraction(0)] * n

    # Tableau rows: original columns, artificial identity, rhs; b >= 0.
    rows = []
    for i in range(m):
        row = list(a_rows[i]) + [Fraction(0)] * m + [b[i]]
        if b[i] < 0:
            row = [-x for x in row]
        row[n + i] = Fraction(1)
        rows.append(row)
    basis = [n + i for i in range(m)]

    # Reduced costs for minimizing the artificial sum; artificials start at 0.
    cost = [Fraction(0)] * (n + m + 1)
    for row in rows:
        for j in range(n + m + 1):
            cost[j] -= row[j]
    for i in range(m):
        cost[n + i] = Fraction(0)

    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][-1] / rows[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            raise AssertionError("phase-1 objective cannot be unbounded")
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, rows[leave])]
        basis[leave] = enter

    if -cost[-1] != 0:  # optimal artificial sum is -cost[-1]
        return None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rows[i][-1]
    return x


def fraction_hulls_reference(point_sets):
    """The Fraction-row construction of convex_hulls_common_point, solved by
    the reference simplex."""
    sets = [[tuple(Fraction(c) for c in p) for p in ps] for ps in point_sets]
    dim = len(sets[0][0])
    offsets, total = [], 0
    for ps in sets:
        offsets.append(total)
        total += len(ps)

    rows, rhs = [], []
    for s, ps in enumerate(sets):
        row = [Fraction(0)] * total
        for i in range(len(ps)):
            row[offsets[s] + i] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(1))
    for s in range(1, len(sets)):
        for c in range(dim):
            row = [Fraction(0)] * total
            for i, p in enumerate(sets[0]):
                row[offsets[0] + i] += p[c]
            for i, p in enumerate(sets[s]):
                row[offsets[s] + i] -= p[c]
            rows.append(row)
            rhs.append(Fraction(0))

    x = fraction_simplex_reference(rows, rhs)
    if x is None:
        return None
    weights = [x[offsets[s]:offsets[s] + len(ps)] for s, ps in enumerate(sets)]
    point = tuple(sum(w * p[c] for w, p in zip(weights[0], sets[0]))
                  for c in range(dim))
    return point, weights
