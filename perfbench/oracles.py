"""References the benchmark checks every op against.

Nothing here imports fairsplit: verdicts, witnesses and counts are re-derived
from the definitions (bitmask search, closed forms, published values), so a
wrong answer from the program cannot also be the reference.
"""

import itertools


def neighbour_masks(n, edges):
    nbr = [0] * (n + 1)
    for u, w in edges:
        nbr[u] |= 1 << w
        nbr[w] |= 1 << u
    return nbr


def cycle_edges(n):
    return [(i, i % n + 1) for i in range(1, n + 1)]


def path_edges(n):
    return [(i, i + 1) for i in range(1, n)]


def fair_min(size, q):
    return size // q


def almost_fair_min(size, q):
    return (size + 1) // q - 1


def splitting_fault(n, edges, blocks, sets, q, flavor, balanced=False,
                    stability=1):
    """Why `sets` is not a splitting of the given kind, or None if it is.

    flavor "fair" demands |S_i ∩ V_j| >= |V_j| // q; "almost_fair" demands
    (|V_j| + 1) // q - 1 and leaves at most q - 1 vertices of each block
    uncovered.  Stability s means labels within a set differ by >= s.
    """
    if not isinstance(sets, list) or len(sets) != q:
        return "expected %d sets" % q
    nbr = neighbour_masks(n, edges)
    seen = 0
    for s in sets:
        mask = 0
        for v in s:
            if not isinstance(v, int) or not 1 <= v <= n:
                return "vertex %r outside 1..%d" % (v, n)
            bit = 1 << v
            if seen & bit:
                return "vertex %d used twice" % v
            if nbr[v] & mask:
                return "set %r is not independent" % (s,)
            seen |= bit
            mask |= bit
        labels = sorted(s)
        if any(b - a < stability for a, b in zip(labels, labels[1:])):
            return "set %r is not %d-stable" % (s, stability)
    for b in blocks:
        need = fair_min(len(b), q) if flavor == "fair" else almost_fair_min(len(b), q)
        for s in sets:
            if len(set(s) & set(b)) < need:
                return "set %r meets block %r below its quota %d" % (s, b, need)
        if flavor == "almost_fair":
            left = sum(1 for v in b if not seen >> v & 1)
            if left > q - 1:
                return "%d vertices of block %r left uncovered" % (left, b)
    if balanced:
        sizes = [len(s) for s in sets]
        if max(sizes) - min(sizes) > 1:
            return "sizes %r are not balanced" % (sizes,)
    return None


def fair_splitting_exists(n, edges, blocks, q):
    """Is there a fair q-splitting?  Fair flavor has no leftover cap and
    independence is hereditary, so every set may be shrunk to exactly
    |V_j| // q vertices of each block; list those candidate sets as bitmasks
    and look for q pairwise disjoint ones."""
    nbr = neighbour_masks(n, edges)
    cands = [0]
    for b in blocks:
        grown = []
        for base in cands:
            for combo in itertools.combinations(b, len(b) // q):
                mask = base
                for v in combo:
                    if nbr[v] & mask:
                        break
                    mask |= 1 << v
                else:
                    grown.append(mask)
        cands = grown

    def pick(start, pool, used, left):
        if left == 0:
            return True
        for i in range(start, len(pool)):
            if not pool[i] & used and pick(i + 1, pool, used | pool[i], left - 1):
                return True
        return False

    return pick(0, cands, 0, q)


def colex_subsets(n, k):
    return sorted(itertools.combinations(range(1, n + 1), k),
                  key=lambda c: tuple(reversed(c)))


def kneser_chi(n, k):
    """Lovász: chi(KG(n, k)) = n - 2k + 2 for n >= 2k."""
    return n - 2 * k + 2


def kneser_coloring_fault(n, k, vertices, colors, chi):
    """Check a coloring of KG(n, k) against disjoint pairs enumerated here."""
    subsets = colex_subsets(n, k)
    if [tuple(v) for v in vertices] != subsets:
        return "vertex list is not the colex order of the %d-subsets" % k
    if len(colors) != len(subsets) or set(colors) - set(range(1, chi + 1)):
        return "coloring does not use colors 1..%d" % chi
    masks = [sum(1 << v for v in s) for s in subsets]
    for i, j in itertools.combinations(range(len(masks)), 2):
        if not masks[i] & masks[j] and colors[i] == colors[j]:
            return "disjoint sets %r, %r share color %d" % (
                subsets[i], subsets[j], colors[i])
    return None


def gale_alternates(a, b):
    """Gale's evenness for two (d+1)-sets on the moment curve in R^(2d): the
    hulls cross iff the labels strictly alternate in their merged order."""
    marks = [side for _, side in sorted([(x, 0) for x in a] + [(x, 1) for x in b])]
    return all(u != v for u, v in zip(marks, marks[1:]))


def tverberg_points(q, d):
    """Tverberg: (q-1)(d+1)+1 points in R^d always admit a partition into q
    parts with intersecting hulls; on the moment curve one fewer point does
    not."""
    return (q - 1) * (d + 1) + 1


def partition_fault(parts, labels, q):
    if not isinstance(parts, list) or len(parts) != q or not all(parts):
        return "expected %d nonempty parts" % q
    flat = sorted(v for p in parts for v in p)
    if flat != sorted(labels):
        return "parts do not partition %r" % (labels,)
    return None


# Kozlov (1999): Ind(C_n) is homotopy equivalent to S^(m-1) v S^(m-1) for
# n = 3m and to S^(m-1) for n = 3m +- 1, so its reduced Betti numbers are:
CYCLE_INDEPENDENCE_BETTI = {10: {2: 1}, 12: {3: 2}, 14: {4: 1}}


def homology_fault(n, rows):
    want = CYCLE_INDEPENDENCE_BETTI[n]
    for d, row in enumerate(rows):
        if row["betti"] != want.get(d, 0) or row["torsion"]:
            return "dimension %d: betti %r torsion %r, want betti %d" % (
                d, row["betti"], row["torsion"], want.get(d, 0))
    if max(want) >= len(rows):
        return "reported only %d dimensions" % len(rows)
    return None


def constraint_map_faces(q, k, t):
    """Faces the zero-set check must visit: all (q+1)^n digit strings, or
    none when fewer than q face sizes admit an unconstrained face (then no
    chain can carry q directions).  A size s admits one iff some slot can
    hold k vertices (s >= k) or q-t+2 slots can hold k-1 each."""
    n = q * k - t
    smallest = max(1, min(k, (q - t + 2) * (k - 1)))
    levels = max(0, n - smallest + 1)
    return 0 if levels < q else (q + 1) ** n

