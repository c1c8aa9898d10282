"""Reduced integral homology of small simplicial complexes via exact Smith
normal form.  A sanity/regression tool: all arithmetic is over the integers,
pivots are chosen by smallest absolute value to keep entries tame.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb

from .complexes import FACE_BUDGET, SimplicialComplex, vertex_key
from .errors import MEMORY_LIMIT, InputError, ResourceBudget

# A dense boundary matrix is a list of rows, each a list of small cached
# ints, and smith_diagonal works on a copy: two 8-byte pointers per entry.
# Each row also costs as much as _ROW_ENTRIES more entries: its list header,
# and the index of the lower faces while the matrix is filled.
_BYTES_PER_ENTRY = 16
_ROW_ENTRIES = 9


def _faces_by_dim(k: SimplicialComplex, top):
    """The faces of dimensions -1..top of a non-void complex, by dimension,
    each a tuple sorted by vertex_key and each dimension's list sorted.  Only
    these faces are enumerated, and they count against FACE_BUDGET: no more
    than one face past it is ever held, however large a facet is."""
    by_dim = {-1: [()]}
    facets = [sorted(f, key=vertex_key) for f in k.facets]
    count = 1
    for d in range(0, top + 1):
        faces = set()
        for f in facets:
            subsets, todo = combinations(f, d + 1), comb(len(f), d + 1)
            while todo:
                # one face past the budget is enough to refuse
                step = min(todo, FACE_BUDGET - count - len(faces) + 1)
                faces.update(islice(subsets, step))
                todo -= step
                if count + len(faces) > FACE_BUDGET:
                    raise ResourceBudget("face budget %d exceeded" % FACE_BUDGET)
        count += len(faces)
        by_dim[d] = sorted(faces, key=lambda t: [vertex_key(v) for v in t])
    return by_dim


def boundary_matrix(faces_lower, faces_upper):
    """Integer matrix of the boundary map from dimension d to d-1.

    Rows are indexed by faces_lower, columns by faces_upper; the column of a
    face lists the signs (-1)^i of its codimension-one subfaces.  With the
    empty face present in dimension -1 this computes the augmented (reduced)
    chain complex.
    """
    index = {f: i for i, f in enumerate(faces_lower)}
    rows = len(faces_lower)
    mat = [[0] * len(faces_upper) for _ in range(rows)]
    for c, face in enumerate(faces_upper):
        for i in range(len(face)):
            sub = face[:i] + face[i + 1:]
            mat[index[sub]][c] = 1 if i % 2 == 0 else -1
    return mat


def smith_diagonal(mat):
    """Diagonal of the Smith normal form: d_1 | d_2 | ..., all positive."""
    a = [list(row) for row in mat]
    rows, out = len(a), []
    cols = len(a[0]) if a else 0
    top = 0
    while top < rows and top < cols:
        # smallest-magnitude nonzero pivot, the first in row-major order;
        # nothing beats a unit, so the scan stops at the first one
        best, small = None, 0
        for i in range(top, rows):
            row = a[i]
            for j in range(top, cols):
                if row[j] and (best is None or abs(row[j]) < small):
                    best, small = (i, j), abs(row[j])
                    if small == 1:
                        break
            if small == 1:
                break
        if best is None:
            break
        bi, bj = best
        a[top], a[bi] = a[bi], a[top]
        for row in a:
            row[top], row[bj] = row[bj], row[top]
        p = a[top][top]
        dirty = False
        for i in range(top + 1, rows):
            if a[i][top]:
                f = a[i][top] // p
                for j in range(top, cols):
                    a[i][j] -= f * a[top][j]
                if a[i][top]:
                    dirty = True
        for j in range(top + 1, cols):
            if a[top][j]:
                f = a[top][j] // p
                for i in range(top, rows):
                    a[i][j] -= f * a[i][top]
                if a[top][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide everything below-right; otherwise mix a bad row
        # in.  A unit divides every integer, so a pivot of +-1 needs no scan.
        bad = None
        if abs(p) != 1:
            for i in range(top + 1, rows):
                for j in range(top + 1, cols):
                    if a[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
        if bad is not None:
            for j in range(top, cols):
                a[top][j] += a[bad][j]
            continue
        out.append(abs(p))
        top += 1
    return out


def homology(k: SimplicialComplex, max_dim=None):
    """Reduced integral homology: [(betti_d, [torsion orders]), ...] for
    d = 0 .. max_dim (default: the dimension of the complex).  Only the
    boundary maps of dimensions 0 .. max_dim + 1 are built, and each is sized
    against MEMORY_LIMIT before any of them is."""
    if k.is_void():
        raise InputError("homology of the void complex is undefined here")
    top = k.dim()
    if max_dim is None:
        max_dim = max(top, 0)
    last = min(top, max_dim + 1)
    by_dim = _faces_by_dim(k, last)
    dims = range(0, last + 1)
    for d in dims:
        rows, cols = len(by_dim[d - 1]), len(by_dim[d])
        if rows * (cols + _ROW_ENTRIES) * _BYTES_PER_ENTRY > MEMORY_LIMIT:
            raise ResourceBudget(
                "the %d x %d boundary matrix of dimension %d passes the memory "
                "limit of %d bytes" % (rows, cols, d, MEMORY_LIMIT))
    snf = {d: smith_diagonal(boundary_matrix(by_dim[d - 1], by_dim[d]))
           for d in dims}
    out = []
    for d in range(0, max_dim + 1):
        n_d = len(by_dim.get(d, []))
        rank_d = len(snf.get(d, []))
        above = snf.get(d + 1, [])
        betti = n_d - rank_d - len(above)
        torsion = sorted(x for x in above if x > 1)
        out.append((betti, torsion))
    return out
