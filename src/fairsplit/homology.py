"""Reduced integral homology of small simplicial complexes via exact Smith
normal form.  A sanity/regression tool: all arithmetic is over the integers,
pivots are chosen by smallest absolute value to keep entries tame.
"""

from __future__ import annotations

from .complexes import FACE_BUDGET, SimplicialComplex, vertex_key
from .errors import InputError


def _faces_by_dim(k: SimplicialComplex, budget=FACE_BUDGET):
    by_dim = {}
    for f in k.faces(budget):
        t = tuple(sorted(f, key=vertex_key))
        by_dim.setdefault(len(t) - 1, []).append(t)
    for d in by_dim:
        by_dim[d].sort(key=lambda t: [vertex_key(v) for v in t])
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


def rank_of(mat):
    return len(smith_diagonal(mat))


def homology(k: SimplicialComplex, max_dim=None, budget=FACE_BUDGET):
    """Reduced integral homology: [(betti_d, [torsion orders]), ...] for
    d = 0 .. max_dim (default: the dimension of the complex)."""
    if k.is_void():
        raise InputError("homology of the void complex is undefined here")
    by_dim = _faces_by_dim(k, budget)
    top = k.dim()
    if max_dim is None:
        max_dim = max(top, 0)
    snf = {}
    for d in range(0, top + 1):
        lower = by_dim.get(d - 1, [])
        upper = by_dim.get(d, [])
        snf[d] = smith_diagonal(boundary_matrix(lower, upper)) if upper else []
    out = []
    for d in range(0, max_dim + 1):
        n_d = len(by_dim.get(d, []))
        rank_d = len(snf.get(d, []))
        above = snf.get(d + 1, [])
        betti = n_d - rank_d - len(above)
        torsion = sorted(x for x in above if x > 1)
        out.append((betti, torsion))
    return out
