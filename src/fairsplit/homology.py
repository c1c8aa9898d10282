"""Reduced integral homology of simplicial complexes by discrete Morse
theory, with exact Smith normal form on what the matching leaves.

Faces are int bitmasks over vertex ranks, listed once per dimension, with
the empty face as the one face of dimension -1 (so the homology is reduced).
For each vertex v in rank order, every live face s without v is matched with
s + v when both are live; a sequence of such element matchings is acyclic
(Jonsson, Simplicial Complexes of Graphs, 2008).  By Forman (Morse theory
for cell complexes, 1998) the unmatched, critical cells span a chain complex
with the same homology, whose boundary sums signed gradient paths.  It is
built only between critical cells in adjacent dimensions, for smith_diagonal.
"""

from __future__ import annotations

import sys
from itertools import combinations, islice
from math import comb

from .complexes import FACE_BUDGET, SimplicialComplex
from .errors import MEMORY_LIMIT, InputError, ResourceBudget

# A face held costs _FACE_BYTES and its int: its slot in its dimension's set,
# which grows in steps, its place in a matching queue and its matching entry.
# A gradient-path search holds at most twice that per face of the dimension it
# walks.  A dense block and smith_diagonal's copy take two 8-byte pointers per
# entry and _ROW_ENTRIES entries more per row (its list headers, its slots in
# the outer lists and the row index, and the diagonal).  _BASE_BYTES are for
# the interpreter's own temporaries.
_FACE_BYTES = 160
_BYTES_PER_ENTRY = 16
_ROW_ENTRIES = 9
_BASE_BYTES = 4096


def _face_bytes(k):
    """Bytes per face held, its int sized for the largest face."""
    return _FACE_BYTES + sys.getsizeof((1 << len(k.vertices)) - 1)


def _faces_by_dim(k: SimplicialComplex, top):
    """The faces of dimensions -1..top of a non-void complex, by dimension,
    each a set of bitmasks.  Only these are listed, and they count against
    FACE_BUDGET and, at their bytes, against MEMORY_LIMIT as they are
    listed: no more than one face past either is ever held."""
    bit = {v: 1 << r for r, v in enumerate(k.vertices)}
    size = _face_bytes(k)
    cap = min(FACE_BUDGET, (MEMORY_LIMIT - _BASE_BYTES) // size)
    over = ("face budget %d exceeded" % FACE_BUDGET if cap == FACE_BUDGET else
            "faces at %d bytes each pass the memory limit of %d bytes"
            % (size, MEMORY_LIMIT))
    by_dim, count = {-1: {0}}, 1
    for d in range(0, top + 1):
        faces = by_dim[d] = set()
        for f in k.facets:
            subsets = map(sum, combinations(map(bit.get, f), d + 1))
            todo = comb(len(f), d + 1)
            while todo:
                # one face past the cap is enough to refuse
                step = min(todo, cap - count - len(faces) + 1)
                faces.update(islice(subsets, step))
                todo -= step
                if count + len(faces) > cap:
                    raise ResourceBudget(over)
        count += len(faces)
    return by_dim


def _match(by_dim, n):
    """Element matchings in vertex-rank order.  Matched faces leave by_dim,
    which keeps the critical cells; returns, per dimension, {s: bit} for the
    faces s matched with s | bit.  At vertex v only live faces t with v can
    match (with t - v), so each face waits in the queue of its next vertex."""
    up = {d: {} for d in by_dim}
    queue = [[] for _ in range(n)]
    for faces in by_dim.values():
        for t in filter(None, faces):
            queue[(t & -t).bit_length() - 1].append(t)
    for v in range(n):
        bit, waiting, queue[v] = 1 << v, queue[v], None
        for t in waiting:
            d = t.bit_count() - 1
            if t in by_dim[d] and t ^ bit in by_dim[d - 1]:
                by_dim[d].remove(t)
                by_dim[d - 1].remove(t ^ bit)
                up[d - 1][t ^ bit] = bit
            elif t in by_dim[d] and t >> v > 1:
                rest = t >> v + 1
                queue[v + (rest & -rest).bit_length()].append(t)
    return up


def _sign(face, bit):
    """The sign of face ^ bit in the boundary of face: -1 to the number of
    face's vertices below bit."""
    return -1 if (face & (bit - 1)).bit_count() & 1 else 1


def _bits(x):
    return [1 << i for i in range(x.bit_length()) if x >> i & 1]


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
        bad = None if abs(p) == 1 else next(
            (i for i in range(top + 1, rows)
             if any(a[i][j] % p for j in range(top + 1, cols))), None)
        if bad is not None:
            for j in range(top, cols):
                a[top][j] += a[bad][j]
            continue
        out.append(abs(p))
        top += 1
    return out


def _dense_bytes(rows, cols):
    """Bytes of a dense rows x cols block reduced by smith_diagonal."""
    return _BASE_BYTES + rows * (cols + _ROW_ENTRIES) * _BYTES_PER_ENTRY


def _morse_block(upper, lower, up):
    """The Morse boundary from the critical cells `upper` to `lower`, as a
    dense block.  Column tau starts as the boundary of tau.  A face s matched
    with r = s | up[s] cancels its coefficient a by adding -a [r:s] times the
    boundary of r, and critical faces keep theirs.  The matching is acyclic,
    so the faces reached form a DAG: a DFS on an explicit stack lists them in
    postorder, and in reverse postorder each face's coefficient is final."""
    rows = {s: i for i, s in enumerate(lower)}
    block = [[0] * len(upper) for _ in lower]
    for j, tau in enumerate(upper):
        coef = {tau ^ w: _sign(tau, w) for w in _bits(tau)}
        order, seen, stack = [], set(), list(coef)
        while stack:
            s = stack.pop()
            if s < 0:
                order.append(~s)
            elif s not in seen:
                seen.add(s)
                stack.append(~s)
                b = up.get(s)
                if b:
                    stack += [(s | b) ^ w for w in _bits(s)]
        for s in reversed(order):
            a, b = coef.pop(s, 0), up.get(s)
            if a and b:
                r = s | b
                a = -a * _sign(r, b)
                for w in _bits(s):
                    coef[r ^ w] = coef.get(r ^ w, 0) + a * _sign(r, w)
            elif a and s in rows:
                block[rows[s]][j] = a
    return block


def homology(k: SimplicialComplex, max_dim=None):
    """Reduced integral homology: [(betti_d, [torsion orders]), ...] for
    d = 0 .. max_dim (default: the dimension of the complex).  Only the faces
    of dimensions -1 .. max_dim + 1 are listed and matched.  Each Morse
    boundary, its block and its path search, is sized with the faces held
    against MEMORY_LIMIT before any is built."""
    if k.is_void():
        raise InputError("homology of the void complex is undefined here")
    top = k.dim()
    if max_dim is None:
        max_dim = max(top, 0)
    last = min(top, max_dim + 1)
    crit = _faces_by_dim(k, last)
    count = {d: len(faces) for d, faces in crit.items()}
    size = _face_bytes(k)
    held = _BASE_BYTES + sum(count.values()) * size
    up = _match(crit, len(k.vertices))
    # the map of dimension d sends the critical d-cells to the (d-1)-cells
    maps = [d for d in range(0, last + 1) if crit[d] and crit[d - 1]]
    for d in maps:
        rows, cols = len(crit[d - 1]), len(crit[d])
        walk = 2 * count[d - 1] * size
        if held + walk + _dense_bytes(rows, cols) > MEMORY_LIMIT:
            raise ResourceBudget(
                "the %d x %d Morse boundary of dimension %d passes the "
                "memory limit of %d bytes" % (rows, cols, d, MEMORY_LIMIT))
    diag = {d: smith_diagonal(_morse_block(crit[d], crit[d - 1], up[d - 1]))
            for d in maps}
    rank = {d: len(x) for d, x in diag.items()}
    return [(len(crit.get(d, ())) - rank.get(d, 0) - rank.get(d + 1, 0),
             sorted(x for x in diag.get(d + 1, ()) if x > 1))
            for d in range(0, max_dim + 1)]
