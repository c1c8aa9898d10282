"""Reduced integral homology of simplicial complexes via exact Smith normal
form, in two stages per boundary map.

The sparse stage keeps the map as columns (row -> entry) with a row ->
columns index and eliminates unit pivots in Markowitz order: the smallest
live column first, then its unit entry in the sparsest row.  Each step is
unimodular, so it adds a 1 to the Smith diagonal and leaves the rest of the
map to be reduced.  Maps are reduced from the top dimension down, and a face
that was a unit pivot row of the map above is left out of the map below
(clearing): its column reduces to zero.  The columns with no unit entry
left form a dense leftover block, which the second stage, smith_diagonal,
reduces with pivots chosen by smallest absolute value.  All arithmetic is
over the integers.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from heapq import heappop, heappush
from itertools import combinations, islice
from math import comb

from .complexes import FACE_BUDGET, SimplicialComplex
from .errors import MEMORY_LIMIT, InputError, ResourceBudget

# The sparse map of dimension d with R rows and C columns is sized before it
# is built, at its bytes as tracemalloc measures them (_sparse_bytes).  Per
# column: a dict of d + 1 entries (sys.getsizeof gives its bytes), its slot
# in the column list and its d + 1 slots in row lists.  Per row: its list's
# header and its slots in the row list and in the per-row entry count.  An
# int id for each row and column past Python's small-int cache, three list
# headers and _BASE_BYTES for the interpreter's own temporaries.  The index
# of the lower faces is freed before the row lists are built and costs less
# than they do.  The elimination counts each entry it adds (fill-in) and
# each heap key it pushes at _FILL_BYTES, as it makes them.  An entry takes
# a 24-byte dict slot and an 8-byte list slot, a heap key a 28-byte int and
# an 8-byte slot; the rest is for the steps by which dicts and lists grow
# (128 bytes at once when a 5-entry dict takes a sixth).  Measured growth
# stayed under 32 bytes per item counted, as pivot columns are freed.
_LIST_BYTES = sys.getsizeof([])
_INT_BYTES = sys.getsizeof(1 << 20)
_SMALL_INTS = 257
_BASE_BYTES = 4096
_FILL_BYTES = 100

# The dense leftover is a list of rows, each a list of pointers to small
# ints, and smith_diagonal works on a copy: two 8-byte pointers per entry.
# Each row also costs as much as _ROW_ENTRIES more entries: its two list
# headers, its slots in the two outer lists and in the sorted list of live
# rows, and its share of the diagonal.  _BASE_BYTES more are for the
# interpreter's own temporaries.
_BYTES_PER_ENTRY = 16
_ROW_ENTRIES = 9


def _faces_by_dim(k: SimplicialComplex, top):
    """The faces of dimensions -1..top of a non-void complex, by dimension,
    each a tuple sorted by vertex_key and each dimension's list sorted.  Only
    these faces are enumerated, and they count against FACE_BUDGET: no more
    than one face past it is ever held, however large a facet is.  Faces are
    listed and sorted as tuples of vertex ranks (k.vertices is sorted by
    vertex_key, so ranks sort as labels do), then mapped back to labels."""
    by_dim = {-1: [()]}
    labels = k.vertices
    rank = {v: i for i, v in enumerate(labels)}
    facets = [sorted(map(rank.__getitem__, f)) for f in k.facets]
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
        by_dim[d] = [tuple(map(labels.__getitem__, f)) for f in sorted(faces)]
    return by_dim


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


def _sparse_bytes(d, rows, cols):
    """Bytes of the sparse boundary map of dimension d, as built."""
    column = sys.getsizeof(dict.fromkeys(range(d + 1), 1)) + 8 * (d + 2)
    ids = max(rows - _SMALL_INTS, 0) + max(cols - _SMALL_INTS, 0)
    return (_BASE_BYTES + 3 * _LIST_BYTES + cols * column
            + rows * (_LIST_BYTES + 16) + ids * _INT_BYTES)


def _dense_bytes(rows, cols):
    """Bytes of a dense rows x cols block reduced by smith_diagonal."""
    return _BASE_BYTES + rows * (cols + _ROW_ENTRIES) * _BYTES_PER_ENTRY


def _sparse_map(lower, upper, cleared):
    """The boundary map from the faces `upper` to the faces `lower`: one dict
    {row: sign} per upper face, the signs (-1)^i of its codimension-one
    subfaces (None for a face that `cleared` marks), and each row's list of
    columns.  With the empty face as the only lower face of dimension -1
    this is the augmented (reduced) chain complex."""
    index = {f: i for i, f in enumerate(lower)}
    count = [0] * len(lower)
    cols = [None] * len(upper)
    for c, face in enumerate(upper):
        if cleared is None or not cleared[c]:
            col, sign = {}, 1
            for i in range(len(face)):
                r = index[face[:i] + face[i + 1:]]
                col[r] = sign
                count[r] += 1
                sign = -sign
            cols[c] = col
    del index
    rows = [[0] * n for n in count]
    for c, col in enumerate(cols):
        if col:
            for r in col:
                n = count[r] - 1
                rows[r][n] = c
                count[r] = n
    return cols, rows


def _eliminate(cols, rows, room, d):
    """Eliminate unit pivots from the sparse map in Markowitz order: the
    smallest live column first, then its unit entry whose row lists the
    fewest columns.  Pivot (r, c) adds multiples of column c to the other
    columns of row r, then drops row r and column c; each such step is
    unimodular and adds a 1 to the Smith diagonal.

    Every column starts with the same number of entries, so the columns no
    step has changed are taken in index order, and only changed columns go
    on a heap keyed by their size.  A column with no unit entry waits until
    a step changes it.  A row's list may still name columns that have lost
    their entry in it: each is checked before use, and the list's length is
    only the Markowitz estimate.  At most `room` entries and heap keys may
    be made.  Returns the number of pivots, a bytearray marking the pivot
    rows, the nonzero columns left (none has a unit entry) and the number of
    entries and heap keys made."""
    n = len(cols)
    first = min((len(col) for col in cols if col), default=0)
    heap, queued = [], bytearray(n)
    pivots = bytearray(len(rows))
    ones = made = nxt = 0
    while True:
        if heap and (nxt == n or heap[0] < first * n + nxt):
            size, c = divmod(heappop(heap), n)
            col = cols[c]
            if len(col) != size:
                if col:
                    heappush(heap, len(col) * n + c)
                else:
                    queued[c] = 0
                continue
            queued[c] = 0
        elif nxt < n:
            c, nxt = nxt, nxt + 1
            col = cols[c]
            if not col or queued[c]:
                continue
        else:
            break
        best = None
        for r, v in col.items():
            if (v == 1 or v == -1) and (best is None
                                        or len(rows[r]) < len(rows[best])):
                best = r
        if best is None:
            continue
        u = col.pop(best)
        cols[c] = None
        pivots[best] = 1
        ones += 1
        targets, rows[best] = rows[best], None
        for c2 in targets:
            col2 = cols[c2]
            if col2 is None or best not in col2:
                continue
            f = col2.pop(best) * u
            for r, v in col.items():
                w = col2.get(r)
                if w is None:
                    col2[r] = -f * v
                    rows[r].append(c2)
                    made += 1
                elif w != f * v:
                    col2[r] = w - f * v
                else:
                    del col2[r]
            if col2 and not queued[c2]:
                queued[c2] = 1
                heappush(heap, len(col2) * n + c2)
                made += 1
            if made > room:
                raise ResourceBudget(
                    "fill-in of the boundary map of dimension %d passes the "
                    "memory limit of %d bytes" % (d, MEMORY_LIMIT))
    return ones, pivots, [col for col in cols if col], made


def _leftover_diagonal(left, d):
    """smith_diagonal of the columns `left` as a dense block over the rows
    they touch, sized against MEMORY_LIMIT before it is allocated."""
    live = sorted(set().union(*left))
    if _dense_bytes(len(live), len(left)) > MEMORY_LIMIT:
        raise ResourceBudget(
            "the %d x %d dense leftover of dimension %d passes the memory "
            "limit of %d bytes" % (len(live), len(left), d, MEMORY_LIMIT))
    mat = [[0] * len(left) for _ in live]
    for j, col in enumerate(left):
        for r, v in col.items():
            mat[bisect_left(live, r)][j] = v
    del live
    return smith_diagonal(mat)


def _reduce(d, lower, upper, cleared, room):
    """(rank, torsion, pivot rows) of the boundary map of dimension d, its
    columns marked in `cleared` left out."""
    cols, rows = _sparse_map(lower, upper, cleared)
    ones, pivots, left, _ = _eliminate(cols, rows, room, d)
    del cols, rows
    rest = _leftover_diagonal(left, d) if left else []
    return ones + len(rest), [x for x in rest if x > 1], pivots


def homology(k: SimplicialComplex, max_dim=None):
    """Reduced integral homology: [(betti_d, [torsion orders]), ...] for
    d = 0 .. max_dim (default: the dimension of the complex).  Only the
    boundary maps of dimensions 0 .. max_dim + 1 are built, one at a time
    from the top down, and each is sized against MEMORY_LIMIT before any of
    them is."""
    if k.is_void():
        raise InputError("homology of the void complex is undefined here")
    top = k.dim()
    if max_dim is None:
        max_dim = max(top, 0)
    last = min(top, max_dim + 1)
    by_dim = _faces_by_dim(k, last)
    dims = range(last, -1, -1)
    size = {}
    for d in dims:
        rows, cols = len(by_dim[d - 1]), len(by_dim[d])
        size[d] = _sparse_bytes(d, rows, cols)
        if size[d] > MEMORY_LIMIT:
            raise ResourceBudget(
                "the %d x %d boundary map of dimension %d passes the memory "
                "limit of %d bytes" % (rows, cols, d, MEMORY_LIMIT))
    rank, torsion, cleared = {}, {}, None
    for d in dims:
        # a pivot row of the map above is a face whose column here
        # reduces to zero
        room = (MEMORY_LIMIT - size[d]) // _FILL_BYTES
        rank[d], torsion[d], cleared = _reduce(d, by_dim[d - 1], by_dim[d],
                                               cleared, room)
    out = []
    for d in range(0, max_dim + 1):
        n_d = len(by_dim.get(d, []))
        betti = n_d - rank.get(d, 0) - rank.get(d + 1, 0)
        out.append((betti, sorted(torsion.get(d + 1, []))))
    return out
