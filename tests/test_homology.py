import io
import json
import random
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations

import pytest

import fairsplit.cli as cli_module
import fairsplit.homology as homology_module
from fairsplit.cli import main
from fairsplit.complexes import (SimplicialComplex, independence_complex,
                                 vertex_key)
from fairsplit.errors import InputError, ResourceBudget
from fairsplit.graphs import Graph, cycle_graph
from fairsplit.homology import (_BASE_BYTES, _dense_bytes, _face_bytes,
                                _faces_by_dim, _match, _morse_block, homology,
                                smith_diagonal)

from shared import cone, faces, full_simplex, skeleton


def rank_of(mat):
    return len(smith_diagonal(mat))


# ---------------------------------------------------------------------------
# the dense reference: every boundary map as a dense integer matrix, reduced
# whole by smith_diagonal


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


def _dense_reports(k):
    """The dense path's homology(k, m) for m = -1 .. dim + 2, from one Smith
    diagonal per boundary map: a map's diagonal does not depend on m."""
    by_dim = _faces_by_dim_reference(k)
    snf = {d: smith_diagonal(boundary_matrix(by_dim[d - 1], by_dim[d]))
           for d in range(0, k.dim() + 1)}
    reports = []
    for max_dim in range(-1, k.dim() + 3):
        out = []
        for d in range(0, max_dim + 1):
            n_d = len(by_dim.get(d, []))
            above = snf.get(d + 1, [])
            betti = n_d - len(snf.get(d, [])) - len(above)
            out.append((betti, sorted(x for x in above if x > 1)))
        reports.append(out)
    return reports


def dense_homology(k, max_dim=None):
    """homology(k, max_dim) of a non-void complex by the dense path."""
    if max_dim is None:
        max_dim = max(k.dim(), 0)
    return _dense_reports(k)[max(max_dim, -1) + 1]


# ---------------------------------------------------------------------------
# the dd = 0 oracle: consecutive boundary matrices multiply to zero


def matmul(a, b):
    if not a or not b:
        return []
    cols = len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(cols)] for i in range(len(a))]


@dataclass
class ChainComplexData:
    """Boundary matrices per dimension, highest first composing to zero."""
    matrices: list  # matrices[d] maps dimension d to d-1

    def check_composition(self):
        for d in range(1, len(self.matrices)):
            prod = matmul(self.matrices[d - 1], self.matrices[d])
            if any(any(x for x in row) for row in prod):
                return False
        return True


def chain_complex(k: SimplicialComplex):
    """The augmented integer chain complex of k, top dimension first index."""
    by_dim = _faces_by_dim_reference(k)
    mats = []
    for d in range(0, k.dim() + 1):
        mats.append(boundary_matrix(by_dim.get(d - 1, []),
                                    by_dim.get(d, [])))
    return ChainComplexData(mats)


# ---------------------------------------------------------------------------
# reference Smith diagonal: rescans below-right for divisibility after every
# pivot, the unit pivots included


def _smith_diagonal_reference(mat):
    a = [list(row) for row in mat]
    rows, out = len(a), []
    cols = len(a[0]) if a else 0
    top = 0
    while top < rows and top < cols:
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if a[i][j] and (best is None
                                or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
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
        bad = None
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


def test_boundary_signs_with_augmentation():
    # one edge: d0 sends both vertices to the empty face, d1 alternates signs
    d0 = boundary_matrix([()], [(1,), (2,)])
    assert d0 == [[1, 1]]
    d1 = boundary_matrix([(1,), (2,)], [(1, 2)])
    assert d1 == [[-1], [1]]
    d2 = boundary_matrix([(1, 2), (1, 3), (2, 3)], [(1, 2, 3)])
    assert d2 == [[1], [-1], [1]]


def test_smith_diagonal_known():
    assert smith_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert smith_diagonal([[0, 0], [0, 0]]) == []
    # the divisibility chain forces gcd mixing: diag(2, 3) ~ diag(1, 6)
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert smith_diagonal([[6]]) == [6]
    assert smith_diagonal([[4, 2], [2, 4]]) == [2, 6]


def test_smith_diagonal_random_invariants():
    # product of invariants = |det| for random nonsingular 3x3 matrices
    rng = random.Random(41)
    for _ in range(20):
        m = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        diag = smith_diagonal(m)
        if det == 0:
            assert len(diag) < 3
            continue
        prod = 1
        for x in diag:
            prod *= x
        assert prod == abs(det)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))


def test_smith_diagonal_matches_reference():
    # entries in -3..3: unit pivots and non-unit ones (2, 3 and what
    # elimination makes of them) both occur
    rng = random.Random(43)
    non_unit = 0
    for _ in range(400):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        want = _smith_diagonal_reference(m)
        assert smith_diagonal(m) == want, m
        non_unit += any(x > 1 for x in want)
    assert non_unit >= 20


def test_rank_of():
    assert rank_of([[1, 2], [2, 4]]) == 1
    assert rank_of([[1, 0], [0, 1]]) == 2


def test_chain_complex_composes_to_zero():
    rng = random.Random(42)
    for _ in range(10):
        n = rng.randint(3, 6)
        edges = [e for e in combinations(range(1, n + 1), 2)
                 if rng.random() < 0.5]
        k = independence_complex(Graph(n, edges))
        if k.dim() < 1:
            continue
        assert chain_complex(k).check_composition()


def test_matmul_empty():
    assert matmul([], [[1]]) == []


def test_point_is_acyclic():
    assert homology(full_simplex([1])) == [(0, [])]


def test_two_points():
    k = SimplicialComplex([(1,), (2,)])
    assert homology(k) == [(1, [])]


def test_circle():
    # boundary of a triangle
    k = SimplicialComplex([(1, 2), (1, 3), (2, 3)])
    assert homology(k) == [(0, []), (1, [])]


def test_two_sphere():
    k = skeleton(full_simplex(range(1, 5)), 2)
    assert homology(k) == [(0, []), (0, []), (1, [])]


def test_solid_simplex_acyclic():
    assert homology(full_simplex(range(1, 5))) == [(0, []), (0, []), (0, []), (0, [])]


def test_cone_is_acyclic():
    base = SimplicialComplex([(1, 2), (1, 3), (2, 3)])
    k = cone(base)
    assert all(b == 0 and not t for b, t in homology(k))


def test_projective_plane_torsion():
    facets = [(1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 4, 5), (1, 5, 6),
              (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]
    k = SimplicialComplex(facets)
    assert homology(k) == [(0, []), (0, [2]), (0, [])]


def test_independence_complex_of_six_cycle():
    k = independence_complex(cycle_graph(6))
    assert homology(k) == [(0, []), (2, []), (0, [])]


def test_max_dim_truncation():
    k = skeleton(full_simplex(range(1, 5)), 2)
    assert homology(k, max_dim=1) == [(0, []), (0, [])]
    assert homology(k, max_dim=4) == [(0, []), (0, []), (1, []), (0, []), (0, [])]


def _recording(monkeypatch, name, key):
    """Patch homology_module.<name> to log key(*args) at each call."""
    real, calls = getattr(homology_module, name), []

    def record(*args):
        calls.append(key(*args))
        return real(*args)

    monkeypatch.setattr(homology_module, name, record)
    return calls


def _blocks(monkeypatch):
    """Log the dimension of each Morse boundary block as it is built."""
    return _recording(monkeypatch, "_morse_block",
                      lambda upper, lower, up: bin(min(upper)).count("1") - 1)


def test_max_dim_builds_only_the_maps_it_reads(monkeypatch):
    k = _copies(_RP2, 3)  # critical cells in dimensions 0, 1 and 2
    full = homology(k)
    listed = _recording(monkeypatch, "_faces_by_dim", lambda k, top: top)
    built = _blocks(monkeypatch)
    assert homology(k) == full and listed == [2] and built == [1, 2]
    listed.clear()
    built.clear()
    assert homology(k, max_dim=0) == full[:1]
    assert listed == [1] and built == [1]


def _peak(fn, *args):
    """(fn(*args), the tracemalloc peak above what was held before).  The
    interpreter's free lists of dicts, dict key tables and lists are emptied
    first, so that every one fn makes is counted."""
    hold = [{0: 0} for _ in range(200)], [[0] for _ in range(200)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
        del hold


def _stated_bytes(k):
    """What homology counts for k: the faces held, and per Morse boundary,
    (dimension, its path search and dense block, the dense block alone, the
    measured peak of building and reducing it)."""
    crit = _faces_by_dim(k, k.dim())
    count = {d: len(faces) for d, faces in crit.items()}
    size = _face_bytes(k)
    held = _BASE_BYTES + sum(count.values()) * size
    up = _match(crit, len(k.vertices))
    maps = []
    for d in range(0, k.dim() + 1):
        if crit[d] and crit[d - 1]:
            dense = _dense_bytes(len(crit[d - 1]), len(crit[d]))
            _, peak = _peak(lambda: smith_diagonal(
                _morse_block(crit[d], crit[d - 1], up[d - 1])))
            maps.append((d, 2 * count[d - 1] * size + dense,
                         dense, peak))
    return held, maps


def test_boundary_matrix_bytes_bound_the_measured_peak():
    # the bytes homology counts, against tracemalloc: the faces held bound
    # the whole call, and each Morse boundary's path search and dense block
    # bound what building and reducing it takes (Moore spaces and their
    # suspensions have long gradient paths)
    tall = SimplicialComplex(list(combinations(range(40), 2)) + [(0, 1, 2)])
    ks = [independence_complex(cycle_graph(n)) for n in (14, 18, 21)]
    ks += [tall, full_simplex(range(15)), _RP2, _copies(_RP2, 20),
           _moore_space(60), _suspension(_moore_space(30), 1),
           _suspension(_moore_space(8), 3)]
    shares, walks = [], 0
    for k in ks:
        held, maps = _stated_bytes(k)
        _, peak = _peak(homology, k)
        assert peak <= held + max([m[1] for m in maps], default=0), (k, peak)
        shares.append(peak / held)
        for d, stated, _, measured in maps:
            assert measured <= stated, (k, d, measured, stated)
            walks += 1
    # the sets' tables double in steps, so the share a face set's held
    # bytes reach varies, but the figure is not padded far past the worst
    assert max(shares) >= 0.8 and walks >= 5, shares


def test_boundary_matrices_are_sized_before_any_is_built(monkeypatch):
    k = _copies(_RP2, 30)
    want = homology(k)
    held, maps = _stated_bytes(k)
    (d1, small, _, _), (d2, large, _, _) = maps
    assert (d1, d2) == (1, 2) and small < large
    built = _blocks(monkeypatch)
    monkeypatch.setattr(homology_module, "MEMORY_LIMIT", held + large - 1)
    with pytest.raises(ResourceBudget,
                       match="Morse boundary of dimension 2 passes the memory "
                       "limit of %d" % (held + large - 1)):
        homology(k)
    assert built == []  # the map of dimension 1 fit, but was not built
    monkeypatch.setattr(homology_module, "MEMORY_LIMIT", held + large)
    assert homology(k) == want and built == [1, 2]


def test_fill_in_is_counted_as_it_is_made(monkeypatch):
    # Ind(C14) has no Morse boundary to build: what it needs is its faces,
    # counted as they are listed.  At exactly their bytes it answers; one
    # byte less refuses at the last face listed, before any is matched
    k = independence_complex(cycle_graph(14))
    want = homology(k)
    held, maps = _stated_bytes(k)
    assert maps == []
    matched = _recording(monkeypatch, "_match", lambda by_dim, n: n)
    monkeypatch.setattr(homology_module, "MEMORY_LIMIT", held)
    assert homology(k) == want and matched == [len(k.vertices)]
    matched.clear()
    monkeypatch.setattr(homology_module, "MEMORY_LIMIT", held - 1)
    with pytest.raises(ResourceBudget,
                       match="faces at %d bytes each pass the memory limit"
                       % _face_bytes(k)):
        homology(k)
    assert matched == []


def test_dense_leftover_bytes_bound_the_measured_peak():
    # 16 * rows * (cols + 9) bytes and 4 KB for the dense block of the
    # critical cells the matching leaves, against tracemalloc on building and
    # reducing it: with its path search a bound on every block, and tight
    # once large
    large = 0
    for n in (10, 20, 40, 90):
        for d, stated, dense, peak in _stated_bytes(_copies(_RP2, n))[1]:
            assert peak <= stated, (n, d, peak, stated)
            if dense > 100_000:
                assert peak >= 0.9 * dense, (n, d, peak, dense)
                large += 1
    assert large >= 1


def test_dense_leftover_is_sized_before_it_is_allocated(monkeypatch):
    k = _moore_space(40)
    want = homology(k)
    held, [(_, stated, _, _)] = _stated_bytes(k)
    calls = _recording(monkeypatch, "smith_diagonal", len)
    built = _blocks(monkeypatch)
    limit = held + stated - 1
    monkeypatch.setattr(homology_module, "MEMORY_LIMIT", limit)
    with pytest.raises(ResourceBudget,
                       match="the 3 x 3 Morse boundary of dimension 2"):
        homology(k)
    assert calls == [] and built == []
    _, peak = _peak(pytest.raises, ResourceBudget, homology, k)
    assert peak < limit, peak
    monkeypatch.setattr(homology_module, "MEMORY_LIMIT", limit + 1)
    assert homology(k) == want and calls == [3] and built == [2]


def test_face_listing_is_held_to_the_memory_limit(monkeypatch):
    # the 18-vertex simplex has 262,144 faces in one facet and Ind(C20)
    # 15,127 faces in 277 facets, both well over 1 MB at 188 bytes a face.
    # Under a 1 MB limit each is refused partway through the listing, before
    # any face is matched, and the listing's peak stays under the limit
    matched = _recording(monkeypatch, "_match", lambda by_dim, n: n)
    monkeypatch.setattr(homology_module, "MEMORY_LIMIT", 1_000_000)
    for k in (full_simplex(range(18)), independence_complex(cycle_graph(20))):
        size = _face_bytes(k)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceBudget,
                               match="faces at %d bytes each pass the memory "
                               "limit of 1000000 bytes" % size):
                homology(k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matched == [] and 100_000 < peak < 1_000_000, peak


def _moore_space(p):
    """A triangulated mod-p Moore space: a disk whose boundary 3p-gon wraps
    p times around the triangle a0 a1 a2, through a ring m0 .. m_{3p-1} and
    a centre c.  Reduced homology: Z/p in dimension 1 and nothing else."""
    n = 3 * p
    a = ["a%d" % (i % 3) for i in range(n + 1)]
    m = ["m%d" % (i % n) for i in range(n + 1)]
    facets = []
    for i in range(n):
        facets += [(a[i], a[i + 1], m[i]), (a[i + 1], m[i], m[i + 1]),
                   ("c", m[i], m[i + 1])]
    return SimplicialComplex(facets)


def _suspension(k, times):
    """k joined with two points, `times` times over."""
    facets = [tuple(f) for f in k.facets]
    for t in range(times):
        facets = ([f + ("n%d" % t,) for f in facets]
                  + [f + ("s%d" % t,) for f in facets])
    return SimplicialComplex(facets)


def _copies(k, n):
    """n disjoint copies of k, on the integers: copy j of the vertex of rank
    r is j * len(k.vertices) + r."""
    rank = {v: r for r, v in enumerate(k.vertices)}
    return SimplicialComplex([[j * len(rank) + rank[v] for v in f]
                              for j in range(n) for f in k.facets])


_RP2 = SimplicialComplex([(1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 4, 5),
                          (1, 5, 6), (2, 3, 5), (2, 4, 5), (2, 4, 6),
                          (3, 4, 6), (3, 5, 6)])


def _random_graph_complex(rng):
    n = rng.randint(1, 11)
    p = rng.random()
    return independence_complex(Graph(n, [e for e in combinations(
        range(1, n + 1), 2) if rng.random() < p]))


def _random_facet_complex(rng):
    """Up to 10 random facets on up to 10 vertices, ints and strings mixed."""
    n = rng.randint(1, 10)
    labels = [rng.choice([v, "v%d" % v]) for v in range(n)]
    return SimplicialComplex([rng.sample(labels, rng.randint(1, min(n, 6)))
                              for _ in range(rng.randint(1, 10))])


def test_homology_matches_the_dense_reference(monkeypatch):
    rng = random.Random(48)
    ks = [_random_graph_complex(rng) for _ in range(110)]
    ks += [_random_facet_complex(rng) for _ in range(110)]
    ks += [independence_complex(cycle_graph(n)) for n in range(3, 17)]
    ks += _complexes_of_these_tests() + [_RP2, _moore_space(3)]
    built, morse = _blocks(monkeypatch), []
    for k in ks:
        built.clear()
        assert homology(k) == dense_homology(k), k.facets
        morse.append(bool(built))
        assert ([homology(k, m) for m in range(-1, k.dim() + 3)]
                == _dense_reports(k)), k.facets
    # the corpus keeps critical cells in adjacent dimensions, so that the
    # Morse boundary is built and checked, not only the matching
    assert morse[-2:] == [True, True] and sum(morse[:220]) >= 10


def test_matching_is_an_acyclic_partition_of_the_faces():
    # every face is critical or in exactly one pair {s, s | bit}, and the
    # gradient paths among the d-faces (s to the other faces of s | bit) have
    # no cycle: Forman's theorem needs both
    rng = random.Random(51)
    ks = [_random_graph_complex(rng) for _ in range(100)]
    ks += [_random_facet_complex(rng) for _ in range(100)]
    ks += [independence_complex(cycle_graph(n)) for n in range(3, 13)]
    ks += [_RP2, _moore_space(3), _suspension(_copies(_RP2, 2), 1)]
    for k in ks:
        crit = _faces_by_dim(k, k.dim())
        faces = sorted(f for d in crit for f in crit[d])
        up = _match(crit, len(k.vertices))
        cells = [f for d in crit for f in crit[d]]
        for pairs in up.values():
            assert all(not s & b for s, b in pairs.items())
            cells += list(pairs) + [s | b for s, b in pairs.items()]
        assert sorted(cells) == faces, k.facets
        for pairs in up.values():
            # only faces matched up lead on, so Kahn's algorithm over them
            # must take them all
            after = {s: [(s | b) ^ 1 << i for i in range((s | b).bit_length())
                         if (s | b) >> i & 1 and 1 << i != b]
                     for s, b in pairs.items()}
            into = {t: 0 for t in after}
            for ts in after.values():
                for t in ts:
                    if t in into:
                        into[t] += 1
            ready = [s for s, n in into.items() if not n]
            for s in ready:
                for t in after[s]:
                    if t in into:
                        into[t] -= 1
                        if not into[t]:
                            ready.append(t)
            assert len(ready) == len(after), k.facets


def test_torsion_comes_from_the_dense_leftover(monkeypatch):
    built = _blocks(monkeypatch)
    assert homology(_moore_space(3)) == [(0, []), (0, [3]), (0, [])]
    assert 2 in built
    built.clear()
    assert homology(_moore_space(5), max_dim=1) == [(0, []), (0, [5])]
    assert 2 in built
    built.clear()
    assert homology(_RP2) == [(0, []), (0, [2]), (0, [])]
    assert 2 in built
    built.clear()
    homology(independence_complex(cycle_graph(12)))
    assert built == []  # two critical 3-cells and nothing else


def _morse_blocks(k):
    """{d: the Morse boundary block of dimension d} of k, over its critical
    cells as _match leaves them."""
    crit = _faces_by_dim(k, k.dim())
    up = _match(crit, len(k.vertices))
    return {d: _morse_block(crit[d], crit[d - 1], up[d - 1])
            for d in range(0, k.dim() + 1) if crit[d] and crit[d - 1]}


def test_morse_boundaries_compose_to_zero():
    # the Morse complex is a chain complex: consecutive blocks multiply to
    # zero.  Disjoint copies and suspensions of RP^2 and of Moore spaces have
    # critical cells in three adjacent dimensions.
    ks = []
    for n in range(2, 5):
        ks += [_copies(_RP2, n), _copies(_moore_space(n), n),
               _suspension(_copies(_RP2, n), 1),
               _suspension(_copies(_moore_space(n + 1), 2), 2)]
    composed = 0
    for k in ks:
        blocks = _morse_blocks(k)
        for d in blocks:
            if d + 1 in blocks:
                prod = matmul(blocks[d], blocks[d + 1])
                assert not any(any(row) for row in prod), k.facets
                composed += any(any(row) for row in blocks[d + 1])
    assert composed >= 10


def test_morse_columns_without_a_matching_are_the_dense_columns():
    by_dim = _faces_by_dim_reference(_RP2)
    for d in range(0, 3):
        lower, upper = by_dim[d - 1], by_dim[d]
        block = _morse_block(_masks(_RP2, upper), _masks(_RP2, lower), {})
        assert block == boundary_matrix(lower, upper)


def test_cli_bytes_match_the_dense_reference(monkeypatch, tmp_path):
    rng = random.Random(50)
    cases = []
    for i in range(100):
        path = tmp_path / ("k%d.json" % i)
        k = _random_facet_complex(rng)
        path.write_text(json.dumps({"schema": "complex/1",
                                    "facets": [list(f) for f in k.facets]}))
        cases.append(["homology", "--input", str(path)])
        cases.append(cases[-1] + ["--max-dim",
                                  str(rng.randint(-1, k.dim() + 2))])

    def outputs():
        runs = []
        for argv in cases:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            runs.append((code, out.getvalue(), err.getvalue()))
        return runs

    got = outputs()
    assert all(code == 0 for code, _, _ in got)
    monkeypatch.setattr(cli_module, "homology", dense_homology)
    assert got == outputs()


def test_void_complex_rejected():
    with pytest.raises(InputError):
        homology(SimplicialComplex([]))


def test_empty_complex():
    # only the empty face: no cells in dimension >= 0 at all
    k = SimplicialComplex([()])
    assert homology(k) == [(0, [])]


# ---------------------------------------------------------------------------
# the reference enumeration: every face of the complex, whatever max_dim is


def _faces_by_dim_reference(k: SimplicialComplex):
    by_dim = {}
    for f in faces(k):
        t = tuple(sorted(f, key=vertex_key))
        by_dim.setdefault(len(t) - 1, []).append(t)
    for d in by_dim:
        by_dim[d].sort(key=lambda t: [vertex_key(v) for v in t])
    return by_dim


def _masks(k, faces):
    """The label tuples `faces` of k as bitmasks over vertex ranks."""
    rank = {v: r for r, v in enumerate(k.vertices)}
    return [sum(1 << rank[v] for v in f) for f in faces]


def _full_enumeration(monkeypatch):
    """Make homology read every face, as it did before max_dim capped it."""
    monkeypatch.setattr(
        homology_module, "_faces_by_dim",
        lambda k, top: {d: set(_masks(k, faces))
                        for d, faces in _faces_by_dim_reference(k).items()})


def _random_complex(rng):
    """Up to 6 random facets on up to 8 vertices, some labelled by strings."""
    n = rng.randint(1, 8)
    labels = [rng.choice([v, "v%d" % v]) for v in range(n)]
    return [rng.sample(labels, rng.randint(1, min(n, 5)))
            for _ in range(rng.randint(1, 6))]


def _complexes_of_these_tests():
    return [full_simplex([1]), SimplicialComplex([(1,), (2,)]),
            SimplicialComplex([(1, 2), (1, 3), (2, 3)]),
            skeleton(full_simplex(range(1, 5)), 2), full_simplex(range(1, 5)),
            cone(SimplicialComplex([(1, 2), (1, 3), (2, 3)])),
            SimplicialComplex([(1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 4, 5),
                               (1, 5, 6), (2, 3, 5), (2, 4, 5), (2, 4, 6),
                               (3, 4, 6), (3, 5, 6)]),
            independence_complex(cycle_graph(6)),
            independence_complex(cycle_graph(14)), SimplicialComplex([()])]


def test_faces_by_dim_is_the_full_enumeration_cut_at_top():
    rng = random.Random(44)
    ks = _complexes_of_these_tests()
    ks += [SimplicialComplex(_random_complex(rng)) for _ in range(100)]
    for k in ks:
        full = _faces_by_dim_reference(k)
        for top in range(-1, k.dim() + 1):
            want = {d: set(_masks(k, faces)) for d, faces in full.items()
                    if d <= top}
            assert _faces_by_dim(k, top) == want, (k.facets, top)


def test_max_dim_reports_match_the_full_enumeration(monkeypatch):
    ks = _complexes_of_these_tests()
    got = [[homology(k, d) for d in range(-1, k.dim() + 3)] for k in ks]
    _full_enumeration(monkeypatch)
    assert got == [[homology(k, d) for d in range(-1, k.dim() + 3)] for k in ks]


def test_max_dim_cli_bytes_match_the_full_enumeration(monkeypatch, tmp_path):
    rng = random.Random(45)
    cases = []
    for i in range(100):
        path = tmp_path / ("k%d.json" % i)
        facets = _random_complex(rng)
        path.write_text(json.dumps({"schema": "complex/1", "facets": facets}))
        top = max(len(f) for f in facets) - 1
        for d in [None] + list(range(-1, top + 3)):
            flag = [] if d is None else ["--max-dim", str(d)]
            cases.append(["homology", "--input", str(path)] + flag)

    def outputs():
        runs = []
        for argv in cases:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            runs.append((code, out.getvalue(), err.getvalue()))
        return runs

    got = outputs()
    assert all(code == 0 for code, _, _ in got)
    _full_enumeration(monkeypatch)
    assert got == outputs()


def test_face_budget_counts_only_the_faces_enumerated(monkeypatch):
    # the 6-vertex simplex has 1 + 6 + 15 + 20 + 15 faces of up to 4
    # vertices; max_dim = 2 reads exactly those
    k = full_simplex(range(1, 7))
    monkeypatch.setattr(homology_module, "FACE_BUDGET", 57)
    assert homology(k, max_dim=2) == [(0, []), (0, []), (0, [])]
    monkeypatch.setattr(homology_module, "FACE_BUDGET", 56)
    assert homology(k, max_dim=1) == [(0, []), (0, [])]
    with pytest.raises(ResourceBudget, match="face budget 56 exceeded"):
        homology(k, max_dim=2)


def test_face_budget_stops_a_large_facet_before_listing_its_faces(monkeypatch):
    # one 40-vertex facet has 1 + 40 + 780 faces of up to 2 vertices, which
    # fit a budget of 1,000, and C(40, 3) = 9,880 of 3 vertices: enumeration
    # must stop one face past the budget, not after listing all of those
    k = full_simplex(range(40))
    monkeypatch.setattr(homology_module, "FACE_BUDGET", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudget, match="face budget 1000 exceeded"):
            homology(k, max_dim=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000, peak
