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
from fairsplit.homology import (_FILL_BYTES, _dense_bytes, _eliminate,
                                _faces_by_dim, _leftover_diagonal,
                                _sparse_bytes, _sparse_map, homology,
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
    by_dim = _faces_by_dim(k, k.dim())
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
    by_dim = _faces_by_dim(k, k.dim())
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


def _recording_sparse_map(monkeypatch):
    """Patch _sparse_map to log each map's dimension as it is built."""
    built = []

    def record(lower, upper, cleared):
        built.append(len(upper[0]) - 1)
        return _sparse_map(lower, upper, cleared)

    monkeypatch.setattr(homology_module, "_sparse_map", record)
    return built


def test_max_dim_builds_only_the_maps_it_reads(monkeypatch):
    k = independence_complex(cycle_graph(14))  # dimension 6
    full = homology(k)
    built = _recording_sparse_map(monkeypatch)
    assert homology(k, max_dim=1) == full[:2]
    assert built == [2, 1, 0]  # from the top down, for clearing


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


def _reduce_counting(d, lower, upper, cleared):
    """homology_module._reduce, also returning what the elimination made."""
    cols, rows = _sparse_map(lower, upper, cleared)
    ones, pivots, left, made = _eliminate(cols, rows, 10 ** 18, d)
    del cols, rows
    rest = _leftover_diagonal(left, d) if left else []
    return ones + len(rest), pivots, made


def test_boundary_matrix_bytes_bound_the_measured_peak():
    # the stated bytes of each sparse map, against tracemalloc, on every map
    # of Ind(C14) and Ind(C18) and on a tall one-column map: they bound the
    # build and are tight once large, and with the fill-in counted they bound
    # the whole reduction of the map
    tall = SimplicialComplex(list(combinations(range(40), 2)) + [(0, 1, 2)])
    large = 0
    for k in (independence_complex(cycle_graph(14)), tall,
              independence_complex(cycle_graph(18))):
        by_dim = _faces_by_dim(k, k.dim())
        for d in range(0, k.dim() + 1):
            lower, upper = by_dim[d - 1], by_dim[d]
            bound = _sparse_bytes(d, len(lower), len(upper))
            _, peak = _peak(_sparse_map, lower, upper, None)
            assert peak <= bound, (d, peak, bound)
            if bound > 100_000:  # and it is tight once the map is large
                assert peak >= 0.9 * bound, (d, peak, bound)
                large += 1
            (_, _, made), peak = _peak(_reduce_counting, d, lower, upper, None)
            assert peak <= bound + made * _FILL_BYTES, (d, peak, bound, made)
    assert large >= 6


def _needed_bytes(k):
    """Per map, top down as homology reduces them: its stated bytes, and
    those plus its fill-in."""
    by_dim = _faces_by_dim(k, k.dim())
    sized, needed, cleared = [], [], None
    for d in range(k.dim(), -1, -1):
        lower, upper = by_dim[d - 1], by_dim[d]
        _, cleared, made = _reduce_counting(d, lower, upper, cleared)
        sized.append(_sparse_bytes(d, len(lower), len(upper)))
        needed.append(sized[-1] + made * _FILL_BYTES)
    return sized, needed


def test_boundary_matrices_are_sized_before_any_is_built(monkeypatch):
    k = independence_complex(cycle_graph(14))
    sized, needed = _needed_bytes(k)
    largest = max(sized)
    assert max(needed) > largest  # with its fill-in, a map needs more
    built = _recording_sparse_map(monkeypatch)
    monkeypatch.setattr(homology_module, "MEMORY_LIMIT", largest - 1)
    with pytest.raises(ResourceBudget,
                       match="boundary map of dimension .* memory limit of %d"
                       % (largest - 1)):
        homology(k)
    assert built == []
    # exactly the largest map's bytes pass the check made before building;
    # what is refused then is fill-in, as it is made
    monkeypatch.setattr(homology_module, "MEMORY_LIMIT", largest)
    with pytest.raises(ResourceBudget, match="fill-in of the boundary map"):
        homology(k)
    assert built


def test_fill_in_is_counted_as_it_is_made(monkeypatch):
    k = independence_complex(cycle_graph(14))
    want = homology(k)
    _, needed = _needed_bytes(k)
    need = max(needed)
    monkeypatch.setattr(homology_module, "MEMORY_LIMIT", need)
    assert homology(k) == want
    monkeypatch.setattr(homology_module, "MEMORY_LIMIT", need - 1)
    with pytest.raises(ResourceBudget, match="fill-in of the boundary map"):
        homology(k)


def _unit_free_columns(n, rng):
    """n columns over n rows with no unit entry: 2, 3 or 4 on the diagonal
    and, now and then, an even entry beside it."""
    cols = []
    for j in range(n):
        col = {j: rng.choice([2, 3, 4])}
        if j and rng.random() < 0.3:
            col[j - 1] = rng.choice([-2, 2])
        cols.append(col)
    return cols


def test_dense_leftover_bytes_bound_the_measured_peak():
    # 16 * rows * (cols + 9) bytes and 4 KB against tracemalloc: a bound on
    # every leftover, tight once large
    rng = random.Random(46)
    large = 0
    for n in (10, 20, 40, 90):
        left = _unit_free_columns(n, rng)
        bound = _dense_bytes(n, n)
        diag, peak = _peak(_leftover_diagonal, left, 3)
        assert diag == _smith_diagonal_reference(
            [[col.get(r, 0) for col in left] for r in range(n)])
        assert peak <= bound, (n, peak, bound)
        if bound > 100_000:
            assert peak >= 0.9 * bound, (n, peak, bound)
            large += 1
    assert large == 1


def test_dense_leftover_is_sized_before_it_is_allocated(monkeypatch):
    left = _unit_free_columns(30, random.Random(47))
    sized = _dense_bytes(30, 30)
    want = _leftover_diagonal(left, 3)
    calls = []
    monkeypatch.setattr(homology_module, "smith_diagonal",
                        lambda mat: calls.append(mat) or smith_diagonal(mat))
    monkeypatch.setattr(homology_module, "MEMORY_LIMIT", sized - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudget,
                           match="30 x 30 dense leftover of dimension 3"):
            _leftover_diagonal(left, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [] and peak < sized // 4, peak
    monkeypatch.setattr(homology_module, "MEMORY_LIMIT", sized)
    assert _leftover_diagonal(left, 3) == want and len(calls) == 1


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


def _leftovers(monkeypatch):
    """Patch _leftover_diagonal to log the number of columns of each dense
    leftover."""
    seen = []

    def record(left, d):
        seen.append(len(left))
        return _leftover_diagonal(left, d)

    monkeypatch.setattr(homology_module, "_leftover_diagonal", record)
    return seen


def test_homology_matches_the_dense_reference():
    rng = random.Random(48)
    ks = [_random_graph_complex(rng) for _ in range(110)]
    ks += [_random_facet_complex(rng) for _ in range(110)]
    ks += [independence_complex(cycle_graph(n)) for n in range(3, 17)]
    ks += _complexes_of_these_tests() + [_RP2, _moore_space(3)]
    for k in ks:
        assert homology(k) == dense_homology(k), k.facets
        assert ([homology(k, m) for m in range(-1, k.dim() + 3)]
                == _dense_reports(k)), k.facets


def test_torsion_comes_from_the_dense_leftover(monkeypatch):
    seen = _leftovers(monkeypatch)
    assert homology(_moore_space(3)) == [(0, []), (0, [3]), (0, [])]
    assert seen and all(seen)
    seen.clear()
    assert homology(_moore_space(5), max_dim=1) == [(0, []), (0, [5])]
    assert seen and all(seen)
    seen.clear()
    assert homology(_RP2) == [(0, []), (0, [2]), (0, [])]
    assert seen and all(seen)
    seen.clear()
    homology(independence_complex(cycle_graph(12)))
    assert seen == []


def test_sparse_stage_matches_smith_diagonal_on_random_matrices():
    # entries in -3..3 and columns of mixed sizes: non-unit entries, columns
    # that wait for a unit and fill-in that cancels all occur
    rng = random.Random(49)
    leftover = 0
    for _ in range(400):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = [[rng.choice([0, 0, 0, 1, -1, 2, -2, 3, -3])
              for _ in range(cols)] for _ in range(rows)]
        columns = [{r: m[r][c] for r in range(rows) if m[r][c]}
                   for c in range(cols)]
        row_lists = [[c for c in range(cols) if m[r][c]] for r in range(rows)]
        ones, pivots, left, _ = _eliminate(columns, row_lists, 10 ** 9, 0)
        rest = _leftover_diagonal(left, 0) if left else []
        assert [1] * ones + rest == _smith_diagonal_reference(m), m
        assert sum(pivots) == ones
        leftover += bool(left)
    assert leftover >= 50


def test_sparse_map_columns_are_the_dense_columns():
    by_dim = _faces_by_dim(_RP2, 2)
    for d in range(0, 3):
        lower, upper = by_dim[d - 1], by_dim[d]
        cols, rows = _sparse_map(lower, upper, None)
        mat = boundary_matrix(lower, upper)
        assert cols == [{r: mat[r][c] for r in range(len(lower)) if mat[r][c]}
                        for c in range(len(upper))]
        assert [sorted(row) for row in rows] == [
            [c for c in range(len(upper)) if mat[r][c]]
            for r in range(len(lower))]
    cleared = bytearray([1, 0] * 5)
    cols, rows = _sparse_map(by_dim[1], by_dim[2], cleared)
    assert [c is None for c in cols] == [bool(x) for x in cleared]
    assert all(c % 2 for row in rows for c in row)


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


def _full_enumeration(monkeypatch):
    """Make homology read every face, as it did before max_dim capped it."""
    monkeypatch.setattr(homology_module, "_faces_by_dim",
                        lambda k, top: _faces_by_dim_reference(k))


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
            want = {d: faces for d, faces in full.items() if d <= top}
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
