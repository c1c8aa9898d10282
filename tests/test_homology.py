import io
import json
import random
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations

import pytest

import fairsplit.homology as homology_module
from fairsplit.cli import main
from fairsplit.complexes import (SimplicialComplex, independence_complex,
                                 vertex_key)
from fairsplit.errors import InputError, ResourceBudget
from fairsplit.graphs import Graph, cycle_graph
from fairsplit.homology import (_faces_by_dim, boundary_matrix, homology,
                                smith_diagonal)

from shared import cone, faces, full_simplex, skeleton


def rank_of(mat):
    return len(smith_diagonal(mat))


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


def _recording_boundary_matrix(monkeypatch):
    """Patch boundary_matrix to log each map's dimension as it is built."""
    built = []

    def record(lower, upper):
        built.append(len(upper[0]) - 1)
        return boundary_matrix(lower, upper)

    monkeypatch.setattr(homology_module, "boundary_matrix", record)
    return built


def test_max_dim_builds_only_the_maps_it_reads(monkeypatch):
    k = independence_complex(cycle_graph(14))  # dimension 6
    full = homology(k)
    built = _recording_boundary_matrix(monkeypatch)
    assert homology(k, max_dim=1) == full[:2]
    assert built == [0, 1, 2]


def _matrix_bytes(rows, cols):
    return (rows * (cols + homology_module._ROW_ENTRIES)
            * homology_module._BYTES_PER_ENTRY)


def test_boundary_matrix_bytes_bound_the_measured_peak():
    # the stated bytes per entry, against tracemalloc, on every map of
    # Ind(C14) and on a tall one-column map
    tall = SimplicialComplex(list(combinations(range(40), 2)) + [(0, 1, 2)])
    for k in (independence_complex(cycle_graph(14)), tall):
        by_dim = _faces_by_dim(k, k.dim())
        for d in range(1, k.dim() + 1):
            lower, upper = by_dim[d - 1], by_dim[d]
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                smith_diagonal(boundary_matrix(lower, upper))
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            bound = _matrix_bytes(len(lower), len(upper))
            assert peak <= bound, (d, peak, bound)
            if bound > 100_000:  # and it is tight once the rows dominate
                assert peak >= 0.9 * bound, (d, peak, bound)


def test_boundary_matrices_are_sized_before_any_is_built(monkeypatch):
    k = independence_complex(cycle_graph(14))
    by_dim = _faces_by_dim(k, k.dim())
    largest = max(_matrix_bytes(len(by_dim[d - 1]), len(by_dim[d]))
                  for d in range(0, k.dim() + 1))
    want = homology(k)
    built = _recording_boundary_matrix(monkeypatch)
    monkeypatch.setattr(homology_module, "MEMORY_LIMIT", largest)
    assert homology(k) == want
    built.clear()
    monkeypatch.setattr(homology_module, "MEMORY_LIMIT", largest - 1)
    with pytest.raises(ResourceBudget, match="memory limit of %d" % (largest - 1)):
        homology(k)
    assert built == []


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
