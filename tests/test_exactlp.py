import itertools
from fractions import Fraction
from math import lcm

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairsplit import exactlp, geometry, solver
from fairsplit.errors import InputError
from fairsplit.exactlp import convex_hulls_common_point
from fairsplit.geometry import moment_points


def _frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def feasible_nonneg_solution(a_rows, b):
    """Some x >= 0 with Ax = b, or None: exactlp's phase 1 on the system
    scaled to integers by one common denominator (needs a row)."""
    a_rows = _frac_rows(a_rows)
    b = [Fraction(x) for x in b]
    scale = lcm(*(x.denominator for row in a_rows for x in row),
                *(x.denominator for x in b))
    return exactlp._phase1([exactlp._scaled(row, scale) for row in a_rows],
                           exactlp._scaled(b, scale), scale)


def _fraction_simplex_reference(a_rows, b):
    """Some x >= 0 with Ax = b, or None if the system is infeasible."""
    a_rows = _frac_rows(a_rows)
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


def _fraction_hulls_reference(point_sets):
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

    x = _fraction_simplex_reference(rows, rhs)
    if x is None:
        return None
    weights = [x[offsets[s]:offsets[s] + len(ps)] for s, ps in enumerate(sets)]
    point = tuple(sum(w * p[c] for w, p in zip(weights[0], sets[0]))
                  for c in range(dim))
    return point, weights


def test_simple_feasible_system():
    # x1 + x2 = 1, x1 - x2 = 0  ->  x = (1/2, 1/2)
    x = feasible_nonneg_solution([[1, 1], [1, -1]], [1, 0])
    assert x == [Fraction(1, 2), Fraction(1, 2)]


def test_infeasible_system():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    assert feasible_nonneg_solution([[1, 1], [1, 1]], [1, 2]) is None


def test_nonnegativity_matters():
    # x1 - x2 = -3 with x1 + x2 = 1 forces x2 = 2 > 1: infeasible over x >= 0?
    # no: x1 = -1 is not allowed, so check the solver refuses it
    x = feasible_nonneg_solution([[1, 1], [1, -1]], [1, -3])
    assert x is None
    # but -1 on the right works once signs allow it
    x = feasible_nonneg_solution([[1, -1]], [-1])
    assert x is not None and x[0] - x[1] == -1 and all(v >= 0 for v in x)


def test_rational_exactness():
    rows = [[Fraction(1, 3), Fraction(1, 7)], [1, -1]]
    b = [1, 0]
    x = feasible_nonneg_solution(rows, b)
    assert x is not None
    assert x[0] / 3 + x[1] / 7 == 1 and x[0] == x[1]
    assert all(isinstance(v, Fraction) for v in x)


def test_single_equation_feasible():
    sol = feasible_nonneg_solution([[2, 1]], [4])
    assert sol is not None
    assert 2 * sol[0] + sol[1] == 4


def test_hulls_common_point_segments_crossing():
    a = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(2))]
    b = [(Fraction(0), Fraction(2)), (Fraction(2), Fraction(0))]
    got = convex_hulls_common_point([a, b])
    assert got is not None
    point, weights = got
    assert point == (Fraction(1), Fraction(1))
    assert sum(weights[0]) == 1 and sum(weights[1]) == 1


def test_hulls_common_point_disjoint_segments():
    a = [(Fraction(0),), (Fraction(1),)]
    b = [(Fraction(2),), (Fraction(3),)]
    assert convex_hulls_common_point([a, b]) is None


def test_hulls_point_in_triangle():
    tri = [(Fraction(0), Fraction(0)), (Fraction(4), Fraction(0)),
           (Fraction(0), Fraction(4))]
    inside = [(Fraction(1), Fraction(1))]
    outside = [(Fraction(5), Fraction(5))]
    assert convex_hulls_common_point([tri, inside]) is not None
    assert convex_hulls_common_point([tri, outside]) is None


def test_three_hulls():
    # three segments through the origin
    segs = [[(Fraction(-1), Fraction(0)), (Fraction(1), Fraction(0))],
            [(Fraction(0), Fraction(-1)), (Fraction(0), Fraction(1))],
            [(Fraction(-1), Fraction(-1)), (Fraction(1), Fraction(1))]]
    got = convex_hulls_common_point(segs)
    assert got is not None and got[0] == (Fraction(0), Fraction(0))


def test_callers_share_the_one_hull_function():
    # the benchmark's tracer wraps convex_hulls_common_point under these names
    assert geometry.convex_hulls_common_point is solver.convex_hulls_common_point \
        is exactlp.convex_hulls_common_point


_ENTRIES = st.one_of(st.just(0), st.integers(-3, 3),
                     st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 5, 7])))


@st.composite
def _systems(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(2, 8))
    rows = [draw(st.lists(_ENTRIES, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        # feasible by construction; zeros in x0 make degenerate vertices
        x0 = draw(st.lists(st.one_of(st.just(0), st.builds(Fraction, st.integers(1, 6),
                                                              st.sampled_from([1, 2, 3]))),
                           min_size=n, max_size=n))
        b = [sum(a * v for a, v in zip(row, x0)) for row in rows]
    else:
        b = draw(st.lists(_ENTRIES, min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2))):
        # a row repeated, possibly scaled or negated, with a consistent rhs
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        k = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
        rows[j], b[j] = [k * a for a in rows[i]], k * b[i]
    return rows, b


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_systems())
# a degenerate tie in the ratio test, where the lower row index and the lower
# basis index pick different leaving rows and so different solutions
@example(([[-1, -1, -1, 0], [-1, -1, 1, 0], [2, 0, 1, -2]], [-1, 0, 0]))
def test_matches_fraction_reference(system):
    rows, b = system
    x = feasible_nonneg_solution(rows, b)
    assert x == _fraction_simplex_reference(rows, b)
    if x is not None:
        assert all(type(v) is Fraction and v >= 0 for v in x)
        assert all(sum(a * v for a, v in zip(row, x)) == bi for row, bi in zip(rows, b))


@st.composite
def _point_sets(draw):
    dim = draw(st.integers(1, 3))
    coord = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 1, 2, 3, 5]))
    point = st.tuples(*[coord] * dim)
    return draw(st.lists(st.lists(point, min_size=1, max_size=4), min_size=2, max_size=3))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_point_sets())
def test_hulls_match_fraction_reference(point_sets):
    got = convex_hulls_common_point(point_sets)
    assert got == _fraction_hulls_reference(point_sets)
    if got is not None:
        point, weights = got
        for ps, w in zip(point_sets, weights):
            assert sum(w) == 1 and all(v >= 0 for v in w)
            assert tuple(sum(v * p[c] for v, p in zip(w, ps))
                         for c in range(len(point))) == point


def _gale_pairs():
    """Disjoint (d+1)-subsets of moment points on d = 1, 2 and at most 8
    parameters, each unordered pair once, as point-set pairs."""
    for d in (1, 2):
        r = d + 1
        for ground in range(2 * r, 9):
            config = moment_points(range(1, ground + 1), d=d)
            labels = range(1, ground + 1)
            for a in itertools.combinations(labels, r):
                rest = [v for v in labels if v not in a]
                for b in itertools.combinations(rest, r):
                    if b < a:
                        continue
                    yield [config.subset(a), config.subset(b)]


def test_gale_pairs_match_fraction_reference():
    pairs = 0
    for sets in _gale_pairs():
        assert convex_hulls_common_point(sets) == _fraction_hulls_reference(sets)
        pairs += 1
    assert pairs == 738


def test_touching_boxes_still_solve():
    # the boxes share only the point (1, 1), which both hulls contain
    got = convex_hulls_common_point([[(0, 0), (1, 1)], [(1, 1), (2, 0)]])
    assert got == ((Fraction(1), Fraction(1)), [[0, 1], [1, 0]])


def test_separated_boxes_never_pivot(monkeypatch):
    def no_pivoting(*args):
        raise AssertionError("a box-separated family reached the simplex")
    monkeypatch.setattr(exactlp, "_phase1", no_pivoting)
    assert convex_hulls_common_point([[(0, 0), (1, 1)], [(Fraction(3, 2), 1), (2, 0)]]) is None


def test_gale_pairs_refuted_by_boxes(monkeypatch):
    # 162 of the 738 pairs have boxes that miss along some axis
    phase1, calls = exactlp._phase1, []
    def counted(*args):
        calls.append(None)
        return phase1(*args)
    monkeypatch.setattr(exactlp, "_phase1", counted)
    for sets in _gale_pairs():
        convex_hulls_common_point(sets)
    assert len(calls) == 576
