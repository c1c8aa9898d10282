import time
from fractions import Fraction
from itertools import combinations

import pytest

from fairsplit.errors import InputError, ResourceBudget
from fairsplit.geometry import (PointConfiguration, _disjoint_families,
                                _family_count, gale_alternating,
                                hulls_intersect, moment_points,
                                stretched_moment_points,
                                strong_general_position_check, tverberg_search)


def test_moment_points_doubling():
    cfg = moment_points([1, 2, 3], d=1)
    assert cfg.dim == 2
    assert cfg.points == [(1, 1), (2, 4), (3, 9)]


def test_moment_points_explicit_dim():
    cfg = moment_points([2, 5], dim=3)
    assert cfg.points == [(2, 4, 8), (5, 25, 125)]


def test_moment_points_argument_errors():
    with pytest.raises(InputError):
        moment_points([1, 2], d=1, dim=2)
    with pytest.raises(InputError):
        moment_points([1, 2])
    with pytest.raises(InputError):
        moment_points([1, 2], dim=0)
    with pytest.raises(InputError):
        moment_points([2, 1], d=1)  # not increasing


def test_moment_points_rational_params():
    cfg = moment_points([Fraction(1, 2), 1], dim=2)
    assert cfg.points[0] == (Fraction(1, 2), Fraction(1, 4))


def test_stretched_parameters():
    cfg = stretched_moment_points(4, d=1)
    assert [p[0] for p in cfg.points] == [4, 16, 256, 65536]
    assert cfg.points[2] == (256, 65536)


def test_coordinates_past_the_digit_limit_are_refused_before_computing():
    # the interpreter prints ints of at most 4,300 digits by default
    assert len(str(moment_points([10], dim=4299).points[0][-1])) == 4300
    for t in (10, -10, Fraction(1, 10)):
        with pytest.raises(ResourceBudget):
            moment_points([t], dim=4300)
    assert moment_points([-1, 0, 1], dim=10 ** 4).points[0][-1] == 1
    # B^(2^n) for n = 10^9 is never built: the squares stop at the first
    # parameter whose dim-th power cannot print
    start = time.perf_counter()
    for n, dim in ((13, 2), (40, 1), (10 ** 9, 1)):
        with pytest.raises(ResourceBudget):
            stretched_moment_points(n, dim=dim)
    assert time.perf_counter() - start < 1
    assert stretched_moment_points(12, dim=1).points[-1] == (2 ** 4096,)
    with pytest.raises(InputError):  # the order is still checked
        moment_points([2, 1], dim=1)


def test_stretched_base_validation():
    with pytest.raises(InputError):
        stretched_moment_points(3, d=1, base=1)
    with pytest.raises(InputError):
        stretched_moment_points(0, d=1)


def test_configuration_validation():
    with pytest.raises(InputError):
        PointConfiguration([(1, 2), (3,)])
    cfg = PointConfiguration([(1, 2), (3, 4)])
    assert cfg.subset([2]) == [(3, 4)]
    assert len(cfg) == 2


def test_gale_alternation_basic():
    assert gale_alternating((1, 3), (2, 4))
    assert not gale_alternating((1, 2), (3, 4))
    assert gale_alternating((2, 4, 6), (1, 3, 5))
    with pytest.raises(InputError):
        gale_alternating((1, 2), (2, 3))
    with pytest.raises(InputError):
        gale_alternating((1,), (2, 3))


def test_gale_matches_hull_crossings_d1():
    # on the moment curve in the plane, segments cross iff labels alternate
    cfg = moment_points(list(range(1, 7)), d=1)
    labels = range(1, 7)
    for s1 in combinations(labels, 2):
        rest = [x for x in labels if x not in s1]
        for s2 in combinations(rest, 2):
            want = gale_alternating(s1, s2)
            got = hulls_intersect([cfg.subset(s1), cfg.subset(s2)])
            assert want == got, (s1, s2)


def test_gale_matches_hull_crossings_d2():
    cfg = stretched_moment_points(7, d=2)
    labels = range(1, 8)
    checked = 0
    for s1 in combinations(labels, 3):
        rest = [x for x in labels if x not in s1]
        for s2 in combinations(rest, 3):
            if s1[0] > s2[0]:
                continue  # unordered pair, count once
            want = gale_alternating(s1, s2)
            got = hulls_intersect([cfg.subset(s1), cfg.subset(s2)])
            assert want == got, (s1, s2)
            checked += 1
    assert checked == 70


def test_strong_general_position_line():
    cfg = moment_points([1, 2, 3], dim=1)
    ok, witness = strong_general_position_check(cfg, 2)
    assert ok and witness is None


def test_strong_general_position_violated():
    # three collinear points embedded in the plane: {1,3} hull covers point 2
    cfg = PointConfiguration([(0, 0), (1, 1), (2, 2)])
    ok, witness = strong_general_position_check(cfg, 2)
    assert not ok
    assert witness == [(1, 3), (2,)]
    assert hulls_intersect([cfg.subset(witness[0]), cfg.subset(witness[1])])


def test_moment_points_counts_coordinates_before_building_any():
    # powers of 0 and 1 always print, so only the count stops them; the
    # third parameter is never read
    def params():
        yield 0
        yield 1
        raise AssertionError("read a parameter past the coordinate limit")

    with pytest.raises(ResourceBudget, match="moment coordinates: 120000"):
        moment_points(params(), dim=60000)
    assert len(moment_points([0, 1], dim=50000).points) == 2


def test_strong_general_position_budget():
    cfg = stretched_moment_points(8, d=2)
    with pytest.raises(ResourceBudget):
        strong_general_position_check(cfg, 3, budget=5)


def _disjoint_families_reference(n_points, q, max_total):
    out = []

    def rec(label, classes, total):
        if label > n_points:
            if all(classes):
                out.append([tuple(c) for c in classes])
            return
        rec(label + 1, classes, total)
        if total < max_total:
            first_empty = next((i for i, c in enumerate(classes) if not c), q)
            for i in range(min(first_empty + 1, q)):
                classes[i].append(label)
                rec(label + 1, classes, total + 1)
                classes[i].pop()

    rec(1, [[] for _ in range(q)], 0)
    return out


def test_disjoint_families_order_and_count():
    # the first family that meets decides the witness, so the order matters;
    # min_total only drops the families with fewer labels
    for n in range(7):
        for q in range(1, 4):
            for max_total in range(8):
                want = _disjoint_families_reference(n, q, max_total)
                assert list(_disjoint_families(n, q, max_total)) == want
                assert _family_count(n, q, max_total) == len(want)
                for min_total in range(n + 1):
                    got = list(_disjoint_families(n, q, max_total, min_total))
                    assert got == [f for f in want
                                   if sum(map(len, f)) >= min_total], \
                        (n, q, max_total, min_total)


def test_strong_general_position_counts_before_building():
    # 3,906,210 families: the budget must stop the check before any is built
    cfg = moment_points(range(1, 21), dim=2)
    start = time.perf_counter()
    with pytest.raises(ResourceBudget, match="too many families to check: 3906210"):
        strong_general_position_check(cfg, 3)
    assert time.perf_counter() - start < 1


def test_tverberg_radon_on_line():
    cfg = moment_points([1, 2, 3], dim=1)
    got = tverberg_search(cfg, 2)
    assert got is not None
    parts, point = got
    assert sorted(map(sorted, parts)) == [[1, 3], [2]]
    assert point == (2,)


def test_tverberg_too_few_points():
    # (q-1)(d+1) points in strong general position admit no q-fold partition
    cfg = moment_points([1, 2], dim=1)
    assert tverberg_search(cfg, 2) is None
    cfg = moment_points([1, 2, 3, 5], dim=1)
    assert tverberg_search(cfg, 3) is None


def test_tverberg_q3_on_line():
    cfg = moment_points([1, 2, 3, 4, 5], dim=1)
    got = tverberg_search(cfg, 3)
    assert got is not None
    parts, point = got
    assert len(parts) == 3 and all(parts)
    hulls = [cfg.subset(p) for p in parts]
    assert all(min(h)[0] <= point[0] <= max(h)[0] for h in hulls)


def test_tverberg_plane():
    cfg = stretched_moment_points(4, d=1)
    got = tverberg_search(cfg, 2)
    assert got is not None
    parts, point = got
    assert hulls_intersect([cfg.subset(parts[0]), cfg.subset(parts[1])])
    assert sorted(map(sorted, parts)) == [[1, 3], [2, 4]]


def test_tverberg_dim_mismatch_and_budget():
    cfg = moment_points([1, 2, 3], d=1)
    with pytest.raises(InputError):
        tverberg_search(cfg, 2, target_dim=1)
    big = moment_points(list(range(1, 10)), dim=1)
    with pytest.raises(ResourceBudget):
        tverberg_search(big, 4, budget=3)


def test_everything_is_fractions():
    cfg = stretched_moment_points(3, d=1)
    got = tverberg_search(cfg, 2)
    assert got is None  # 3 points in the plane: no Radon partition
    ok, _ = strong_general_position_check(cfg, 2)
    assert ok
    for p in cfg.points:
        assert all(isinstance(c, Fraction) for c in p)


def _recursive_set_partitions(n, q):
    """The former enumerator, recursing to depth n: the reference order."""
    if n < q:
        return
    code = [0] * n

    def rec(i, used):
        if i == n:
            if used == q:
                parts = [[] for _ in range(q)]
                for lbl, c in enumerate(code, start=1):
                    parts[c].append(lbl)
                yield [tuple(p) for p in parts]
            return
        for c in range(min(used + 1, q)):
            code[i] = c
            yield from rec(i + 1, max(used, c + 1))

    yield from rec(0, 0)


def test_set_partitions_match_recursive_order():
    # tverberg_search's partitions: the family walk with every label placed
    for n in range(0, 9):
        for q in range(0, 5):
            assert (list(_disjoint_families(n, q, n, n))
                    == list(_recursive_set_partitions(n, q)))


def test_set_partitions_need_no_recursion():
    # the recursive enumerator raised RecursionError here
    first = next(_disjoint_families(1500, 2, 1500, 1500))
    assert first == [tuple(range(1, 1500)), (1500,)]
