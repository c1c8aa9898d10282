import tracemalloc

import pytest

from fairsplit.compose import (SplitterSpec, _reverify, compose,
                               power_of_two_splitting, solver_base_splitter)
from fairsplit.errors import ContractError, InputError
from fairsplit.graphs import (VertexPartition, consecutive_partition, power_path,
                              single_block_partition)
from fairsplit.solver import SearchProblem, find_splitting
from fairsplit.splitting import Splitting, SplittingSpec, check_splitting


def floor_identity_check(a, b, c):
    """floor(floor(a/b)/c) == floor(a/(b*c)) for integers a >= 0, b, c >= 1:
    the fact that chains the per-block quotas of a composition."""
    if b < 1 or c < 1 or a < 0:
        raise InputError("need a >= 0 and b, c >= 1")
    return (a // b) // c == a // (b * c)


def test_floor_identity_exhaustive():
    for a in range(0, 501):
        for b in range(1, 11):
            for c in range(1, 11):
                assert floor_identity_check(a, b, c)
    with pytest.raises(InputError):
        floor_identity_check(-1, 2, 2)
    with pytest.raises(InputError):
        floor_identity_check(5, 0, 2)


def test_base_splitter_contract():
    base = solver_base_splitter(2, 2)
    part = consecutive_partition([4, 5])
    splitting = base.run(9, part)
    spec = base.claimed_spec()
    assert spec.q == 2 and spec.stability == 2
    assert check_splitting(power_path(9, 1), part, splitting, spec).ok


def test_base_splitter_failure_is_contract_error():
    # distance-3 sets of size 8 need a span of 22 > 17 labels
    base = solver_base_splitter(2, 3)
    with pytest.raises(ContractError):
        base.run(17, consecutive_partition([17]))


def test_compose_two_by_two():
    part = consecutive_partition([7, 8])
    base = solver_base_splitter(2, 2)
    splitting, stability = compose(15, part, base, base)
    assert stability == 4
    spec = SplittingSpec(q=4, flavor="almost_fair", stability=4)
    cert = check_splitting(power_path(15, 3), part, splitting, spec)
    assert cert.ok
    assert len(splitting.sets) == 4


def test_compose_identity_inner():
    part = consecutive_partition([5, 6])
    base = solver_base_splitter(2, 2)
    ident = SplitterSpec(q=1, stability=1,
                         run=lambda n, p: Splitting([tuple(range(1, n + 1))]))
    splitting, stability = compose(11, part, base, ident)
    assert stability == 2
    got = base.run(11, part)
    assert splitting.sets == got.sets


def test_compose_weak_outer_stability_formula():
    # outer guarantees only weak 3-stability: composed stability is
    # (s2 - 1)(w - 1) + 1, not s2 * s1
    windows = Splitting([(1, 4, 7), (2, 5), (3, 6)])
    weak_outer = SplitterSpec(q=3, stability=3, run=lambda n, p: windows,
                              weak_stability=3)
    base = solver_base_splitter(2, 2)
    part = consecutive_partition([7])
    splitting, stability = compose(7, part, weak_outer, base)
    assert stability == (2 - 1) * (3 - 1) + 1 == 3
    spec = SplittingSpec(q=6, flavor="almost_fair", stability=3)
    assert check_splitting(power_path(7, 2), part, splitting, spec).ok


def test_compose_block_size_validation():
    base = solver_base_splitter(2, 2)
    with pytest.raises(InputError):
        compose(5, consecutive_partition([2, 3]), base, base)


def test_compose_rejects_lying_outer():
    # an "outer splitter" that returns adjacent vertices in one set
    liar = SplitterSpec(q=2, stability=2,
                        run=lambda n, p: Splitting([(1, 2), (4, 6)]))
    base = solver_base_splitter(2, 2)
    with pytest.raises(ContractError) as err:
        compose(7, consecutive_partition([7]), liar, base)
    assert "outer splitter" in str(err.value)


def test_compose_rejects_outer_missing_a_block():
    # stable and disjoint, but one set never touches the second block
    def run(n, p):
        return Splitting([(1, 3, 5, 7), (2, 4, 6, 9)])

    sneaky = SplitterSpec(q=2, stability=2, run=run)
    base = solver_base_splitter(2, 2)
    part = consecutive_partition([7, 3])
    with pytest.raises(ContractError) as err:
        compose(10, part, sneaky, base)
    assert "outer splitter" in str(err.value)


def test_power_of_two_t1_matches_base():
    part = consecutive_partition([4, 5])
    got = power_of_two_splitting(9, part, 1)
    want = solver_base_splitter(2, 2).run(9, part)
    assert got.sets == want.sets


def test_power_of_two_t2():
    part = consecutive_partition([7, 8])
    splitting = power_of_two_splitting(15, part, 2)
    spec = SplittingSpec(q=4, flavor="almost_fair", stability=4)
    assert check_splitting(power_path(15, 3), part, splitting, spec).ok
    quotas = [(len(b) + 1) // 4 - 1 for b in part.blocks]
    for s in splitting.sets:
        for j, b in enumerate(part.blocks):
            assert len(set(s) & set(b)) >= quotas[j]


def test_power_of_two_validation():
    with pytest.raises(InputError):
        power_of_two_splitting(9, consecutive_partition([4, 5]), 0)
    with pytest.raises(InputError):
        # block of size 2 < 2^2 - 1
        power_of_two_splitting(6, consecutive_partition([2, 4]), 2)
    assert len(power_of_two_splitting(6, consecutive_partition([3, 3]), 2).sets) == 4
    # a huge t is refused from the blocks' bit lengths, without building 2^t
    tracemalloc.start()
    try:
        with pytest.raises(InputError):
            power_of_two_splitting(6, consecutive_partition([3, 3]), 10 ** 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_power_of_two_single_block():
    part = VertexPartition([tuple(range(1, 16))], 15)
    splitting = power_of_two_splitting(15, part, 2)
    spec = SplittingSpec(q=4, flavor="almost_fair", stability=4)
    assert check_splitting(power_path(15, 3), part, splitting, spec).ok


def _compose_reference(n, partition, outer, inner):
    """compose before its per-set loop moved into _split_sets, for strong
    outer stability."""
    q = outer.q * inner.q
    top = outer.run(n, partition)
    _reverify("outer splitter", n, partition, top, outer.claimed_spec())
    final = []
    for big in top.sets:
        ordered = sorted(big)
        pos = {v: i + 1 for i, v in enumerate(ordered)}
        sub_partition = VertexPartition(
            [[pos[v] for v in b if v in pos] for b in partition.blocks],
            len(ordered))
        small = inner.run(len(ordered), sub_partition)
        _reverify("inner splitter", len(ordered), sub_partition, small,
                  inner.claimed_spec())
        final += [tuple(ordered[i - 1] for i in piece) for piece in small.sets]
    splitting = Splitting(final)
    stability = inner.stability * outer.stability
    spec = SplittingSpec(q=q, flavor="almost_fair", stability=stability)
    _reverify("composition", n, partition, splitting, spec)
    return splitting, stability


def _power_of_two_reference(n, partition, t):
    """The nested composition that power_of_two_splitting's loop replaced:
    level t composes the splitter of level t - 1 with the q=2 base."""
    base = solver_base_splitter(2, 2)
    if t == 1:
        splitting = base.run(n, partition)
        _reverify("base splitter", n, partition, splitting, base.claimed_spec())
        return splitting

    def make_runner(level):
        if level == 1:
            return base

        def run(nn, pp):
            return _compose_reference(nn, pp, make_runner(level - 1), base)[0]

        return SplitterSpec(q=2 ** level, stability=2 ** level, run=run)

    splitting, stability = _compose_reference(n, partition,
                                              make_runner(t - 1), base)
    assert stability == 2 ** t
    return splitting


@pytest.mark.parametrize("t", [1, 2, 3])
def test_power_of_two_loop_matches_nested_composition(t):
    shapes = [[2 ** t - 1], [2 ** t + 2], [2 ** t - 1, 2 ** t + 3],
              [2 ** t + 1, 2 ** t, 2 ** t + 5]]
    for sizes in shapes:
        part = consecutive_partition(sizes)
        n = sum(sizes)
        got = power_of_two_splitting(n, part, t)
        assert got.sets == _power_of_two_reference(n, part, t).sets, sizes
    # interleaved blocks, so every set meets each block in scattered labels
    n = 3 * 2 ** t
    part = VertexPartition([range(1, n + 1, 3), range(2, n + 1, 3),
                            range(3, n + 1, 3)], n)
    assert (power_of_two_splitting(n, part, t).sets
            == _power_of_two_reference(n, part, t).sets)


@pytest.mark.parametrize("q,s", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 2)])
def test_base_splitter_matches_the_power_path_search(q, s):
    # the label gap s on the edgeless graph kills the same later positions
    # as the edges of the (s-1)-th path power, so the search finds the same
    # first splitting
    for sizes in ([3 * q * s], [q * s, q * s + 3], [2 * q, 3 * q + 1, q * s]):
        part = consecutive_partition(sizes)
        n = sum(sizes)
        spec = SplittingSpec(q=q, flavor="almost_fair", stability=s)
        want = find_splitting(SearchProblem(partition=part, spec=spec,
                                            graph=power_path(n, s - 1)))
        try:
            got = solver_base_splitter(q, s).run(n, part)
        except ContractError:
            assert want.status == "exhausted_none", sizes
            continue
        assert want.status == "found" and got == want.splitting, sizes


def test_power_of_two_builds_no_path_power():
    # level 10's 1024-stable check on 1,023 vertices through the path's
    # 1,023rd power (522,753 edges) peaked at 146 MB under tracemalloc; with
    # the label gap the whole run peaks near 1.1 MB
    part = single_block_partition(1023)
    tracemalloc.start()
    try:
        splitting = power_of_two_splitting(1023, part, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(splitting.sets) == 1024
    assert peak < 8 * 2 ** 20, peak
