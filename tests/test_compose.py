import tracemalloc
from collections import namedtuple
from itertools import product

import pytest

import fairsplit.compose as compose_module
from fairsplit.compose import compose, power_of_two_splitting
from fairsplit.errors import Budget, ContractError, InputError, ResourceBudget
from fairsplit.graphs import (Graph, VertexPartition, consecutive_partition,
                              power_path, single_block_partition)
from fairsplit.solver import (DEFAULT_NODE_BUDGET, SearchOutcome, SearchProblem,
                              find_splitting)
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


def _lie_with(monkeypatch, splitting):
    """Make the solver that compose calls report `splitting` as found."""
    monkeypatch.setattr(compose_module, "find_splitting",
                        lambda problem: SearchOutcome("found", splitting))


def test_base_splitter_contract():
    part = consecutive_partition([4, 5])
    splitting, _ = compose(9, part, [(2, 2)])
    spec = SplittingSpec(q=2, flavor="almost_fair", stability=2)
    assert check_splitting(power_path(9, 1), part, splitting, spec).ok


def test_base_splitter_failure_is_contract_error():
    # distance-3 sets of size 8 need a span of 22 > 17 labels
    with pytest.raises(ContractError):
        compose(17, consecutive_partition([17]), [(2, 3)])


def test_compose_two_by_two():
    part = consecutive_partition([7, 8])
    splitting, last = compose(15, part, [(2, 2), (2, 2)])
    spec = SplittingSpec(q=4, flavor="almost_fair", stability=4)
    cert = check_splitting(power_path(15, 3), part, splitting, spec)
    assert cert.ok
    assert len(splitting.sets) == 4
    # the returned certificate is the last level's check, on the edgeless
    # graph with the label gap
    assert last.to_json() == check_splitting(Graph(15, ()), part, splitting,
                                             spec).to_json()


def test_compose_identity_inner():
    # a later level with q = 1 keeps the sets of the level before
    part = consecutive_partition([5, 6])
    splitting, _ = compose(11, part, [(2, 2), (1, 1)])
    assert splitting.sets == compose(11, part, [(2, 2)])[0].sets


def test_compose_block_size_validation():
    with pytest.raises(InputError):
        compose(5, consecutive_partition([2, 3]), [(2, 2), (2, 2)])


def test_compose_rejects_lying_outer(monkeypatch):
    # a level 1 "splitting" with adjacent vertices in one set
    _lie_with(monkeypatch, Splitting([(1, 2), (4, 6)]))
    with pytest.raises(ContractError) as err:
        compose(7, consecutive_partition([7]), [(2, 2), (2, 2)])
    assert "level 1 violated its contract" in str(err.value)


def test_compose_rejects_outer_missing_a_block(monkeypatch):
    # stable and disjoint, but one set never touches the second block
    _lie_with(monkeypatch, Splitting([(1, 3, 5, 7), (2, 4, 6, 9)]))
    with pytest.raises(ContractError) as err:
        compose(10, consecutive_partition([7, 3]), [(2, 2), (2, 2)])
    assert "level 1 violated its contract" in str(err.value)


def test_power_of_two_t1_matches_base():
    part = consecutive_partition([4, 5])
    assert power_of_two_splitting(9, part, 1) == _base(2, 2).run(9, part)


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


# ---------------------------------------------------------------------------
# the outer/inner composition of pluggable splitters that the level loop
# replaced, as a reference


_Splitter = namedtuple("_Splitter", "q stability run")


def _reverify(stage, n, partition, splitting, q, stability):
    spec = SplittingSpec(q=q, flavor="almost_fair", stability=stability)
    cert = check_splitting(Graph(n, ()), partition, splitting, spec)
    if not cert.ok:
        raise ContractError("%s violated its contract: %s" % (stage, cert.to_json()))


def _base(q, s, budget=None):
    """The solver as a splitter of paths.  Every run spends its nodes from
    the Budget `budget` (one of its own when None)."""
    if budget is None:
        budget = Budget(DEFAULT_NODE_BUDGET, "base splitter")

    def run(n, partition):
        spec = SplittingSpec(q=q, flavor="almost_fair", stability=s)
        out = find_splitting(SearchProblem(partition=partition, spec=spec,
                                           graph=Graph(n, ()),
                                           budget=budget.left))
        budget.spend(out.nodes)
        if out.status == "budget_exceeded":
            raise ResourceBudget("base splitter ran out of its budget")
        if out.status != "found":
            raise ContractError("base splitter could not split the path")
        return out.splitting

    return _Splitter(q, s, run)


def _compose_reference(n, partition, outer, inner):
    """Split the path with `outer`, then each returned set, as a shorter
    path in traversal order, with `inner` (an inner q of 1 keeps the set);
    every run is re-verified, and the composition once more."""
    q = outer.q * inner.q
    if any(len(b) < q - 1 for b in partition.blocks):
        raise InputError("every block needs at least q1*q2 - 1 vertices")
    top = outer.run(n, partition)
    _reverify("outer splitter", n, partition, top, outer.q, outer.stability)
    final = []
    for big in top.sets:
        if inner.q == 1:
            final.append(big)
            continue
        ordered = sorted(big)
        pos = {v: i + 1 for i, v in enumerate(ordered)}
        sub_partition = VertexPartition(
            [[pos[v] for v in b if v in pos] for b in partition.blocks],
            len(ordered))
        small = inner.run(len(ordered), sub_partition)
        _reverify("inner splitter", len(ordered), sub_partition, small,
                  inner.q, inner.stability)
        final += [tuple(ordered[i - 1] for i in piece) for piece in small.sets]
    splitting = Splitting(final)
    stability = inner.stability * outer.stability
    _reverify("composition", n, partition, splitting, q, stability)
    return splitting, stability


def _power_of_two_reference(n, partition, t):
    """The nested composition: level t composes the splitter of level t - 1
    with the q=2 base."""
    base = _base(2, 2)
    if t == 1:
        splitting = base.run(n, partition)
        _reverify("base splitter", n, partition, splitting, 2, 2)
        return splitting

    def make_runner(level):
        if level == 1:
            return base

        def run(nn, pp):
            return _compose_reference(nn, pp, make_runner(level - 1), base)[0]

        return _Splitter(2 ** level, 2 ** level, run)

    splitting, stability = _compose_reference(n, partition,
                                              make_runner(t - 1), base)
    assert stability == 2 ** t
    return splitting


def _outcome(fn, *args):
    """fn(*args)'s sets, or the type of the error it raised."""
    try:
        got = fn(*args)
    except (InputError, ContractError, ResourceBudget) as e:
        return type(e)
    return (got[0] if isinstance(got, tuple) else got).sets


@pytest.mark.parametrize("budget", [0, 3, DEFAULT_NODE_BUDGET])
def test_two_levels_match_the_outer_inner_composition(budget):
    # every (q1, s1, q2, s2) in 1..3 on four block shapes: the same sets or
    # the same error, including an outer q1 = 1 (searched, so a zero budget
    # runs out) and an inner q2 = 1 (the sets pass through)
    shapes = [[5], [9], [4, 6], [3, 3, 4]]
    for q1, s1, q2, s2 in product(range(1, 4), repeat=4):
        for sizes in shapes:
            part = consecutive_partition(sizes)
            n = sum(sizes)
            got = _outcome(compose, n, part, [(q1, s1), (q2, s2)], budget)
            pool = Budget(budget, "pool")  # the outer and inner runs share it
            want = _outcome(_compose_reference, n, part,
                            _base(q1, s1, pool), _base(q2, s2, pool))
            assert got == want, (q1, s1, q2, s2, sizes)


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
            got, _ = compose(n, part, [(q, s)])
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
