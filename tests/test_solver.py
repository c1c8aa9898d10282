import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import brute_verdict
from fairsplit.complexes import independence_complex
from fairsplit.errors import InputError, ResourceBudget
from fairsplit.geometry import gale_alternating, stretched_moment_points
from fairsplit.graphs import (Graph, VertexPartition, cycle_graph, is_independent,
                              matching_graph, path_graph)
from fairsplit.solver import SearchProblem, enumerate_splittings, find_splitting
from fairsplit.splitting import SplittingSpec, check_splitting

# ---------------------------------------------------------------------------
# brute-force oracle: enumerate every family of q disjoint candidate sets by
# bitmask and keep the ones the certificate accepts


def _candidate_masks(g, stability):
    masks = []
    for m in range(1 << g.n):
        vs = [v for v in range(1, g.n + 1) if m >> (v - 1) & 1]
        if not is_independent(g, vs):
            continue
        if stability >= 2 and any(b - a < stability for a, b in zip(vs, vs[1:])):
            continue
        masks.append((m, tuple(vs)))
    return masks


def _brute_families(g, partition, spec, caps=None, first_only=False):
    """Canonical (sorted multiset) families accepted by the certificate."""
    cands = _candidate_masks(g, spec.stability)
    found = set()

    def leaf(sets):
        if caps is not None:
            for s in sets:
                for j, block in enumerate(partition.blocks):
                    if len([v for v in s if v in block]) > caps[j]:
                        return False
        if not check_splitting(g, partition, list(sets), spec).ok:
            return False
        found.add(tuple(sorted(sets)))
        return True

    def rec(i, used, sets):
        if i == spec.q:
            hit = leaf(tuple(sets))
            return hit and first_only
        for m, vs in cands:
            if m & used:
                continue
            sets.append(vs)
            if rec(i + 1, used | m, sets):
                return True
            sets.pop()
        return False

    rec(0, 0, [])
    return found


def _random_graph(n, p, rng):
    edges = [(u, v) for u, v in combinations(range(1, n + 1), 2)
             if rng.random() < p]
    return Graph(n, edges)


def _random_partition(n, m, rng):
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    cuts = sorted(rng.sample(range(1, n), m - 1)) if m > 1 else []
    blocks, prev = [], 0
    for c in cuts + [n]:
        blocks.append(tuple(sorted(labels[prev:c])))
        prev = c
    return VertexPartition(blocks, n)


# ---------------------------------------------------------------------------
# pinned instances


def test_six_cycle_balanced_split():
    g = cycle_graph(6)
    part = VertexPartition([(1, 2, 3), (4, 5, 6)], 6)
    spec = SplittingSpec(q=2, flavor="almost_fair", balanced=True)
    out = find_splitting(SearchProblem(partition=part, spec=spec, graph=g,
                                       caps=[1, 1]))
    assert out.status == "found"
    assert out.certificate.ok
    for counts in out.certificate.counts:
        assert counts == [1, 1]


def test_two_triangles_refuted():
    g = Graph(8, [(i, i + 1) for i in range(1, 8)] + [(1, 3), (4, 6)])
    part = VertexPartition([(1, 2, 3, 4, 5, 6), (7, 8)], 8)
    spec = SplittingSpec(q=2, flavor="almost_fair")
    out = find_splitting(SearchProblem(partition=part, spec=spec, graph=g,
                                       caps=[3, 1]))
    assert out.status == "exhausted_none"
    assert out.splitting is None and out.nodes > 0


def test_outcome_json_shape():
    g = path_graph(4)
    part = VertexPartition([(1, 2, 3, 4)], 4)
    out = find_splitting(SearchProblem(
        partition=part, spec=SplittingSpec(q=2, flavor="almost_fair"), graph=g))
    doc = out.to_json()
    assert doc["schema"] == "outcome/1" and doc["status"] == "found"
    assert "elapsed" not in doc


# ---------------------------------------------------------------------------
# oracle comparisons


def test_matches_brute_force_q2():
    rng = random.Random(21)
    for _ in range(18):
        n = rng.randint(3, 7)
        g = _random_graph(n, rng.uniform(0.2, 0.6), rng)
        part = _random_partition(n, rng.randint(1, min(3, n)), rng)
        flavor = rng.choice(["fair", "almost_fair"])
        spec = SplittingSpec(q=2, flavor=flavor,
                             balanced=rng.random() < 0.4)
        want = bool(_brute_families(g, part, spec, first_only=True))
        out = find_splitting(SearchProblem(partition=part, spec=spec, graph=g))
        assert (out.status == "found") == want, (g.edges, part.blocks, spec)
        if want:
            assert out.certificate.ok


def test_matches_brute_force_q3():
    rng = random.Random(22)
    for _ in range(8):
        n = rng.randint(4, 6)
        g = _random_graph(n, rng.uniform(0.2, 0.5), rng)
        part = _random_partition(n, rng.randint(1, 2), rng)
        spec = SplittingSpec(q=3, flavor="almost_fair")
        want = bool(_brute_families(g, part, spec, first_only=True))
        out = find_splitting(SearchProblem(partition=part, spec=spec, graph=g))
        assert (out.status == "found") == want, (g.edges, part.blocks)


def test_enumeration_matches_brute_count():
    rng = random.Random(23)
    for _ in range(8):
        n = rng.randint(3, 6)
        g = _random_graph(n, rng.uniform(0.2, 0.5), rng)
        part = _random_partition(n, rng.randint(1, 2), rng)
        spec = SplittingSpec(q=2, flavor="fair")
        want = _brute_families(g, part, spec)
        got = enumerate_splittings(
            SearchProblem(partition=part, spec=spec, graph=g), limit=10 ** 6)
        families = {tuple(sorted(o.splitting.sets)) for o in got}
        assert len(got) == len(families) == len(want)
        assert families == want


def test_enumeration_with_caps_matches_brute():
    g = cycle_graph(6)
    part = VertexPartition([(1, 2, 3), (4, 5, 6)], 6)
    spec = SplittingSpec(q=2, flavor="almost_fair", balanced=True)
    caps = [1, 1]
    want = _brute_families(g, part, spec, caps=caps)
    got = enumerate_splittings(
        SearchProblem(partition=part, spec=spec, graph=g, caps=caps), limit=10 ** 6)
    families = {tuple(sorted(o.splitting.sets)) for o in got}
    assert families == want
    assert len(got) == len(want) == 11
    # without caps or the balance requirement the family count grows to 16
    loose = SplittingSpec(q=2, flavor="almost_fair")
    want = _brute_families(g, part, loose)
    got = enumerate_splittings(
        SearchProblem(partition=part, spec=loose, graph=g), limit=10 ** 6)
    assert len(got) == len(want) == 16


def test_enumeration_limit_and_validation():
    g = path_graph(5)
    part = VertexPartition([(1, 2, 3, 4, 5)], 5)
    spec = SplittingSpec(q=2, flavor="almost_fair")
    probe = SearchProblem(partition=part, spec=spec, graph=g)
    assert enumerate_splittings(probe, limit=0) == []
    assert len(enumerate_splittings(probe, limit=3)) == 3
    with pytest.raises(InputError):
        enumerate_splittings(probe, limit=-1)


# ---------------------------------------------------------------------------
# symmetry and invariance


def test_block_order_invariance():
    g = cycle_graph(8)
    a = VertexPartition([(1, 2, 3, 4), (5, 6, 7, 8)], 8)
    b = VertexPartition([(5, 6, 7, 8), (1, 2, 3, 4)], 8)
    spec = SplittingSpec(q=2, flavor="fair")
    out_a = find_splitting(SearchProblem(partition=a, spec=spec, graph=g))
    out_b = find_splitting(SearchProblem(partition=b, spec=spec, graph=g))
    assert out_a.status == out_b.status == "found"


def test_witness_survives_set_reordering():
    g = cycle_graph(6)
    part = VertexPartition([(1, 2, 3), (4, 5, 6)], 6)
    spec = SplittingSpec(q=2, flavor="almost_fair", balanced=True)
    out = find_splitting(SearchProblem(partition=part, spec=spec, graph=g))
    swapped = list(reversed(out.splitting.sets))
    assert check_splitting(g, part, swapped, spec).ok


# ---------------------------------------------------------------------------
# transversals


def _transversal(g, part, q):
    spec = SplittingSpec(q=q, flavor="transversal")
    return find_splitting(SearchProblem(partition=part, spec=spec, graph=g))


def test_transversal_on_matching():
    g = matching_graph(11)
    part = VertexPartition([tuple(range(1, 6)), tuple(range(6, 12))], 11)
    out = _transversal(g, part, q=3)
    assert out.status == "found"
    for counts in out.certificate.counts:
        assert all(c >= 1 for c in counts)


def test_transversal_single_block_complete_graph():
    g = Graph(3, [(1, 2), (1, 3), (2, 3)])
    part = VertexPartition([(1, 2, 3)], 3)
    out = _transversal(g, part, q=3)
    assert out.status == "found"
    assert sorted(s[0] for s in out.splitting.sets) == [1, 2, 3]


def test_transversal_pigeonhole_refutation():
    # a singleton block cannot meet two disjoint sets
    g = Graph(4, [(1, 2), (1, 3), (1, 4)])
    part = VertexPartition([(1,), (2, 3, 4)], 4)
    out = _transversal(g, part, q=2)
    assert out.status == "exhausted_none"


# ---------------------------------------------------------------------------
# stability, hosts, geometry, degenerate q


def test_stability_constraint():
    g = Graph(7, [])
    part = VertexPartition([tuple(range(1, 8))], 7)
    spec = SplittingSpec(q=2, flavor="almost_fair", stability=2)
    out = find_splitting(SearchProblem(partition=part, spec=spec, graph=g))
    assert out.status == "found"
    for s in out.splitting.sets:
        assert all(b - a >= 2 for a, b in zip(s, s[1:]))
    # distance 3 leaves at most one set of the required size
    tight = SplittingSpec(q=2, flavor="almost_fair", stability=3)
    out = find_splitting(SearchProblem(partition=part, spec=tight, graph=g))
    assert out.status == "exhausted_none"


def test_host_complex_matches_graph():
    rng = random.Random(24)
    for _ in range(6):
        n = rng.randint(3, 6)
        g = _random_graph(n, 0.4, rng)
        part = _random_partition(n, rng.randint(1, 2), rng)
        spec = SplittingSpec(q=2, flavor="almost_fair")
        via_graph = find_splitting(SearchProblem(partition=part, spec=spec, graph=g))
        via_host = find_splitting(SearchProblem(partition=part, spec=spec,
                                                host=independence_complex(g)))
        assert via_graph.status == via_host.status


def test_geometric_radon_split():
    cfg = stretched_moment_points(4, d=1)
    g = Graph(4, [])
    part = VertexPartition([(1, 2, 3, 4)], 4)
    spec = SplittingSpec(q=2, flavor="almost_fair")
    out = find_splitting(SearchProblem(
        partition=part, spec=spec, graph=g, mode="geometric", points=cfg))
    assert out.status == "found"
    assert out.common_point is not None
    s1, s2 = out.splitting.sets
    assert gale_alternating(s1, s2)
    doc = out.to_json()
    assert all(len(pair) == 2 for pair in doc["common_point"])


def test_geometric_mode_validation():
    g = Graph(3, [])
    part = VertexPartition([(1, 2, 3)], 3)
    spec = SplittingSpec(q=2, flavor="almost_fair")
    with pytest.raises(InputError):
        SearchProblem(partition=part, spec=spec, graph=g, mode="geometric")
    cfg = stretched_moment_points(3, d=1)
    # geometric mode caps every block at |V_j| // q unless told otherwise
    problem = SearchProblem(partition=part, spec=spec, graph=g,
                            mode="geometric", points=cfg)
    assert problem.caps == [1]
    problem = SearchProblem(partition=part, spec=spec, graph=g,
                            mode="geometric", points=cfg, caps=[2])
    assert problem.caps == [2]
    assert SearchProblem(partition=part, spec=spec, graph=g).caps is None
    with pytest.raises(InputError):
        SearchProblem(partition=part, spec=spec, graph=g, mode="geometric",
                      points=cfg, caps=[1, 1])


def test_q1_degenerate():
    part = VertexPartition([(1, 2, 3)], 3)
    spec = SplittingSpec(q=1, flavor="fair")
    out = find_splitting(SearchProblem(partition=part, spec=spec, graph=Graph(3, [])))
    assert out.status == "found" and out.splitting.sets == [(1, 2, 3)]
    out = find_splitting(SearchProblem(partition=part, spec=spec, graph=path_graph(3)))
    assert out.status == "exhausted_none"


def test_problem_validation():
    part = VertexPartition([(1, 2)], 2)
    spec = SplittingSpec(q=2, flavor="fair")
    with pytest.raises(InputError):
        SearchProblem(partition=part, spec=spec)  # no graph, no host
    with pytest.raises(InputError):
        SearchProblem(partition=part, spec=spec, graph=path_graph(3))
    with pytest.raises(InputError):
        SearchProblem(partition=part, spec=spec, graph=path_graph(2),
                      caps=[1, 1])  # one cap per block
    with pytest.raises(InputError):
        SearchProblem(partition=part, spec=spec, graph=path_graph(2),
                      mode="mystery")


def test_budget_is_reported_not_silent():
    g = cycle_graph(12)
    part = VertexPartition([tuple(range(1, 13))], 12)
    spec = SplittingSpec(q=3, flavor="almost_fair")
    out = find_splitting(SearchProblem(partition=part, spec=spec, graph=g, budget=5))
    assert out.status == "budget_exceeded"
    assert out.splitting is None
    with pytest.raises(ResourceBudget):
        enumerate_splittings(SearchProblem(partition=part, spec=spec, graph=g,
                                           budget=5), limit=100)


@pytest.mark.parametrize("seed,status", [(31, "found"), (22, "exhausted_none")])
def test_budget_bounds_the_whole_search(seed, status):
    # one node counter for the whole tree: a run finishes exactly when the
    # budget covers the unbounded run's nodes, never visits more than the
    # budget, and every run that finds returns the same witness
    rng = random.Random(seed)
    g = _random_graph(18, 0.25, rng)
    part = _random_partition(18, 3, rng)
    spec = SplittingSpec(q=3, flavor="fair")

    def solve(budget):
        return find_splitting(SearchProblem(partition=part, spec=spec, graph=g,
                                            budget=budget))

    full = solve(10 ** 6)
    assert full.status == status and full.nodes > 100
    total = full.nodes
    for budget in sorted({0, 1, 2, 5, 50, total // 2, total - 1, total, total + 1}
                         | set(range(3, total + 60, 41))):
        out = solve(budget)
        assert out.nodes <= budget
        if budget < total:
            assert out.status == "budget_exceeded" and out.nodes == budget
            assert out.splitting is None
        else:
            assert out.status == status and out.nodes == total
            assert out.splitting == full.splitting


@st.composite
def _small_instances(draw):
    n = draw(st.integers(1, 9))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    labels = draw(st.permutations(range(1, n + 1)))
    m = draw(st.integers(1, min(3, n)))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=m - 1,
                                max_size=m - 1, unique=True))) if m > 1 else []
    bounds = [0] + cuts + [n]
    part = VertexPartition([labels[a:b] for a, b in zip(bounds, bounds[1:])], n)
    spec = SplittingSpec(q=draw(st.integers(2, 3)),
                         flavor=draw(st.sampled_from(["fair", "almost_fair",
                                                      "transversal"])),
                         balanced=draw(st.booleans()),
                         stability=draw(st.integers(1, 2)))
    return Graph(n, edges), part, spec


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_small_instances())
def test_verdict_matches_brute_force_property(instance):
    # guards the forward checking: a prune that cuts a solution shows up as
    # a verdict the brute-force oracle contradicts
    g, part, spec = instance
    out = find_splitting(SearchProblem(partition=part, spec=spec, graph=g))
    assert (out.status == "found") == brute_verdict(g, part, spec)
    if out.status == "found":
        assert check_splitting(g, part, out.splitting, spec).ok
