import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import brute_verdict
from shared import covered
import fairsplit.solver as solver_module
from fairsplit.errors import InputError, ResourceBudget
from fairsplit.geometry import gale_alternating, stretched_moment_points
from fairsplit.graphs import (Graph, VertexPartition, cycle_graph, is_independent,
                              matching_graph, path_graph, single_block_partition)
from fairsplit.solver import (SearchProblem, _Ctx, _leaf, _search,
                             enumerate_splittings, find_splitting)
from fairsplit.splitting import Splitting, SplittingSpec, check_splitting

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
        if not check_splitting(g, partition, Splitting(sets), spec).ok:
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


def test_every_answer_is_held_to_its_caps(monkeypatch):
    # both entry points certify through one step: a second answer over its
    # cap fails enumeration as the first one fails find_splitting
    part = VertexPartition([(1, 2, 3)], 3)
    problem = SearchProblem(partition=part, spec=SplittingSpec(q=2, flavor="fair"),
                            graph=Graph(3, ()), caps=[1])
    answers = [(((1,), (2,)), None), (((1, 3), (2,)), None)]  # the last is over
    monkeypatch.setattr(solver_module, "_search", lambda problem, limit:
                        ("found", answers[-limit:], 1))
    with pytest.raises(AssertionError):
        find_splitting(problem)
    with pytest.raises(AssertionError):
        enumerate_splittings(problem, limit=2)


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
    assert check_splitting(g, part, Splitting(swapped), spec).ok


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
# stability, geometry, degenerate q


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


def test_geometric_radon_split():
    cfg = stretched_moment_points(4, d=1)
    g = Graph(4, [])
    part = VertexPartition([(1, 2, 3, 4)], 4)
    spec = SplittingSpec(q=2, flavor="almost_fair")
    out = find_splitting(SearchProblem(
        partition=part, spec=spec, graph=g, points=cfg))
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
    with pytest.raises(InputError):  # a point for every vertex label
        SearchProblem(partition=part, spec=spec, graph=g,
                      points=stretched_moment_points(2, d=1))
    cfg = stretched_moment_points(3, d=1)
    # a search with points caps every block at |V_j| // q unless told otherwise
    problem = SearchProblem(partition=part, spec=spec, graph=g, points=cfg)
    assert problem.caps == [1]
    problem = SearchProblem(partition=part, spec=spec, graph=g,
                            points=cfg, caps=[2])
    assert problem.caps == [2]
    assert SearchProblem(partition=part, spec=spec, graph=g).caps is None
    with pytest.raises(InputError):
        SearchProblem(partition=part, spec=spec, graph=g,
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
    with pytest.raises(TypeError):
        SearchProblem(partition=part, spec=spec)  # the graph is required
    with pytest.raises(InputError):
        SearchProblem(partition=part, spec=spec, graph=path_graph(3))
    with pytest.raises(InputError):
        SearchProblem(partition=part, spec=spec, graph=path_graph(2),
                      caps=[1, 1])  # one cap per block
    with pytest.raises(TypeError):  # points alone make a search geometric
        SearchProblem(partition=part, spec=spec, graph=path_graph(2),
                      mode="geometric")


def test_negative_caps_and_budgets_are_input_errors():
    # a negative cap would turn a malformed request into a claimed proven
    # negative, and a negative budget cannot be reported exactly
    part = VertexPartition([(1, 2), (3, 4)], 4)
    spec = SplittingSpec(q=2, flavor="almost_fair")
    with pytest.raises(InputError):
        SearchProblem(partition=part, spec=spec, graph=path_graph(4), caps=[-1, 1])
    with pytest.raises(InputError):
        SearchProblem(partition=part, spec=spec, graph=path_graph(4), budget=-5)
    # zero is a legal cap and a legal budget
    out = find_splitting(SearchProblem(partition=part, spec=spec,
                                       graph=path_graph(4), budget=0))
    assert out.status == "budget_exceeded" and out.nodes == 0
    lone = VertexPartition([(1,), (2, 3, 4)], 4)
    out = find_splitting(SearchProblem(partition=lone, spec=spec,
                                       graph=path_graph(4), caps=[0, 2]))
    assert out.status == "found" and 1 not in covered(out.splitting)


def test_touch_tables_name_each_block_once():
    # the hub of a star has a later neighbour in every block: its table
    # lists each of the 20,000 blocks once, and once only when leaves share one
    n = 20001
    star = Graph(n, [(1, v) for v in range(2, n + 1)])
    spec = SplittingSpec(q=2, flavor="almost_fair")
    single = VertexPartition([(v,) for v in range(1, n + 1)], n)
    ctx = _Ctx(SearchProblem(partition=single, spec=spec, graph=star))
    assert sorted(ctx.touch[0]) == list(range(1, n))
    assert not any(ctx.touch[1:])
    n = 401
    star = Graph(n, [(1, v) for v in range(2, n + 1)])
    halves = VertexPartition([range(1, n + 1, 2), range(2, n + 1, 2)], n)
    problem = SearchProblem(partition=halves, spec=spec, graph=star)
    assert sorted(_Ctx(problem).touch[0]) == [0, 1]
    assert find_splitting(problem).status == "found"
    # an edge and the stability window both reach the next position
    pairs = VertexPartition([(1, 2), (3, 4), (5, 6)], 6)
    stable = SplittingSpec(q=2, flavor="almost_fair", stability=3)
    ctx = _Ctx(SearchProblem(partition=pairs, spec=stable, graph=path_graph(6)))
    assert ctx.touch == [[0, 1], [1], [1, 2], [2], [2], []]


def test_search_tables_are_held_to_the_memory_limit(monkeypatch):
    # two n-bit tables per position, n^2 / 4 bytes: 2,500 on 100 positions
    problem = SearchProblem(partition=single_block_partition(100),
                            spec=SplittingSpec(q=2), graph=path_graph(100))
    monkeypatch.setattr(solver_module, "MEMORY_LIMIT", 2500)
    assert find_splitting(problem).status == "found"
    monkeypatch.setattr(solver_module, "MEMORY_LIMIT", 2499)
    with pytest.raises(ResourceBudget, match="memory limit of 2499"):
        find_splitting(problem)


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


# ---------------------------------------------------------------------------
# differential test of the search loop against its earlier form, which keeps
# the set-admission and forward-checking helpers as separate functions


def _reference_balance_ok(sizes, i, rest):
    """Can the size spread still end within 1 after set i grows by one?"""
    hi = lo = sizes[i] + 1
    for x, s in enumerate(sizes):
        if x != i:
            if s > hi:
                hi = s
            if s < lo:
                lo = s
    return hi - (lo + rest) <= 1


def _reference_starved(cand, counts, blocks, mins, block_mask):
    """Does a set with these candidates and counts fall short in a block?"""
    for j in blocks:
        if (cand & block_mask[j]).bit_count() < mins[j] - counts[j]:
            return True
    return False


def _search_reference(problem, limit):
    """The search loop as it was before the per-node work was inlined.

    Returns (status, solutions, nodes): status is found | exhausted_none |
    budget_exceeded, solutions the first `limit` (or fewer) in search order, and nodes the
    visited nodes, root included, never more than the budget."""
    ctx = _Ctx(problem)
    q, n = ctx.q, ctx.n
    mins, caps, block_of, block_mask = ctx.mins, ctx.caps, ctx.block_of, ctx.block_mask
    keep, touch, rem_after = ctx.keep, ctx.touch, ctx.rem_after
    after_in_block, unused_cap = ctx.after_in_block, ctx.unused_cap
    balanced = ctx.balanced
    cand = [(1 << n) - 1] * q
    counts = [[0] * len(mins) for _ in range(q)]
    sizes = [0] * q
    deficit = [q * x for x in mins]
    unused = [0] * len(mins)
    used = 0                 # sets holding a vertex; they are sets 0..used-1
    choice = [-1] * n        # choice in force at each depth; q means unused
    lone = [None] * n        # the one set that needs the vertex; -1 when two do
    saved = [None] * n       # candidate mask of the set extended at each depth
    solutions = []
    if problem.budget < 1:
        return "budget_exceeded", solutions, 0
    nodes, d = 1, 0
    while True:
        if d == n:
            # each block's last position prunes what deficit it has left
            assert all(x <= 0 for x in deficit)
            found = _leaf(ctx, choice)
            if found is not None:
                solutions.append(found)
                if len(solutions) >= limit:
                    return "found", solutions, nodes
            if d == 0:
                break
            d -= 1
            continue
        j = block_of[d]
        c = choice[d]
        if c == q:
            unused[j] -= 1
        elif c >= 0:
            cnt = counts[c]
            cnt[j] -= 1
            if cnt[j] < mins[j]:
                deficit[j] += 1
            sizes[c] -= 1
            if not sizes[c]:
                used -= 1
            cand[c] = saved[d]
        else:
            # first arrival: which sets cannot afford to miss this vertex?
            short = [x for x in range(q) if (cand[x] & after_in_block[d]).bit_count()
                     < mins[j] - counts[x][j]]
            lone[d] = short[0] if len(short) == 1 else (-1 if short else None)
        must = lone[d]
        c += 1
        hi = used + 1 if used < q else q  # symmetry: only the first empty set may open
        if must is not None:
            c, hi = max(c, must), min(hi, must + 1)
        while c < hi:
            if (cand[c] >> d & 1 and (caps is None or counts[c][j] < caps[j])
                    and (not balanced or _reference_balance_ok(sizes, c, n - d - 1))):
                break
            c += 1
        else:
            if c <= q and must is None and (unused_cap is None or unused[j] < unused_cap):
                c = q
            else:
                c = q + 1
        if c > q:
            choice[d] = -1
            if d == 0:
                break
            d -= 1
            continue
        choice[d] = c
        if c == q:
            unused[j] += 1
            if deficit[j] > rem_after[d]:
                continue
        else:
            cnt = counts[c]
            if cnt[j] < mins[j]:
                deficit[j] -= 1
            cnt[j] += 1
            if not sizes[c]:
                used += 1
            sizes[c] += 1
            saved[d] = cand[c]
            cand[c] &= keep[d]
            if deficit[j] > rem_after[d] or _reference_starved(cand[c], cnt, touch[d], mins, block_mask):
                continue  # pruned: the next pass undoes choice[d] and tries the one after
        if nodes == problem.budget:
            return "budget_exceeded", solutions, nodes
        nodes += 1
        d += 1
    return ("found" if solutions else "exhausted_none"), solutions, nodes


def _random_search_problem(rng):
    n = max(rng.randint(1, 12), rng.randint(1, 12))  # most cases near the top
    g = _random_graph(n, rng.uniform(0, 0.5), rng)
    part = _random_partition(n, rng.randint(1, min(4, n)), rng)
    q = rng.choice([1, 2, 2, 3, 3, 4])
    spec = SplittingSpec(q=q,
                         flavor=rng.choice(["fair", "almost_fair", "transversal"]),
                         balanced=rng.random() < 0.4,
                         stability=rng.choice([1, 1, 2, 3]),
                         weak=rng.random() < 0.4 and q >= 2)
    caps = None
    if rng.random() < 0.3:
        caps = [rng.randint(0, 3) for _ in part.blocks]
    budget = rng.randint(1, 200)
    problem = SearchProblem(partition=part, spec=spec, graph=g, caps=caps, budget=budget)
    return problem, rng.randint(1, 3)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_search_matches_reference_loop(seed):
    # same status, same solutions in the same order, same node count: the
    # two loops must visit the same tree, budget cut-offs included.  One
    # drawn seed sets n, q and the budget from the weights written above,
    # where drawing each would crowd the examples at the small end.
    problem, limit = _random_search_problem(random.Random(seed))
    assert _search(problem, limit) == _search_reference(problem, limit)


def test_two_short_sets_cut_the_branch_at_once():
    # 1 and 2 go to different sets and rule out 4 and 5, so at vertex 3
    # both sets still need a vertex of the second block that only 3 can give:
    # the branch dies there, without trying either set at 3
    g = Graph(5, [(1, 4), (1, 5), (2, 4), (2, 5)])
    part = VertexPartition([(1, 2), (3, 4, 5)], 5)
    problem = SearchProblem(partition=part, spec=SplittingSpec(q=2, flavor="fair"),
                            graph=g)
    assert _search(problem, 1) == _search_reference(problem, 1) == ("exhausted_none", [], 3)
