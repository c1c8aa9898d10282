import time
from itertools import combinations
from math import comb

import pytest

import fairsplit.kneser as kneser
from fairsplit.cli import main
from fairsplit.errors import ContractError, InputError, ResourceBudget
from fairsplit.graphs import (VertexPartition, consecutive_partition, path_graph,
                              power_path)
from fairsplit.kneser import (Hypergraph, KneserInstance,
                              build_hypergraph, chromatic_formula,
                              chromatic_number, is_proper, rebalance_q2,
                              splitting_from_coloring, stable_subsets)
from fairsplit.solver import DEFAULT_NODE_BUDGET, SearchProblem, find_splitting
from fairsplit.splitting import SplittingSpec, check_splitting


def _colorable_reference(h: Hypergraph, c, precolored, budget):
    """The recursive search that kneser._colorable replaced, kept as its
    reference: it recomputes every uncolored vertex's forbidden colors at
    every node, each spent from the Budget `budget`.  Returns the colors or
    None."""
    nv = len(h.vertices)
    edges_at = [[] for _ in range(nv)]
    for e in h.edges:
        for i in e:
            edges_at[i].append(e)
    colors = [0] * nv
    for v, col in precolored:
        if col > c:
            return None
        colors[v] = col

    def forbidden(v):
        """Colors that would complete a monochromatic hyperedge at v."""
        out = set()
        for e in edges_at[v]:
            col = 0
            for u in e:
                if u == v:
                    continue
                cu = colors[u]
                if cu == 0 or (col and cu != col):
                    col = -1
                    break
                col = cu
            if col > 0:
                out.add(col)
        return out

    def rec(uncolored, used):
        budget.spend()
        if not uncolored:
            return True
        best_v, best_forb = None, None
        for v in uncolored:
            f = forbidden(v)
            if best_v is None or (len(f), len(edges_at[v]), -v) > (
                    len(best_forb), len(edges_at[best_v]), -best_v):
                best_v, best_forb = v, f
            if len(f) >= c:
                best_v, best_forb = v, f
                break
        if len(best_forb) >= c and len(best_forb) >= used + 1:
            return False
        rest = [u for u in uncolored if u != best_v]
        for col in range(1, min(used + 1, c) + 1):
            if col in best_forb:
                continue
            colors[best_v] = col
            if rec(rest, max(used, col)):
                return True
            colors[best_v] = 0
        return False

    used0 = max([col for _, col in precolored], default=0)
    uncolored = [v for v in range(nv) if colors[v] == 0]
    return list(colors) if rec(uncolored, used0) else None


def _attempts(monkeypatch, h, colorable):
    """chromatic_number(h) with `colorable` as its search: the result and
    (c, colors, nodes) for every c it tried."""
    calls = []

    def record(h, c, precolored, budget):
        left = budget.left
        got = colorable(h, c, precolored, budget)
        calls.append((c, got, left - budget.left))
        return got

    monkeypatch.setattr(kneser, "_colorable", record)
    result = chromatic_number(h)
    monkeypatch.undo()
    return result, calls


def test_instance_validation():
    KneserInstance(5, 2, 2)
    with pytest.raises(InputError):
        KneserInstance(0, 2, 2)
    with pytest.raises(InputError):
        KneserInstance(5, -1, 2)
    with pytest.raises(InputError):
        KneserInstance(5, 2, 1)
    with pytest.raises(InputError):
        KneserInstance(5, 2, 2, stability="torus")


def _stable_subsets_reference(n, k, q, stability):
    """The filter over all C(n, k) subsets that stable_subsets replaced."""
    out = []
    for c in combinations(range(1, n + 1), k):
        if stability in ("path", "cycle"):
            if any(b - a < q for a, b in zip(c, c[1:])):
                continue
        if stability == "cycle" and len(c) >= 2 and c[0] + n - c[-1] < q:
            continue
        out.append(c)
    out.sort(key=lambda c: tuple(reversed(c)))
    return out


def test_stable_subsets_match_the_filter():
    for stability in ("none", "path", "cycle"):
        for q in range(1, 6):
            for n in range(1, 15):
                for k in range(8):
                    assert stable_subsets(n, k, q, stability) == \
                        _stable_subsets_reference(n, k, q, stability), \
                        (n, k, q, stability)


def test_stable_subsets_do_not_filter_all_subsets():
    # C(34, 7) = 5,379,616 subsets against 11,440 path-stable ones
    start = time.perf_counter()
    got = stable_subsets(34, 7, 4, "path")
    assert time.perf_counter() - start < 0.5
    assert len(got) == comb(16, 7) == kneser.stable_subset_count(34, 7, 4, "path")


def test_stable_subsets_counts_and_colex():
    plain = stable_subsets(5, 2, 2, "none")
    assert len(plain) == comb(5, 2)
    assert plain[:4] == [(1, 2), (1, 3), (2, 3), (1, 4)]
    assert plain[-1] == (4, 5)
    # gap >= 2 along the path: C(n-k+1, k) survivors
    path = stable_subsets(6, 2, 2, "path")
    assert len(path) == comb(5, 2)
    assert all(b - a >= 2 for a, b in path)
    # the cycle filter additionally kills wraparound-close pairs like (1, 6)
    cyc = stable_subsets(6, 2, 2, "cycle")
    assert len(cyc) == 9 and (1, 6) not in cyc and (1, 6) in path


def test_stable_subset_count_matches_enumeration():
    for stability in ("none", "path", "cycle"):
        for q in range(2, 5):
            for n in range(1, 15):
                for k in range(8):
                    assert kneser.stable_subset_count(n, k, q, stability) == len(
                        stable_subsets(n, k, q, stability)), (n, k, q, stability)


def test_vertex_budget_checked_before_enumerating():
    # C(21, 10) = 352,716 path-stable 10-subsets among C(30, 10) ~ 30M
    start = time.perf_counter()
    with pytest.raises(ResourceBudget) as err:
        build_hypergraph(KneserInstance(30, 10, 2, "path"))
    assert time.perf_counter() - start < 1
    assert "than the vertex budget of 200000" in str(err.value)


def test_stable_subset_count_stops_past_the_vertex_budget(monkeypatch):
    # the count is exact up to the budget and budget + 1 past it, for every
    # budget around the true count, including the cycle's n*C(m, k)/m
    for stability in ("none", "path", "cycle"):
        for q in range(2, 5):
            for n in range(1, 15):
                for k in range(8):
                    exact = len(stable_subsets(n, k, q, stability))
                    for cap in {0, 1, exact - 1, exact, exact + 1, 2 * exact}:
                        if cap < 0:
                            continue
                        monkeypatch.setattr(kneser, "VERTEX_BUDGET", cap)
                        assert kneser.stable_subset_count(n, k, q, stability) \
                            == min(exact, cap + 1), (n, k, q, stability, cap)


def test_stable_subsets_degenerate():
    assert stable_subsets(4, 0, 2, "path") == [()]
    assert stable_subsets(3, 2, 3, "path") == []


def test_build_hypergraph_edges():
    h = build_hypergraph(KneserInstance(4, 2, 2))
    assert len(h.vertices) == 6 and len(h.edges) == 3
    for a, b in h.edges:
        assert not set(h.vertices[a]) & set(h.vertices[b])
    # triples of pairwise disjoint 2-subsets of 1..6: the 15 perfect matchings
    h3 = build_hypergraph(KneserInstance(6, 2, 3))
    assert len(h3.edges) == 15
    # k = 0 has a single vertex and no edge
    h0 = build_hypergraph(KneserInstance(4, 0, 2))
    assert h0.vertices == [()] and h0.edges == []


def test_build_hypergraph_budgets(monkeypatch):
    monkeypatch.setattr(kneser, "VERTEX_BUDGET", 3)
    with pytest.raises(ResourceBudget):
        build_hypergraph(KneserInstance(10, 2, 2))
    monkeypatch.undo()
    monkeypatch.setattr(kneser, "EDGE_BUDGET", 5)
    with pytest.raises(ResourceBudget):
        build_hypergraph(KneserInstance(8, 2, 2))


def test_build_hypergraph_matches_brute_force_order():
    for stability in ("none", "path", "cycle"):
        for q in (2, 3):
            for n in range(1, 9):
                for k in range(1, 4):
                    h = build_hypergraph(KneserInstance(n, k, q, stability))
                    want = [e for e in combinations(range(len(h.vertices)), q)
                            if len(set().union(*(h.vertices[i] for i in e))) == q * k]
                    assert h.edges == want, (n, k, q, stability)


def test_build_hypergraph_drops_families_that_cannot_complete(monkeypatch):
    # ten disjoint pairs need 20 elements: the search stops at the root
    monkeypatch.setattr(kneser, "EDGE_BUDGET", 1)
    h = build_hypergraph(KneserInstance(19, 2, 10))
    assert len(h.vertices) == 171 and h.edges == []
    # k = 1, q = n: one hyperedge, reached through one family per size
    monkeypatch.setattr(kneser, "EDGE_BUDGET", 61)
    h = build_hypergraph(KneserInstance(60, 1, 60))
    assert h.edges == [tuple(range(60))]


def test_build_hypergraph_budget_counts_visited_families(monkeypatch):
    # 61 families are visited for a single hyperedge
    monkeypatch.setattr(kneser, "EDGE_BUDGET", 60)
    with pytest.raises(ResourceBudget):
        build_hypergraph(KneserInstance(60, 1, 60))


def test_chromatic_formula_values():
    assert chromatic_formula(5, 2, 2) == 3
    assert chromatic_formula(8, 2, 2) == 6
    assert chromatic_formula(6, 2, 3) == 2
    for n in range(4, 9):
        assert chromatic_formula(n, 2, 2) == n - 2


def test_is_proper():
    h = build_hypergraph(KneserInstance(4, 2, 2))
    bad = [1] * 6
    assert not is_proper(h, bad)
    _, witness = chromatic_number(h)
    assert is_proper(h, witness)


def test_chromatic_small_graphs():
    # ordinary Kneser graphs: n - 2k + 2
    for n in range(4, 8):
        h = build_hypergraph(KneserInstance(n, 2, 2))
        chi, witness = chromatic_number(h)
        assert chi == n - 2, n
        assert is_proper(h, witness) and max(witness) == chi
    # no two disjoint 2-subsets of 1..3: edgeless, one color
    h = build_hypergraph(KneserInstance(3, 2, 2))
    assert chromatic_number(h)[0] == 1
    # no vertices at all
    h = build_hypergraph(KneserInstance(3, 2, 3, "path"))
    assert chromatic_number(h) == (0, [])


def test_chromatic_hard_case():
    h = build_hypergraph(KneserInstance(8, 2, 2))
    chi, _ = chromatic_number(h)
    assert chi == 6 == chromatic_formula(8, 2, 2)


def test_chromatic_stable_variants():
    # path-restricted (6,2): same value as the formula for the full graph
    hp = build_hypergraph(KneserInstance(6, 2, 2, "path"))
    assert chromatic_number(hp)[0] == 4
    # the cycle-restricted subgraph keeps the chromatic number too
    hc = build_hypergraph(KneserInstance(6, 2, 2, "cycle"))
    assert chromatic_number(hc)[0] == 4


def test_chromatic_three_uniform():
    h = build_hypergraph(KneserInstance(6, 2, 3))
    chi, witness = chromatic_number(h)
    assert chi == 2 == chromatic_formula(6, 2, 3)
    assert is_proper(h, witness)


def test_chromatic_budget():
    h = build_hypergraph(KneserInstance(7, 2, 2))
    with pytest.raises(ResourceBudget):
        chromatic_number(h, budget=2)


def test_colorable_matches_reference(monkeypatch):
    # same witness and the same node count for every c tried
    insts = [KneserInstance(n, k, 2) for n in range(2, 10)
             for k in range(1, n // 2 + 1)]
    insts += [KneserInstance(n, k, 3, stability)
              for stability in ("none", "path", "cycle")
              for n in range(3, 10) for k in range(1, n // 3 + 1)]
    insts += [KneserInstance(9, k, 2, stability)
              for stability in ("path", "cycle") for k in (2, 3)]
    for inst in insts:
        h = build_hypergraph(inst)
        want = _attempts(monkeypatch, h, _colorable_reference)
        assert _attempts(monkeypatch, h, kneser._colorable) == want, inst


def test_chromatic_budget_covers_every_attempt(monkeypatch):
    # KG(9,3) tries c = 3, 4, 5 with 17, 2948 and 82 nodes: each attempt
    # fits in a budget of 2948, all of them together need 3047
    h = build_hypergraph(KneserInstance(9, 3, 2))
    with pytest.raises(ResourceBudget):
        chromatic_number(h, budget=2948)
    assert chromatic_number(h, budget=3047)[0] == 5
    _, calls = _attempts(monkeypatch, h, kneser._colorable)
    assert [nodes for _, _, nodes in calls] == [17, 2948, 82]


def test_chromatic_long_path_needs_no_recursion():
    n = 1500
    h = Hypergraph(list(range(n)), [(i, i + 1) for i in range(n - 1)])
    chi, witness = chromatic_number(h)
    assert chi == 2 and is_proper(h, witness) and len(witness) == n


def block_coloring(q, ks):
    """The coloring C(S) of the q-stable k-sets of a path split into
    consecutive blocks of sizes q*k_j - 1: C(S) is the first block holding at
    least k_j elements of S, else m + 1."""
    if any(kj < 1 for kj in ks):
        raise InputError("block parameters must be positive")
    sizes = [q * kj - 1 for kj in ks]
    n = sum(sizes)
    k = sum(kj - 1 for kj in ks)
    blocks, start = [], 1
    for s in sizes:
        blocks.append(tuple(range(start, start + s)))
        start += s
    verts = stable_subsets(n, k, q, "path")
    colors = []
    for s in verts:
        sset = set(s)
        color = len(ks) + 1
        for j, b in enumerate(blocks):
            if len(sset & set(b)) >= ks[j]:
                color = j + 1
                break
        colors.append(color)
    return verts, colors, blocks


def test_block_coloring_values():
    verts, colors, blocks = block_coloring(2, [2, 2])
    assert blocks == [(1, 2, 3), (4, 5, 6)]
    assert len(verts) == len(colors)
    got = dict(zip(verts, colors))
    assert got[(1, 3)] == 1
    assert got[(4, 6)] == 2
    assert got[(3, 5)] == 3  # fewer than k_j in every block
    assert got[(2, 6)] == 3
    with pytest.raises(InputError):
        block_coloring(2, [2, 0])


def test_block_coloring_matches_mono_edge_search():
    # the exhaustive search looks exactly for q disjoint last-color vertices
    verts, colors, blocks = block_coloring(2, [2, 2])
    sets = kneser._mono_edge_search(VertexPartition(blocks, 6), 2,
                                    DEFAULT_NODE_BUDGET)
    assert sets is not None
    got = dict(zip(verts, colors))
    for s in sets:
        assert got[tuple(sorted(s))] == 3


def _compositions(n):
    for cuts in range(n):
        for pos in combinations(range(1, n), cuts):
            yield [b - a for a, b in zip((0,) + pos, pos + (n,))]


def _mono_edge_search_on_power_path(padded_partition, q, ks):
    """The monochromatic-edge search on the (q-1)-th power of the padded
    path, which joins exactly the pairs that q-stability keeps apart."""
    spec = SplittingSpec(q=q, flavor="almost_fair", stability=q)
    g = power_path(len(padded_partition.ground), q - 1)
    out = find_splitting(SearchProblem(partition=padded_partition, spec=spec,
                                       graph=g, caps=[kj - 1 for kj in ks],
                                       budget=DEFAULT_NODE_BUDGET))
    assert out.status == "found"
    return out.splitting.sets


@pytest.mark.parametrize("q", [2, 3])
def test_mono_edge_search_matches_power_path_search(q):
    # the pipeline searches the edgeless graph; q-stability alone must give
    # the witness that the power-path graph gave, on every composition
    for n in range(1, 11):
        for sizes in _compositions(n):
            part = consecutive_partition(sizes)
            res = splitting_from_coloring(n, part, q)
            d = res.details
            if d["k"] == 0:
                continue
            padded = VertexPartition([tuple(b) + tuple(pad) for b, pad
                                      in zip(part.blocks, d["pad_blocks"])],
                                     d["n_padded"])
            want = _mono_edge_search_on_power_path(padded, q, d["ks"])
            assert d["mono_edge"] == [list(s) for s in want], (q, sizes)
            # the pads are the labels above n, and stripping removes them
            pads = {v for pad in d["pad_blocks"] for v in pad}
            assert pads == set(range(n + 1, d["n_padded"] + 1))
            if q == 2:
                assert d["ell"] == sorted(len(pads.intersection(s))
                                          for s in d["mono_edge"])
            else:
                assert res.splitting.sets == [tuple(v for v in s if v not in pads)
                                              for s in d["mono_edge"]]


def test_pipeline_consecutive_blocks():
    part = VertexPartition([(1, 2, 3, 4), (5, 6, 7, 8, 9)], 9)
    res = splitting_from_coloring(9, part, 2)
    assert res.status == "found"
    assert res.certificate.ok
    assert res.details["ks"] == [3, 3]
    assert res.details["ts"] == [2, 1]
    assert res.details["n_padded"] == 10
    sizes = [len(s) for s in res.splitting.sets]
    assert abs(sizes[0] - sizes[1]) <= 1


def test_pipeline_scattered_blocks():
    part = VertexPartition([(1, 3, 5), (2, 4, 6, 7)], 7)
    res = splitting_from_coloring(7, part, 2)
    assert res.status == "found" and res.certificate.ok


def test_pipeline_three_sets():
    part = VertexPartition([tuple(range(1, 9))], 8)
    res = splitting_from_coloring(8, part, 3)
    assert res.status == "found"
    spec = SplittingSpec(q=3, flavor="almost_fair", stability=3)
    assert check_splitting(path_graph(8), part, res.splitting, spec).ok


def test_pipeline_singleton_blocks():
    part = VertexPartition([(1,), (2,), (3,)], 3)
    res = splitting_from_coloring(3, part, 2)
    assert res.status == "found"
    assert res.details["k"] == 0
    assert [len(s) for s in res.splitting.sets] == [0, 0]


def test_pipeline_chromatic_cross_check():
    part = VertexPartition([(1, 2, 3, 4, 5)], 5)
    res = splitting_from_coloring(5, part, 2)
    assert res.status == "found"
    # what `kneser-chi --n <n_padded> --k <k> --q 2 --stability path` prints
    n_padded, k = res.details["n_padded"], res.details["k"]
    chi, _ = chromatic_number(build_hypergraph(KneserInstance(n_padded, k, 2, "path")))
    assert chi == chromatic_formula(n_padded, k, 2) == 3


def test_pipeline_validation():
    part = VertexPartition([(1, 2)], 2)
    with pytest.raises(InputError):
        splitting_from_coloring(2, part, 1)
    with pytest.raises(InputError):
        splitting_from_coloring(3, part, 2)


def test_pipeline_falsification_branch(monkeypatch):
    monkeypatch.setattr(kneser, "_mono_edge_search",
                        lambda *a, **kw: None)
    part = VertexPartition([(1, 2, 3, 4)], 4)
    res = splitting_from_coloring(4, part, 2)
    assert res.status == "falsification"
    assert res.splitting is None
    assert "refuting" in res.details["note"]


def test_pipeline_certificate_can_fail(monkeypatch, capsys):
    # q = 3 runs no rebalance, so the hyperedge goes straight to the final
    # re-check.  Its first set holds the adjacent labels 1 and 2, so it is
    # not 3-stable, while the quotas and leftovers hold
    monkeypatch.setattr(kneser, "_mono_edge_search",
                        lambda *a, **kw: ((1, 2), (4, 7), (5, 8)))
    part = VertexPartition([tuple(range(1, 9))], 8)
    with pytest.raises(ContractError,
                       match="^pipeline output fails its certificate: ") as err:
        splitting_from_coloring(8, part, 3)
    assert "'stability_ok': [False, True, True]" in str(err.value)
    assert "'quota_ok': True" in str(err.value)
    assert main(["kneser-split", "--n", "8", "--blocks", "8", "--q", "3"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("falsification: pipeline output fails its certificate: ")


def test_rebalance_removes_successor_blocked_vertex():
    padded = VertexPartition([(1, 2, 7), (3, 4, 8), (5, 6, 9)], 9)
    splitting, removals = rebalance_q2(6, padded, (1, 3, 5), (4, 7, 9))
    assert removals == [3]
    assert splitting.sets == [(1, 5), (4,)]


def test_rebalance_swaps_when_first_is_larger():
    padded = VertexPartition([(1, 2, 7), (3, 4, 8), (5, 6, 9)], 9)
    splitting, removals = rebalance_q2(6, padded, (4, 7, 9), (1, 3, 5))
    assert removals == [3]
    assert splitting.sets == [(4,), (1, 5)]


def test_rebalance_noop_when_close():
    padded = VertexPartition([(1, 2, 5), (3, 4, 6)], 6)
    splitting, removals = rebalance_q2(4, padded, (1, 3), (2, 6))
    assert removals == []
    assert splitting.sets == [(1, 3), (2,)]


def test_rebalance_input_contracts():
    padded = VertexPartition([(1, 2, 5), (3, 4, 6)], 6)
    with pytest.raises(ContractError):
        rebalance_q2(4, padded, (1, 3), (2,))  # sizes differ
    with pytest.raises(ContractError):
        rebalance_q2(4, padded, (1, 3), (3, 6))  # overlap
    with pytest.raises(ContractError):
        rebalance_q2(4, padded, (1, 2), (4, 6))  # not 2-stable


def test_rebalance_anomaly_raises():
    # S_2's pad 5 has the free pad 6 as successor, but block 2 holds no
    # vertex of S_1 to remove
    padded = VertexPartition([(1, 3, 5, 7), (2, 4, 6, 8)], 8)
    with pytest.raises(ContractError) as err:
        rebalance_q2(4, padded, (1, 3), (5, 7))
    assert str(err.value) == "rebalance anomaly: no removable vertex in block 2"
