import time
from itertools import combinations
from math import comb

import pytest

import fairsplit.kneser as kneser
from fairsplit.errors import ContractError, InputError, ResourceBudget
from fairsplit.graphs import VertexPartition, path_graph
from fairsplit.kneser import (Hypergraph, KneserInstance, block_coloring,
                              build_hypergraph, chromatic_formula,
                              chromatic_number, is_proper, rebalance_q2,
                              splitting_from_coloring, stable_subsets)
from fairsplit.solver import DEFAULT_NODE_BUDGET
from fairsplit.splitting import SplittingSpec, check_splitting


def _colorable_reference(h: Hypergraph, c, precolored, budget):
    """The recursive search that kneser._colorable replaced, kept as its
    reference: it recomputes every uncolored vertex's forbidden colors at
    every node.  Returns (colors or None, nodes visited)."""
    nv = len(h.vertices)
    edges_at = [[] for _ in range(nv)]
    for e in h.edges:
        for i in e:
            edges_at[i].append(e)
    colors = [0] * nv
    for v, col in precolored:
        if col > c:
            return None, 0
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

    nodes = [0]

    def rec(uncolored, used):
        nodes[0] += 1
        if nodes[0] > budget:
            raise ResourceBudget("coloring node budget exceeded")
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
    if rec(uncolored, used0):
        return list(colors), nodes[0]
    return None, nodes[0]


def _attempts(monkeypatch, h, colorable):
    """chromatic_number(h) with `colorable` as its search: the result and
    (c, colors, nodes) for every c it tried."""
    calls = []

    def record(h, c, precolored, budget):
        got = colorable(h, c, precolored, budget)
        calls.append((c,) + tuple(got))
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
    assert "352716 vertices exceed the budget" in str(err.value)


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


def test_build_hypergraph_budgets():
    with pytest.raises(ResourceBudget):
        build_hypergraph(KneserInstance(10, 2, 2), vertex_budget=3)
    with pytest.raises(ResourceBudget):
        build_hypergraph(KneserInstance(8, 2, 2), edge_budget=5)


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
    sets = kneser._mono_edge_search(6, blocks, 2, [2, 2], DEFAULT_NODE_BUDGET)
    assert sets is not None
    got = dict(zip(verts, colors))
    for s in sets:
        assert got[tuple(sorted(s))] == 3


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
    res = splitting_from_coloring(5, part, 2, check_chromatic=True)
    assert res.status == "found"
    assert res.details["chi"] == res.details["chi_formula"] == 3


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


def test_rebalance_removes_successor_blocked_vertex():
    padded = VertexPartition([(1, 2, 7), (3, 4, 8), (5, 6, 9)], 9)
    splitting, removals = rebalance_q2(9, padded, (1, 3, 5), (4, 7, 9),
                                       [(7,), (8,), (9,)])
    assert removals == [3]
    assert splitting.sets == [(1, 5), (4,)]


def test_rebalance_swaps_when_first_is_larger():
    padded = VertexPartition([(1, 2, 7), (3, 4, 8), (5, 6, 9)], 9)
    splitting, removals = rebalance_q2(9, padded, (4, 7, 9), (1, 3, 5),
                                       [(7,), (8,), (9,)])
    assert removals == [3]
    assert splitting.sets == [(4,), (1, 5)]


def test_rebalance_noop_when_close():
    padded = VertexPartition([(1, 2, 5), (3, 4, 6)], 6)
    splitting, removals = rebalance_q2(6, padded, (1, 3), (2, 6),
                                       [(5,), (6,)])
    assert removals == []
    assert splitting.sets == [(1, 3), (2,)]


def test_rebalance_input_contracts():
    padded = VertexPartition([(1, 2, 5), (3, 4, 6)], 6)
    with pytest.raises(ContractError):
        rebalance_q2(6, padded, (1, 3), (2,), [(5,), (6,)])  # sizes differ
    with pytest.raises(ContractError):
        rebalance_q2(6, padded, (1, 3), (3, 6), [(5,), (6,)])  # overlap
    with pytest.raises(ContractError):
        rebalance_q2(6, padded, (1, 2), (4, 6), [(5,), (6,)])  # not 2-stable


def test_rebalance_anomaly_raises():
    # padding in the middle of the path: no padded successor is available
    padded = VertexPartition([(1, 2, 3), (4, 5, 6)], 6)
    with pytest.raises(ContractError) as err:
        rebalance_q2(6, padded, (1, 4), (3, 6), [(3,), (6,)])
    assert "anomaly" in str(err.value)
