import random

import pytest

from fairsplit.conditions import (_is_disjoint_cliques, _search_simple_path,
                                  check_conditions,
                                  cliques_plus_isolated_shape,
                                  is_prime, is_prime_power, long_path_shape,
                                  neighborhood_bound, neighborhood_values,
                                  path_deletion, path_union_cliques_shape,
                                  transversal_size, worst_neighborhood)
from fairsplit.errors import Budget, InputError, ResourceBudget
from fairsplit.graphs import (Graph, VertexPartition, cliques_plus_isolated,
                              consecutive_partition, cycle_graph,
                              matching_graph, path_graph, path_union_cliques,
                              power_path)
from fairsplit.solver import SearchProblem, find_splitting
from fairsplit.splitting import SplittingSpec

from shared import path_budget, relabel, second_neighborhood


def relabel_partition(part, perm):
    return VertexPartition([[perm[v] for v in b] for b in part.blocks])


def test_primality_helpers():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    assert {p for p in range(25) if is_prime(p)} == primes
    powers = {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32}
    assert {p for p in range(33) if is_prime_power(p)} == powers
    assert not is_prime_power(1) and not is_prime_power(0)


def test_worst_neighborhood():
    # the middle of a 5-path sees two neighbors and two at distance two
    worst, v = worst_neighborhood(path_graph(5))
    assert worst == 6 and v == 3
    # a matching has no distance-two pairs
    assert worst_neighborhood(matching_graph(6))[0] == 2
    assert worst_neighborhood(Graph(3, []))[0] == 0


def _random_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(1, n + 1)
                     for v in range(u + 1, n + 1) if rng.random() < p])


def test_neighborhood_values_match_second_neighborhood_reference():
    rng = random.Random(14)
    for trial in range(300):
        g = _random_graph(rng, rng.randint(0, 14), rng.choice([0.1, 0.2, 0.4, 0.7]))
        want = [(2 * len(g.adj[v]) + len(second_neighborhood(g, v)), v)
                for v in g.vertices]
        assert list(neighborhood_values(g.adj)) == want, trial
        # with some edges deleted: the map the path-deletion test reads
        removed = set(rng.sample(sorted(g.edges), len(g.edges) // 2))
        rest = Graph(g.n, g.edges - removed)
        want = [(2 * len(rest.adj[v]) + len(second_neighborhood(rest, v)), v)
                for v in rest.vertices]
        assert list(neighborhood_values(rest.adj)) == want
        # the first vertex of largest value, as the loop it replaced chose
        worst, arg = -1, None
        for val, v in want:
            if val > worst:
                worst, arg = val, v
        assert worst_neighborhood(rest) == (worst, arg)


def _is_disjoint_cliques_reference(g, size):
    """Components first, then degrees: every component of more than one
    vertex has `size` vertices of degree size-1."""
    seen = set()
    for v in g.vertices:
        if v in seen or not g.adj[v]:
            continue
        comp, stack = {v}, [v]
        while stack:
            for w in g.adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        if len(comp) != size or any(len(g.adj[u]) != size - 1 for u in comp):
            return False
    return True


def test_disjoint_cliques_matches_component_reference():
    rng = random.Random(41)
    graphs = [_random_graph(rng, rng.randint(0, 10), rng.choice([0.1, 0.3, 0.6]))
              for _ in range(300)]
    graphs += [cliques_plus_isolated(n, q) for n in (1, 2, 3) for q in (2, 3, 4, 5)]
    graphs += [Graph(7, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (6, 7)])]
    for g in graphs:
        for size in range(1, 6):
            assert (_is_disjoint_cliques(g.adj, size)
                    == _is_disjoint_cliques_reference(g, size)), (g.edges, size)


def test_cliques_plus_isolated_shape_matches_component_count():
    # the shape is one isolated vertex and n >= 1 components that are
    # (q-1)-cliques, or for q = 2 any edgeless graph on n + 1 >= 2 vertices
    rng = random.Random(5)
    graphs = [_random_graph(rng, rng.randint(0, 9), rng.choice([0.1, 0.3, 0.6]))
              for _ in range(200)]
    for n in (1, 2, 3):
        for q in (2, 3, 4):
            g = cliques_plus_isolated(n, q)
            perm = list(range(1, g.n + 1))
            rng.shuffle(perm)
            graphs += [g, relabel(g, dict(zip(g.vertices, perm))),
                       Graph(g.n + 1, g.edges), Graph(g.n, set(list(g.edges)[1:]))]
    for g in graphs:
        isolated = sum(1 for v in g.vertices if not g.adj[v])
        for q in range(2, 6):
            got = cliques_plus_isolated_shape(g, q)
            if q == 2:
                want = g.n >= 2 and not g.edges
            else:
                cliques = (g.n - isolated) // (q - 1)
                want = (isolated == 1 and cliques >= 1
                        and _is_disjoint_cliques_reference(g, q - 1))
            assert got["ok"] == want, (g.edges, g.n, q)
            assert got["n"] == ((g.n - 1) // (q - 1) if want else None)


def test_neighborhood_bound():
    got = neighborhood_bound(matching_graph(7), 4, 2)
    assert got["ok"] and got["worst_value"] == 2
    # same graph, too small for n = 3: (q-1)n + 1 = 10 > 7
    got = neighborhood_bound(matching_graph(7), 4, 3)
    assert not got["ok"] and got["degree_ok"] and not got["size_ok"]
    got = neighborhood_bound(path_graph(9), 4, 2)
    assert not got["ok"] and not got["degree_ok"] and got["worst_value"] == 6


def test_path_deletion_on_path():
    # deleting the whole 13-path leaves an edgeless graph: bound holds for q=4
    g = path_graph(13)
    part = consecutive_partition([6, 7])
    got = path_deletion(g, part, 4, None, path_budget())
    assert got["ok"]
    # deleting 1..12 leaves the lone edge (12, 13), whose ends see 2 < 4
    assert got["path"] == list(range(1, 13))


def test_path_deletion_empty_path_when_bound_already_holds():
    g = matching_graph(13)
    part = consecutive_partition([6, 7])
    got = path_deletion(g, part, 4, None, path_budget())
    assert got["ok"] and got["path"] == []


def test_path_deletion_gates():
    g = path_graph(13)
    # q = 6 is not a prime power
    got = path_deletion(g, consecutive_partition([6, 7]), 6, None,
                        path_budget())
    assert not got["ok"] and not got["prime_power"]
    # a block smaller than q - 1
    got = path_deletion(g, consecutive_partition([2, 11]), 4, None,
                        path_budget())
    assert not got["ok"] and not got["blocks_ok"]
    # too few vertices: need (q-1)(m+2) + 1 = 13
    got = path_deletion(path_graph(9), consecutive_partition([9]), 4, None,
                        path_budget())
    assert not got["ok"] and not got["size_ok"]


def test_path_deletion_supplied_path():
    g = path_graph(13)
    part = consecutive_partition([6, 7])
    got = path_deletion(g, part, 4, list(range(1, 14)), path_budget())
    assert got["ok"]
    # a path that deletes too little
    got = path_deletion(g, part, 4, [1, 2], path_budget())
    assert not got["ok"]
    with pytest.raises(InputError):
        path_deletion(g, part, 4, [1, 3], path_budget())  # non-edge
    with pytest.raises(InputError):
        path_deletion(g, part, 4, [1, 2, 1], path_budget())  # repeat


def test_path_deletion_budget():
    g = cycle_graph(13)
    part = consecutive_partition([6, 7])
    with pytest.raises(ResourceBudget):
        path_deletion(g, part, 4, None,
                      Budget(3, "simple-path search budget exceeded"))


def _search_simple_path_recursive(g, accept):
    """The recursive DFS the explicit-stack search replaced; returns the
    path (or None) and the nodes it visited."""
    if accept(set()):
        return [], 0
    counter = [0]

    def extend(path, used, edges):
        counter[0] += 1
        last = path[-1]
        for w in sorted(g.adj[last]):
            if w in used:
                continue
            e = (min(last, w), max(last, w))
            path.append(w)
            used.add(w)
            edges.add(e)
            if path[0] < path[-1] and accept(edges):
                return list(path)
            got = extend(path, used, edges)
            if got is not None:
                return got
            path.pop()
            used.discard(w)
            edges.discard(e)
        return None

    for v in sorted(g.vertices):
        got = extend([v], {v}, set())
        if got is not None:
            return got, counter[0]
    return None, counter[0]


def _copy_adj(g):
    return {v: set(nb) for v, nb in g.adj.items()}


def test_simple_path_search_matches_recursive_reference():
    rng = random.Random(6)
    for trial in range(60):
        n = rng.randint(1, 8)
        edges = [(u, w) for u in range(1, n + 1) for w in range(u + 1, n + 1)
                 if rng.random() < 0.4]
        g = Graph(n, edges)
        # accept one edge set in a few, by a fixed rule on its members
        salt = rng.randrange(1000)
        seen = []

        def accept(removed, salt=salt, log=seen):
            log.append(frozenset(removed))
            return removed and hash((salt, tuple(sorted(removed)))) % 7 == 0

        def holds(adj, g=g, accept=accept):
            # the edge set the edited map lacks, as the reference passes it
            return accept({e for e in g.edges if e[1] not in adj[e[0]]})

        want, nodes = _search_simple_path_recursive(g, accept)
        calls = list(seen)
        seen.clear()
        budget = Budget(max(nodes, 1), "path")
        got = _search_simple_path(_copy_adj(g), holds, budget)
        assert (got, max(nodes, 1) - budget.left) == (want, nodes), trial
        assert seen == calls, trial  # same edge sets, in the same order
        if nodes:
            with pytest.raises(ResourceBudget, match="^path$"):
                _search_simple_path(_copy_adj(g), holds,
                                    Budget(nodes - 1, "path"))


def test_cliques_plus_isolated_shape():
    g = cliques_plus_isolated(3, 3)  # three 2-cliques + 1 isolated, 7 vertices
    got = cliques_plus_isolated_shape(g, 3)
    assert got["ok"] and got["n"] == 3 and got["prime"]
    # q = 2: any edgeless graph with >= 2 vertices
    got = cliques_plus_isolated_shape(Graph(4, []), 2)
    assert got["ok"] and got["n"] == 3
    assert not cliques_plus_isolated_shape(Graph(1, []), 2)["ok"]
    # wrong clique size for q = 4
    assert not cliques_plus_isolated_shape(g, 4)["ok"]
    # two isolated vertices break the shape
    bad = Graph(8, [(1, 2), (3, 4), (5, 6)])
    assert not cliques_plus_isolated_shape(bad, 3)["ok"]
    # a path component is not a clique
    assert not cliques_plus_isolated_shape(path_graph(4), 3)["ok"]


def test_long_path_shape():
    got = long_path_shape(path_graph(7), 4, 2)
    assert got["ok"] and got["is_path"]
    assert not long_path_shape(path_graph(7), 3, 3)["ok"]  # q < 4
    assert not long_path_shape(path_graph(8), 4, 2)["ok"]  # wrong size
    assert not long_path_shape(cycle_graph(7), 4, 2)["ok"]  # not a path
    # right edge count, wrong shape: a star has the wrong degrees
    star = Graph(7, [(1, v) for v in range(2, 8)])
    assert not long_path_shape(star, 4, 2)["is_path"]


def test_path_union_cliques_shape():
    g = path_union_cliques(3, 3)  # 7 vertices, path + three 2-cliques
    part = consecutive_partition([3, 4])
    got = path_union_cliques_shape(g, part, 3, None, path_budget())
    assert got["ok"]
    removed = set()
    path = got["path"]
    for u, w in zip(path, path[1:]):
        removed.add((min(u, w), max(u, w)))
    # what remains after deleting the found path must be the three 2-cliques
    rest = [e for e in g.edges if e not in removed]
    assert sorted(rest) == [(1, 4), (2, 5), (3, 6)]


def test_path_union_cliques_q2_is_hamiltonicity():
    g = path_graph(5)
    part = consecutive_partition([5])
    got = path_union_cliques_shape(g, part, 2, None, path_budget())
    assert got["ok"] and got["path"] == [1, 2, 3, 4, 5]
    assert not path_union_cliques_shape(cycle_graph(5), part, 2, None,
                                        path_budget())["ok"]


def test_path_union_cliques_gates():
    g = path_union_cliques(3, 3)
    part = consecutive_partition([3, 4])
    got = path_union_cliques_shape(g, part, 4, None, path_budget())
    assert not got["ok"] and not got["count_ok"]  # 6 % 3 != 0
    got = path_union_cliques_shape(g, consecutive_partition([1, 6]), 3, None,
                                   path_budget())
    assert not got["blocks_ok"]
    # n >= m + 1 fails when the partition has too many blocks
    got = path_union_cliques_shape(g, consecutive_partition([3, 2, 2]), 3,
                                   None, path_budget())
    assert not got["count_ok"]


def test_transversal_size():
    g = matching_graph(8)
    part = consecutive_partition([8])
    got = transversal_size(g, part, 4)
    assert got["ok"] and got["worst_value"] == 2
    # blocks must have at least 2q - 1 = 7 vertices
    got = transversal_size(g, consecutive_partition([4, 4]), 4)
    assert not got["ok"] and not got["blocks_ok"]
    got = transversal_size(path_graph(8), part, 4)
    assert not got["ok"] and not got["degree_ok"]


def test_check_conditions_c6_all_false():
    g = cycle_graph(6)
    part = consecutive_partition([3, 3])
    report = check_conditions(g, part, 2)
    assert not report.any_certified
    for key in ("neighborhood_bound", "path_deletion",
                "cliques_plus_isolated_shape", "long_path_shape",
                "path_union_cliques_shape", "transversal_size"):
        assert report.fragments[key]["ok"] is False, key


def test_check_conditions_matching():
    g = matching_graph(8)
    report = check_conditions(g, consecutive_partition([8]), 4)
    assert report.any_certified
    assert report.fragments["transversal_size"]["ok"]
    doc = report.to_json()
    assert doc["schema"] == "conditions/1"
    assert doc["conditions"]["transversal_size"]["ok"] is True


def test_check_conditions_validation_and_default_n():
    g = path_graph(7)
    part = consecutive_partition([7])
    with pytest.raises(InputError):
        check_conditions(g, part, 1)
    with pytest.raises(InputError):
        check_conditions(g, consecutive_partition([6]), 2)
    report = check_conditions(g, part, 4)
    assert report.n == 2  # (7 - 1) // 3
    assert report.fragments["long_path_shape"]["ok"]


def test_shape_checks_are_label_invariant():
    rng = random.Random(31)
    g = path_union_cliques(3, 3)
    part = consecutive_partition([3, 4])
    for _ in range(5):
        images = list(range(1, g.n + 1))
        rng.shuffle(images)
        perm = {v: images[v - 1] for v in range(1, g.n + 1)}
        hp = relabel_partition(part, perm)
        assert path_union_cliques_shape(relabel(g, perm), hp, 3, None,
                                        path_budget())["ok"]
        assert cliques_plus_isolated_shape(
            relabel(cliques_plus_isolated(3, 3), perm), 3)["ok"]
        assert long_path_shape(relabel(path_graph(7), perm), 4, 2)["ok"]


def test_power_path_instances_pass_neighborhood_gate():
    # r-th powers of paths with sparse adjacency: classic q > 2N + N2 cases
    for q, r, n in [(7, 1, 3), (8, 1, 3), (9, 1, 3)]:
        g = power_path(3, r)
        pad = Graph((q - 1) * n + 1, g.edges)
        got = neighborhood_bound(pad, q, n)
        assert got["ok"], (q, r, n)


# ---------------------------------------------------------------------------
# the paper's sufficient conditions imply splittings, on random sparse graphs

SPARSE_DRAWS = 1500
# the path searches' budget: at the default of 2,000,000 nodes the draws
# listed below would take about 5 s
SPARSE_PATH_BUDGET = 20_000
# the draws this budget cuts (exit 3 in the CLI), skipped; at the default
# budget each ends within 3 s, and no condition holds on any
SPARSE_PATH_CUT = [65, 925, 1084, 1130, 1245, 1292]


def _sparse_instance(rng):
    """(graph, partition, q): on 4-14 vertices, a random path, then disjoint
    (q - 1)-cliques or a random matching, then up to two more edges; 1-3
    blocks, consecutive or shuffled."""
    n = rng.randint(4, 14)
    q = rng.choice([2, 3, 4, 5, 7])
    order = rng.sample(range(1, n + 1), n)
    edges = set(zip(order, order[1:rng.randint(2, n)]))
    rest = rng.sample(range(1, n + 1), n)
    size = q - 1 if rng.random() < 0.5 else 2
    for c in range(rng.randint(0, n // size)):
        group = rest[c * size:(c + 1) * size]
        edges.update((a, b) for a in group for b in group if a < b)
    for _ in range(rng.randint(0, 2)):
        edges.add(tuple(rng.sample(range(1, n + 1), 2)))
    labels = list(range(1, n + 1))
    if rng.random() < 0.5:
        rng.shuffle(labels)
    bounds = [0] + sorted(rng.sample(range(1, n), rng.randint(0, 2))) + [n]
    part = VertexPartition([labels[a:b] for a, b in zip(bounds, bounds[1:])], n)
    return Graph(n, edges), part, q


def test_sufficient_conditions_imply_splittings():
    # every condition check_conditions reports must be confirmed by the
    # search in its flavour, as in test_07.  This catches a recognizer that
    # accepts an instance with no splitting; the gates are not tight at these
    # sizes, so it does not test them
    rng = random.Random(0)
    held, cut = 0, []
    for i in range(SPARSE_DRAWS):
        g, part, q = _sparse_instance(rng)
        try:
            report = check_conditions(g, part, q, budget=SPARSE_PATH_BUDGET)
        except ResourceBudget:
            cut.append(i)
            continue
        for name, fragment in report.fragments.items():
            if fragment["ok"]:
                held += 1
                flavor = "transversal" if name == "transversal_size" else "almost_fair"
                out = find_splitting(SearchProblem(
                    partition=part, spec=SplittingSpec(q=q, flavor=flavor), graph=g))
                assert out.status == "found", (i, name, q, sorted(g.edges), part.blocks)
    assert cut == SPARSE_PATH_CUT
    assert held >= 500
