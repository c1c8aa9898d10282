import pytest

from fairsplit.complexes import SimplicialComplex
from fairsplit.errors import InputError, ResourceBudget
from fairsplit.graphs import (Graph, VertexPartition, cliques_plus_isolated,
                              consecutive_partition, cycle_graph,
                              generate_family, is_independent,
                              matching_graph, path_graph, path_union_cliques,
                              power_path, single_block_partition)

from fairsplit.serial import complex_load

from shared import relabel, second_neighborhood


def neighbors(g, v):
    return g.adj[v]


def degree_profile(g):
    """Per vertex: (|N(v)|, |N^2(v)|) with N^2 the distance-two neighborhood."""
    return {v: (len(g.adj[v]), len(second_neighborhood(g, v))) for v in g.vertices}


def test_graph_basics():
    g = Graph(4, [(1, 2), (2, 3)])
    assert g.n == 4
    assert g.has_edge(2, 1)
    assert not g.has_edge(1, 3)
    assert len(g.adj[2]) == 2
    assert neighbors(g, 4) == set()


def test_graph_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph(3, [(1, 4)])
    with pytest.raises(InputError):
        Graph(3, [(0, 2)])


def test_second_neighborhood_is_distance_exactly_two():
    p = path_graph(5)
    assert second_neighborhood(p, 3) == {1, 5}
    assert second_neighborhood(p, 1) == {3}
    m = matching_graph(4)
    assert second_neighborhood(m, 1) == set()


def test_degree_profile():
    prof = degree_profile(path_graph(5))
    assert prof[3] == (2, 2)
    assert prof[1] == (1, 1)


def test_path_and_cycle():
    assert len(path_graph(6).edges) == 5
    assert len(cycle_graph(6).edges) == 6
    with pytest.raises(InputError):
        cycle_graph(2)


def test_power_path_edges():
    g = power_path(6, 2)
    assert g.has_edge(1, 3) and not g.has_edge(1, 4)
    # r = 1 is the ordinary path
    assert power_path(5, 1).edges == path_graph(5).edges


def test_cliques_plus_isolated_shape():
    g = cliques_plus_isolated(2, 4)  # two triangles + isolated = 7 vertices
    assert g.n == 7
    assert len(g.edges) == 6
    assert len(g.adj[7]) == 0


def test_path_union_cliques_counts():
    g = path_union_cliques(3, 3)  # path on 7 vertices + 2-cliques
    assert g.n == (3 - 1) * 3 + 1
    # path edges all present
    for i in range(1, g.n):
        assert g.has_edge(i, i + 1)
    with pytest.raises(InputError):
        path_union_cliques(1, 3)


def test_generate_family_dispatch():
    g = generate_family("cycle", n=5)
    assert len(g.edges) == 5
    with pytest.raises(InputError):
        generate_family("nope", n=3)
    with pytest.raises(InputError):
        generate_family("power_path", n=3)  # missing r


def test_generated_families_are_sized_before_they_are_built():
    import fairsplit.graphs as graphs

    # the arithmetic counts are the built graphs' counts
    for kind, params in [("path", dict(n=1)), ("path", dict(n=7)),
                         ("cycle", dict(n=5)), ("power_path", dict(n=9, r=0)),
                         ("power_path", dict(n=9, r=3)),
                         ("power_path", dict(n=9, r=20)),
                         ("cliques_plus_isolated", dict(n=3, q=2)),
                         ("cliques_plus_isolated", dict(n=3, q=5)),
                         ("path_union_cliques", dict(n=1, q=2)),
                         ("path_union_cliques", dict(n=4, q=5)),
                         ("edgeless", dict(n=4)), ("matching", dict(n=7))]:
        g = generate_family(kind, **params)
        assert graphs.FAMILIES[kind][1](**params) == (g.n, len(g.edges)), kind
    with pytest.raises(ResourceBudget, match="generated vertices: 101001"):
        generate_family("path_union_cliques", n=1000, q=102)
    # a parameter error is still reported as one, however large the family
    with pytest.raises(InputError, match="overlap"):
        generate_family("path_union_cliques", n=1, q=20000)


def test_partition_validation():
    p = VertexPartition([(3, 1), (2,)], 3)
    assert p.blocks[0] == (1, 3)
    assert p._block_of[2] == 1
    assert p.sizes() == [2, 1]
    with pytest.raises(InputError):
        VertexPartition([(1, 2), (2, 3)], 3)
    with pytest.raises(InputError):
        VertexPartition([(1,), (3,)], 3)  # hole at 2


def test_partition_helpers():
    assert single_block_partition(4).blocks == [(1, 2, 3, 4)]
    p = consecutive_partition([2, 3])
    assert p.blocks == [(1, 2), (3, 4, 5)]


def test_relabel_round_trip():
    import random
    rng = random.Random(11)
    g = cycle_graph(7)
    for _ in range(20):
        perm = list(range(1, 8))
        rng.shuffle(perm)
        mapping = {i + 1: perm[i] for i in range(7)}
        h = relabel(g, mapping)
        assert len(h.edges) == len(g.edges)
        inverse = {v: k for k, v in mapping.items()}
        assert relabel(h, inverse) == g


def test_is_independent():
    g = cycle_graph(5)
    assert is_independent(g, [1, 3])
    assert not is_independent(g, [1, 2])
    assert is_independent(g, [])


@pytest.mark.parametrize("build, message", [
    (lambda: Graph(-1, []), "vertex count must be nonnegative"),
    (lambda: consecutive_partition([2, 0]), "block sizes must be positive"),
    (lambda: power_path(3, -1), "radius must be nonnegative"),
    (lambda: cliques_plus_isolated(0, 3), "need n >= 1 and q >= 2"),
    (lambda: SimplicialComplex([(1, 2)], vertices=[1]),
     "facets mention vertices outside the vertex set"),
    (lambda: complex_load({"schema": "complex/1", "facets": {"1": [1]}}),
     "complex needs a list of facets")])
def test_malformed_constructions_are_input_errors(build, message):
    with pytest.raises(InputError, match="^%s$" % message):
        build()
