"""Simplicial complex plumbing checked against direct subset enumeration."""

import random
from itertools import combinations, permutations
from math import factorial

import pytest

from fairsplit.complexes import (FACE_BUDGET, SimplicialComplex,
                                 independence_complex)
from fairsplit.errors import InputError, ResourceBudget
from fairsplit.graphs import Graph, VertexPartition, cycle_graph, path_graph
from fairsplit.homology import homology

from shared import (cone, faces, full_simplex, is_face, join, label_key,
                    skeleton)

# ---------------------------------------------------------------------------
# constructions only these tests use: face counts, deleted joins,
# barycentric subdivisions and block-constrained subcomplexes


def face_count(k, budget=FACE_BUDGET):
    return len(faces(k, budget))


def f_vector(k, budget=FACE_BUDGET):
    """Counts of nonempty faces by dimension 0, 1, ..."""
    if k.is_void():
        return []
    out = [0] * (k.dim() + 1)
    for f in faces(k, budget):
        if f:
            out[len(f) - 1] += 1
    return out


def euler_characteristic(k, budget=FACE_BUDGET):
    return sum((-1) ** d * c for d, c in enumerate(f_vector(k, budget)))


def _face_key(f):
    return (len(f), tuple(sorted(label_key(v) for v in f)))


def deleted_join_faces(k: SimplicialComplex, q, budget=FACE_BUDGET):
    """All faces of the q-fold deleted join, as q-tuples of pairwise disjoint
    faces of k (the empty tuple component is allowed)."""
    if q < 1:
        raise InputError("q must be positive")
    pool = sorted(faces(k, budget), key=_face_key)
    out = [()]
    for _ in range(q):
        nxt = []
        for partial in out:
            used = set().union(*partial) if partial else set()
            for f in pool:
                if not (f & used):
                    nxt.append(partial + (f,))
                    if len(nxt) > budget:
                        raise ResourceBudget("deleted join face budget exceeded")
        out = nxt
    return out


def deleted_join(k: SimplicialComplex, q, budget=FACE_BUDGET):
    """The q-fold deleted join as a complex on tagged vertices (i, v), i=1..q.

    A face is a disjoint union of q faces of k placed in distinct copies; the
    facets are computed by a local maximality test over all faces.
    """
    tuples = deleted_join_faces(k, q, budget)
    facets = []
    for tup in tuples:
        used = set().union(*tup) if any(tup) else set()
        free = [v for v in k.vertices if v not in used]
        if any(is_face(k, tup[i] | {v}) for v in free for i in range(q)):
            continue
        facets.append({(i + 1, v) for i in range(q) for v in tup[i]})
    verts = {(i + 1, v) for i in range(q) for v in k.vertices}
    return SimplicialComplex(facets, vertices=verts)


def _maximal_chains(k: SimplicialComplex, budget=FACE_BUDGET):
    """The maximal chains of nonempty faces, each listed from its facet down
    to a vertex as sorted tuples: per facet, the orders of removing all but
    one vertex, in lexicographic order of the sorted vertices.  A facet of
    size s has s! such chains; their total is checked against `budget`
    before any is built."""
    facets = [sorted(f, key=label_key) for f in k.facets if f]
    total = 0
    for f in facets:
        total += factorial(len(f))
        if total > budget:
            raise ResourceBudget("barycentric budget exceeded")
    chains = []
    for f in facets:
        # permutations() is an explicit loop, so no facet size meets Python's
        # recursion limit; dropping removed vertices keeps each face sorted
        for removed in permutations(f, len(f) - 1):
            face = f
            chain = [tuple(face)]
            for v in removed:
                face = [u for u in face if u != v]
                chain.append(tuple(face))
            chains.append(chain)
    return chains


def _chain_complex(chains):
    """The complex whose facets are `chains`, each face labelled by its
    label_key, which orders faces that mix integer and string labels; no
    chains leave only the empty face."""
    return SimplicialComplex([[label_key(face) for face in chain]
                              for chain in chains] or [()])


def barycentric_subdivision(k: SimplicialComplex, budget=FACE_BUDGET):
    """Vertices are the nonempty faces of k (as the label_keys of sorted
    tuples), facets the maximal chains under inclusion."""
    if k.is_void():
        return SimplicialComplex([])
    return _chain_complex(_maximal_chains(k, budget))


def skeleton_join(ks):
    """Join over j of the (k_j - 1)-skeleton of a simplex on 2 k_j + 1
    vertices, on globally numbered vertices 1, 2, ...; faces are exactly the
    sets with at most k_j vertices in the j-th block.  Its dimension is
    sum(k_j) - 1."""
    ks = list(ks)
    if not ks or any(k < 1 for k in ks):
        raise InputError("need positive block parameters")
    out = None
    start = 1
    for kj in ks:
        block = list(range(start, start + 2 * kj + 1))
        start += 2 * kj + 1
        piece = skeleton(full_simplex(block), kj - 1)
        out = piece if out is None else join(out, piece)
    return out


def constraint_subcomplex(k: SimplicialComplex, partition, caps, budget=FACE_BUDGET):
    """Faces of k with at most caps[j] vertices in partition block j."""
    if len(caps) != partition.m:
        raise InputError("need one cap per block")
    ok = []
    for f in faces(k, budget):
        if all(sum(1 for v in f if v in set(b)) <= c
               for b, c in zip(partition.blocks, caps)):
            ok.append(f)
    if not ok:
        return SimplicialComplex([])
    return SimplicialComplex(ok, vertices=k.vertices)




def brute_independent_sets(g):
    out = []
    verts = list(g.vertices)
    for r in range(len(verts) + 1):
        for c in combinations(verts, r):
            if all(not g.has_edge(u, v) for u, v in combinations(c, 2)):
                out.append(frozenset(c))
    return set(out)


def test_facets_form_antichain():
    # the complex keeps the facets given; their maximal ones are its facets
    # in the antichain sense, and they span the same faces
    k = SimplicialComplex([(1, 2), (2,), (1, 2, 3), (3,)])
    assert _maximal_reference(k.facets) == {frozenset({1, 2, 3})}
    assert faces(k) == faces(SimplicialComplex([(1, 2, 3)]))
    assert k.dim() == 2
    assert is_face(k, (2, 3)) and not is_face(k, (1, 4))


def test_void_vs_empty():
    void = SimplicialComplex([])
    assert void.is_void()
    with pytest.raises(InputError):
        void.dim()
    assert faces(void) == set()
    empty = SimplicialComplex([()])
    assert not empty.is_void() and empty.dim() == -1
    assert faces(empty) == {frozenset()}


def test_independence_complex_of_the_empty_graph_is_the_empty_complex():
    assert independence_complex(Graph(0, [])) == SimplicialComplex([()])


def test_faces_and_f_vector():
    k = full_simplex([1, 2, 3])
    assert face_count(k) == 8  # includes the empty face
    assert f_vector(k) == [3, 3, 1]
    assert euler_characteristic(k) == 1


def test_faces_budget():
    with pytest.raises(ResourceBudget):
        faces(full_simplex(range(1, 25)), budget=1000)


def test_independence_complex_matches_brute_force():
    rng = random.Random(3)
    for trial in range(25):
        n = rng.randint(1, 6)
        pool = list(combinations(range(1, n + 1), 2))
        edges = rng.sample(pool, min(len(pool), rng.randint(0, 9)))
        g = Graph(n, edges)
        k = independence_complex(g)
        assert faces(k) == brute_independent_sets(g)


def test_independence_complex_facets_are_the_maximal_independent_sets():
    rng = random.Random(12)
    for trial in range(40):
        n = rng.randint(1, 12)
        pool = list(combinations(range(1, n + 1), 2))
        g = Graph(n, [e for e in pool if rng.random() < 0.3])
        sets = brute_independent_sets(g)
        maximal = {f for f in sets if not any(f < h for h in sets)}
        assert set(independence_complex(g).facets) == maximal, trial


def _maximal_reference(facets):
    fs = {frozenset(f) for f in facets}
    return {f for f in fs if not any(f < g for g in fs)}


def _random_facet_lists(seed, trials=300):
    """Facet lists with repeats, non-maximal and empty faces and mixed
    integer and string labels."""
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(1, 9)
        labels = [rng.choice([v, "v%d" % v]) for v in range(n)]
        facets = [rng.sample(labels, rng.randint(0, n))
                  for _ in range(rng.randint(0, 12))]
        facets += rng.sample(facets, min(len(facets), 3))
        yield facets


@pytest.mark.parametrize("seed", [1, 3, 1024])
def test_facets_are_the_maximal_faces_given(seed):
    # the maximal facets the complex keeps are the maximal faces given, and
    # they span its faces
    for trial, facets in enumerate(_random_facet_lists(seed)):
        k = SimplicialComplex(facets)
        maximal = _maximal_reference(facets)
        assert _maximal_reference(k.facets) == maximal, (trial, facets)
        assert faces(k) == faces(SimplicialComplex(maximal,
                                                   vertices=k.vertices))


def test_complexes_keep_their_facets_as_given():
    # the complex keeps each facet once, in input order, and has the faces
    # and homology of the maximal ones
    for trial, facets in enumerate(_random_facet_lists(14)):
        k = SimplicialComplex(facets)
        given = list(dict.fromkeys(frozenset(f) for f in facets))
        assert list(k.facets) == given, (trial, facets)
        reduced = SimplicialComplex(_maximal_reference(facets),
                                    vertices=k.vertices)
        assert faces(k) == faces(reduced), (trial, facets)
        if facets:
            assert homology(k) == homology(reduced), (trial, facets)


def test_independence_complex_equals_the_pairwise_filter():
    rng = random.Random(13)
    graphs = [cycle_graph(n) for n in range(3, 21)]
    for _ in range(200):
        n = rng.randint(1, 12)
        p = rng.random()
        graphs.append(Graph(n, [e for e in combinations(range(1, n + 1), 2)
                                if rng.random() < p]))
    for g in graphs:
        k = independence_complex(g)
        assert set(k.facets) == _maximal_reference(k.facets), g.edges
        assert k.vertices == tuple(g.vertices)


def test_independence_complex_needs_no_recursion():
    # the recursive Bron--Kerbosch raised RecursionError here
    k = independence_complex(Graph(1500, []))
    assert k.facets == (frozenset(range(1, 1501)),)


def test_independence_complex_c6_facets():
    k = independence_complex(cycle_graph(6))
    assert set(k.facets) == {frozenset(f) for f in
                             [(1, 3, 5), (1, 4), (2, 4, 6), (2, 5), (3, 6)]}


def test_skeleton():
    k = full_simplex([1, 2, 3, 4])
    sk = skeleton(k, 1)
    assert sk.dim() == 1
    assert len(sk.facets) == 6
    ghost = skeleton(k, -1)
    assert ghost.facets == (frozenset(),)
    assert ghost.vertices == (1, 2, 3, 4)


def test_join_and_cone():
    seg = SimplicialComplex([(1, 2)])
    pt = SimplicialComplex([("apex",)])
    j = join(seg, pt)
    assert j.dim() == 2
    c = cone(seg)
    assert c.dim() == 2 and len(c.facets) == 1
    # joining complexes with clashing vertex names tags both sides
    j2 = join(seg, SimplicialComplex([(1,)]))
    assert all(isinstance(v, tuple) for v in j2.vertices)


def test_deleted_join_faces_vs_brute_force():
    rng = random.Random(5)
    for trial in range(15):
        n = rng.randint(1, 6)
        pool = list(combinations(range(1, n + 1), 2))
        g = Graph(n, rng.sample(pool, min(len(pool), rng.randint(0, 8))))
        k = independence_complex(g)
        for q in (2, 3):
            got = set(deleted_join_faces(k, q))
            sets = sorted(brute_independent_sets(g), key=lambda f: sorted(f))
            expect = set()
            for tup in _tuples(sets, q):
                flat = [v for f in tup for v in f]
                if len(flat) == len(set(flat)):
                    expect.add(tup)
            assert got == expect, (n, q)


def _tuples(faces, q):
    if q == 0:
        yield ()
        return
    for f in faces:
        for rest in _tuples(faces, q - 1):
            yield (f,) + rest


def test_deleted_join_facet_count_small():
    # segment vs its deleted square: classic 2-fold deleted join of an edge
    k = SimplicialComplex([(1,), (2,)])
    dj = deleted_join(k, 2)
    # facets are the four (vertex, vertex) pairs with distinct supports
    assert len(dj.facets) == 2
    names = {tuple(sorted(str(v) for v in f)) for f in dj.facets}
    assert len(names) == 2


def test_barycentric_preserves_euler():
    for k in (full_simplex([1, 2, 3]),
              SimplicialComplex([(1, 2), (2, 3), (1, 3)]),
              independence_complex(path_graph(5))):
        bd = barycentric_subdivision(k)
        assert euler_characteristic(bd) == euler_characteristic(k)


def test_skeleton_join_dimension():
    # two blocks with k_j = 2: join of 1-skeleta of simplices on 5 vertices
    sj = skeleton_join([2, 2])
    assert sj.dim() == sum([2, 2]) - 1
    sizes = {len(f) for f in sj.facets}
    assert sizes == {sum([2, 2])}


def test_constraint_subcomplex_caps():
    partition = VertexPartition([(1, 2, 3), (4, 5)], 5)
    k = full_simplex(range(1, 6))
    sigma = constraint_subcomplex(k, partition, [1, 2])
    for f in faces(sigma):
        f = set(f)
        assert len(f & {1, 2, 3}) <= 1 and len(f & {4, 5}) <= 2
    assert is_face(sigma, (1, 4, 5)) and not is_face(sigma, (1, 2))


# ---------------------------------------------------------------------------
# maximal chains against the recursive enumeration they replaced


def _reference_chains(k, budget=FACE_BUDGET):
    """Recursive: one call per face of each chain, so a facet of s vertices
    needs recursion depth s; the budget is checked while enumerating."""
    chains = []

    def grow(chain, top):
        if len(chains) > budget:
            raise ResourceBudget("barycentric budget exceeded")
        if len(top) == 1:
            chains.append([tuple(sorted(c, key=label_key)) for c in chain])
            return
        for v in sorted(top, key=label_key):
            grow(chain + [top - {v}], top - {v})

    for f in k.facets:
        if not f:
            continue
        grow([f], set(f))
    return chains


def _complexes_built_here():
    """Every complex the tests in this file build, except the 24-vertex
    simplex of test_faces_budget, which is too big to enumerate."""
    seg = SimplicialComplex([(1, 2)])
    out = [SimplicialComplex([(1, 2), (2,), (1, 2, 3), (3,)]),
           SimplicialComplex([]), SimplicialComplex([()]),
           full_simplex([1, 2, 3]), full_simplex([1, 2, 3, 4]),
           skeleton(full_simplex([1, 2, 3, 4]), 1),
           skeleton(full_simplex([1, 2, 3, 4]), -1),
           seg, SimplicialComplex([("apex",)]),
           join(seg, SimplicialComplex([("apex",)])), cone(seg),
           join(seg, SimplicialComplex([(1,)])),
           SimplicialComplex([(1,), (2,)]),
           deleted_join(SimplicialComplex([(1,), (2,)]), 2),
           SimplicialComplex([(1, 2), (2, 3), (1, 3)]),
           independence_complex(path_graph(5)),
           independence_complex(cycle_graph(6)),
           skeleton_join([2, 2]),
           constraint_subcomplex(full_simplex(range(1, 6)),
                                 VertexPartition([(1, 2, 3), (4, 5)], 5), [1, 2])]
    # the random graphs of the independence-complex and deleted-join tests
    for seed, trials, most in ((3, 25, 9), (5, 15, 8)):
        rng = random.Random(seed)
        for _ in range(trials):
            n = rng.randint(1, 6)
            pool = list(combinations(range(1, n + 1), 2))
            edges = rng.sample(pool, min(len(pool), rng.randint(0, most)))
            out.append(independence_complex(Graph(n, edges)))
    return out


def test_maximal_chains_match_recursive_reference():
    for k in _complexes_built_here():
        assert _maximal_chains(k) == _reference_chains(k)
        expect = (SimplicialComplex([]) if k.is_void() else
                  _chain_complex(_reference_chains(k)))
        assert barycentric_subdivision(k) == expect


def test_barycentric_budget_counts_chains_first():
    simplex = full_simplex([1, 2, 3, 4])
    assert len(barycentric_subdivision(simplex, budget=24).facets) == 24
    with pytest.raises(ResourceBudget):
        barycentric_subdivision(simplex, budget=23)
    with pytest.raises(ResourceBudget):
        barycentric_subdivision(full_simplex(range(1, 25)), budget=1000)
    # one 1,500-vertex facet: 1500! chains, refused before any is built
    # (the recursive enumeration raised RecursionError here)
    with pytest.raises(ResourceBudget):
        barycentric_subdivision(full_simplex(range(1, 1501)), budget=10)
