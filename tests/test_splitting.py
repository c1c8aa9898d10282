"""Quota arithmetic, stability predicates, and the splitting certificate."""

import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsplit.errors import InputError
from fairsplit.graphs import (Graph, VertexPartition, consecutive_partition,
                              cycle_graph, is_independent, path_graph,
                              single_block_partition)
from fairsplit.splitting import (QuotaCertificate, Splitting, SplittingSpec,
                                 almost_fair_quota, check_splitting,
                                 fair_quota, is_q_stable, is_weakly_q_stable,
                                 leftover_cap, required_min)

from shared import covered

# ---------------------------------------------------------------------------
# reference certificate: the former set-based implementation, kept as the
# oracle of the one-pass certificate


def _pairwise_is_independent(g, s):
    s = list(s)
    for i, u in enumerate(s):
        for v in s[i + 1:]:
            if g.has_edge(u, v):
                return False
    return True


def _reference_certificate_for(face_ok, partition, sets, spec):
    sets = [tuple(sorted(s)) for s in sets]
    if len(sets) != spec.q:
        raise InputError("expected %d sets, got %d" % (spec.q, len(sets)))

    cert = QuotaCertificate(q=spec.q, flavor=spec.flavor)
    seen = set()
    cert.disjoint_ok = True
    for s in sets:
        for v in s:
            if v in seen:
                cert.disjoint_ok = False
            seen.add(v)

    cert.independence_ok = [face_ok(s) for s in sets]
    cert.mins = [required_min(spec.flavor, len(b), spec.q) for b in partition.blocks]
    cert.counts = [[len(set(s) & set(b)) for b in partition.blocks] for s in sets]
    cert.quota_ok = all(cert.counts[i][j] >= cert.mins[j]
                        for i in range(spec.q) for j in range(partition.m))

    covered = set().union(*[set(s) for s in sets]) if sets else set()
    cert.leftover = [len(set(b) - covered) for b in partition.blocks]
    cap = leftover_cap(spec.flavor, spec.q)
    cert.leftover_ok = cap is None or all(x <= cap for x in cert.leftover)

    cert.sizes = [len(s) for s in sets]
    if spec.balanced:
        cert.balanced_ok = max(cert.sizes) - min(cert.sizes) <= 1
    cert.stability_ok = [is_q_stable(s, spec.stability) for s in sets]
    if spec.weak:
        cert.weak_verdict = is_weakly_q_stable(sets, spec.q)

    cert.ok = (cert.disjoint_ok and all(cert.independence_ok) and cert.quota_ok
               and cert.leftover_ok and all(cert.stability_ok)
               and (cert.balanced_ok is not False)
               and (not spec.weak or cert.weak_verdict is True))
    return cert


def _reference_check_splitting(g, partition, splitting, spec):
    sets = splitting.sets
    for s in sets:
        for v in s:
            if not (1 <= v <= g.n):
                raise InputError("vertex %d outside 1..%d" % (v, g.n))
    return _reference_certificate_for(lambda s: _pairwise_is_independent(g, s),
                                      partition, sets, spec)


def _outcome(f, *args):
    """The certificate document, or the type of the exception raised."""
    try:
        return f(*args).to_json()
    except (InputError, TypeError) as e:
        return type(e)


def test_quota_values():
    assert fair_quota(7, 2) == 3
    assert almost_fair_quota(7, 2) == 3
    assert almost_fair_quota(6, 2) == 2
    assert almost_fair_quota(3, 2) == 1
    assert almost_fair_quota(1, 2) == 0


def test_quota_monotone_and_close():
    # the almost fair quota never exceeds the fair quota, and differs by <= 1
    for x in range(0, 1001):
        for q in range(1, 13):
            fair = fair_quota(x, q)
            almost = almost_fair_quota(x, q)
            assert almost <= fair <= almost + 1
            # monotone in x
            if x:
                assert almost >= almost_fair_quota(x - 1, q)


def test_required_min_by_flavor():
    assert required_min("fair", 7, 2) == 3
    assert required_min("almost_fair", 7, 2) == 3
    assert required_min("transversal", 7, 2) == 1
    assert leftover_cap("almost_fair", 3) == 2
    assert leftover_cap("fair", 3) is None


def test_stability_predicate():
    assert is_q_stable((1, 4, 7), 3)
    assert not is_q_stable((1, 3, 7), 3)
    assert is_q_stable((), 5) and is_q_stable((2,), 5)


def test_weakly_stable_windows():
    # q=2, union of size n+1: every window {i, i+1} holds one point of each
    assert is_weakly_q_stable([(1, 3), (2, 4)], 2) is True
    assert is_weakly_q_stable([(1, 2), (3, 4)], 2) is False
    # covered size not of the form (q-1)n+1 -> no verdict (q=3, even size)
    assert is_weakly_q_stable([(1,), (2,), (3, 4)], 3) is None
    # relabeling is order-preserving: scattered labels work the same
    assert is_weakly_q_stable([(10, 30), (20, 40)], 2) is True
    with pytest.raises(InputError):
        is_weakly_q_stable([(1,)], 1)
    # overlapping members also have no verdict
    assert is_weakly_q_stable([(1, 2), (2, 3)], 2) is None


def test_weakly_stable_q3():
    # q=3 on 1..5: windows {1,2,3} and {3,4,5}
    assert is_weakly_q_stable([(1, 4), (2, 5), (3,)], 3) is True
    assert is_weakly_q_stable([(1, 2), (4, 5), (3,)], 3) is False


def test_weak_stability_holds_only_at_the_number_of_members():
    # each window holds w labels of the union, one per member, so a weakly
    # w-stable family has w members and the spec's weak flag tests at w = q;
    # checked over every family of 1-4 disjoint subsets of 1..6
    held = set()
    for k in range(1, 5):
        for assign in product(range(k + 1), repeat=6):
            sets = [[v for v, a in enumerate(assign, 1) if a == i] for i in range(k)]
            for w in range(2, 6):
                if is_weakly_q_stable(sets, w) is True:
                    assert w == k, (sets, w)
                    held.add(k)
    assert held == {2, 3, 4}


def test_splitting_normalizes():
    s = Splitting([[3, 1], [2]])
    assert s.sets == [(1, 3), (2,)]
    assert len(s.sets) == 2
    assert covered(s) == {1, 2, 3}


def test_spec_validation():
    with pytest.raises(InputError):
        SplittingSpec(q=0)
    with pytest.raises(InputError):
        SplittingSpec(q=2, flavor="best_effort")
    with pytest.raises(InputError):
        SplittingSpec(q=1, weak=True)


def test_certificate_happy_path():
    g = cycle_graph(6)
    partition = VertexPartition([(1, 2, 3), (4, 5, 6)], 6)
    spec = SplittingSpec(q=2, flavor="almost_fair", balanced=True)
    cert = check_splitting(g, partition, Splitting([(1, 4), (2, 5)]), spec)
    assert cert.ok
    assert cert.counts == [[1, 1], [1, 1]]
    assert cert.leftover == [1, 1]
    assert cert.balanced_ok is True
    doc = cert.to_json()
    assert doc["schema"] == "certificate/1"
    assert doc["ok"] is True


def test_certificate_catches_violations():
    g = cycle_graph(6)
    partition = VertexPartition([(1, 2, 3), (4, 5, 6)], 6)
    spec = SplittingSpec(q=2, flavor="almost_fair")

    # adjacent vertices in one set
    cert = check_splitting(g, partition, Splitting([(1, 2), (4, 5)]), spec)
    assert not cert.ok and cert.independence_ok == [False, False]

    # quota missed: one set avoids the second block entirely under fair rules
    fair = SplittingSpec(q=2, flavor="fair")
    cert = check_splitting(g, partition, Splitting([(1, 3), (2, 5)]), fair)
    assert not cert.ok and not cert.quota_ok

    # leftover too large: sets that skip the first block
    cert = check_splitting(g, partition, Splitting([(4,), (6,)]), spec)
    assert not cert.leftover_ok

    # balance violation
    spec_b = SplittingSpec(q=2, flavor="almost_fair", balanced=True)
    cert = check_splitting(g, partition, Splitting([(1, 3, 5), (2,)]), spec_b)
    assert cert.balanced_ok is False and not cert.ok


def test_certificate_stability_and_weak():
    g = path_graph(7)
    partition = consecutive_partition([7])
    spec = SplittingSpec(q=2, flavor="almost_fair", stability=2, weak=True)
    cert = check_splitting(g, partition, Splitting([(1, 3, 5), (2, 4, 6)]),
                           spec)
    assert cert.ok and cert.weak_verdict is True
    spec3 = SplittingSpec(q=2, flavor="almost_fair", stability=3)
    cert = check_splitting(g, partition, Splitting([(1, 4, 7), (2, 5)]), spec3)
    assert cert.stability_ok == [True, True]


def test_check_splitting_rejects_foreign_labels():
    g = path_graph(4)
    partition = consecutive_partition([4])
    spec = SplittingSpec(q=2)
    with pytest.raises(InputError):
        check_splitting(g, partition, Splitting([(1,), (9,)]), spec)


def test_transversal_flavor_has_no_leftover_cap():
    g = path_graph(9)
    partition = consecutive_partition([4, 5])
    spec = SplittingSpec(q=2, flavor="transversal")
    # each set meets each block once; seven vertices stay uncovered
    cert = check_splitting(g, partition, Splitting([(1, 5), (3, 7)]), spec)
    assert cert.ok and cert.leftover_ok


# ---------------------------------------------------------------------------
# the one-pass certificate against the reference


@st.composite
def _certificate_cases(draw):
    """A random graph, a partition of some of its labels (plus labels it
    lacks), a family with shared labels, and a spec with every flag drawn."""
    n = draw(st.integers(1, 12))
    pool = list(range(1, n + 3))
    inside = pool[:n]  # labels the graph has
    pairs = list(combinations(inside, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = Graph(n, edges)
    m = draw(st.integers(0, 4))
    slot = draw(st.lists(st.integers(-1, m - 1), min_size=len(pool),
                         max_size=len(pool)))  # -1: outside the partition
    blocks = [[v for v, j in zip(pool, slot) if j == b] for b in range(m)]
    partition = VertexPartition([b for b in blocks if b])
    q = draw(st.integers(1, 4))
    sets = Splitting(draw(st.lists(st.lists(st.sampled_from(inside), max_size=6),
                                   min_size=q, max_size=q)))
    spec_q = q if draw(st.integers(0, 9)) else q + 1  # sometimes the wrong q
    spec = SplittingSpec(
        q=spec_q,
        flavor=draw(st.sampled_from(["fair", "almost_fair", "transversal"])),
        balanced=draw(st.booleans()),
        stability=draw(st.integers(1, 3)),
        weak=spec_q >= 2 and draw(st.booleans()))
    return graph, partition, sets, spec


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_certificate_cases())
def test_certificate_matches_reference(case):
    graph, partition, sets, spec = case
    got = _outcome(check_splitting, graph, partition, sets, spec)
    assert got == _outcome(_reference_check_splitting, graph, partition, sets, spec)
    for s in sets.sets:
        assert is_independent(graph, s) == _pairwise_is_independent(graph, s)


def test_certificate_of_a_long_path_is_linear():
    # the pairwise independence test took 11 s on an 8,000-vertex path
    n = 20000
    g, part = path_graph(n), single_block_partition(n)
    spec = SplittingSpec(q=2, flavor="almost_fair", balanced=True, stability=2)
    witness = Splitting([range(1, n + 1, 2), range(2, n + 1, 2)])
    start = time.perf_counter()
    cert = check_splitting(g, part, witness, spec)
    assert time.perf_counter() - start < 2.0
    assert cert.ok and cert.counts == [[10000], [10000]] and cert.leftover == [0]
    broken = Splitting([range(1, n + 1, 2), list(range(2, n, 2)) + [n - 1]])
    cert = check_splitting(g, part, broken, spec)
    assert cert.independence_ok == [True, False] and not cert.disjoint_ok
