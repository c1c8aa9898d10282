"""End-to-end acceptance battery: twelve numbered checks, one line each.

Every check prints a single [PASS]/[FAIL] verdict with its wall-clock time
and enforces a hard ceiling.  Expected values are re-derived on the spot by
independent means (brute force over bitmasks, an exact LP oracle, counting
recurrences) rather than trusted from the modules under test.  All
arithmetic is exact; nothing here has a tolerance.
"""

import contextlib
import itertools
import json
import random
import time

from fairsplit.cli import main
from fairsplit.compose import power_of_two_splitting
from fairsplit.conditions import (path_deletion, path_union_cliques_shape,
                                  transversal_size)
from fairsplit.constraint_map import (ConstraintMapInstance,
                                      random_vertex_orders,
                                      valid_parameter_triples,
                                      verify_equivariance, verify_zero_set)
from fairsplit.geometry import (gale_alternating, hulls_intersect,
                                moment_points, strong_general_position_check,
                                tverberg_search)
from fairsplit.graphs import (Graph, VertexPartition, cliques_plus_isolated,
                              consecutive_partition, cycle_graph,
                              matching_graph, path_graph, path_union_cliques)
from fairsplit.kneser import (KneserInstance, build_hypergraph,
                              chromatic_number, rebalance_q2,
                              splitting_from_coloring)
from fairsplit.serial import canonical_dumps
from fairsplit.solver import SearchProblem, find_splitting
from fairsplit.splitting import SplittingSpec, check_splitting
from fairsplit.suite import run_suite, six_cycle_instance, two_triangles_instance

from brute import brute_verdict


@contextlib.contextmanager
def _stopwatch(capsys, num, label, limit):
    start = time.monotonic()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.monotonic() - start
        verdict = "PASS" if ok and elapsed < limit else "FAIL"
        with capsys.disabled():
            print("[%s] %02d %s (%.2fs, limit %ds)"
                  % (verdict, num, label, elapsed, limit))
    assert elapsed < limit, "over the %ds ceiling: %.2fs" % (limit, elapsed)


def test_01_six_cycle_unit_splitting(capsys):
    with _stopwatch(capsys, 1, "six-cycle splits with unit counts", 1):
        g, part = six_cycle_instance()
        spec = SplittingSpec(q=2, flavor="almost_fair", balanced=True)
        out = find_splitting(SearchProblem(partition=part, spec=spec, graph=g,
                                           caps=[1, 1]))
        assert out.status == "found"
        assert out.certificate.ok
        assert all(c == 1 for row in out.certificate.counts for c in row)


def _odd_block_partitions(n):
    """Set partitions of 1..n with every block of odd size; blocks are
    emitted keyed by their least element, so each partition appears once."""
    def rec(remaining):
        if not remaining:
            yield ()
            return
        least, rest = remaining[0], remaining[1:]
        for extra in range(0, len(rest) + 1, 2):
            for comb in itertools.combinations(rest, extra):
                left = tuple(v for v in rest if v not in comb)
                for tail in rec(left):
                    yield ((least,) + comb,) + tail
    yield from rec(tuple(range(1, n + 1)))


def _odd_block_count(n):
    """Independent count of the partitions above: condition on the block
    containing element 1, whose size j must be odd."""
    import math
    table = [1] + [0] * n
    for m in range(1, n + 1):
        table[m] = sum(math.comb(m - 1, j - 1) * table[m - j]
                       for j in range(1, m + 1, 2))
    return table[n]


def _rotation_class(blocks, n):
    best = None
    for r in range(n):
        rot = tuple(sorted(tuple(sorted((v - 1 + r) % n + 1 for v in b))
                           for b in blocks))
        if best is None or rot < best:
            best = rot
    return best


def test_02_every_odd_block_cycle_partition_splits(capsys):
    with _stopwatch(capsys, 2, "all odd-block cycle partitions split", 300):
        spec = SplittingSpec(q=2, flavor="almost_fair", balanced=True)
        reps_total = 0
        for n in range(3, 13):
            g = cycle_graph(n)
            reps = set()
            raw = 0
            for blocks in _odd_block_partitions(n):
                raw += 1
                reps.add(_rotation_class(blocks, n))
            assert raw == _odd_block_count(n)
            for blocks in sorted(reps):
                part = VertexPartition([tuple(b) for b in blocks], n)
                out = find_splitting(SearchProblem(partition=part, spec=spec,
                                                   graph=g))
                assert out.status == "found", (n, blocks)
                assert out.certificate.ok
            reps_total += len(reps)
        assert reps_total == 20328


def test_03_two_triangles_refuted(capsys):
    with _stopwatch(capsys, 3, "two-triangles instance has no splitting", 10):
        g, part = two_triangles_instance()
        spec = SplittingSpec(q=2, flavor="almost_fair")
        out = find_splitting(SearchProblem(partition=part, spec=spec, graph=g))
        assert out.status == "exhausted_none"
        assert out.splitting is None


def test_04_constraint_map_reports_clean(capsys):
    with _stopwatch(capsys, 4, "constraint map zero-set + equivariance", 300):
        triples = valid_parameter_triples(7)
        assert len(triples) == 28
        for (q, k, t) in triples:
            n = q * k - t
            orders = [tuple(range(n))]
            orders += random_vertex_orders(n, 3, seed=100 * q + 10 * k + t)
            for order in orders:
                inst = ConstraintMapInstance(q, k, t, vertex_order=order)
                zs = verify_zero_set(inst)
                assert zs.ok and not zs.violations, (q, k, t, order)
                eq = verify_equivariance(inst)
                assert eq.ok and not eq.violations, (q, k, t, order)


def test_05_gale_alternation_matches_hull_oracle(capsys):
    with _stopwatch(capsys, 5, "gale alternation == exact hull oracle", 120):
        import math
        pairs = 0
        for d in (1, 2):
            r = d + 1
            for ground in range(2 * r, 9):
                config = moment_points(range(1, ground + 1), d=d)
                labels = list(range(1, ground + 1))
                for a in itertools.combinations(labels, r):
                    rest = [v for v in labels if v not in a]
                    for b in itertools.combinations(rest, r):
                        if b < a:  # each unordered pair once
                            continue
                        want = hulls_intersect([config.subset(a),
                                                config.subset(b)])
                        assert gale_alternating(a, b) == want, (d, a, b)
                        pairs += 1
        expect = sum(math.comb(g, d + 1) * math.comb(g - d - 1, d + 1) // 2
                     for d in (1, 2) for g in range(2 * d + 2, 9))
        assert pairs == expect == 738


def test_06_tverberg_sharpness(capsys):
    with _stopwatch(capsys, 6, "tverberg partitions exist and are sharp", 120):
        for (q, d) in ((2, 1), (2, 2), (3, 1)):
            many = (q - 1) * (d + 1) + 1
            config = moment_points(range(1, many + 1), dim=d)
            got = tverberg_search(config, q, target_dim=d)
            assert got is not None, (q, d)
            parts, point = got
            assert len(parts) == q and all(parts)
            assert sorted(v for p in parts for v in p) == list(range(1, many + 1))
            assert len(point) == d
            assert hulls_intersect([config.subset(p) for p in parts])

            sharp = moment_points(range(1, many), dim=d)
            in_general_position, witness = strong_general_position_check(sharp, q)
            assert in_general_position and witness is None, (q, d)
            assert tverberg_search(sharp, q, target_dim=d) is None, (q, d)


def test_07_sparseness_hypotheses_imply_splittings(capsys):
    with _stopwatch(capsys, 7, "sparseness hypotheses imply splittings", 600):
        split_cases = []

        # q = 2: deleting the path's own edges empties every neighborhood
        for n in range(7, 15):
            for sizes in ([n], [3, n - 3], [4, 4, n - 8]):
                if min(sizes) < 1:
                    continue
                part = consecutive_partition(sizes)
                if path_deletion(path_graph(n), part, 2)["ok"]:
                    split_cases.append((path_graph(n), part, 2))

        # q = 3: a cycle minus a spanning path is a single edge
        for n in range(9, 15):
            for sizes in ([n], [4, n - 4]):
                part = consecutive_partition(sizes)
                if path_deletion(cycle_graph(n), part, 3)["ok"]:
                    split_cases.append((cycle_graph(n), part, 3))

        # q = 3: matchings pass with nothing deleted
        for n in range(11, 15):
            part = consecutive_partition([5, n - 5])
            if path_deletion(matching_graph(n), part, 3)["ok"]:
                split_cases.append((matching_graph(n), part, 3))

        # q = 4 needs 13+ vertices for two blocks
        for n in (13, 14):
            for g in (path_graph(n), cycle_graph(n), matching_graph(n)):
                part = consecutive_partition([6, n - 6])
                if path_deletion(g, part, 4)["ok"]:
                    split_cases.append((g, part, 4))

        # path plus vertex-disjoint edges, q = 3 prime
        for cliques in (3, 4, 5, 6):
            g = path_union_cliques(cliques, 3)
            part = consecutive_partition([g.n])
            if path_union_cliques_shape(g, part, 3)["ok"]:
                split_cases.append((g, part, 3))

        transversal_cases = []
        for n in (12, 13, 14):
            for q in (3, 4):
                for sizes in ([n], [2 * q - 1, n - (2 * q - 1)]):
                    if min(sizes) < 2 * q - 1:
                        continue
                    part = consecutive_partition(sizes)
                    if transversal_size(matching_graph(n), part, q)["ok"]:
                        transversal_cases.append((matching_graph(n), part, q))
        edgeless = Graph(12, [])
        for sizes in ([12], [3, 4, 5], [6, 6], [3, 3, 3, 3]):
            part = consecutive_partition(sizes)
            if transversal_size(edgeless, part, 2)["ok"]:
                transversal_cases.append((edgeless, part, 2))
        triangles = Graph(14, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6),
                               (7, 8), (7, 9), (8, 9),
                               (10, 11), (10, 12), (11, 12)])
        for q in (5, 7):
            part = consecutive_partition([14])
            if transversal_size(triangles, part, q)["ok"]:
                transversal_cases.append((triangles, part, q))

        assert len(split_cases) + len(transversal_cases) >= 50
        assert all(g.n <= 14 for g, _, _ in split_cases + transversal_cases)

        for g, part, q in split_cases:
            spec = SplittingSpec(q=q, flavor="almost_fair")
            out = find_splitting(SearchProblem(partition=part, spec=spec,
                                               graph=g))
            assert out.status == "found", (g.n, part.blocks, q)
            assert out.certificate.ok
        for g, part, q in transversal_cases:
            spec = SplittingSpec(q=q, flavor="transversal")
            out = find_splitting(SearchProblem(partition=part, spec=spec,
                                               graph=g))
            assert out.status == "found", (g.n, part.blocks, q)
            assert out.certificate.ok


def test_08_kneser_chromatic_values(capsys):
    with _stopwatch(capsys, 8, "two-uniform kneser chromatic numbers", 300):
        for n in range(2, 9):
            for k in range(1, n // 2 + 1):
                h = build_hypergraph(KneserInstance(n, k, 2))
                chi, coloring = chromatic_number(h)
                assert chi == n - 2 * k + 2, (n, k, chi)
        h = build_hypergraph(KneserInstance(6, 2, 2, "path"))
        chi, coloring = chromatic_number(h)
        assert chi == 4


def _compositions(n):
    for cuts in range(n):
        for pos in itertools.combinations(range(1, n), cuts):
            sizes, prev = [], 0
            for c in pos + (n,):
                sizes.append(c - prev)
                prev = c
            yield sizes


def test_09_path_pipeline_all_block_shapes(capsys):
    with _stopwatch(capsys, 9, "coloring pipeline over all block shapes", 300):
        spec = SplittingSpec(q=2, flavor="almost_fair", balanced=True,
                             stability=2)
        runs = 0
        for n in range(1, 13):
            for sizes in _compositions(n):
                part = consecutive_partition(sizes)
                res = splitting_from_coloring(n, part, 2)
                assert res.status == "found", (n, sizes)
                cert = check_splitting(path_graph(n), part, res.splitting, spec)
                assert cert.ok, (n, sizes)
                runs += 1
        assert runs == 2 ** 12 - 1  # compositions of 1..12

        # The sweep's search order always splits the padding evenly, so the
        # lopsided rebalance is driven directly: pads {7, 8, 9}, one per
        # block, with two of them inside the second set, leaving stripped
        # sizes 3 and 1.
        padded = VertexPartition([(1, 2, 7), (3, 4, 8), (5, 6, 9)], 9)
        balanced, removals = rebalance_q2(9, padded, (1, 3, 5), (4, 7, 9),
                                          [(7,), (8,), (9,)])
        assert removals == [3]
        assert sorted(len(s) for s in balanced.sets) == [1, 2]
        cert = check_splitting(path_graph(6),
                               VertexPartition([(1, 2), (3, 4), (5, 6)], 6),
                               balanced, spec)
        assert cert.ok


def test_10_power_of_two_composition(capsys):
    with _stopwatch(capsys, 10, "power-of-two composition on the 31-path", 120):
        spec = SplittingSpec(q=4, flavor="almost_fair", stability=4)
        for sizes in ([31], [15, 16], [10, 11, 10], [7, 8, 9, 7],
                      [3, 4, 5, 6, 7, 6]):
            part = consecutive_partition(sizes)
            sp = power_of_two_splitting(31, part, 2)
            assert len(sp.sets) == 4
            seen = [v for s in sp.sets for v in s]
            assert len(seen) == len(set(seen))
            for s in sp.sets:
                assert all(b - a >= 4 for a, b in zip(s, s[1:]))
            for j, b in enumerate(part.blocks):
                quota = (len(b) + 1) // 4 - 1
                for s in sp.sets:
                    assert len(set(s) & set(b)) >= quota, (sizes, j, s)
            assert check_splitting(path_graph(31), part, sp, spec).ok


def test_11_solver_agrees_with_brute_force(capsys):
    with _stopwatch(capsys, 11, "solver verdicts equal brute force", 600):
        corpus = []
        g, part = six_cycle_instance()
        corpus.append((g, part,
                       SplittingSpec(q=2, flavor="almost_fair", balanced=True)))
        g, part = two_triangles_instance()
        corpus.append((g, part, SplittingSpec(q=2, flavor="almost_fair")))
        for n in (6, 9, 12):
            corpus.append((cycle_graph(n), consecutive_partition([3, n - 3]),
                           SplittingSpec(q=2, flavor="almost_fair",
                                         balanced=True)))
        corpus.append((path_graph(10), consecutive_partition([5, 5]),
                       SplittingSpec(q=2, flavor="almost_fair", stability=2)))
        corpus.append((path_graph(12), consecutive_partition([4, 4, 4]),
                       SplittingSpec(q=2, flavor="fair")))
        corpus.append((path_graph(11), consecutive_partition([11]),
                       SplittingSpec(q=3, flavor="almost_fair", stability=3)))
        corpus.append((cycle_graph(12), consecutive_partition([12]),
                       SplittingSpec(q=2, flavor="almost_fair", stability=3)))
        corpus.append((matching_graph(8), consecutive_partition([4, 4]),
                       SplittingSpec(q=3, flavor="transversal")))
        corpus.append((cliques_plus_isolated(4, 3), consecutive_partition([4, 5]),
                       SplittingSpec(q=3, flavor="almost_fair")))
        corpus.append((path_union_cliques(3, 3), consecutive_partition([3, 4]),
                       SplittingSpec(q=3, flavor="almost_fair")))
        full = Graph(5, [(u, w) for u in range(1, 6) for w in range(u + 1, 6)])
        corpus.append((full, consecutive_partition([5]),
                       SplittingSpec(q=2, flavor="almost_fair")))

        rng = random.Random(20260814)
        for _ in range(12):
            n = rng.randint(5, 9)
            edges = [(u, w) for u in range(1, n + 1)
                     for w in range(u + 1, n + 1) if rng.random() < 0.35]
            g = Graph(n, edges)
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            m = rng.randint(1, 3)
            cuts = sorted(rng.sample(range(1, n), m - 1))
            blocks, prev = [], 0
            for c in cuts + [n]:
                blocks.append(tuple(sorted(labels[prev:c])))
                prev = c
            part = VertexPartition(blocks, n)
            q = rng.choice([2, 2, 3])
            flavor = rng.choice(["almost_fair", "fair"])
            corpus.append((g, part, SplittingSpec(q=q, flavor=flavor)))

        statuses = {"found": 0, "exhausted_none": 0}
        for g, part, spec in corpus:
            assert g.n <= 12
            out = find_splitting(SearchProblem(partition=part, spec=spec,
                                               graph=g))
            assert out.status in statuses, out.status
            statuses[out.status] += 1
            assert (out.status == "found") == brute_verdict(g, part, spec), \
                (g.n, g.edges, part.blocks, spec)
            if out.status == "found":
                assert check_splitting(g, part, out.splitting, spec).ok
        assert statuses["found"] >= 3 and statuses["exhausted_none"] >= 3


def test_12_suite_byte_identical_across_threads(capsys):
    with _stopwatch(capsys, 12, "suite byte-identical across threads", 600):
        direct = canonical_dumps(run_suite())
        # the CLI accepts --threads and ignores it
        for threads in ("1", "4"):
            assert main(["suite", "--threads", threads]) == 0
            assert capsys.readouterr().out == direct
        doc = json.loads(direct)
        assert doc["all_ok"] is True
        assert len(doc["results"]) == 12
