"""The benchmark's workloads: fixed lists of ops built from a seed.

An op is one call into a public fairsplit function plus rendering its result
document with serial.canonical_dumps, the way the CLI does; Op.call returns
(result, text).  Op.check(result, doc) re-derives the answer with the
fairsplit-free references in oracles.py and returns None or the reason the
op is wrong; it runs after the op and is not timed.

Functions are looked up on their modules at call time (solver.find_splitting,
not a bound name), so the tracer's wrappers see every call.
"""

import itertools
import math
import os
import random
from collections import namedtuple

from fairsplit import (complexes, compose, constraint_map, geometry, graphs,
                       homology, kneser, serial, solver, splitting)

import oracles

Op = namedtuple("Op", "key call check")

HERE = os.path.dirname(os.path.abspath(__file__))

# search: 24 random 24-vertex graphs, edge probability 0.25, three blocks cut
# from a shuffled labelling, fair 3-splittings.  The graphs come from a fixed
# pool seed: at other pool seeds one pass costs 6 s to 59 s (one instance
# alone took 53 s), far beyond a run and beyond any bound across seeds.  The
# run seed shuffles the op order and the order of each instance's blocks,
# which changes the output bytes but not the search tree.
SEARCH_POOL_SEED = 0
SEARCH_INSTANCES = 24
SEARCH_N = 24
SEARCH_EDGE_P = 0.25
SEARCH_Q = 3

# phi: one triple per row, checked by verify_zero_set and verify_equivariance
# under a vertex order drawn from the seed.  Trimmed from the heaviest triple
# of each code path so that a pass takes ~9 s: (4,2,2) and (4,2,3) run the
# Python equivariance backend over all 24 slot permutations, (5,2,4) and
# (6,1,1) over adjacent transpositions, (7,1,1) and (7,2,7) (262k and 2.1M
# faces) the numpy backend; zero-set runs its DP on (3,3,2), (4,2,2), (4,2,3)
# and (5,2,4) and short-circuits on the rest.
PHI_TRIPLES = [(3, 3, 2), (4, 2, 3), (4, 2, 2), (5, 2, 4), (6, 1, 1),
               (7, 1, 1), (7, 2, 7)]

TVERBERG_CASES = [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2)]
POWER_OF_TWO_SHAPES = [[31], [15, 16], [10, 11, 10], [7, 8, 9, 7],
                       [3, 4, 5, 6, 7, 6]]
HOMOLOGY_CYCLES = [10, 12, 14]


def _outcome_text(out):
    return out, serial.canonical_dumps(out.to_json())


# ---------------------------------------------------------------------------
# search


def search_pool():
    """The fixed 24 instances as (edges, blocks); cheap to draw."""
    rng = random.Random(SEARCH_POOL_SEED)
    n = SEARCH_N
    pool = []
    for _ in range(SEARCH_INSTANCES):
        edges = [(u, w) for u in range(1, n + 1) for w in range(u + 1, n + 1)
                 if rng.random() < SEARCH_EDGE_P]
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        cuts = sorted(rng.sample(range(1, n), 2))
        blocks, prev = [], 0
        for c in cuts + [n]:
            blocks.append(tuple(sorted(labels[prev:c])))
            prev = c
        pool.append((edges, blocks))
    return pool


def _search_op(i, edges, blocks):
    g = graphs.Graph(SEARCH_N, edges)
    part = graphs.VertexPartition(blocks, SEARCH_N)
    spec = splitting.SplittingSpec(q=SEARCH_Q, flavor="fair")
    problem = solver.SearchProblem(partition=part, spec=spec, graph=g)
    verdict = []

    def call():
        return _outcome_text(solver.find_splitting(problem))

    def check(out, doc):
        if not verdict:
            verdict.append(oracles.fair_splitting_exists(SEARCH_N, edges, blocks, SEARCH_Q))
        want = "found" if verdict[0] else "exhausted_none"
        if doc["status"] != want:
            return "status %s, reference says %s" % (doc["status"], want)
        if want == "found":
            return oracles.splitting_fault(SEARCH_N, edges, blocks, doc["splitting"],
                                           SEARCH_Q, "fair")
        return None

    return Op("search/%02d" % i, call, check)


def build_search(rng):
    ops = []
    for i, (edges, blocks) in enumerate(search_pool()):
        blocks = list(blocks)
        rng.shuffle(blocks)
        ops.append(_search_op(i, edges, blocks))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# sweep


def _cycle_ops():
    spec = splitting.SplittingSpec(q=2, flavor="almost_fair", balanced=True)
    cycles = {}
    ops = []
    with open(os.path.join(HERE, "cycle_classes.txt")) as fh:
        for line in fh:
            n_text, blocks_text = line.split()
            n = int(n_text)
            blocks = [tuple(int(v) for v in b.split(",")) for b in blocks_text.split("|")]
            if n not in cycles:
                cycles[n] = graphs.cycle_graph(n)
            problem = solver.SearchProblem(
                partition=graphs.VertexPartition(blocks, n), spec=spec, graph=cycles[n])
            ops.append(_cycle_op(n, blocks, problem))
    return ops


def _cycle_op(n, blocks, problem):
    def call():
        return _outcome_text(solver.find_splitting(problem))

    def check(out, doc):
        if doc["status"] != "found":
            return "odd-block cycle partition not split: %s" % doc["status"]
        return oracles.splitting_fault(n, oracles.cycle_edges(n), blocks, doc["splitting"],
                                       2, "almost_fair", balanced=True)

    key = "cycle/%d/%s" % (n, "|".join(",".join(map(str, b)) for b in blocks))
    return Op(key, call, check)


def _compositions(n):
    for cuts in range(n):
        for pos in itertools.combinations(range(1, n), cuts):
            sizes, prev = [], 0
            for c in pos + (n,):
                sizes.append(c - prev)
                prev = c
            yield sizes


def _pipeline_op(n, sizes):
    part = graphs.consecutive_partition(sizes)
    blocks = part.blocks

    def call():
        res = kneser.splitting_from_coloring(n, part, 2)
        doc = {"schema": "kneser_split/1", "status": res.status,
               "splitting": None if res.splitting is None else
               serial.splitting_dump(res.splitting),
               "certificate": None if res.certificate is None else
               res.certificate.to_json(),
               "details": res.details}
        return res, serial.canonical_dumps(doc)

    def check(res, doc):
        if doc["status"] != "found":
            return "path pipeline did not split: %s" % doc["status"]
        return oracles.splitting_fault(n, oracles.path_edges(n), blocks,
                                       doc["splitting"]["sets"], 2, "almost_fair",
                                       balanced=True, stability=2)

    return Op("pipeline/%d/%s" % (n, ",".join(map(str, sizes))), call, check)


def _kneser_op(n, k):
    inst = kneser.KneserInstance(n, k, 2)

    def call():
        h = kneser.build_hypergraph(inst)
        chi, coloring = kneser.chromatic_number(h)
        doc = {"schema": "kneser_chi/1", "n": n, "k": k, "q": 2, "stability": "none",
               "vertices": len(h.vertices), "edges": len(h.edges), "chi": chi,
               "formula": kneser.chromatic_formula(n, k, 2), "coloring": coloring}
        return h, serial.canonical_dumps(doc)

    def check(h, doc):
        want = oracles.kneser_chi(n, k)
        if doc["chi"] != want:
            return "chi %d, Lovász says %d" % (doc["chi"], want)
        return oracles.kneser_coloring_fault(n, k, h.vertices, doc["coloring"], want)

    return Op("kneser/%d/%d" % (n, k), call, check)


def _gale_ops():
    ops = []
    for d in (1, 2):
        r = d + 1
        for ground in range(2 * r, 9):
            config = geometry.moment_points(range(1, ground + 1), d=d)
            labels = list(range(1, ground + 1))
            for a in itertools.combinations(labels, r):
                rest = [v for v in labels if v not in a]
                for b in itertools.combinations(rest, r):
                    if b > a:
                        ops.append(_gale_op(d, ground, a, b, config.subset(a),
                                            config.subset(b)))
    return ops


def _gale_op(d, ground, a, b, pa, pb):
    def call():
        value = geometry.hulls_intersect([pa, pb])
        doc = {"schema": "predicate/1", "op": "hulls", "value": value}
        return value, serial.canonical_dumps(doc)

    def check(value, doc):
        want = oracles.gale_alternates(a, b)
        if doc["value"] != want:
            return "hulls_intersect %s, Gale's evenness says %s" % (doc["value"], want)
        return None

    return Op("gale/%d/%d/%s/%s" % (d, ground, a, b), call, check)


def _tverberg_ops(q, d):
    many = oracles.tverberg_points(q, d)
    full = geometry.moment_points(range(1, many + 1), dim=d)
    sharp = geometry.moment_points(range(1, many), dim=d)

    def render(got):
        if got is None:
            return {"schema": "tverberg/1", "parts": None, "point": None}
        parts, point = got
        return {"schema": "tverberg/1", "parts": [sorted(p) for p in parts],
                "point": [[c.numerator, c.denominator] for c in point]}

    def exists():
        got = geometry.tverberg_search(full, q, target_dim=d)
        return got, serial.canonical_dumps(render(got))

    def exists_check(got, doc):
        if doc["parts"] is None:
            return "no Tverberg partition of %d points in R^%d" % (many, d)
        if len(doc["point"]) != d:
            return "common point has %d coordinates" % len(doc["point"])
        return oracles.partition_fault(doc["parts"], range(1, many + 1), q)

    def position():
        ok, witness = geometry.strong_general_position_check(sharp, q)
        doc = {"schema": "predicate/1", "op": "sgp", "value": ok,
               "witness": None if witness is None else [sorted(s) for s in witness]}
        return ok, serial.canonical_dumps(doc)

    def position_check(ok, doc):
        if doc["value"] is not True or doc["witness"] is not None:
            return "moment points reported not in strong general position"
        return None

    def sharp_call():
        got = geometry.tverberg_search(sharp, q, target_dim=d)
        return got, serial.canonical_dumps(render(got))

    def sharp_check(got, doc):
        if doc["parts"] is not None:
            return "Tverberg partition of only %d points in R^%d" % (many - 1, d)
        return None

    key = "tverberg/%d/%d/" % (q, d)
    return [Op(key + "exists", exists, exists_check),
            Op(key + "sgp", position, position_check),
            Op(key + "sharp", sharp_call, sharp_check)]


def _power_of_two_op(sizes):
    n = sum(sizes)
    part = graphs.consecutive_partition(sizes)
    blocks = part.blocks
    path = graphs.path_graph(n)
    spec = splitting.SplittingSpec(q=4, flavor="almost_fair", stability=4)

    def call():
        sp = compose.power_of_two_splitting(n, part, 2)
        cert = splitting.check_splitting(path, part, sp, spec)
        doc = {"schema": "compose/1", "q": 4, "stability": 4,
               "splitting": serial.splitting_dump(sp), "certificate": cert.to_json()}
        return sp, serial.canonical_dumps(doc)

    def check(sp, doc):
        return oracles.splitting_fault(n, oracles.path_edges(n), blocks,
                                       doc["splitting"]["sets"], 4, "almost_fair",
                                       stability=4)

    return Op("compose/%s" % ",".join(map(str, sizes)), call, check)


def _homology_op(n):
    k = complexes.independence_complex(graphs.cycle_graph(n))

    def call():
        rows = homology.homology(k)
        doc = {"schema": "homology/1",
               "reduced": [{"dim": d, "betti": b, "torsion": t}
                           for d, (b, t) in enumerate(rows)]}
        return rows, serial.canonical_dumps(doc)

    def check(rows, doc):
        return oracles.homology_fault(n, doc["reduced"])

    return Op("homology/%d" % n, call, check)


def build_sweep(rng):
    ops = _cycle_ops()
    ops += [_pipeline_op(n, sizes) for n in range(1, 13) for sizes in _compositions(n)]
    ops += [_kneser_op(n, k) for n in range(2, 10) for k in range(1, n // 2 + 1)]
    ops += _gale_ops()
    for q, d in TVERBERG_CASES:
        ops += _tverberg_ops(q, d)
    ops += [_power_of_two_op(sizes) for sizes in POWER_OF_TWO_SHAPES]
    ops += [_homology_op(n) for n in HOMOLOGY_CYCLES]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# phi


def _phi_ops(q, k, t, order):
    inst = constraint_map.ConstraintMapInstance(q, k, t, vertex_order=order)
    key = "phi/%d/%d/%d/" % (q, k, t)

    def zero_set():
        rep = constraint_map.verify_zero_set(inst)
        return rep, serial.canonical_dumps(rep.to_json())

    def zero_set_check(rep, doc):
        want = oracles.constraint_map_faces(q, k, t)
        if not doc["ok"] or doc["violations"]:
            return "zero-set violations reported"
        if doc["faces_processed"] != want:
            return "zero set visited %d faces, want %d" % (doc["faces_processed"], want)
        return None

    def equivariance():
        rep = constraint_map.verify_equivariance(inst)
        return rep, serial.canonical_dumps(rep.to_json())

    def equivariance_check(rep, doc):
        perms = math.factorial(q) if doc["full_group"] else q - 1
        if not doc["ok"] or doc["violations"]:
            return "equivariance violations reported"
        if doc["faces_processed"] != (q + 1) ** (q * k - t):
            return "equivariance visited %d faces" % doc["faces_processed"]
        if doc["permutations_checked"] != perms:
            return "checked %d permutations, want %d" % (doc["permutations_checked"], perms)
        return None

    return [Op(key + "zero_set", zero_set, zero_set_check),
            Op(key + "equivariance", equivariance, equivariance_check)]


def build_phi(rng):
    ops = []
    for q, k, t in PHI_TRIPLES:
        order = list(range(q * k - t))
        rng.shuffle(order)
        ops += _phi_ops(q, k, t, order)
    rng.shuffle(ops)
    return ops


BUILDERS = {"search": build_search, "sweep": build_sweep, "phi": build_phi}


def build(workload, seed):
    """The workload's ops; the same seed gives the same ops in the same order."""
    return BUILDERS[workload](random.Random(seed))
