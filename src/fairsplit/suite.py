"""Curated self-check battery behind the `suite` CLI command.

Every entry is fast, exact, and deterministic; the emitted JSON contains no
timings or other run-varying data, so two runs must be byte-identical.
"""

from __future__ import annotations

from .compose import power_of_two_splitting
from .conditions import check_conditions
from .constraint_map import (ConstraintMapInstance, verify_equivariance,
                             verify_zero_set)
from .geometry import (gale_alternating, hulls_intersect, moment_points,
                       strong_general_position_check, tverberg_search)
from .graphs import (Graph, VertexPartition, consecutive_partition,
                     cycle_graph, matching_graph, path_graph,
                     single_block_partition)
from .homology import homology
from .complexes import independence_complex
from .kneser import (KneserInstance, build_hypergraph, chromatic_formula,
                     chromatic_number, splitting_from_coloring)
from .solver import SearchProblem, enumerate_splittings, find_splitting
from .splitting import SplittingSpec, check_splitting


def six_cycle_instance():
    return cycle_graph(6), VertexPartition([(1, 2, 3), (4, 5, 6)], 6)


def two_triangles_instance():
    """A path on 8 vertices plus chords closing two disjoint triangles; the
    six triangle vertices form one block.  No almost fair splitting by two
    independent sets exists."""
    edges = [(i, i + 1) for i in range(1, 8)] + [(1, 3), (4, 6)]
    g = Graph(8, edges)
    partition = VertexPartition([(1, 2, 3, 4, 5, 6), (7, 8)], 8)
    return g, partition


def _entry_six_cycle():
    g, partition = six_cycle_instance()
    spec = SplittingSpec(q=2, flavor="almost_fair", balanced=True)
    problem = SearchProblem(partition=partition, spec=spec, graph=g,
                            caps=[1, 1])
    out = find_splitting(problem)
    ok = (out.status == "found" and out.certificate.ok
          and all(c == 1 for row in out.certificate.counts for c in row))
    return out.to_json(), ok


def _entry_two_triangles():
    g, partition = two_triangles_instance()
    spec = SplittingSpec(q=2, flavor="almost_fair")
    problem = SearchProblem(partition=partition, spec=spec, graph=g)
    out = find_splitting(problem)
    return out.to_json(), out.status == "exhausted_none"


def _entry_enumerate():
    g, partition = six_cycle_instance()
    spec = SplittingSpec(q=2, flavor="almost_fair")
    problem = SearchProblem(partition=partition, spec=spec, graph=g)
    outs = enumerate_splittings(problem, 10 ** 6)
    return {"count": len(outs)}, len(outs) == 16


def _entry_transversal():
    g = matching_graph(11)
    partition = consecutive_partition([5, 6])
    spec = SplittingSpec(q=3, flavor="transversal")
    out = find_splitting(SearchProblem(partition=partition, spec=spec, graph=g))
    return out.to_json(), out.status == "found" and out.certificate.ok


def _entry_constraint_map():
    rows = []
    ok = True
    for (q, k, t) in ((2, 2, 1), (3, 2, 2), (2, 3, 2)):
        inst = ConstraintMapInstance(q, k, t)
        zs = verify_zero_set(inst)
        eq = verify_equivariance(inst)
        ok = ok and zs.ok and eq.ok
        rows.append({"q": q, "k": k, "t": t, "zero_set_ok": zs.ok,
                     "equivariance_ok": eq.ok})
    return {"instances": rows}, ok


def _entry_geometry():
    from itertools import combinations
    config = moment_points([1, 2, 3, 4, 5, 6], d=1)
    mismatches = 0
    for a in combinations(range(1, 7), 2):
        rest = [x for x in range(1, 7) if x not in a]
        for b in combinations(rest, 2):
            gale = gale_alternating(set(a), set(b))
            hull = hulls_intersect([config.subset(a), config.subset(b)])
            if gale != hull:
                mismatches += 1
    return {"mismatches": mismatches}, mismatches == 0


def _entry_tverberg():
    three = moment_points([1, 2, 3], dim=1)
    hit = tverberg_search(three, 2)
    two = moment_points([1, 2], dim=1)
    sgp_ok, _ = strong_general_position_check(two, 2)
    miss = tverberg_search(two, 2)
    ok = hit is not None and sgp_ok and miss is None
    detail = {"partition_on_3": None if hit is None else
              [sorted(p) for p in hit[0]],
              "sharp_at_2": miss is None, "sgp_at_2": sgp_ok}
    return detail, ok


def _entry_kneser_chi():
    h = build_hypergraph(KneserInstance(5, 2, 2))
    chi, _ = chromatic_number(h)
    hs = build_hypergraph(KneserInstance(6, 2, 2, "path"))
    chis, _ = chromatic_number(hs)
    detail = {"kg_5_2": chi, "formula_5_2": chromatic_formula(5, 2, 2),
              "kg_6_2_path_stable": chis}
    return detail, chi == 3 and chis == 4


def _entry_kneser_split():
    part = consecutive_partition([4, 5])
    res = splitting_from_coloring(9, part, 2)
    ok = res.status == "found" and res.certificate.ok
    detail = {"status": res.status,
              "sets": None if res.splitting is None else
              [list(s) for s in res.splitting.sets]}
    return detail, ok


def _entry_compose():
    partition = single_block_partition(15)
    splitting = power_of_two_splitting(15, partition, 2)
    spec = SplittingSpec(q=4, flavor="almost_fair", stability=4)
    cert = check_splitting(path_graph(15), partition, splitting, spec)
    ok = cert.ok and len(splitting.sets) == 4
    return {"sets": [list(s) for s in splitting.sets],
            "certificate": cert.to_json()}, ok


def _entry_conditions():
    g, partition = six_cycle_instance()
    rep = check_conditions(g, partition, 2)
    all_false = not any(v["ok"] for v in rep.fragments.values())
    m = matching_graph(8)
    rep2 = check_conditions(m, single_block_partition(8), 4)
    return {"six_cycle": rep.to_json(), "matching": rep2.to_json()}, (
        all_false and rep2["transversal_size"]["ok"])


def _entry_homology():
    h = homology(independence_complex(cycle_graph(6)))
    detail = {"betti": [b for b, _ in h],
              "torsion": [list(t) for _, t in h]}
    return detail, h[1] == (2, []) and all(not t for _, t in h)


ENTRIES = [
    ("six_cycle_balanced", _entry_six_cycle),
    ("two_triangles_refuted", _entry_two_triangles),
    ("six_cycle_enumeration", _entry_enumerate),
    ("matching_transversals", _entry_transversal),
    ("constraint_map_reports", _entry_constraint_map),
    ("gale_vs_hulls", _entry_geometry),
    ("tverberg_sharpness", _entry_tverberg),
    ("kneser_chromatic", _entry_kneser_chi),
    ("kneser_split_pipeline", _entry_kneser_split),
    ("power_of_two_composition", _entry_compose),
    ("condition_reports", _entry_conditions),
    ("independence_complex_homology", _entry_homology),
]


def run_suite():
    results = []
    all_ok = True
    for name, fn in ENTRIES:
        detail, ok = fn()
        all_ok = all_ok and ok
        results.append({"name": name, "ok": ok, "detail": detail})
    return {"schema": "suite/1", "all_ok": all_ok, "results": results}
