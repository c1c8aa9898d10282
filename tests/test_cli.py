import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairsplit.compose as compose_module
import fairsplit.conditions as conditions
import fairsplit.constraint_map as constraint_map
import fairsplit.homology as homology_module
import fairsplit.serial as serial
from fairsplit.cli import build_parser, main
from fairsplit.complexes import FACE_BUDGET, independence_complex
from fairsplit.errors import INSTANCE_VERTEX_LIMIT, MEMORY_LIMIT
from fairsplit.graphs import FAMILIES, VertexPartition, cycle_graph
from fairsplit.kneser import chromatic_formula
from fairsplit.splitting import Splitting, SplittingSpec, check_splitting
from fairsplit.suite import _entry_constraint_map

from brute import brute_verdict
from shared import all_faces, fraction_hulls_reference, is_constrained_face


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out else None
    return code, doc, out.err


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def cycle6(tmp_path):
    return write(tmp_path, "c6.json", {
        "schema": "instance/1", "n": 6,
        "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]],
        "partition": [[1, 2, 3], [4, 5, 6]]})


def test_generate(capsys, tmp_path):
    code, doc, _ = run(capsys, "generate", "--family", "cycle", "--n", "6",
                       "--blocks", "3,3")
    assert code == 0
    assert doc["schema"] == "instance/1"
    assert doc["n"] == 6 and len(doc["edges"]) == 6
    assert doc["partition"] == [[1, 2, 3], [4, 5, 6]]


def test_generate_bad_blocks(capsys):
    code, doc, err = run(capsys, "generate", "--family", "cycle", "--n", "6",
                         "--blocks", "3,4")
    assert code == 2 and doc is None and "input error" in err


def test_solve_found(capsys, cycle6):
    code, doc, _ = run(capsys, "solve", "--input", cycle6, "--q", "2",
                       "--flavor", "almost", "--balanced",
                       "--caps", "1,1")
    assert code == 0
    assert doc["status"] == "found"
    assert doc["certificate"]["ok"] is True
    counts = doc["certificate"]["counts"]
    assert all(c == [1, 1] for c in counts)


def test_transversal_solve_honours_spec_flags(capsys, tmp_path):
    # with or without --caps, a transversal solve keeps every spec flag
    code, doc, _ = run(capsys, "generate", "--family", "path", "--n", "7",
                       "--blocks", "7")
    path = write(tmp_path, "p7.json", doc)
    for caps in ([], ["--caps", "7"]):
        solve = ["solve", "--input", path, "--q", "3", "--flavor", "transversal"]
        code, doc, _ = run(capsys, *solve, "--stability", "3", *caps)
        assert code == 0 and doc["certificate"]["ok"] is True
        assert doc["splitting"] == [[1, 4, 7], [2, 5], [3, 6]]
        assert doc["certificate"]["stability_ok"] == [True, True, True]
        code, doc, _ = run(capsys, *solve, "--balanced", *caps)
        assert code == 0 and doc["certificate"]["ok"] is True
        assert doc["certificate"]["balanced_ok"] is True
        assert sorted(map(len, doc["splitting"])) == [2, 2, 3]
        code, doc, _ = run(capsys, *solve, "--weak", *caps)
        assert code == 0 and doc["certificate"]["ok"] is True
        assert doc["certificate"]["weak_verdict"] is True


def test_weak_needs_q_at_least_2(capsys, tmp_path):
    # --weak tests weak q-stability at the spec's own q, which one set cannot have
    inst = write(tmp_path, "p3.json", {"schema": "instance/1", "n": 3,
                                       "edges": [[1, 2], [2, 3]], "partition": [[1, 2, 3]]})
    one = write(tmp_path, "one.json", {"schema": "splitting/1", "sets": [[1, 3]]})
    for argv in (["solve", "--input", inst, "--q", "1", "--weak"],
                 ["verify", "--input", inst, "--splitting", one, "--weak"]):
        assert run(capsys, *argv) == (
            2, None, "input error: weak stability needs q >= 2\n")


def test_solve_refuted(capsys, tmp_path):
    path = write(tmp_path, "hard.json", {
        "schema": "instance/1", "n": 8,
        "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [7, 8],
                  [1, 3], [4, 6]],
        "partition": [[1, 2, 3, 4, 5, 6], [7, 8]]})
    code, doc, _ = run(capsys, "solve", "--input", path, "--q", "2",
                       "--flavor", "almost")
    assert code == 1
    assert doc["status"] == "exhausted_none"


def test_solve_budget_exit(capsys, tmp_path):
    path = write(tmp_path, "big.json", {
        "schema": "instance/1", "n": 12,
        "edges": [[i, i + 1] for i in range(1, 12)],
        "partition": [list(range(1, 13))]})
    code, doc, _ = run(capsys, "solve", "--input", path, "--q", "3",
                       "--flavor", "almost", "--budget", "4")
    assert code == 3
    assert doc["status"] == "budget_exceeded"


def test_solve_rejects_negative_caps_and_budget(capsys, cycle6):
    for flag in ("--caps=-1,1", "--budget=-5"):
        code, doc, err = run(capsys, "solve", "--input", cycle6, "--q", "2",
                             "--flavor", "almost", flag)
        assert code == 2 and doc is None, flag
        assert "nonnegative" in err


def _assert_empty_list_refused(capsys, flag, *argv):
    # an empty list flag is an input error, not an absent flag
    for value in ("", ",", " , "):
        code, doc, err = run(capsys, *argv, flag, value)
        assert code == 2 and doc is None, (flag, value)
        assert "%s lists no integers" % flag in err


def test_empty_caps_is_an_input_error(capsys, cycle6):
    _assert_empty_list_refused(capsys, "--caps", "solve", "--input", cycle6,
                               "--q", "2", "--flavor", "almost")


def test_empty_path_is_an_input_error(capsys, cycle6):
    _assert_empty_list_refused(capsys, "--path", "check-conditions",
                               "--input", cycle6, "--q", "2")


def test_empty_order_is_an_input_error(capsys):
    _assert_empty_list_refused(capsys, "--order", "phi-check", "--q", "3",
                               "--k", "2", "--t", "1")


def test_empty_blocks_is_an_input_error(capsys):
    for argv in (["kneser-split", "--n", "6", "--q", "2"],
                 ["compose", "--n", "6", "--t", "1"],
                 ["generate", "--family", "cycle", "--n", "6"]):
        _assert_empty_list_refused(capsys, "--blocks", *argv)


def test_generate_solve_verify_round_trip(capsys, tmp_path, cycle6):
    code, doc, _ = run(capsys, "solve", "--input", cycle6, "--q", "2",
                       "--flavor", "almost", "--balanced")
    assert code == 0
    split = write(tmp_path, "split.json",
                  {"schema": "splitting/1", "sets": doc["splitting"]})
    code, cert, _ = run(capsys, "verify", "--input", cycle6,
                        "--splitting", split, "--flavor", "almost",
                        "--balanced")
    assert code == 0 and cert["ok"] is True


def test_verify_rejects_bad_splitting(capsys, tmp_path, cycle6):
    # adjacent vertices in one set: certificate fails, exit 1
    split = write(tmp_path, "bad.json",
                  {"schema": "splitting/1", "sets": [[1, 2], [4, 5]]})
    code, cert, _ = run(capsys, "verify", "--input", cycle6,
                        "--splitting", split, "--flavor", "almost")
    assert code == 1 and cert["ok"] is False


def test_verify_overlap_is_input_error(capsys, tmp_path, cycle6):
    split = write(tmp_path, "overlap.json",
                  {"schema": "splitting/1", "sets": [[1, 3], [3, 5]]})
    code, doc, err = run(capsys, "verify", "--input", cycle6,
                         "--splitting", split, "--flavor", "almost")
    assert code == 2 and doc is None and "input error" in err


def test_missing_input_file(capsys):
    code, doc, err = run(capsys, "solve", "--input", "/nonexistent.json",
                         "--q", "2")
    assert code == 2 and "input error" in err


def test_check_conditions(capsys, tmp_path):
    path = write(tmp_path, "m.json", {
        "schema": "instance/1", "n": 8,
        "edges": [[1, 2], [3, 4], [5, 6], [7, 8]],
        "partition": [list(range(1, 9))]})
    code, doc, _ = run(capsys, "check-conditions", "--input", path,
                       "--q", "4")
    assert code == 0
    assert doc["conditions"]["transversal_size"]["ok"] is True


def test_check_conditions_negative(capsys, cycle6):
    code, doc, _ = run(capsys, "check-conditions", "--input", cycle6,
                       "--q", "2")
    assert code == 1
    assert all(not doc["conditions"][k]["ok"] for k in doc["conditions"])


def test_check_conditions_searches_share_one_budget(capsys, tmp_path):
    # K5 plus two isolated vertices at q = 2 passes both path conditions'
    # gates, and neither finds a path: each search runs to exhaustion.
    # Their nodes together are exactly enough; one fewer runs out
    path = write(tmp_path, "k5.json", {
        "schema": "instance/1", "n": 7,
        "edges": [[u, w] for u in range(1, 6) for w in range(u + 1, 6)],
        "partition": [list(range(1, 8))]})
    argv = ["check-conditions", "--input", path, "--q", "2"]
    nodes = []
    search = conditions._search_simple_path

    def counted(adj, holds, budget):
        left = budget.left
        found = search(adj, holds, budget)
        nodes.append(left - budget.left)
        return found

    with mock.patch.object(conditions, "_search_simple_path", counted):
        code, want, _ = run(capsys, *argv)
    assert code == 1 and nodes == [327, 327]
    code, doc, _ = run(capsys, *argv, "--budget", "654")
    assert code == 1 and doc == want
    code, doc, err = run(capsys, *argv, "--budget", "653")
    assert code == 3 and doc is None and "budget exceeded" in err


@pytest.mark.parametrize("q, given", [("4", "1,6,7"), ("4", "1,1"), ("2", "1,6")])
def test_check_conditions_refuses_a_bad_path_whatever_the_gates(capsys, tmp_path, q, given):
    # on K5 plus two isolated vertices, q = 4 fails both path conditions'
    # gates, so a path with non-edges or a repeat was never looked at and
    # the check exited 1, a proven negative; q = 2 passes them and exited 2
    path = write(tmp_path, "k5.json", {
        "schema": "instance/1", "n": 7,
        "edges": [[u, w] for u in range(1, 6) for w in range(u + 1, 6)],
        "partition": [list(range(1, 8))]})
    code, doc, err = run(capsys, "check-conditions", "--input", path,
                         "--q", q, "--path", given)
    assert code == 2 and doc is None
    assert err.startswith("input error: path "), err


def test_check_conditions_validates_path_and_n(capsys, tmp_path):
    # on an edgeless graph a one-vertex path deletes nothing, so a vertex
    # outside the graph was certified as the path of both conditions, and
    # an n below 1 made the (q-1)n + 1 size gate vacuous
    path = write(tmp_path, "e5.json", {
        "schema": "instance/1", "n": 5, "edges": [],
        "partition": [list(range(1, 6))]})
    argv = ["check-conditions", "--input", path, "--q", "2"]
    for flag in ("--path=99", "--path=-3", "--path=0", "--path=1,6",
                 "--n=0", "--n=-5"):
        code, doc, err = run(capsys, *argv, flag)
        assert code == 2 and doc is None, flag
        assert err.startswith("input error: "), err
    code, doc, _ = run(capsys, *argv, "--path", "5", "--n", "1")
    assert code == 0 and doc["conditions"]["path_deletion"]["path"] == [5]


def line_points(tmp_path, name, xs):
    return write(tmp_path, name, {
        "schema": "points/1", "dim": 1,
        "points": [[[x, 1]] for x in xs]})


def test_geometry_gale_and_hulls_agree(capsys, tmp_path):
    code, doc, _ = run(capsys, "geometry", "--op", "gale",
                       "--sets", "1,3;2,4")
    assert code == 0 and doc["value"] is True
    # hulls on plane moment points: alternation crosses, separation doesn't
    pts = write(tmp_path, "m.json", {
        "schema": "points/1", "dim": 2,
        "points": [[[t, 1], [t * t, 1]] for t in (1, 2, 3, 4)]})
    code, doc, _ = run(capsys, "geometry", "--op", "hulls",
                       "--points", pts, "--sets", "1,3;2,4")
    assert code == 0 and doc["value"] is True
    code, doc, _ = run(capsys, "geometry", "--op", "hulls",
                       "--points", pts, "--sets", "1,2;3,4")
    assert code == 1 and doc["value"] is False


@pytest.mark.parametrize("argv, code, want", [
    # moment points 1..4 in R^1: five nonempty disjoint parts do not exist
    (["geometry", "--op", "sgp", "--q", "5"], 0,
     {"value": True, "witness": None}),
    (["geometry", "--op", "tverberg", "--q", "5"], 1, {"parts": None}),
    (["geometry", "--op", "hulls", "--sets", "1,2;"], 2,
     "input error: need nonempty point sets"),
    (["geometry", "--op", "gale", "--sets", ";"], 1, {"value": False}),
    # the 1-vertex path: the geometric leaf refuses the empty set
    (["solve", "--q", "2", "--points"], 1,
     {"status": "exhausted_none", "nodes": 2}),
    (["check-conditions", "--q", "5"], 1,
     {"conditions/long_path_shape/is_path": True}),
])
def test_small_edge_cases_exit_as_documented(capsys, tmp_path, argv, code, want):
    # want: the start of stderr, or values at "/"-separated document paths
    if argv[0] != "geometry":
        single = write(tmp_path, "p1.json", {
            "schema": "instance/1", "n": 1, "edges": [], "partition": [[1]]})
        argv = argv[:1] + ["--input", single] + argv[1:]
        if argv[-1] == "--points":
            argv.append(line_points(tmp_path, "one.json", [1]))
    elif argv[2] != "gale":
        argv = argv + ["--points", line_points(tmp_path, "line.json", [1, 2, 3, 4])]
    got, doc, err = run(capsys, *argv)
    assert got == code, err
    if isinstance(want, str):
        assert doc is None and err.startswith(want), err
    else:
        assert {k: reduce(dict.__getitem__, k.split("/"), doc)
                for k in want} == want


@pytest.mark.parametrize("sets, label", [("0,1;2", 0), ("1,2;9", 9)])
def test_geometry_hulls_rejects_labels_outside_the_points(capsys, tmp_path, sets, label):
    _, doc, _ = run(capsys, "geometry", "--op", "moment",
                    "--params", "1,2,3,4,5,6,7", "--dim", "2")
    pts = write(tmp_path, "m.json", doc)
    code, doc, err = run(capsys, "geometry", "--op", "hulls",
                         "--points", pts, "--sets", sets)
    assert code == 2 and doc is None
    assert err.startswith("input error: --sets label %d " % label), err


@pytest.mark.parametrize("argv, message", [
    (["generate", "--family", "path", "--n", "2", "--blocks", "1,x"],
     "cannot parse --blocks '1,x'; want comma-separated integers"),
    (["geometry", "--op", "moment"], "--op moment needs --params"),
    (["geometry", "--op", "stretched"], "--op stretched needs --n"),
    (["geometry", "--op", "gale", "--sets", "1,3"],
     "--op gale needs --sets with exactly two sets"),
    (["geometry", "--op", "sgp"], "--op sgp needs --points FILE"),
    (["geometry", "--op", "hulls", "--points", "POINTS"],
     "--op hulls needs --sets")])
def test_missing_or_malformed_flags_are_input_errors(capsys, tmp_path, argv,
                                                     message):
    pts = line_points(tmp_path, "p3.json", [1, 2, 3])
    code, doc, err = run(capsys, *[pts if a == "POINTS" else a for a in argv])
    assert code == 2 and doc is None
    assert err == "input error: %s\n" % message


def test_geometry_moment_and_stretched(capsys):
    code, doc, _ = run(capsys, "geometry", "--op", "moment",
                       "--params", "1,2,3", "--d", "1")
    assert code == 0 and doc["schema"] == "points/1" and doc["dim"] == 2
    code, doc, _ = run(capsys, "geometry", "--op", "stretched",
                       "--n", "3", "--d", "1")
    assert code == 0
    assert doc["points"][0][0] == [4, 1]


def test_geometry_tverberg(capsys, tmp_path):
    pts = line_points(tmp_path, "p3.json", [1, 2, 3])
    code, doc, _ = run(capsys, "geometry", "--op", "tverberg",
                       "--points", pts, "--q", "2")
    assert code == 0
    assert sorted(map(sorted, doc["parts"])) == [[1, 3], [2]]
    pts = line_points(tmp_path, "p2.json", [1, 2])
    code, doc, _ = run(capsys, "geometry", "--op", "tverberg",
                       "--points", pts, "--q", "2")
    assert code == 1 and doc["parts"] is None


@pytest.mark.parametrize("q", ["0", "-2"])
def test_geometry_tverberg_rejects_q_below_one(capsys, tmp_path, q):
    # no partition into q < 1 parts is meaningful, so there is no negative
    # to prove: an input error, as for --op sgp
    pts = line_points(tmp_path, "p3.json", [1, 2, 3])
    for op in ("tverberg", "sgp"):
        code, doc, err = run(capsys, "geometry", "--op", op, "--points", pts,
                             "--q", q)
        assert code == 2 and doc is None
        assert err == "input error: q must be positive\n"


def test_geometry_sgp(capsys, tmp_path):
    pts = line_points(tmp_path, "p3.json", [1, 2, 3])
    code, doc, _ = run(capsys, "geometry", "--op", "sgp",
                       "--points", pts, "--q", "2")
    assert code == 0 and doc["value"] is True and doc["witness"] is None


def test_solve_refuses_quadratic_tables_before_building_them(tmp_path, capsys):
    # the solver's masks on a q = 2 path of the most vertices an instance may
    # have would take about 4 GB; the 40,000-vertex path stays admitted
    n = INSTANCE_VERTEX_LIMIT
    assert 40_000 ** 2 / 4 <= MEMORY_LIMIT < n * n / 4
    path = write(tmp_path, "path.json", {
        "schema": "instance/1", "n": n,
        "edges": [[v, v + 1] for v in range(1, n)],
        "partition": [list(range(1, n + 1))]})
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        code = main(["solve", "--input", path, "--q", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    out = capsys.readouterr()
    assert code == 3 and out.out == "" and "search tables" in out.err
    assert peak < 150 * 2 ** 20, peak


SIZE_REFUSALS = [
    # (argv, what the refusal names); each is refused by arithmetic alone
    (["solve", "--input", "PATH6", "--q", "3000000"], "--q"),
    (["kneser-split", "--n", "6", "--blocks", "3,3", "--q", "3000000"],
     "padded path"),
    (["kneser-split", "--n", "300000000", "--q", "2"], "--n"),
    (["phi-check", "--q", "300000000", "--k", "1", "--t", "1"], "ground set"),
    (["generate", "--family", "path", "--n", "300000000"], "--n"),
    (["generate", "--family", "cliques_plus_isolated", "--n", "1",
      "--q", "3000000"], "--q"),
    (["compose", "--n", "300000000", "--t", "1"], "--n"),
    (["geometry", "--op", "stretched", "--n", "13", "--dim", "2"], "digits"),
    (["geometry", "--op", "stretched", "--n", "40", "--d", "1"], "digits"),
    (["geometry", "--op", "moment", "--params", "1,10", "--dim", "4400"],
     "digits"),
    # dense families: the edges, and the vertices, counted before any is built
    (["generate", "--family", "path_union_cliques", "--n", "300", "--q", "300"],
     "generated edges: 13455000"),
    (["generate", "--family", "power_path", "--n", "100000", "--r", "100000"],
     "generated edges: 4999950000"),
    (["generate", "--family", "cliques_plus_isolated", "--n", "1",
      "--q", "20000"], "generated edges: 199970001"),
    (["generate", "--family", "cliques_plus_isolated", "--n", "1000",
      "--q", "1000"], "generated vertices: 999001"),
    # powers of -1, 0 and 1 always print: the coordinates are counted instead
    (["geometry", "--op", "moment", "--params", "0,1", "--dim", "100000000"],
     "moment coordinates"),
    # no condition certifies q > n, so a --q past the limit is never searched
    (["check-conditions", "--input", "PATH6", "--q", "100001"], "--q"),
    # a square of at least 4L bits, L the int digit limit, is refused on bit
    # lengths alone
    (["geometry", "--op", "moment", "--params", str(2 ** 9000), "--dim", "2"],
     "parameter 1's coordinates have too many digits to print"),
]


@pytest.mark.parametrize("argv,named", SIZE_REFUSALS,
                         ids=["%s-%d" % (argv[0], i)
                              for i, (argv, _) in enumerate(SIZE_REFUSALS)])
def test_size_flags_exit_3_before_building_anything(tmp_path, capsys, argv, named):
    path6 = write(tmp_path, "p6.json", {
        "schema": "instance/1", "n": 6,
        "edges": [[v, v + 1] for v in range(1, 6)], "partition": [[1, 2, 3, 4, 5, 6]]})
    argv = [path6 if a == "PATH6" else a for a in argv]
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    out = capsys.readouterr()
    assert code == 3 and out.out == "", out.err
    assert named in out.err and "Traceback" not in out.err
    assert peak < 50 * 2 ** 20, peak


def test_phi_check_past_memory_is_refused_before_building(capsys):
    # 4^23 faces pass a face budget of 10^14, but their tensor would not fit
    # in memory: refused before numpy allocates it
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        code = main(["phi-check", "--q", "3", "--k", "8", "--t", "1",
                     "--budget", "100000000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert "4^23 faces at 6 bytes each pass the memory limit" in out.err
    assert peak < 50 * 2 ** 20, peak


def test_homology_past_memory_is_refused_before_building(capsys, tmp_path,
                                                        monkeypatch):
    # Ind(C24)'s 103,682 faces are counted at 188 bytes each, about 19.5 MB;
    # under a limit that refuses them, full homology exits 3 partway through
    # the listing, before any face is matched, and --max-dim 1 lists and
    # matches only the faces of up to three vertices
    k = independence_complex(cycle_graph(24))
    path = write(tmp_path, "ind_c24.json", {
        "schema": "complex/1", "facets": [sorted(f) for f in k.facets]})
    matched = []
    real = homology_module._match

    def recording(by_dim, n):
        matched.append(max(by_dim))
        return real(by_dim, n)

    monkeypatch.setattr(homology_module, "_match", recording)
    monkeypatch.setattr(homology_module, "MEMORY_LIMIT", 14_000_000)
    code, doc, err = run(capsys, "homology", "--input", path)
    assert code == 3 and doc is None and matched == []
    assert "faces at 188 bytes each pass the memory limit" in err
    code, doc, _ = run(capsys, "homology", "--input", path, "--max-dim", "1")
    assert code == 0 and doc["reduced"] == [
        {"dim": 0, "betti": 0, "torsion": []},
        {"dim": 1, "betti": 0, "torsion": []}]
    assert matched == [2]


def test_homology_of_ind_c20_answers(capsys, tmp_path):
    # Kozlov: Ind(C20) is homotopy equivalent to S^6
    k = independence_complex(cycle_graph(20))
    path = write(tmp_path, "ind_c20.json", {
        "schema": "complex/1", "facets": [sorted(f) for f in k.facets]})
    code, doc, err = run(capsys, "homology", "--input", path)
    assert code == 0 and err == ""
    assert [(row["betti"], row["torsion"]) for row in doc["reduced"]] == [
        (1 if d == 6 else 0, []) for d in range(10)]


def test_phi_check(capsys):
    code, doc, _ = run(capsys, "phi-check", "--q", "2", "--k", "2", "--t", "1")
    assert code == 0 and doc["ok"] is True
    assert doc["zero_set"]["ok"] is True
    assert doc["equivariance"]["ok"] is True


ZERO_SET_KEYS = {"schema", "q", "k", "t", "vertex_order",
                 "levels_with_unconstrained", "short_circuit",
                 "faces_processed", "violations", "ok"}
EQUIVARIANCE_KEYS = {"schema", "q", "k", "t", "vertex_order",
                     "permutations_checked", "full_group", "faces_processed",
                     "violations", "ok"}


def _largest_slot_rule(inst, digits):
    """Breaks both checks: the largest slot number in use."""
    ok, _ = is_constrained_face(digits, inst.q, inst.k, inst.t)
    return None if ok else max(digits)


def test_phi_check_report_keys(capsys):
    # the fields docs/schemas.md lists under phi_check/1
    code, doc, _ = run(capsys, "phi-check", "--q", "2", "--k", "2", "--t", "1")
    assert code == 0 and set(doc) == {"schema", "ok", "zero_set", "equivariance"}
    assert set(doc["zero_set"]) == ZERO_SET_KEYS
    assert set(doc["equivariance"]) == EQUIVARIANCE_KEYS
    inst = constraint_map.ConstraintMapInstance(2, 2, 1)
    dirs = np.array([_largest_slot_rule(inst, d) or 0 for d in all_faces(inst)],
                    dtype=np.int8).reshape((3,) * inst.n)  # the identity order
    with mock.patch.object(constraint_map, "_directions_array", lambda inst: dirs):
        code, doc, _ = run(capsys, "phi-check", "--q", "2", "--k", "2", "--t", "1")
    zs, eq = doc["zero_set"], doc["equivariance"]
    assert code == 1 and set(zs) == ZERO_SET_KEYS and set(eq) == EQUIVARIANCE_KEYS
    assert zs["violations"] == [{"chain": [[1, 1, 0], [1, 1, 2]]}]
    assert 1 <= len(eq["violations"]) <= 5
    assert all(set(v) == {"face", "perm", "got", "want"} for v in eq["violations"])
    assert eq["violations"][0] == {"face": [1, 1, 2], "perm": [0, 2, 1],
                                   "got": 2, "want": 1}


# the fields docs/schemas.md lists under certificate/1
CERTIFICATE_KEYS = {"schema", "q", "flavor", "counts", "mins", "quota_ok",
                    "independence_ok", "disjoint_ok", "leftover", "leftover_ok",
                    "sizes", "balanced_ok", "stability_ok", "weak_verdict", "ok"}


def test_documents_render_their_dataclass_fields():
    # each to_json adds the schema name, and ok for the two reports, to its
    # dataclass's fields, so a field added or dropped shows in the document
    cert = check_splitting(cycle_graph(6), VertexPartition([(1, 2, 3), (4, 5, 6)], 6),
                           Splitting([(1, 3, 5), (2, 4, 6)]),
                           SplittingSpec(q=2, balanced=True))
    zero_set, equivariance = constraint_map.verify_both(
        constraint_map.ConstraintMapInstance(3, 2, 1, vertex_order=(4, 0, 2, 1, 3)))
    for obj, added, keys in ((cert, {"schema"}, CERTIFICATE_KEYS),
                             (zero_set, {"schema", "ok"}, ZERO_SET_KEYS),
                             (equivariance, {"schema", "ok"}, EQUIVARIANCE_KEYS)):
        names = {f.name for f in dataclasses.fields(obj)}
        assert set(obj.to_json()) == names | added == keys, type(obj).__name__


def test_certificate_keys(capsys, tmp_path, cycle6):
    # certificate/1 as solve, verify, compose and kneser-split print it,
    # passing and failing
    code, doc, _ = run(capsys, "solve", "--input", cycle6, "--q", "2",
                       "--flavor", "almost", "--balanced")
    assert code == 0 and set(doc["certificate"]) == CERTIFICATE_KEYS
    for sets, want in ((doc["splitting"], 0), ([[1, 2], [4, 5]], 1)):
        split = write(tmp_path, "split.json", {"schema": "splitting/1", "sets": sets})
        code, cert, _ = run(capsys, "verify", "--input", cycle6, "--splitting", split,
                            "--flavor", "almost", "--balanced")
        assert code == want and set(cert) == CERTIFICATE_KEYS
    code, doc, _ = run(capsys, "compose", "--n", "15", "--blocks", "7,8", "--t", "2")
    assert code == 0 and set(doc["certificate"]) == CERTIFICATE_KEYS
    for q in ("2", "3"):
        code, doc, _ = run(capsys, "kneser-split", "--n", "12", "--blocks", "3,4,5",
                           "--q", q)
        assert code == 0 and set(doc["certificate"]) == CERTIFICATE_KEYS


def test_phi_check_and_suite_build_one_direction_tensor_per_pair(capsys):
    # the zero set and the equivariance check read the same tensor, whether
    # the zero set runs its DP, finds a violation, or short-circuits
    built = []
    build = constraint_map._directions_array

    def counted(inst):
        built.append((inst.q, inst.k, inst.t))
        return build(inst)

    with mock.patch.object(constraint_map, "_directions_array", counted):
        for q, k, t in [(3, 3, 2), (2, 2, 2), (5, 1, 1)]:
            built.clear()
            code, doc, _ = run(capsys, "phi-check", "--q", str(q), "--k", str(k),
                               "--t", str(t))
            assert code == 0 and built == [(q, k, t)], built
        assert doc["zero_set"]["short_circuit"]
        built.clear()
        _, ok = _entry_constraint_map()
        assert ok and built == [(2, 2, 1), (3, 2, 2), (2, 3, 2)]


def test_phi_check_bad_parameters(capsys):
    code, doc, err = run(capsys, "phi-check", "--q", "1", "--k", "2", "--t", "1")
    assert code == 2 and "input error" in err


def test_phi_check_over_the_face_budget_is_a_budget_exit(capsys):
    # (q+1)^n = 5001^4999 has over 18,000 digits, too many to format: the
    # budget check stops multiplying once past the budget and names the budget
    code, doc, err = run(capsys, "phi-check", "--q", "5000", "--k", "1", "--t", "1")
    assert code == 3 and doc is None
    assert "face budget of %d" % FACE_BUDGET in err


@pytest.mark.parametrize("argv,searches", [
    (["--n", "255", "--t", "4"], 15),
    (["--n", "31", "--blocks", "15,16", "--q1", "2", "--q2", "3"], 3)])
def test_compose_budget_covers_the_whole_construction(capsys, argv, searches):
    # every search draws on one budget: the total of all their nodes is
    # exactly enough, one node fewer runs out (exit 3, nothing on stdout)
    nodes = []
    search = compose_module.find_splitting

    def counted(problem):
        out = search(problem)
        nodes.append(out.nodes)
        return out

    with mock.patch.object(compose_module, "find_splitting", counted):
        code, want, _ = run(capsys, "compose", *argv)
    assert code == 0 and len(nodes) == searches
    if argv[1] == "255":
        # a budget of 256 nodes per search would have let all 15 through
        assert sum(nodes) == 1035 and max(nodes) == 256
    code, doc, _ = run(capsys, "compose", *argv, "--budget", str(sum(nodes)))
    assert code == 0 and doc == want
    code, doc, err = run(capsys, "compose", *argv, "--budget", str(sum(nodes) - 1))
    assert code == 3 and doc is None and "nodes left of the construction's budget" in err


def test_compose_power_of_two(capsys):
    code, doc, _ = run(capsys, "compose", "--n", "15", "--blocks", "7,8",
                       "--t", "2")
    assert code == 0
    assert doc["schema"] == "compose/1"
    assert doc["q"] == 4 and doc["stability"] == 4
    assert doc["certificate"]["ok"] is True
    assert len(doc["splitting"]["sets"]) == 4


def test_compose_general_pair(capsys):
    code, doc, _ = run(capsys, "compose", "--n", "15", "--blocks", "15",
                       "--q1", "2", "--q2", "2")
    assert code == 0 and doc["q"] == 4


def test_compose_one_stable_pair_is_not_held_to_path_independence(capsys):
    # 1-stable sets claim no independence in the path, so the certificate
    # is checked on the edgeless graph, as every compose stage is
    code, doc, _ = run(capsys, "compose", "--n", "15", "--q1", "2", "--q2", "2",
                       "--s1", "1", "--s2", "1")
    assert code == 0 and doc["stability"] == 1
    assert doc["certificate"]["ok"] is True


@pytest.mark.parametrize("flags", [("--s1", "0"), ("--s2", "0"),
                                   ("--s1", "0", "--s2", "0"),
                                   ("--s1", "-1")])
def test_compose_zero_stability_is_an_input_error(capsys, flags):
    # 0 is a given stability, not a missing one
    code, doc, err = run(capsys, "compose", "--n", "15", "--q1", "2",
                         "--q2", "2", *flags)
    assert code == 2 and doc is None
    assert "stability must be >= 1" in err


@pytest.mark.parametrize("argv, message", [
    (["--q1", "2", "--q2", "0", "--s1", "3"], "q must be positive"),
    (["--q1", "2", "--q2", "0"], "q must be positive"),
    (["--q1", "2", "--q2", "-1", "--s1", "3"], "q must be positive"),
    (["--q1", "2", "--q2", "2", "--s1", "3", "--s2", "0"],
     "stability must be >= 1")])
def test_compose_checks_every_level_before_the_first_search(capsys, argv,
                                                            message):
    # level 1 of (2, 3) cannot split the path on 6 vertices and (2, 2) can;
    # a bad later level is an input error either way, and no search runs
    with mock.patch.object(compose_module, "find_splitting",
                           side_effect=AssertionError("searched")):
        code, doc, err = run(capsys, "compose", "--n", "6", *argv)
    assert code == 2 and doc is None
    assert err == "input error: %s\n" % message


def test_compose_omitted_stability_defaults_to_q(capsys):
    argv = ["compose", "--n", "15", "--q1", "2", "--q2", "3"]
    main(argv)
    omitted = capsys.readouterr()
    main(argv + ["--s1", "2", "--s2", "3"])
    given = capsys.readouterr()
    assert omitted.out == given.out and omitted.err == given.err == ""
    assert json.loads(omitted.out)["stability"] == 6


def test_compose_needs_a_mode(capsys):
    code, _, err = run(capsys, "compose", "--n", "15")
    assert code == 2 and "input error" in err


def test_kneser_chi(capsys):
    code, doc, _ = run(capsys, "kneser-chi", "--n", "5", "--k", "2", "--q", "2")
    assert code == 0
    assert doc["chi"] == 3 and doc["formula"] == 3
    assert len(doc["coloring"]) == 10 and doc["vertices"] == 10


def test_kneser_split(capsys):
    code, doc, _ = run(capsys, "kneser-split", "--n", "9", "--blocks", "4,5",
                       "--q", "2")
    assert code == 0
    assert doc["status"] == "found" and doc["certificate"]["ok"] is True


def test_homology_command(capsys, tmp_path):
    path = write(tmp_path, "k.json", {
        "schema": "complex/1",
        "facets": [[1, 2], [1, 3], [2, 3]]})
    code, doc, _ = run(capsys, "homology", "--input", path)
    assert code == 0
    assert doc["reduced"] == [{"dim": 0, "betti": 0, "torsion": []},
                              {"dim": 1, "betti": 1, "torsion": []}]


def test_suite(capsys):
    code, doc, _ = run(capsys, "suite")
    assert code == 0 and doc["all_ok"] is True
    assert len(doc["results"]) == 12


# Runs in a fresh interpreter: every command but phi-check must leave numpy
# unloaded, and phi-check must load it.  Prints the exit codes, then whether
# numpy was loaded before and after phi-check.
_NUMPY_PROBE = r"""
import io, json, os, sys
from contextlib import redirect_stdout
from fairsplit.cli import build_parser, main

os.chdir(sys.argv[1])
def run(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()

codes = []
code, text = run("generate", "--family", "cycle", "--n", "6", "--blocks", "3,3")
open("c6.json", "w").write(text)
codes.append(code)
code, text = run("solve", "--input", "c6.json", "--q", "2")
json.dump({"schema": "splitting/1", "sets": json.loads(text)["splitting"]},
          open("s.json", "w"))
codes.append(code)
json.dump({"schema": "complex/1", "facets": [[1, 2], [1, 3], [2, 3]]},
          open("k.json", "w"))
for argv in (["verify", "--input", "c6.json", "--splitting", "s.json"],
             ["check-conditions", "--input", "c6.json", "--q", "2"],
             ["geometry", "--op", "gale", "--params", "1,2,3,4,5,6", "--d", "1",
              "--sets", "1,3;2,4"],
             ["geometry", "--op", "moment", "--params", "1,2,3", "--dim", "1"],
             ["compose", "--n", "15", "--blocks", "7,8", "--t", "2"],
             ["kneser-chi", "--n", "5", "--k", "2", "--q", "2"],
             ["kneser-split", "--n", "9", "--blocks", "4,5", "--q", "2"],
             ["homology", "--input", "k.json"]):
    codes.append(run(*argv)[0])
before = "numpy" in sys.modules
codes.append(run("phi-check", "--q", "3", "--k", "2", "--t", "1")[0])
print(json.dumps([codes, before, "numpy" in sys.modules]))
"""


def test_only_phi_check_loads_numpy(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    codes, before, after = json.loads(done.stdout)
    # check-conditions certifies nothing on the 6-cycle, a proven negative
    assert codes == [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    assert not before, "a command other than phi-check loaded numpy"
    assert after, "phi-check ran without numpy"


@pytest.mark.parametrize("argv", [
    ["suite", "--threads", "1"],
    ["kneser-split", "--n", "6", "--q", "2", "--threads", "4"],
    ["phi-check", "--q", "2", "--k", "2", "--t", "1", "--full-group", "yes"],
    ["solve", "--input", "x.json", "--q", "2", "--mode", "geometric"],
], ids=["threads", "threads-kneser-split", "full-group", "mode"])
def test_removed_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    out = capsys.readouterr()
    assert e.value.code == 2 and out.out == ""
    assert "unrecognized arguments: " + argv[-2] in out.err


def test_solve_points_search_geometrically(capsys, tmp_path):
    # the points alone make the search geometric: the sets' hulls on the
    # line meet in a common point
    path = write(tmp_path, "p4.json", {
        "schema": "instance/1", "n": 4, "edges": [[1, 2], [2, 3], [3, 4]],
        "partition": [[1, 2, 3, 4]]})
    pts = line_points(tmp_path, "l4.json", [1, 2, 3, 4])
    code, doc, _ = run(capsys, "solve", "--input", path, "--q", "2",
                       "--points", pts)
    assert code == 0 and doc["splitting"] == [[1, 3], [2, 4]]
    assert doc["common_point"] == [[2, 1]]


BUDGET_EXITS = [
    # (argv, stdout schema or None); each command run out of its budget
    (["solve", "--input", "CYCLE6", "--q", "2", "--budget", "0"], "outcome/1"),
    (["check-conditions", "--input", "PATH12", "--q", "3", "--budget", "1"],
     None),
    (["geometry", "--op", "sgp", "--points", "MOMENT7", "--q", "2",
      "--budget", "1"], None),
    (["geometry", "--op", "tverberg", "--points", "MOMENT7", "--q", "3",
      "--budget", "1"], None),
    (["phi-check", "--q", "3", "--k", "3", "--t", "2", "--budget", "100"], None),
    (["compose", "--n", "31", "--t", "2", "--budget", "1"], None),
    (["compose", "--n", "31", "--q1", "2", "--q2", "3", "--budget", "3"], None),
    (["kneser-chi", "--n", "6", "--k", "2", "--q", "2", "--budget", "1"], None),
    (["kneser-split", "--n", "6", "--q", "2", "--budget", "1"], None),
]


def test_negative_budget_is_an_input_error(capsys, tmp_path, cycle6):
    # every command with a --budget refuses a negative one before it runs,
    # also where the command would answer without reading it (the edgeless
    # Kneser hypergraph KG(3, 2), singleton blocks)
    moment = write(tmp_path, "m7.json", {
        "schema": "points/1", "dim": 2,
        "points": [[[x, 1], [x * x, 1]] for x in range(1, 8)]})
    commands = [
        ["solve", "--input", cycle6, "--q", "2"],
        ["check-conditions", "--input", cycle6, "--q", "2"],
        ["geometry", "--op", "sgp", "--points", moment, "--q", "2"],
        ["phi-check", "--q", "2", "--k", "2", "--t", "1"],
        ["compose", "--n", "15", "--t", "2"],
        ["kneser-chi", "--n", "3", "--k", "2", "--q", "2"],
        ["kneser-split", "--n", "3", "--blocks", "1,1,1", "--q", "2"],
    ]
    parser = build_parser()
    budgeted = [name for name, sub in
                parser._subparsers._group_actions[0].choices.items()
                if any("--budget" in a.option_strings for a in sub._actions)]
    assert sorted(budgeted) == sorted(argv[0] for argv in commands)
    for argv in commands:
        code, _, _ = run(capsys, *argv, "--budget", "0")
        assert code != 2, argv  # zero is a budget
        for budget in ("-1", "-5000000"):
            code, doc, err = run(capsys, *argv, "--budget", budget)
            assert code == 2 and doc is None, argv
            assert err == "input error: --budget must be nonnegative\n", err


@pytest.mark.parametrize("argv,schema", BUDGET_EXITS,
                         ids=["solve", "check-conditions", "sgp", "tverberg",
                              "phi-check", "compose-t", "compose-q1-q2",
                              "kneser-chi", "kneser-split"])
def test_budgeted_commands_exit_3(capsys, tmp_path, cycle6, argv, schema):
    # exit 1 is only ever a proven negative: running out of budget is 3
    files = {
        "CYCLE6": cycle6,
        "PATH12": write(tmp_path, "p12.json", {
            "schema": "instance/1", "n": 12,
            "edges": [[v, v + 1] for v in range(1, 12)],
            "partition": [list(range(1, 13))]}),
        "MOMENT7": write(tmp_path, "m7.json", {
            "schema": "points/1", "dim": 2,
            "points": [[[x, 1], [x * x, 1]] for x in range(1, 8)]})}
    code, doc, err = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 3 and "Traceback" not in err, err
    if schema is None:
        assert doc is None and err.startswith("resource budget exceeded: "), err
    else:
        assert doc["schema"] == schema and doc["status"] == "budget_exceeded"


def test_solve_long_path_splits(capsys, tmp_path):
    # 1200 positions deep: the search must not depend on the recursion limit
    n = 1200
    path = write(tmp_path, "p1200.json", {
        "schema": "instance/1", "n": n,
        "edges": [[v, v + 1] for v in range(1, n)],
        "partition": [list(range(1, n + 1))]})
    code, doc, err = run(capsys, "solve", "--input", path, "--q", "2",
                         "--flavor", "fair")
    assert code == 0, err
    assert doc["status"] == "found" and doc["certificate"]["ok"] is True
    assert doc["splitting"] == [list(range(1, n, 2)), list(range(2, n + 1, 2))]


def test_check_conditions_long_path(capsys, tmp_path):
    # the simple-path search of path_deletion walks 1200 vertices deep
    n = 1200
    path = write(tmp_path, "p1200.json", {
        "schema": "instance/1", "n": n,
        "edges": [[v, v + 1] for v in range(1, n)],
        "partition": [list(range(1, n + 1))]})
    code, doc, err = run(capsys, "check-conditions", "--input", path, "--q", "2")
    assert code == 0, err
    assert doc["schema"] == "conditions/1"
    deletion = doc["conditions"]["path_deletion"]
    assert deletion["ok"] is True and deletion["path"] == list(range(1, n + 1))


def _cli_subprocess(argv, limit_kb=None, timeout=20):
    """(exit code, stdout, stderr, seconds) of the CLI in a fresh
    interpreter, under `ulimit -v limit_kb` if given."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "fairsplit.cli", *argv]
    if limit_kb is not None:
        cmd = ["sh", "-c", 'ulimit -v %d && exec "$0" "$@"' % limit_kb] + cmd
    start = time.perf_counter()
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=timeout)
    return (done.returncode, done.stdout, done.stderr,
            time.perf_counter() - start)


@pytest.mark.parametrize("argv", [
    # C(20000, 10000) has 6,019 digits, too many to format; the count of
    # 10^8 choose 5*10^7 would take minutes to build
    ["kneser-chi", "--n", "20000", "--k", "10000", "--q", "2"],
    ["kneser-chi", "--n", "100000000", "--k", "50000000", "--q", "2"],
], ids=["kneser-chi-6019-digits", "kneser-chi-huge"])
def test_kneser_chi_counts_only_up_to_the_vertex_budget(argv):
    code, out, err, seconds = _cli_subprocess(argv)
    assert code == 3 and out == "", err
    assert "vertex budget of 200000" in err
    assert seconds < 1, seconds


def test_check_conditions_refuses_a_huge_q_without_testing_it(tmp_path):
    # 2^61 - 1 is prime: trial division up to its square root ran for minutes
    path = write(tmp_path, "p9.json", {
        "schema": "instance/1", "n": 9,
        "edges": [[v, v + 1] for v in range(1, 9)],
        "partition": [list(range(1, 10))]})
    code, out, err, seconds = _cli_subprocess(
        ["check-conditions", "--input", path, "--q", str(2 ** 61 - 1)])
    assert code == 3 and out == "" and "--q" in err, err
    assert seconds < 1, seconds


@pytest.mark.parametrize("op,code,doc", [
    ("tverberg", 1, {"schema": "tverberg/1", "parts": None, "point": None}),
    ("sgp", 0, {"schema": "predicate/1", "op": "sgp", "value": True,
                "witness": None}),
])
def test_geometry_q_above_the_point_count_builds_nothing_of_size_q(
        capsys, tmp_path, op, code, doc):
    # four points hold no family of 10^9 nonempty disjoint subsets; one list
    # per part, or a Stirling row of length q + 1, ran out of 2 GB
    _, points, _ = run(capsys, "geometry", "--op", "moment", "--params",
                       "1,2,3,4", "--dim", "2")
    got, out, err, seconds = _cli_subprocess(
        ["geometry", "--op", op, "--points", write(tmp_path, "p4.json", points),
         "--q", "1000000000"], limit_kb=2_000_000)
    assert got == code and json.loads(out) == doc, err
    assert seconds < 1, seconds


def test_complex_vertices_beyond_the_facets_are_ghosts(capsys, tmp_path):
    # a listed vertex that no facet holds is part of the ground set but not
    # a face; an isolated vertex is a one-vertex facet
    ghost = write(tmp_path, "ghost.json", {
        "schema": "complex/1", "vertices": [1, 2, 3], "facets": [[1, 2]]})
    isolated = write(tmp_path, "isolated.json", {
        "schema": "complex/1", "facets": [[1, 2], [3]]})
    code, doc, _ = run(capsys, "homology", "--input", ghost)
    assert code == 0 and doc["reduced"] == [{"dim": 0, "betti": 0, "torsion": []},
                                            {"dim": 1, "betti": 0, "torsion": []}]
    code, doc, _ = run(capsys, "homology", "--input", isolated)
    assert code == 0 and doc["reduced"] == [{"dim": 0, "betti": 1, "torsion": []},
                                            {"dim": 1, "betti": 0, "torsion": []}]


def test_huge_vertex_count_is_a_budget_exit(capsys, monkeypatch, tmp_path):
    import fairsplit.serial as serial

    def no_graph(n, edges):
        raise AssertionError("Graph(%d) built" % n)

    monkeypatch.setattr(serial, "Graph", no_graph)  # nothing of size n is built
    path = write(tmp_path, "huge.json", {
        "schema": "instance/1", "n": 10 ** 9, "edges": [], "partition": [[1]]})
    code, doc, err = run(capsys, "solve", "--input", path, "--q", "2")
    assert code == 3 and doc is None
    assert "vertices" in err


def test_unexpected_exception_is_internal_error(capsys, monkeypatch, cycle6):
    import fairsplit.cli as cli

    def crash(problem):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "find_splitting", crash)
    code, doc, err = run(capsys, "solve", "--input", cycle6, "--q", "2")
    assert code == 4 and doc is None
    assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"


def test_self_rejected_certificate_is_internal_error(capsys, monkeypatch, cycle6):
    # a witness the search's own certificate rejects is a fault, not exit 1
    import types

    import fairsplit.solver as solver

    monkeypatch.setattr(solver, "check_splitting",
                        lambda *args: types.SimpleNamespace(ok=False))
    code, doc, err = run(capsys, "solve", "--input", cycle6, "--q", "2")
    assert code == 4 and doc is None
    assert err == ("internal error: AssertionError: search produced a splitting "
                   "its own certificate rejects\n")


def test_count_over_its_cap_is_internal_error(capsys, monkeypatch, tmp_path):
    # the certificate holds, but the first set takes two vertices of a block
    # capped at one: a fault of the search, not a splitting
    import fairsplit.solver as solver

    path = write(tmp_path, "e3.json", {
        "schema": "instance/1", "n": 3, "edges": [], "partition": [[1, 2, 3]]})
    monkeypatch.setattr(solver, "_search", lambda problem, limit:
                        ("found", [(((1, 3), (2,)), None)], 1))
    code, doc, err = run(capsys, "solve", "--input", path, "--q", "2",
                         "--caps", "1")
    assert code == 4 and doc is None
    assert err == ("internal error: AssertionError: search produced a splitting "
                   "its own certificate rejects\n")


def test_common_point_off_its_weights_is_internal_error(capsys, monkeypatch,
                                                        tmp_path):
    # the LP's weights average to the true point, not to the one printed
    import fairsplit.solver as solver

    hulls = solver.convex_hulls_common_point

    def shifted(point_sets):
        got = hulls(point_sets)
        return got and (tuple(c + 100 for c in got[0]), got[1])

    monkeypatch.setattr(solver, "convex_hulls_common_point", shifted)
    path = write(tmp_path, "p4.json", {
        "schema": "instance/1", "n": 4, "edges": [[1, 2], [2, 3], [3, 4]],
        "partition": [[1, 2, 3, 4]]})
    pts = line_points(tmp_path, "l4.json", [1, 2, 3, 4])
    code, doc, err = run(capsys, "solve", "--input", path, "--q", "2",
                         "--points", pts)
    assert code == 4 and doc is None
    assert err == ("internal error: AssertionError: search produced a splitting "
                   "its own certificate rejects\n")


def test_improper_chromatic_witness_is_internal_error(capsys, monkeypatch):
    # chromatic_number rejecting its own coloring is a fault, not exit 1
    import fairsplit.kneser as kneser

    monkeypatch.setattr(kneser, "is_proper", lambda h, colors: False)
    code, doc, err = run(capsys, "kneser-chi", "--n", "5", "--k", "2", "--q", "2")
    assert code == 4 and doc is None
    assert err == "internal error: AssertionError: witness coloring is not proper\n"


def test_json_booleans_are_not_integers(capsys, tmp_path):
    path = write(tmp_path, "bool.json", {
        "schema": "instance/1", "n": True, "edges": [], "partition": [[True]]})
    code, doc, err = run(capsys, "solve", "--input", path, "--q", "1",
                         "--flavor", "fair")
    assert code == 2 and doc is None and "input error" in err


# ---------------------------------------------------------------------------
# fuzzing: whatever the documents and flags, every command exits 0-3, and
# an exit 1 that a reference can re-check is a refutation there too


_JUNK = [-1, 0, True, False, None, "7", 2.5, [], {}]
BRUTE_VERTEX_LIMIT = 8  # the largest instance an exit 1 of solve is re-checked on


def _mostly(rng, good, one_in=30):
    """The well-formed value, or once in a while a malformed one."""
    return rng.choice(_JUNK) if rng.randrange(one_in) == 0 else good


def _graph(rng, n):
    """(edges, blocks): a random graph on 1..n, its labels shuffled into one
    to four blocks."""
    p = rng.uniform(0, 0.3)
    edges = [[u, v] for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < p]
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 3)))) if n > 1 else []
    bounds = [0] + cuts + [n]
    return edges, [labels[a:b] for a, b in zip(bounds, bounds[1:])]


def _instance(rng):
    """(n or None, the number of blocks, the instance file's text or bytes);
    a drawn document has at most 30 vertices."""
    kind = rng.choice(["doc"] * 16 + ["huge", "text", "bytes", "deep"])
    if kind == "text":
        # cut off, a wrong top level, or a number too long to convert
        return None, 1, rng.choice([
            '{"schema": "instance/1", "n": 3', "[]", "null", "", '"instance/1"',
            '{"schema": "instance/1", "n": ' + "9" * 5000 + "}"])
    if kind == "bytes":
        return None, 1, b'{"schema": "instance/1", "n": 2, "partition": [[1, 2]]}\xff'
    if kind == "deep":
        return None, 1, '{"schema": "instance/1", "n": ' + "[" * 100_000 + "]" * 100_000 + "}"
    if kind == "huge":
        # just above the limit: refused before anything of size n is built
        n = INSTANCE_VERTEX_LIMIT + rng.randint(1, 3)
        return n, 1, json.dumps({"schema": "instance/1", "n": n, "edges": [[1, 2]],
                                 "partition": [[1, 2]]})
    n = rng.randint(0, 30)
    edges, blocks = _graph(rng, n)
    if rng.randrange(10) == 0:
        edges.append(rng.choice([[0, 1], [n, n + 1], [1, 1], [1, 2, 3], [True, 1]]))
    if rng.randrange(8) == 0:
        # overlapping, incomplete, empty or out-of-range partitions
        change = rng.choice(["overlap", "drop", "empty", "outside"])
        if change == "overlap" and n:
            blocks.append([blocks[0][0]])
        elif change == "drop" and n:
            blocks[-1] = blocks[-1][1:]
        elif change == "empty":
            blocks = rng.choice([[], [[]], blocks + [[]]])
        else:
            blocks[0] = blocks[0] + [n + 1]
    doc = {"schema": _mostly(rng, "instance/1"), "n": _mostly(rng, n),
           "edges": _mostly(rng, edges)}
    if rng.randrange(10):
        doc["partition"] = _mostly(rng, [_mostly(rng, b, 60) for b in blocks])
    return n, len(blocks), json.dumps(doc)


def _splitting_text(rng, n, q):
    """Mostly q disjoint sets within 1..n, else overlapping or malformed."""
    sets = [[] for _ in range(q)]
    for v in range(1, n + 1):
        i = rng.randint(0, q)
        if i < q:
            sets[i].append(v)
    if rng.randrange(6) == 0:
        extra = rng.choice([[1], [2, 2], [0], [n + 1], []])
        if extra:
            sets[0] = sets[0] + extra
        else:
            sets.append(extra)
    return json.dumps({"schema": _mostly(rng, "splitting/1"),
                       "sets": _mostly(rng, sets)})


def _points_text(rng, n):
    dim = rng.randint(1, 2)
    pts = [[[rng.randint(-4, 4), rng.randint(1, 3)] for _ in range(dim)]
           for _ in range(n - (rng.randrange(8) == 0))]
    if pts and rng.randrange(10) == 0:
        pts[0][0] = [1, 0]  # a zero denominator
    return json.dumps({"schema": "points/1", "dim": dim, "points": pts})


def _budget(rng, top):
    """--budget, small enough that every drawn search ends quickly."""
    return ["--budget", str(_mostly(rng, rng.randint(0, top), 20))]


def _int_flag(rng, flag, low, high):
    return [flag, str(_mostly(rng, rng.randint(low, high), 20))]


def _sets_text(rng, n):
    """Mostly two semicolon-separated label lists, labels just around 1..n."""
    def label():
        return rng.randint(1, max(n, 1)) if rng.randrange(10) else n + 1

    return ";".join(",".join(str(label()) for _ in range(rng.randint(0, 3)))
                    for _ in range(rng.choice([1, 2, 2, 2, 3])))


def _blocks_flag(rng, n):
    """Consecutive block sizes, mostly summing to n."""
    if rng.random() < 0.5:
        return []
    sizes, left = [], n
    while left > 0:
        sizes.append(rng.randint(1, left))
        left -= sizes[-1]
    if rng.randrange(8) == 0 or not sizes:
        sizes.append(rng.randint(-1, 2))
    return ["--blocks", ",".join(map(str, sizes))]


def _dimension_flags(rng):
    """Mostly exactly one of --d and --dim."""
    both = _int_flag(rng, "--d", 1, 2) + _int_flag(rng, "--dim", 1, 3)
    return rng.choice([[], both[:2], both[:2], both[2:], both[2:], both])


def _complex_text(rng):
    facets = [sorted(rng.sample(range(1, 7), rng.randint(0, 4)))
              for _ in range(rng.randint(0, 5))]
    if facets and rng.randrange(10) == 0:
        facets[0] = rng.choice([[1, 1], ["a", 2], [True], 3, [2.5]])
    doc = {"schema": _mostly(rng, "complex/1"), "facets": _mostly(rng, facets)}
    if rng.randrange(4) == 0:
        doc["vertices"] = _mostly(rng, list(range(1, rng.randint(1, 8))))
    return json.dumps(doc)


def _spec_run(rng, command):
    """solve or verify on a drawn instance, with the splitting spec flags;
    half the solves are small, plain (no --points or --caps) and well formed,
    so that most reach the search and the brute-force oracle can re-check
    their exit 1."""
    small = command == "solve" and rng.random() < 0.5
    if small:
        n = rng.randint(1, BRUTE_VERTEX_LIMIT)
        edges, blocks = _graph(rng, n)
        m = len(blocks)
        text = json.dumps({"schema": "instance/1", "n": n, "edges": edges,
                           "partition": blocks})
    else:
        n, m, text = _instance(rng)
    files = {"instance.json": text}
    argv = [command, "--input", "instance.json"]

    def draw(good):
        return good if small else _mostly(rng, good, 20)

    if command == "solve":
        argv += ["--q", str(draw(rng.choice([1, 2, 2, 3, 3, 4]))),
                 "--budget", str(draw(rng.randint(0, 10_000)))]
        if not small and rng.randrange(8) == 0:
            if rng.randrange(5):
                files["points.json"] = _points_text(rng, n or 0)
                argv += ["--points", "points.json"]
    else:
        files["splitting.json"] = _splitting_text(rng, n or 0, rng.randint(1, 4))
        argv += ["--splitting", "splitting.json"]
    argv += ["--flavor", rng.choice(["fair", "almost", "transversal"]),
             "--stability", str(draw(rng.randint(1, 3)))]
    argv += [flag for flag in ("--balanced", "--weak") if rng.random() < 0.5]
    if command == "solve" and not small and rng.random() < 0.5:
        caps = [rng.randint(0, 4) if rng.randrange(20) else -1
                for _ in range(m if rng.randrange(6) else rng.randint(1, 4))]
        argv.append("--caps=" + ",".join(map(str, caps)))
    return n, files, argv


def _check_conditions_run(rng):
    n, _, text = _instance(rng)
    argv = (["check-conditions", "--input", "instance.json"]
            + _int_flag(rng, "--q", 2, 5) + _budget(rng, 3000))
    if rng.random() < 0.3:
        argv += _int_flag(rng, "--n", 1, 6)
    if rng.random() < 0.25:
        argv.append("--path=" + ",".join(str(rng.randint(0, (n or 0) + 1))
                                         for _ in range(rng.randint(0, 4))))
    return n, {"instance.json": text}, argv


def _geometry_run(rng):
    # hulls twice: the Fraction-row reference re-checks its exit 1
    op = _mostly(rng, rng.choice(["moment", "stretched", "hulls", "hulls", "gale",
                                  "sgp", "tverberg"]))
    argv, files = ["geometry", "--op", str(op)], {}
    if op == "moment":
        params = sorted(rng.sample(range(-4, 9), rng.randint(0, 6)))
        if rng.randrange(6) == 0:
            rng.shuffle(params)
        argv += ["--params=" + ",".join(map(str, params))] + _dimension_flags(rng)
    elif op == "stretched":
        argv += (_int_flag(rng, "--n", 1, 6) + _int_flag(rng, "--base", 2, 4)
                 + _dimension_flags(rng))
    elif op == "gale":
        argv += ["--sets=" + _sets_text(rng, 8)]
    elif op in ("hulls", "sgp", "tverberg"):
        n = rng.randint(0, 7)
        if rng.randrange(10):
            files["points.json"] = _points_text(rng, n)
            argv += ["--points", "points.json"]
        if op == "hulls":
            if n >= 2 and rng.random() < 0.5:
                # two disjoint sets: their hulls miss often enough that the
                # reference re-checks exit 1
                labels = rng.sample(range(1, n + 1), rng.randint(2, n))
                cut = rng.randint(1, len(labels) - 1)
                argv.append("--sets=%s;%s" % (",".join(map(str, labels[:cut])),
                                              ",".join(map(str, labels[cut:]))))
            elif rng.randrange(10):
                argv += ["--sets=" + _sets_text(rng, n)]
        else:
            argv += _int_flag(rng, "--q", 1, 4) + _budget(rng, 200)
            if op == "tverberg" and rng.random() < 0.3:
                argv += _int_flag(rng, "--target-dim", 0, 3)
    return None, files, argv


def _phi_check_run(rng):
    q = rng.randint(2, 4)
    t = rng.randint(1, q)
    k = rng.randint(min(t, 2), 3)
    argv = ["phi-check", "--q", str(_mostly(rng, q)), "--k", str(_mostly(rng, k)),
            "--t", str(_mostly(rng, t))] + _budget(rng, 5000)
    if rng.random() < 0.3:
        order = list(range(max(q * k - t, 0)))
        rng.shuffle(order)
        if order and rng.randrange(4) == 0:
            order[0] = rng.choice([order[-1], len(order), -1])
        argv.append("--order=" + ",".join(map(str, order)))
    return None, {}, argv


def _compose_run(rng):
    n = rng.randint(0, 16)
    argv = ["compose", "--n", str(_mostly(rng, n))] + _blocks_flag(rng, n)
    form = rng.choice(["t", "t", "levels", "levels", "levels", "none"])
    if form == "t":
        argv += _int_flag(rng, "--t", 1, 3)
    elif form == "levels":
        argv += _int_flag(rng, "--q1", 1, 3) + _int_flag(rng, "--q2", 1, 3)
        for flag in ("--s1", "--s2"):
            if rng.random() < 0.5:
                argv += _int_flag(rng, flag, 1, 3)
    return None, {}, argv + _budget(rng, 20_000)


def _kneser_chi_run(rng):
    argv = (["kneser-chi"] + _int_flag(rng, "--n", 1, 9) + _int_flag(rng, "--k", 0, 3)
            + _int_flag(rng, "--q", 2, 4) + _budget(rng, 20_000))
    if rng.random() < 0.6:
        argv += ["--stability", _mostly(rng, rng.choice(["none", "path", "cycle"]))]
    return None, {}, [str(a) for a in argv]


def _kneser_split_run(rng):
    n = rng.randint(0, 12)
    argv = (["kneser-split", "--n", str(_mostly(rng, n))] + _blocks_flag(rng, n)
            + _int_flag(rng, "--q", 2, 4) + _budget(rng, 20_000))
    return None, {}, argv


def _generate_run(rng):
    n = rng.choice([rng.randint(0, 40), INSTANCE_VERTEX_LIMIT + 1])
    argv = ["generate", "--family", _mostly(rng, rng.choice(sorted(FAMILIES))),
            "--n", str(_mostly(rng, n))] + _blocks_flag(rng, n)
    for flag in ("--q", "--r"):
        if rng.random() < 0.5:
            argv += _int_flag(rng, flag, 0, 4)
    return None, {}, [str(a) for a in argv]


def _homology_run(rng):
    argv = ["homology", "--input", "complex.json"]
    if rng.random() < 0.3:
        argv += _int_flag(rng, "--max-dim", -1, 3)
    return None, {"complex.json": _complex_text(rng)}, argv


def _suite_run(rng):
    return None, {}, ["suite"] + (["--budget", "3"] if rng.randrange(8) == 0 else [])


# every subcommand with its drawing weight; the suite takes no input, so a
# few draws of it are enough
_CLI_RUNS = {
    "generate": (2, _generate_run),
    "solve": (4, lambda rng: _spec_run(rng, "solve")),
    "verify": (3, lambda rng: _spec_run(rng, "verify")),
    "check-conditions": (3, _check_conditions_run),
    "geometry": (3, _geometry_run),
    "phi-check": (2, _phi_check_run),
    "compose": (2, _compose_run),
    "kneser-chi": (2, _kneser_chi_run),
    "kneser-split": (2, _kneser_split_run),
    "homology": (2, _homology_run),
    "suite": (1, _suite_run),
}


def _cli_run(rng):
    """(n or None, {file name: contents}, argv naming those files); n is the
    vertex count of a drawn instance file."""
    names = list(_CLI_RUNS)
    command, = rng.choices(names, [_CLI_RUNS[c][0] for c in names])
    return _CLI_RUNS[command][1](rng)


def _assert_reference_refutes(files, argv):
    """An exit 1 re-checked by code that shares no search with the command:
    solve without --points or --caps on at most BRUTE_VERTEX_LIMIT vertices
    by the brute-force oracle, and geometry --op hulls by the Fraction-row
    LP reference."""
    args = build_parser().parse_args(argv)
    if args.command == "solve" and args.points is None and args.caps is None:
        g, part = serial.instance_load(files["instance.json"])
        if g.n <= BRUTE_VERTEX_LIMIT:
            flavor = {"almost": "almost_fair"}.get(args.flavor, args.flavor)
            spec = SplittingSpec(q=args.q, flavor=flavor, balanced=args.balanced,
                                 stability=args.stability, weak=args.weak)
            assert not brute_verdict(g, part, spec), argv
    elif args.command == "geometry" and args.op == "hulls":
        config = serial.points_load(files["points.json"])
        sets = [sorted({int(v) for v in part.split(",") if v.strip()})
                for part in args.sets.split(";")]
        assert fraction_hulls_reference([config.subset(s) for s in sets]) is None, argv


def _assert_chi_matches_formula(argv, doc):
    """An exit 0 of kneser-chi without stability, for k >= 1 and n >= qk,
    against the Alon-Frankl-Lovasz value, which is exact there."""
    args = build_parser().parse_args(argv)
    if args.stability == "none" and args.k >= 1 and args.n >= args.q * args.k:
        assert doc["chi"] == chromatic_formula(args.n, args.k, args.q), argv


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_cli_fuzz_exits_0_to_3(seed):
    # one drawn seed drives every choice, so the malformed cases stay rare
    # enough for most runs to reach the search or the certificate
    n, files, argv = _cli_run(random.Random(seed))
    real_graph = serial.Graph

    def bounded_graph(n, edges):
        assert n <= INSTANCE_VERTEX_LIMIT, "Graph(%d) built" % n
        return real_graph(n, edges)

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            mode = "wb" if isinstance(text, bytes) else "w"
            with open(os.path.join(tmp, name), mode) as fh:
                fh.write(text)
        argv = [os.path.join(tmp, a) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(serial, "Graph", bounded_graph), \
                redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse refusing a flag
                code = e.code
    assert code in (0, 1, 2, 3), (str(files)[:300], argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    elif err.getvalue().startswith("falsification: "):
        # a construction that broke its contract (compose) prints no document
        assert code == 1 and out.getvalue() == ""
    elif code != 3 or out.getvalue():  # a search cut by its budget reports it
        assert json.loads(out.getvalue())
    if n is not None and n > INSTANCE_VERTEX_LIMIT:
        # the instance is read first, so only a flag argparse refuses comes earlier
        assert code == 3 or "error: argument" in err.getvalue()
    if code == 1:
        _assert_reference_refutes(files, argv)
    elif code == 0 and argv[0] == "kneser-chi":
        _assert_chi_matches_formula(argv, json.loads(out.getvalue()))


def test_cli_fuzz_draws_every_subcommand(monkeypatch):
    # the fuzzer's own draws, each answered at once by a stand-in for main
    drawn = set()

    def record(argv):
        drawn.add(argv[0])
        return 3

    monkeypatch.setattr(sys.modules[__name__], "main", record)
    test_cli_fuzz_exits_0_to_3()
    parser = build_parser()
    assert drawn == set(parser._subparsers._group_actions[0].choices)


def test_every_spec_flag_combination_exits_0_to_3(capsys, tmp_path, cycle6):
    splitting = write(tmp_path, "s.json", {"schema": "splitting/1",
                                           "sets": [[1, 3], [2, 4]]})
    for flavor in ("fair", "almost", "transversal"):
        for stability in ("1", "2", "3"):
            for extra in ([], ["--balanced"], ["--weak"], ["--balanced", "--weak"]):
                flags = ["--flavor", flavor, "--stability", stability] + extra
                for caps in ([], ["--caps", "1,1"]):
                    code, _, err = run(capsys, "solve", "--input", cycle6, "--q", "2",
                                       "--budget", "10000", *flags, *caps)
                    assert code in (0, 1, 3), (flags, caps, err)
                code, _, err = run(capsys, "verify", "--input", cycle6,
                                   "--splitting", splitting, *flags)
                assert code in (0, 1), (flags, err)
