import json

import pytest

from fairsplit.cli import main


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


def test_geometry_sgp(capsys, tmp_path):
    pts = line_points(tmp_path, "p3.json", [1, 2, 3])
    code, doc, _ = run(capsys, "geometry", "--op", "sgp",
                       "--points", pts, "--q", "2")
    assert code == 0 and doc["value"] is True and doc["witness"] is None


def test_phi_check(capsys):
    code, doc, _ = run(capsys, "phi-check", "--q", "2", "--k", "2", "--t", "1")
    assert code == 0 and doc["ok"] is True
    assert doc["zero_set"]["ok"] is True
    assert doc["equivariance"]["ok"] is True


def test_phi_check_bad_parameters(capsys):
    code, doc, err = run(capsys, "phi-check", "--q", "1", "--k", "2", "--t", "1")
    assert code == 2 and "input error" in err


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


def test_suite_and_seedless(capsys):
    code, doc, _ = run(capsys, "suite")
    assert code == 0 and doc["all_ok"] is True
    assert len(doc["results"]) == 12
    code, doc, _ = run(capsys, "--seedless", "suite")
    assert code == 0 and doc["all_ok"] is True


def test_suite_output_thread_independent(capsys):
    main(["suite", "--threads", "1"])
    one = capsys.readouterr().out
    main(["suite", "--threads", "4"])
    four = capsys.readouterr().out
    assert one == four


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


def test_json_booleans_are_not_integers(capsys, tmp_path):
    path = write(tmp_path, "bool.json", {
        "schema": "instance/1", "n": True, "edges": [], "partition": [[True]]})
    code, doc, err = run(capsys, "solve", "--input", path, "--q", "1",
                         "--flavor", "fair")
    assert code == 2 and doc is None and "input error" in err
