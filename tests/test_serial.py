import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsplit.complexes import SimplicialComplex, vertex_key
from fairsplit.errors import (INSTANCE_EDGE_LIMIT, INSTANCE_VERTEX_LIMIT,
                              InputError, ResourceBudget)
from fairsplit.geometry import moment_points
from fairsplit.graphs import Graph, VertexPartition, cycle_graph
from fairsplit.serial import (COMPLEX_SCHEMA, canonical_dumps, complex_load,
                              instance_dump, instance_load, load_file,
                              points_dump, points_load, splitting_dump,
                              splitting_load)
from fairsplit.splitting import Splitting


def complex_dump(k: SimplicialComplex):
    """The complex/1 document complex_load reads."""
    return {"schema": COMPLEX_SCHEMA, "vertices": list(k.vertices),
            "facets": [sorted(f, key=vertex_key) for f in k.facets]}


def test_canonical_dumps_is_stable():
    a = canonical_dumps({"b": 1, "a": [2, 3]})
    b = canonical_dumps({"a": [2, 3], "b": 1})
    assert a == b and a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


_LEAVES = (st.text(max_size=8)
           | st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f é€😀', max_size=8)
           | st.integers() | st.integers(-2 ** 100, 2 ** 100)
           | st.floats() | st.booleans() | st.none())
_DOCUMENTS = st.recursive(
    _LEAVES | st.lists(st.integers()) | st.lists(st.integers() | st.booleans()),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(max_size=8), inner)),
    max_leaves=20)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_DOCUMENTS)
def test_canonical_dumps_matches_json_dumps(doc):
    assert canonical_dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_canonical_dumps_rejects_what_documents_never_hold():
    # json.dumps would print {"1": 2}; documents only ever have str keys
    for bad in ({1: 2}, {"a": {(1, 2): 3}}, [Fraction(1, 2)], {"a": {1, 2}},
                [[set()]], object()):
        with pytest.raises(TypeError):
            canonical_dumps(bad)


def test_instance_round_trip():
    g = cycle_graph(5)
    part = VertexPartition([(1, 2), (3, 4, 5)], 5)
    doc = instance_dump(g, part)
    text = canonical_dumps(doc)
    g2, p2 = instance_load(text)
    assert g2 == g and p2 == part
    # partition is optional
    g3, p3 = instance_load(instance_dump(g))
    assert g3 == g and p3 is None


def test_instance_load_validation():
    with pytest.raises(InputError):
        instance_load("{not json")
    with pytest.raises(InputError):
        instance_load({"schema": "instance/2", "n": 1, "edges": []})
    with pytest.raises(InputError):
        instance_load({"schema": "instance/1", "n": -1, "edges": []})
    with pytest.raises(InputError):
        instance_load({"schema": "instance/1", "n": 3, "edges": [[1, 2, 3]]})
    with pytest.raises(InputError):
        instance_load({"schema": "instance/1", "n": 3, "edges": [],
                       "partition": [[1, 2]]})  # does not cover 3
    with pytest.raises(InputError):
        instance_load([1, 2])
    with pytest.raises(InputError):  # JSON true is not the integer 1
        instance_load({"schema": "instance/1", "n": 2, "edges": [[2, True]]})


def test_instance_vertex_limit_checked_before_building(monkeypatch):
    import fairsplit.serial as serial

    def no_graph(n, edges):
        raise AssertionError("Graph(%d) built" % n)

    monkeypatch.setattr(serial, "Graph", no_graph)
    for n in (INSTANCE_VERTEX_LIMIT + 1, 10 ** 9):
        with pytest.raises(ResourceBudget):
            instance_load({"schema": "instance/1", "n": n, "edges": []})
    monkeypatch.undo()
    g, _ = instance_load({"schema": "instance/1", "n": INSTANCE_VERTEX_LIMIT,
                          "edges": [[1, 2]]})
    assert g.n == INSTANCE_VERTEX_LIMIT


def test_instance_edge_limit_checked_before_building(monkeypatch):
    import fairsplit.serial as serial

    def no_graph(n, edges):
        raise AssertionError("Graph(%d) built" % n)

    monkeypatch.setattr(serial, "Graph", no_graph)
    edge = [1, 2]  # one list, so the over-long edge list stays small
    with pytest.raises(ResourceBudget, match="instance edges: 1000001"):
        instance_load({"schema": "instance/1", "n": 2,
                       "edges": [edge] * (INSTANCE_EDGE_LIMIT + 1)})
    monkeypatch.undo()
    # at the limit the list is read, here with the limit lowered to 3
    monkeypatch.setattr(serial, "INSTANCE_EDGE_LIMIT", 3)
    with pytest.raises(ResourceBudget, match="instance edges: 4"):
        instance_load({"schema": "instance/1", "n": 2, "edges": [edge] * 4})
    g, _ = instance_load({"schema": "instance/1", "n": 2, "edges": [edge] * 3})
    assert g.edges == {(1, 2)}


def test_splitting_round_trip():
    s = Splitting([(2, 4), (1, 5)])
    doc = splitting_dump(s)
    assert doc == {"schema": "splitting/1", "sets": [[2, 4], [1, 5]]}
    s2 = splitting_load(canonical_dumps(doc))
    assert s2.sets == s.sets


def test_splitting_load_rejects_overlap_and_repeats():
    with pytest.raises(InputError):
        splitting_load({"schema": "splitting/1", "sets": [[1, 2], [2, 3]]})
    with pytest.raises(InputError):
        splitting_load({"schema": "splitting/1", "sets": [[1, 1]]})
    with pytest.raises(InputError):
        splitting_load({"schema": "splitting/1", "sets": []})


def test_complex_round_trip():
    k = SimplicialComplex([(1, 2, 3), (3, 4)])
    k2 = complex_load(canonical_dumps(complex_dump(k)))
    assert k2 == k
    # string vertices survive
    k = SimplicialComplex([("a", "b")])
    assert complex_load(complex_dump(k)) == k
    with pytest.raises(InputError):
        complex_load({"schema": "complex/1", "facets": [[1.5]]})


def test_complex_dump_bytes_ignore_hash_seed():
    code = ("from fairsplit.complexes import SimplicialComplex\n"
            "from fairsplit.serial import canonical_dumps\n"
            "from test_serial import complex_dump\n"
            "k = SimplicialComplex([('x', 'b', 'q', 'a', 'm'), ('z', 'y'), (9, 17, 1)])\n"
            "print(canonical_dumps(complex_dump(k)))\n")
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True).stdout)
    assert outs[0] == outs[1]
    facets = json.loads(outs[0])["facets"]
    assert ["a", "b", "m", "q", "x"] in facets and [1, 9, 17] in facets


def test_complex_ghost_vertices_survive():
    k = SimplicialComplex([(1, 2)], vertices=[1, 2, 3])
    k2 = complex_load(complex_dump(k))
    assert sorted(k2.vertices) == [1, 2, 3]


def test_points_round_trip():
    cfg = moment_points([Fraction(1, 2), 1, 2], d=1)
    doc = points_dump(cfg)
    assert doc["dim"] == 2
    cfg2 = points_load(canonical_dumps(doc))
    assert cfg2.points == cfg.points


def test_points_load_validation():
    with pytest.raises(InputError):
        points_load({"schema": "points/1", "dim": 0, "points": []})
    with pytest.raises(InputError):
        points_load({"schema": "points/1", "dim": 2, "points": [[[1, 2]]]})
    with pytest.raises(InputError):
        points_load({"schema": "points/1", "dim": 1, "points": [[[1, 0]]]})
    with pytest.raises(InputError):
        points_load({"schema": "points/1", "dim": True, "points": [[[1, 1]]]})
    with pytest.raises(InputError):
        points_load({"schema": "points/1", "dim": 1, "points": [[[1, True]]]})


def test_complex_load_validation():
    with pytest.raises(InputError):
        complex_load({"schema": "complex/1", "facets": [[True, 2]]})
    with pytest.raises(InputError):
        complex_load({"schema": "complex/1", "vertices": [False], "facets": []})
    with pytest.raises(InputError):
        complex_load({"schema": "complex/1", "vertices": [[1]], "facets": []})


def test_load_file(tmp_path):
    g = Graph(3, [(1, 2)])
    path = tmp_path / "g.json"
    path.write_text(canonical_dumps(instance_dump(g)))
    g2, _ = load_file(str(path), instance_load)
    assert g2 == g
    with pytest.raises(InputError):
        load_file(str(tmp_path / "missing.json"), instance_load)


def test_dump_bytes_are_deterministic():
    g = cycle_graph(7)
    part = VertexPartition([(1, 2, 3), (4, 5, 6, 7)], 7)
    blobs = {canonical_dumps(instance_dump(g, part)) for _ in range(5)}
    assert len(blobs) == 1
    assert json.loads(blobs.pop())["schema"] == "instance/1"
