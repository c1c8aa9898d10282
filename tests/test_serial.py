import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsplit.complexes import SimplicialComplex
from fairsplit.errors import InputError
from fairsplit.geometry import moment_points
from fairsplit.graphs import Graph, VertexPartition, cycle_graph
from fairsplit.serial import (canonical_dumps, complex_dump, complex_load,
                              instance_dump, instance_load, load_file,
                              points_dump, points_load, splitting_dump,
                              splitting_load)
from fairsplit.splitting import Splitting


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
