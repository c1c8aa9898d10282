"""Versioned JSON interchange for instances, splittings, complexes, and
point configurations.

Every document carries a "schema" field.  Output is canonical: keys sorted,
two-space indents, no timestamps, so identical inputs produce byte-identical
bytes across runs.  canonical_dumps writes those bytes with
its own small encoder; they equal json.dumps(obj, sort_keys=True, indent=2)
plus a newline.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from .complexes import SimplicialComplex
from .errors import INSTANCE_EDGE_LIMIT, InputError, check_size
from .geometry import PointConfiguration
from .graphs import Graph, VertexPartition
from .splitting import Splitting

INSTANCE_SCHEMA = "instance/1"
SPLITTING_SCHEMA = "splitting/1"
COMPLEX_SCHEMA = "complex/1"
POINTS_SCHEMA = "points/1"


def canonical_dumps(obj):
    """The bytes of json.dumps(obj, sort_keys=True, indent=2) plus a newline.

    Encodes directly into one list of pieces instead of through json's
    pure-Python indenting encoder.  Takes what fairsplit documents hold:
    dicts with str keys, lists, tuples, str, int, float, bool and None;
    anything else, a non-str key included, raises TypeError.
    """
    out = []
    _encode(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _encode(obj, out, newline):
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            out.append(sep + _encode_str(key) + ": ")
            _encode(obj[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        if set(map(type, obj)) <= {int}:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj))
                       + newline + "]")
            return
        sep = "[" + inner
        for x in obj:
            out.append(sep)
            _encode(x, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        text = float.__repr__(obj)
        out.append({"nan": "NaN", "inf": "Infinity",
                    "-inf": "-Infinity"}.get(text, text))
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(obj).__name__)


def _as_document(data, expect_schema):
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except ValueError as e:  # JSONDecodeError, or an int over 4,300 digits
            raise InputError("invalid JSON: %s" % e) from None
        except RecursionError:
            raise InputError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise InputError("expected a JSON object")
    if data.get("schema") != expect_schema:
        raise InputError("expected schema %r, got %r"
                         % (expect_schema, data.get("schema")))
    return data


def _is_int(x):
    """JSON true/false load as bool, which Python counts as int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(xs, what):
    if not isinstance(xs, list) or not all(_is_int(x) for x in xs):
        raise InputError("%s must be a list of integers" % what)
    return xs


def instance_dump(g: Graph, partition: VertexPartition | None = None):
    doc = {"schema": INSTANCE_SCHEMA, "n": g.n,
           "edges": [list(e) for e in sorted(g.edges)]}
    if partition is not None:
        doc["partition"] = [list(b) for b in partition.blocks]
    return doc


def instance_load(data):
    doc = _as_document(data, INSTANCE_SCHEMA)
    if not _is_int(doc.get("n")) or doc["n"] < 0:
        raise InputError("instance needs a nonnegative integer n")
    check_size("instance vertices", doc["n"])
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise InputError("edges must be a list")
    check_size("instance edges", len(edges), INSTANCE_EDGE_LIMIT)
    pairs = []
    for e in edges:
        e = _int_list(e, "edge")
        if len(e) != 2:
            raise InputError("edge %r is not a pair" % (e,))
        pairs.append(tuple(e))
    g = Graph(doc["n"], pairs)
    partition = None
    if "partition" in doc:
        blocks = doc["partition"]
        if not isinstance(blocks, list) or not blocks:
            raise InputError("partition must be a nonempty list of blocks")
        partition = VertexPartition(
            [tuple(_int_list(b, "block")) for b in blocks], g.n)
    return g, partition


def splitting_dump(s: Splitting):
    return {"schema": SPLITTING_SCHEMA, "sets": [list(x) for x in s.sets]}


def splitting_load(data):
    doc = _as_document(data, SPLITTING_SCHEMA)
    sets = doc.get("sets")
    if not isinstance(sets, list) or not sets:
        raise InputError("splitting needs a nonempty list of sets")
    out, seen = [], set()
    for s in sets:
        s = _int_list(s, "set")
        if len(set(s)) != len(s):
            raise InputError("set %r repeats a vertex" % (s,))
        if seen & set(s):
            raise InputError("sets overlap in %r" % sorted(seen & set(s)))
        seen |= set(s)
        out.append(tuple(s))
    return Splitting(out)


def complex_load(data):
    doc = _as_document(data, COMPLEX_SCHEMA)
    facets = doc.get("facets")
    if not isinstance(facets, list):
        raise InputError("complex needs a list of facets")
    vertices = doc.get("vertices")
    if vertices is not None:
        vertices = _labels(vertices, "vertex list")
    return SimplicialComplex([_labels(f, "facet") for f in facets], vertices=vertices)


def _labels(xs, what):
    if not isinstance(xs, list) or not all(_is_int(v) or isinstance(v, str) for v in xs):
        raise InputError("%s %r must list integer or string vertices" % (what, xs))
    return tuple(xs)


def _fraction_pair(x, what):
    if (not isinstance(x, list) or len(x) != 2
            or not all(_is_int(v) for v in x) or x[1] == 0):
        raise InputError("%s must be a [numerator, denominator] pair" % what)
    return Fraction(x[0], x[1])


def points_dump(config: PointConfiguration):
    return {"schema": POINTS_SCHEMA, "dim": config.dim,
            "points": [[[c.numerator, c.denominator] for c in p]
                       for p in config.points]}


def points_load(data):
    doc = _as_document(data, POINTS_SCHEMA)
    dim = doc.get("dim")
    pts = doc.get("points")
    if not _is_int(dim) or dim < 1 or not isinstance(pts, list):
        raise InputError("points document needs dim >= 1 and a point list")
    rows = []
    for p in pts:
        if not isinstance(p, list) or len(p) != dim:
            raise InputError("point %r does not have dim %d" % (p, dim))
        rows.append(tuple(_fraction_pair(c, "coordinate") for c in p))
    return PointConfiguration(tuple(rows))


def load_file(path, loader):
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError("cannot read %s: %s" % (path, e)) from None
    return loader(text)
