"""The package holds only what its commands and the benchmark reach.

A module-level function or class of src/fairsplit that nothing in src/ or
perfbench/ names, or a method of one of its classes that nothing there reads
as an attribute, is code only the tests use; it belongs in tests/ (see
tests/shared.py).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names_used(tree):
    """Names a module reads: bare names, attributes of a bare name (module.f),
    imported names, and identifier strings (perfbench wraps functions it
    names as strings); and apart from them every attribute name it reads,
    whatever it is read from (obj.method)."""
    out, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name):
                out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out.add(node.value)
    return out, attrs


def _is_function(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _scan():
    """(names used, attributes read, module-level definitions, methods) over
    src/ and perfbench/; definitions and methods are (module, name) pairs of
    src/fairsplit, dunder methods left out."""
    used, attrs, defined, methods = set(), set(), [], []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, read = _names_used(tree)
        used |= names
        attrs |= read
        if path.parent.name == "fairsplit":
            defined += [(path.name, node.name) for node in tree.body
                        if _is_function(node) or isinstance(node, ast.ClassDef)]
            methods += [(path.name, "%s.%s" % (node.name, item.name))
                        for node in tree.body if isinstance(node, ast.ClassDef)
                        for item in node.body
                        if _is_function(item) and not (item.name.startswith("__")
                                                       and item.name.endswith("__"))]
    return used, attrs, defined, methods


def test_every_src_definition_is_named_outside_its_definition():
    used, _, defined, _ = _scan()
    assert defined
    unused = [(module, name) for module, name in defined if name not in used]
    assert unused == [], "defined in src but named nowhere in src/ or perfbench/"


def test_every_src_method_is_read_as_an_attribute():
    _, attrs, _, methods = _scan()
    assert methods
    unused = [(module, name) for module, name in methods
              if name.split(".")[1] not in attrs]
    assert unused == [], "methods in src that src/ and perfbench/ never read"
