"""The package holds only what its commands and the benchmark reach.

A module-level function or class of src/fairsplit that nothing in src/ or
perfbench/ names is code only the tests use; it belongs in tests/ (see
tests/shared.py).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names_used(tree):
    """Names a module reads: bare names, attributes of a bare name (module.f),
    imported names, and identifier strings (perfbench wraps functions it
    names as strings)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out.add(node.value)
    return out


def test_every_src_definition_is_named_outside_its_definition():
    used, defined = set(), []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= _names_used(tree)
        if path.parent.name == "fairsplit":
            defined += [(path.name, node.name) for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                             ast.ClassDef))]
    assert defined
    unused = [(module, name) for module, name in defined if name not in used]
    assert unused == [], "defined in src but named nowhere in src/ or perfbench/"
