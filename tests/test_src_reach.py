"""The package holds only what its commands and the benchmark reach.

A module-level function or class of src/fairsplit that nothing in src/ or
perfbench/ names, or a method of one of its classes that nothing there reads
as an attribute, is code only the tests use; it belongs in tests/ (see
tests/shared.py).  A defaulted parameter that no call there passes is a
setting only the tests use; the default belongs in the body, and a test
that needs another value patches the module constant.
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


def _calls(tree, calls):
    """For every call in `tree` to a bare name or an attribute, record under
    that name how many positional arguments it passes (unbounded with a *args
    spread) and the keywords it passes (None for a **kwargs spread)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            continue
        positional = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                      else len(node.args))
        calls.setdefault(name, []).append((positional, {k.arg for k in node.keywords}))


def _defaulted_parameters_never_passed():
    """(module, function, parameter) for every defaulted parameter of a def
    in src/fairsplit that no call in src/ or perfbench/ passes, by keyword or
    by position.  Calls are matched by name, so a call to a class counts as
    a call to its __init__, and a method's self is not a position."""
    calls, defs = {}, []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _calls(tree, calls)
        if path.parent.name == "fairsplit":
            owner = {item: node.name for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef)
                     for item in node.body if _is_function(item)}
            defs += [(path.name, node, owner.get(node))
                     for node in ast.walk(tree) if _is_function(node)]
    never = []
    for module, fn, cls in defs:
        args = fn.args
        positional = args.posonlyargs + args.args
        skip = int(cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list))
        first = len(positional) - len(args.defaults)
        defaulted = [(i - skip, p.arg) for i, p in enumerate(positional) if i >= first]
        defaulted += [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        seen = calls.get(fn.name, [])
        if fn.name == "__init__":
            seen = seen + calls.get(cls, [])
        for i, name in defaulted:
            if not any(name in kws or None in kws or (i is not None and count > i)
                       for count, kws in seen):
                never.append((module, fn.name, name))
    return never


def test_every_defaulted_parameter_is_passed_somewhere():
    # cli.main(argv) takes its arguments from the command line
    never = [p for p in _defaulted_parameters_never_passed()
             if p != ("cli.py", "main", "argv")]
    assert never == [], "defaulted parameters that src/ and perfbench/ never pass"
