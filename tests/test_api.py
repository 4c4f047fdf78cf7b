"""Every function the library defines has a caller in the library, the
benchmark or the scripts, or is part of the public API: code that only the
tests use does not come back."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "opalg"
USERS = [PACKAGE, ROOT / "perfbench", ROOT / "scripts"]


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported():
    """Names that opalg/__init__.py imports, so `opalg.<name>` is public."""
    tree = _parse(PACKAGE / "__init__.py")
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _references(node):
    """Every name read, attribute taken or identifier-like string constant
    (the benchmark's tracer names its targets as strings) under `node`."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out.append(sub.value)
    return out


def _is_click_command(fn):
    """Decorated with `@main.command(...)` or `@click.group()`."""
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) \
                and target.attr in ("command", "group"):
            return True
    return False


def _definitions():
    """(module, qualified name, function node) of every def in opalg."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append((path.stem, prefix + child.name, child))
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
        visit(_parse(path), "")
    return out


def test_every_library_function_has_a_non_test_caller():
    uses = []
    for root in USERS:
        for path in sorted(root.glob("*.py")):
            uses += _references(_parse(path))
    exported = _exported()
    unused = []
    for module, qualname, fn in _definitions():
        name = fn.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if _is_click_command(fn) or name in exported:
            continue
        # a function that only calls itself has no caller
        own = _references(fn).count(name)
        if uses.count(name) - own <= 0:
            unused.append(f"{module}.{qualname}")
    assert unused == []


def test_no_module_imports_inside_a_function():
    """Imports sit at module level, where the layering of the package is
    visible: a function-local import is how an import cycle hides."""
    local = []
    for module, qualname, fn in _definitions():
        for sub in ast.walk(fn):
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                local.append(f"{module}.{qualname}:{sub.lineno}")
    assert local == []
