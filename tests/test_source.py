"""Static checks on the package source, where no linter runs."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "evosc"


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    """__init__ imports to re-export; every other module imports only names it uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


ROOT = PACKAGE.parents[1]
# the pattern behind three frozen simulator digests (bitmap, block_edge_ties
# and capped_levels in tests/test_sim.py); no config key names it yet
TEST_ONLY_ALLOWED = {"Bitmap"}


def _callers():
    """Every package module but __init__ (whose imports only re-export), and
    the benchmark's and the scripts' modules, but not their tests."""
    yield from (p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    for folder in ("perfbench", "scripts"):
        yield from (p for p in (ROOT / folder).glob("*.py") if not p.name.startswith("test_"))


def test_every_top_level_name_has_a_caller_outside_the_tests():
    """A function or class that only the tests reach is surface to cut. A
    name counts as reached where a caller reads it bare, as an attribute, or
    imports it; its own definition does not count."""
    defined = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined |= {node.name for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    reached = set()
    for path in _callers():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reached |= {a.name for a in node.names}
    assert sorted(defined - reached - TEST_ONLY_ALLOWED) == []


def test_only_core_compares_with_infinity():
    """Range rules are core's check_positive, check_non_negative and
    check_finite: no other package module compares a value with math.inf or
    np.inf, so a rule cannot be written out again with NaN let through."""
    found = []
    for path in PACKAGE.glob("*.py"):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare):
                for side in (node.left, *node.comparators):
                    side = side.operand if isinstance(side, ast.UnaryOp) else side
                    if isinstance(side, ast.Attribute) and side.attr == "inf":
                        found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_io_knows_the_evt_header():
    """The .evt header is io's: no other package module names its layout
    (HEADER_FMT, HEADER_SIZE, MAGIC, VERSION) or a packer of it
    (_evt_header), so no second writer can drift from io's."""
    names = {"_evt_header", "HEADER_FMT", "HEADER_SIZE", "MAGIC", "VERSION"}
    found = []
    for path in PACKAGE.glob("*.py"):
        if path.name == "io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            named = ([node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [])
            found += [f"{path.name}:{node.lineno} {name}" for name in named if name in names]
    assert found == []


def test_no_module_imports_scipy():
    """No package module imports scipy, at the top or inside a function:
    numpy is the package's only runtime dependency."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [(node.name, node) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "scipy" for name in names):
                inside = [name for name, scope in scopes
                          if scope.lineno <= node.lineno <= scope.end_lineno]
                found.add((path.name, inside[-1] if inside else None))
    assert sorted(found) == []
