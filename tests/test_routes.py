"""The three routes share exact line intersection and nothing more, only
``geometry`` clears denominators, the homology oracle imports no
``fractions``, the package ships no definition that only the tests use and
no ``assert``, and the routes agree on drawn arrangements.

The sweep (``sweep``), the poset (``poset``) and the two brute-force oracles
(``regions``, ``cubical``) may read an ``Arrangement`` and ``geometry``, but
none may import another route or the handle-count formula; otherwise the
cross-check between them would be circular.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings

import linetopo
from linetopo import (
    build_poset,
    build_space_graph,
    euler_region_count,
    find_generic_direction,
    handle_trace,
    predict_topology,
    recover_line_count,
    recover_multiplicities,
    sweep_events,
)
from conftest import hub_arrangements

PACKAGE = Path(linetopo.__file__).parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"
ROUTES = {"sweep", "regions", "poset", "cubical"}
FORMULA = {"predict_topology", "betti_vector"}


def _imports(path: Path):
    """(module, name) for every name a source file imports; name is None for
    a plain ``import``.  Relative imports are resolved inside the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ["linetopo", base]))
            for alias in node.names:
                yield base, alias.name


def _violations(module: str, package: Path = PACKAGE):
    others = {f"linetopo.{r}" for r in ROUTES - {module}}
    for source, name in _imports(package / f"{module}.py"):
        if source in others or (source == "linetopo" and name in ROUTES - {module}):
            yield f"imports route {name if source == 'linetopo' else source}"
        elif name in FORMULA:
            yield f"imports {name} from {source}"


@pytest.mark.parametrize("module", sorted(ROUTES))
def test_routes_import_no_other_route_and_no_formula(module):
    assert list(_violations(module)) == []


def test_route_check_sees_a_forbidden_import(tmp_path):
    (tmp_path / "sweep.py").write_text(
        "from .poset import build_poset\n"
        "from . import cubical\n"
        "from .arrangement import Arrangement, predict_topology\n",
        encoding="utf-8",
    )
    assert list(_violations("sweep", tmp_path)) == [
        "imports route linetopo.poset",
        "imports route cubical",
        "imports predict_topology from linetopo.arrangement",
    ]


def _denominator_reads(path: Path):
    """The top-level definition (None at module level) around every read of
    ``.numerator`` or ``.denominator`` in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr in ("numerator", "denominator"):
                yield getattr(node, "name", None)


def test_denominators_are_cleared_only_in_geometry():
    # geometry.clear_denominators is the one routine that clears
    # denominators; outside geometry only the renderer reads a Fraction's
    # parts.  Equality, not a subset, so the scan is seen to find a read.
    reads = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        if path.stem != "geometry"
        for name in _denominator_reads(path)
    }
    assert reads == {("io_json", "format_rational")}


def test_modules_that_import_fractions():
    # cubical works in integer forms from its frame on.  The others build
    # Fractions for what they print or return (views of points and bases,
    # sweep levels and directions, parsed and rendered rationals) and, in
    # regions, for its own clipping box.  Equality, so a new importer shows.
    importers = {
        path.stem
        for path in PACKAGE.glob("*.py")
        if any(source == "fractions" for source, _ in _imports(path))
    }
    assert importers == {"arrangement", "geometry", "io_json", "regions", "sweep"}


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_used(node, outer=()):
    """(name, enclosing definitions) for every reference under ``node``: a
    Name, an Attribute, a name imported from a module or an ``__all__``
    entry."""
    if isinstance(node, ast.Name):
        yield node.id, outer
    elif isinstance(node, ast.Attribute):
        yield node.attr, outer
    elif isinstance(node, ast.ImportFrom):
        yield from ((alias.name, outer) for alias in node.names)
    elif isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    ):
        yield from ((entry.value, outer) for entry in node.value.elts)
    if isinstance(node, _DEFINITIONS):
        outer = outer + (node,)
    for child in ast.iter_child_nodes(node):
        yield from _names_used(child, outer)


def _defined(node, prefix=""):
    """(qualified name, node) of every definition under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFINITIONS):
            yield prefix + child.name, child
            yield from _defined(child, prefix + child.name + ".")
        else:
            yield from _defined(child, prefix)


def _unreferenced(package: Path, *others: Path):
    """Every function, method and class defined in the package that nothing
    in the package or ``others`` refers to outside its own definition, as
    module.qualified.name.  Dunder methods are called by the language, so
    they are not listed."""
    modules = sorted(package.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in modules + [p for other in others for p in sorted(other.glob("*.py"))]}
    uses = [use for tree in trees.values() for use in _names_used(tree)]
    for path in modules:
        for qualname, node in _defined(trees[path]):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if not any(name == node.name and node not in outer for name, outer in uses):
                yield f"{path.stem}.{qualname}"


def test_every_shipped_definition_is_used_outside_the_tests():
    # code that only the tests call belongs in tests/, as an oracle
    assert list(_unreferenced(PACKAGE, DEMOS)) == []


def test_unused_check_sees_an_unused_definition(tmp_path):
    package, demos = tmp_path / "package", tmp_path / "demos"
    package.mkdir()
    demos.mkdir()
    (package / "mod.py").write_text(
        "__all__ = ['exported']\n"
        "def exported(): return Box()\n"
        "def helper(): return 1\n"
        "def recursive(k): return recursive(k - 1)\n"
        "def unused():\n"
        "    def inner(): pass\n"
        "    return helper()\n"
        "class Box:\n"
        "    def __init__(self): self.size = self.measure()\n"
        "    def measure(self): return 0\n"
        "    def dropped(self): return Box()\n",
        encoding="utf-8",
    )
    (demos / "demo.py").write_text("from package.mod import exported\n", encoding="utf-8")
    assert list(_unreferenced(package, demos)) == [
        "mod.recursive", "mod.unused", "mod.unused.inner", "mod.Box.dropped",
    ]


def _asserts(path: Path):
    """Line numbers of the ``assert`` statements in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_the_package_has_no_assert():
    # python -O strips asserts, so invariants raise explicit errors
    assert {path.name: _asserts(path) for path in PACKAGE.glob("*.py") if _asserts(path)} == {}


def test_assert_check_sees_an_assert(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def f(x):\n"
        "    if x:\n"
        "        assert x > 0, 'positive'\n"
        "    return x\n",
        encoding="utf-8",
    )
    assert _asserts(path) == [3]


@settings(max_examples=200, deadline=None)
@given(hub_arrangements())
def test_routes_agree_on_drawn_arrangements(a):
    # the formula, the sweep, the poset and, in the plane, the region count
    # give one g; shrinking names a minimal arrangement where they part
    g = predict_topology(a).g
    graph = build_space_graph(a)
    trace = handle_trace(sweep_events(graph, find_generic_direction(graph)), a.dimension)
    assert trace.all_trivial and trace.final_g == g
    p = build_poset(a)
    t = recover_multiplicities(p)
    assert recover_line_count(p) + sum((i - 1) * c for i, c in t.items()) == g
    if a.dimension == 2:
        assert euler_region_count(a) == 1 + g
