"""The three routes share exact line intersection and nothing more, and only
``geometry`` clears denominators.

The sweep (``sweep``), the poset (``poset``) and the two brute-force oracles
(``regions``, ``cubical``) may read an ``Arrangement`` and ``geometry``, but
none may import another route or the handle-count formula; otherwise the
cross-check between them would be circular.
"""

import ast
from pathlib import Path

import pytest

import linetopo

PACKAGE = Path(linetopo.__file__).parent
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
