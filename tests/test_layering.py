"""Every module imports only modules below it in the layer order.

perfbench/tracing.py wraps the modules in this order and relies on every
module coming after the modules it imports.
"""

import ast
from pathlib import Path

import skewloci

LAYERS = (
    "errors", "fields", "linalg", "projective", "polys", "complexes", "cubic",
    "pencils", "nets", "fournets", "cohomology", "selftest", "cli",
)


def _relative_imports(path):
    """Module names of every `from .x import`, at module level or nested."""
    tree = ast.parse(path.read_text())
    return [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    ]


def test_layer_list_names_every_module():
    src = Path(skewloci.__file__).parent
    modules = {p.stem for p in src.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_modules_import_only_earlier_layers():
    src = Path(skewloci.__file__).parent
    rank = {name: k for k, name in enumerate(LAYERS)}
    bad = [
        f"{name} imports {dep}"
        for name in LAYERS
        for dep in _relative_imports(src / f"{name}.py")
        if rank.get(dep, len(LAYERS)) >= rank[name]
    ]
    assert not bad
