"""Every name a package lists in ``__all__`` resolves on the package,
and no module keeps an import it never uses."""

import ast
import importlib
import pathlib

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.api",
    "repro.baselines",
    "repro.core",
    "repro.dual",
    "repro.engine",
    "repro.graphs",
    "repro.obs",
    "repro.sim",
    "repro.theory",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    missing = [
        export for export in package.__all__ if not hasattr(package, export)
    ]
    assert package.__all__ and not missing, missing


def _bound_names(node):
    """The names a top-level import statement binds."""
    if isinstance(node, ast.Import):
        return [
            alias.asname or alias.name.split(".")[0] for alias in node.names
        ]
    if node.module == "__future__":
        return []
    return [alias.asname or alias.name for alias in node.names]


def _used_names(tree):
    """Every name the module loads, plus its ``__all__`` entries (a
    module may import a name only to re-export it)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


SOURCE_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def test_no_unused_top_level_imports():
    """A module-level import that the module never uses is dead weight
    (and hides what the module really depends on)."""
    unused = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused.extend(
                    f"{path.relative_to(SOURCE_ROOT)}:{node.lineno} {name}"
                    for name in _bound_names(node)
                    if name not in used and name != "*"
                )
    assert not unused, "unused imports:\n" + "\n".join(unused)
