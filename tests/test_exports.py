"""Every name a package lists in ``__all__`` resolves on the package."""

import importlib

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
