"""Shared fixtures: small graphs exercised across the suite."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.graphs.adjacency import Adjacency


@pytest.fixture(scope="session", autouse=True)
def _pre_arm_jit_fallback_warning():
    """Keep the tier-1 suite warning-clean without a C compiler.

    ``resolve_kernel("jit")`` emits its once-per-process fallback
    ``RuntimeWarning`` the first time the compiled block loop is found
    unavailable — which, under ``filterwarnings = error::RuntimeWarning``,
    would blow up whichever unrelated test happens to request the jit
    kernel first.
    Pre-arming the one-shot flag here makes the *dedicated* fallback
    regression tests (which reset the flag and capture the warning via
    ``pytest.warns``) the only place the warning fires.
    """
    from repro.engine import kernels

    if kernels.resolve_kernel("auto") != "jit":
        kernels._FALLBACK_WARNED = True
    yield


@pytest.fixture
def triangle() -> nx.Graph:
    """The 3-clique used by the paper's Figures 1 and 4."""
    return nx.complete_graph(3)


@pytest.fixture
def cycle6() -> nx.Graph:
    return nx.cycle_graph(6)


@pytest.fixture
def petersen() -> nx.Graph:
    return nx.petersen_graph()


@pytest.fixture
def star5() -> nx.Graph:
    """Star with hub 0 and 5 leaves (irregular)."""
    return nx.star_graph(5)


@pytest.fixture
def path4() -> nx.Graph:
    return nx.path_graph(4)


@pytest.fixture
def small_regular() -> nx.Graph:
    """A connected 4-regular graph on 10 nodes (fixed seed)."""
    graph = nx.random_regular_graph(4, 10, seed=7)
    assert nx.is_connected(graph)
    return graph


@pytest.fixture
def cycle6_adjacency(cycle6) -> Adjacency:
    return Adjacency.from_graph(cycle6)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
