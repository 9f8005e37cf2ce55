"""Shared fixtures: small, fast synthetic graphs and deterministic RNGs.

Reusable non-fixture helpers live in ``tests/helpers.py`` — import them with
``from helpers import ...``, never from ``conftest`` (the bare name is
ambiguous because ``benchmarks/`` also ships a conftest).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import CountingBackend, build_small_graph
from repro import kernels
from repro.graph.data import GraphData
from repro.graph.splits import SplitIndices
from repro.utils.seed import new_rng


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return new_rng(12345)


@pytest.fixture
def counting_kernel(monkeypatch) -> str:
    """Register :class:`~helpers.CountingBackend` for one test; returns its name.

    The registry is swapped for a copy, so the backend is gone again after
    the test and never leaks into e.g. the docs' list of shipped backends.
    """
    monkeypatch.setattr(kernels, "_REGISTRY", dict(kernels._REGISTRY))
    kernels.register_kernel_backend(CountingBackend)
    CountingBackend.calls.clear()
    return CountingBackend.name


@pytest.fixture
def small_graph() -> GraphData:
    """A 90-node, 3-class graph with informative features."""
    return build_small_graph()


@pytest.fixture
def tiny_graph() -> GraphData:
    """A minimal hand-built graph (6 nodes, 2 classes) for exact assertions."""
    adjacency = sp.csr_matrix(
        np.array(
            [
                [0, 1, 1, 0, 0, 0],
                [1, 0, 1, 0, 0, 0],
                [1, 1, 0, 1, 0, 0],
                [0, 0, 1, 0, 1, 1],
                [0, 0, 0, 1, 0, 1],
                [0, 0, 0, 1, 1, 0],
            ],
            dtype=float,
        )
    )
    features = np.array(
        [
            [1.0, 0.0, 0.2],
            [0.9, 0.1, 0.1],
            [0.8, 0.0, 0.0],
            [0.0, 1.0, 0.1],
            [0.1, 0.9, 0.0],
            [0.0, 0.8, 0.2],
        ]
    )
    labels = np.array([0, 0, 0, 1, 1, 1])
    split = SplitIndices(
        train=np.array([0, 1, 3, 4]), val=np.array([2]), test=np.array([5])
    )
    return GraphData(
        adjacency=adjacency, features=features, labels=labels, split=split, name="tiny"
    )
