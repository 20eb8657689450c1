"""Shared fixtures: the bundled six-agent benchmark and random digraphs."""

import numpy as np
import pytest

from consyn import (
    AgentModel,
    DiGraph,
    spectra,
    synthesize,
)
from consyn import benchmark


def two_node_graph() -> DiGraph:
    return DiGraph.from_edges(2, [(1, 2), (2, 1)])


def three_cycle() -> DiGraph:
    return DiGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])


def path_graph() -> DiGraph:
    return DiGraph.from_edges(3, [(1, 2), (2, 3)])


def star_graph() -> DiGraph:
    return DiGraph.from_edges(3, [(1, 2), (1, 3)])


def scalar_model(a=-1.0, b=1.0, d1=1.0, alpha=0.0) -> AgentModel:
    return AgentModel(a=[[a]], b=[[b]], d1=[[d1]], alpha=alpha)


def random_sc_digraph(rng: np.random.Generator, n: int | None = None,
                      extra: float = 0.3) -> DiGraph:
    """Random strongly connected digraph: a Hamiltonian cycle over a random
    node order plus independent extra edges."""
    if n is None:
        n = int(rng.integers(2, 9))
    order = rng.permutation(n) + 1
    edges = {(int(order[i]), int(order[(i + 1) % n])) for i in range(n)}
    mask = rng.random((n, n)) < extra
    for i in range(n):
        for j in range(n):
            if i != j and mask[i, j]:
                edges.add((i + 1, j + 1))
    return DiGraph.from_edges(n, edges)


def random_balanced_sc_digraph(rng: np.random.Generator,
                               n: int | None = None) -> DiGraph:
    """Random balanced strongly connected digraph.

    Union of edge-disjoint directed cycles: each cycle adds one to the in-
    and out-degree of every node it visits, so disjointness keeps the graph
    balanced; the base Hamiltonian cycle keeps it strongly connected.
    Candidate cycles that would reuse an edge are skipped.
    """
    if n is None:
        n = int(rng.integers(2, 9))
    order = rng.permutation(n) + 1
    edges = {(int(order[i]), int(order[(i + 1) % n])) for i in range(n)}
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(2, n + 1))
        nodes = rng.permutation(n)[:k] + 1
        cycle = {(int(nodes[i]), int(nodes[(i + 1) % k])) for i in range(k)}
        if cycle & edges:
            continue
        edges |= cycle
    return DiGraph.from_edges(n, edges)


@pytest.fixture(scope="session")
def bench_model():
    return benchmark.manipulator_model()


@pytest.fixture(scope="session")
def bench_graph():
    return benchmark.benchmark_graph()


@pytest.fixture(scope="session")
def bench_spectra(bench_graph):
    return spectra(bench_graph)


@pytest.fixture(scope="session")
def consensus_design(bench_model, bench_graph):
    # one solver run shared across the suite; acceptance re-times its own
    return synthesize(bench_model, bench_graph, "leaderless")


@pytest.fixture(scope="session")
def hinf_design(bench_model, bench_graph):
    return synthesize(bench_model, bench_graph, "hinf", gamma=benchmark.GAMMA)


@pytest.fixture(scope="session")
def injected_hinf_design(bench_model, bench_graph):
    return synthesize(bench_model, bench_graph, "hinf", gamma=benchmark.GAMMA,
                      cert=(benchmark.REFERENCE_P,
                            benchmark.REFERENCE_EPSILON))
