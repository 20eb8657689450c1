"""Directed graphs and the spectral quantities consumed by synthesis.

Conventions. Nodes are 1-indexed. An edge (parent, child) means information
flows from parent to child, so the adjacency matrix has a[child-1, parent-1]
= 1 and the Laplacian is in-degree minus adjacency, with zero row sums.
Edge weights are all 1; weighted graphs are out of scope.

:func:`analyze` is the one place that derives graph quantities: it
builds the adjacency matrix once, classifies the graph and builds L from
it, and computes r, a(L) and lambda2 for a strongly connected graph or the
follower partition (q, H) for a leader-rooted one; in both cases also the
weights of the error energy V. :func:`spectra` and
:func:`leader_follower_data` are the same analysis with the precondition
of one class enforced.

The adjacency matrix is the only working representation: the connectivity
and balance flags are read from it, the strongly connected components
through scipy's csgraph search.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from numpy.typing import NDArray
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from . import numkit
from .errors import PreconditionError

# Residual bound, relative to max(1, ||L||_F), on the left null vector r.
PERRON_RESID = 1e-9


@dataclass(frozen=True)
class DiGraph:
    """Directed graph on nodes 1..n, n >= 2, with unit-weight edges.

    edges hold (parent, child) pairs. Self-loops are rejected.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"graph needs at least two nodes, got {self.n}")
        for (p, c) in self.edges:
            if p == c:
                raise ValueError(f"self-loop on node {p} is not allowed")
            if not (1 <= p <= self.n and 1 <= c <= self.n):
                raise ValueError(f"edge ({p}, {c}) is outside 1..{self.n}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "DiGraph":
        return DiGraph(n=n, edges=frozenset((int(p), int(c)) for p, c in edges))


@dataclass(frozen=True)
class GraphFlags:
    strongly_connected: bool
    balanced: bool
    has_spanning_tree: bool
    leader_follower_root: Optional[int]


@dataclass(frozen=True)
class LeaderFollowerData:
    """Partitioned quantities for a leader rooted at a source node.

    l1 is the follower block of the Laplacian, q = l1^{-1} 1 (entrywise
    positive under the spanning tree hypothesis), h = (G l1 + l1^T G)/2
    with G = diag(1/q). lambda1_sym, the smallest eigenvalue of
    (l1 + l1^T)/2, is None unless the follower subgraph is balanced and
    strongly connected, where the alternative threshold based on it holds.
    """

    leader: int
    followers: tuple[int, ...]
    l1: NDArray[np.float64]
    q: NDArray[np.float64]
    h: NDArray[np.float64]
    lambda1_h: float
    min_q: float
    lambda1_sym: Optional[float]


@dataclass(frozen=True)
class GraphAnalysis:
    """Every graph quantity the coupling thresholds read, derived once.

    flags and the Laplacian are always set. On a strongly connected graph,
    r is the positive left null vector of the Laplacian normalized to sum
    1, a_of_l the generalized algebraic connectivity, and lambda2_sym the
    second-smallest eigenvalue of (L + L^T)/2, populated only when the
    graph is balanced. When a zero in-degree root reaches all nodes,
    leader_follower holds the follower-block partition around it; its H
    need not be positive definite. The two cases exclude each other.
    weights, the weights of the error energy V that the class's threshold
    makes decrease, are r itself in the first case, 1/q on the followers
    and 0 at the leader in the second, None otherwise.
    """

    graph: DiGraph
    laplacian: NDArray[np.float64]
    flags: GraphFlags
    r: Optional[NDArray[np.float64]] = None
    a_of_l: Optional[float] = None
    lambda2_sym: Optional[float] = None
    leader_follower: Optional[LeaderFollowerData] = None
    weights: Optional[NDArray[np.float64]] = None


def adjacency(g: DiGraph) -> NDArray[np.float64]:
    """Adjacency matrix with a[i, j] = 1 iff there is an edge j+1 -> i+1."""
    a = np.zeros((g.n, g.n))
    for (p, c) in g.edges:
        a[c - 1, p - 1] = 1.0
    return a


def _flags(a: NDArray[np.float64]) -> GraphFlags:
    """Connectivity and balance flags of the graph with adjacency a.

    Balanced means in-degree equals out-degree at every node. A spanning
    tree exists when exactly one strongly connected component has no edge
    entering it; when that component is one node, it is the root.
    """
    # scipy reads a[i, j] as an edge i -> j, the reverse of ours; reversal
    # leaves the strongly connected components unchanged. A sparse input
    # skips scipy's validation of dense graphs, most of the call's cost.
    count, comp = connected_components(csr_array(a), directed=True,
                                       connection="strong")
    crossing = (a > 0) & (comp[:, None] != comp[None, :])
    entered = np.bincount(comp[crossing.any(axis=1)], minlength=count)
    sources = np.flatnonzero(entered == 0)
    root = None
    if len(sources) == 1 and np.count_nonzero(comp == sources[0]) == 1:
        root = int(np.flatnonzero(comp == sources[0])[0]) + 1
    return GraphFlags(
        strongly_connected=count == 1,
        balanced=np.array_equal(a.sum(axis=1), a.sum(axis=0)),
        has_spanning_tree=len(sources) == 1,
        leader_follower_root=root,
    )


def _left_perron(l: NDArray[np.float64]) -> NDArray[np.float64]:
    """Positive left null vector of a strongly connected graph's Laplacian.

    Normalized so the entries sum to 1. Extraction is deterministic: pin the
    last entry to 1 and solve the leading (n-1) principal block of L^T, which
    is nonsingular exactly when the graph is strongly connected.
    """
    n = l.shape[0]
    t = l.T
    y = numkit.solve_linear(t[: n - 1, : n - 1], -t[: n - 1, n - 1])
    r = np.append(y, 1.0)
    r = r / r.sum()
    scale = max(1.0, float(np.linalg.norm(l, "fro")))
    resid = float(np.linalg.norm(r @ l))
    if resid > PERRON_RESID * scale or np.any(r <= 0):
        raise PreconditionError(
            f"left null vector extraction failed (residual {resid:.3e})"
        )
    return r


def _generalized_connectivity(l: NDArray[np.float64], r: NDArray[np.float64]
                              ) -> float:
    """Generalized algebraic connectivity of a strongly connected digraph.

    Defined as the minimum of x^T (R L + L^T R) x / (2 x^T R x) over nonzero
    x with r^T x = 0, where R = diag(r). Computed by one symmetric
    eigensolve: scale by R^{-1/2} on both sides, project out the known null
    direction w = sqrt(r), and take the second-smallest eigenvalue of the
    projected matrix (the projection itself contributes an artificial zero
    along w), halved.

    For balanced graphs this equals the second-smallest eigenvalue of
    (L + L^T)/2.
    """
    q = np.diag(r) @ l + l.T @ np.diag(r)
    rs = 1.0 / np.sqrt(r)
    m = q * np.outer(rs, rs)
    w = np.sqrt(r)
    w = w / np.linalg.norm(w)
    proj = np.eye(l.shape[0]) - np.outer(w, w)
    return float(numkit.sym_eigvals(proj @ m @ proj)[1]) / 2.0


def _follower_block(a: NDArray[np.float64], l: NDArray[np.float64],
                    leader: int) -> LeaderFollowerData:
    """Partition L, the Laplacian of adjacency a, around a leader known to
    root a spanning tree."""
    followers = tuple(v for v in range(1, l.shape[0] + 1) if v != leader)
    idx = [v - 1 for v in followers]
    l1 = l[np.ix_(idx, idx)]
    q = numkit.solve_linear(l1, np.ones(len(idx)))
    if np.any(q <= 0):
        raise PreconditionError("follower weights q must be positive")
    big_g = np.diag(1.0 / q)
    h = (big_g @ l1 + l1.T @ big_g) / 2.0
    # a lone follower is trivially balanced and strongly connected
    sub = _flags(a[np.ix_(idx, idx)])
    lambda1_sym = None
    if sub.balanced and sub.strongly_connected:
        lambda1_sym = float(numkit.sym_eigvals((l1 + l1.T) / 2.0)[0])
    return LeaderFollowerData(
        leader=leader,
        followers=followers,
        l1=l1,
        q=q,
        h=h,
        lambda1_h=float(numkit.sym_eigvals(h)[0]),
        min_q=float(q.min()),
        lambda1_sym=lambda1_sym,
    )


def analyze(g: DiGraph) -> GraphAnalysis:
    """Classify the graph once and derive what its class supports.

    A strongly connected graph gets r, a(L) and, when balanced, lambda2; a
    graph rooted at a zero in-degree leader gets the follower partition;
    either gets the weights of V. Any other graph gets flags and L only.
    """
    a = adjacency(g)
    flags = _flags(a)
    l = np.diag(a.sum(axis=1)) - a
    if flags.strongly_connected:
        r = _left_perron(l)
        lambda2 = None
        if flags.balanced:
            lambda2 = float(numkit.sym_eigvals((l + l.T) / 2.0)[1])
        return GraphAnalysis(graph=g, laplacian=l, flags=flags, r=r,
                             a_of_l=_generalized_connectivity(l, r),
                             lambda2_sym=lambda2, weights=r)
    lf = weights = None
    if flags.leader_follower_root is not None:
        lf = _follower_block(a, l, flags.leader_follower_root)
        weights = np.insert(1.0 / lf.q, lf.leader - 1, 0.0)
    return GraphAnalysis(graph=g, laplacian=l, flags=flags,
                         leader_follower=lf, weights=weights)


def spectra(g: DiGraph) -> GraphAnalysis:
    """The analysis of a graph that must be strongly connected."""
    analysis = analyze(g)
    if not analysis.flags.strongly_connected:
        raise PreconditionError(
            "spectral summary requires a strongly connected graph"
        )
    return analysis


def leader_follower_data(g: DiGraph, leader: int) -> LeaderFollowerData:
    """Partition the Laplacian around a leader and derive tracking weights.

    The leader must have no incoming edges and must reach every follower
    (directed spanning tree rooted at the leader), and H must be positive
    definite.
    """
    if not (1 <= leader <= g.n):
        raise ValueError(f"leader {leader} outside 1..{g.n}")
    analysis = analyze(g)
    if analysis.laplacian[leader - 1, leader - 1] != 0:
        raise PreconditionError("leader must have no incoming edges")
    lf = analysis.leader_follower
    if lf is None or lf.leader != leader:
        raise PreconditionError(
            "graph needs a directed spanning tree rooted at the leader"
        )
    if lf.lambda1_h <= 0:
        raise PreconditionError("follower form H must be positive definite")
    return lf


def parse_edge_list(text: str) -> DiGraph:
    """Parse the plain-text graph format.

    First meaningful line is ``nodes N``; every following line is
    ``parent child`` with 1-indexed node numbers. Blank lines and lines
    starting with ``#`` are ignored. Errors carry line numbers.
    """
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "nodes":
                raise ValueError(
                    f"line {lineno}: expected header 'nodes N', got {raw!r}"
                )
            try:
                n = int(parts[1])
            except ValueError as exc:
                raise ValueError(
                    f"line {lineno}: node count is not an integer"
                ) from exc
            continue
        if len(parts) != 2:
            raise ValueError(
                f"line {lineno}: expected 'parent child', got {raw!r}"
            )
        try:
            p, c = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: endpoints must be integers") from exc
        if not (1 <= p <= n and 1 <= c <= n):
            raise ValueError(f"line {lineno}: edge ({p}, {c}) outside 1..{n}")
        if p == c:
            raise ValueError(f"line {lineno}: self-loop on node {p}")
        edges.append((p, c))
    if n is None:
        raise ValueError("missing 'nodes N' header")
    return DiGraph.from_edges(n, edges)


def format_edge_list(g: DiGraph) -> str:
    lines = [f"nodes {g.n}"]
    lines += [f"{p} {c}" for (p, c) in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def digraph_from_adjacency(a) -> DiGraph:
    """Graph from a 0/1 adjacency matrix with a[i, j] = 1 iff edge j+1 -> i+1."""
    am = numkit.as_matrix(a, "adjacency")
    if am.shape[0] != am.shape[1]:
        raise ValueError("adjacency must be square")
    if not np.all((np.abs(am) < 1e-12) | (np.abs(am - 1.0) < 1e-12)):
        raise ValueError("adjacency entries must be 0 or 1")
    n = am.shape[0]
    edges = [(j + 1, i + 1) for i in range(n) for j in range(n)
             if am[i, j] > 0.5]
    return DiGraph.from_edges(n, edges)
