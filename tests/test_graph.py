import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from consyn import (
    DiGraph,
    PreconditionError,
    adjacency,
    analyze,
    leader_follower_data,
    parse_edge_list,
    spectra,
)
from consyn import benchmark
from consyn.graph import digraph_from_adjacency, format_edge_list

from conftest import (
    path_graph,
    random_balanced_sc_digraph,
    random_sc_digraph,
    star_graph,
    three_cycle,
    two_node_graph,
)

BENCH_LAPLACIAN = np.array([
    [2.0, 0.0, -1.0, -1.0, 0.0, 0.0],
    [-1.0, 2.0, 0.0, 0.0, 0.0, -1.0],
    [0.0, -1.0, 1.0, 0.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 2.0, -1.0, 0.0],
    [0.0, 0.0, 0.0, -1.0, 2.0, -1.0],
    [0.0, -1.0, 0.0, 0.0, -1.0, 2.0],
])


def test_digraph_rejects_self_loop():
    with pytest.raises(ValueError):
        DiGraph.from_edges(2, [(1, 1)])


def test_digraph_rejects_fewer_than_two_nodes():
    for n in (1, 0):
        with pytest.raises(ValueError, match="at least two nodes"):
            DiGraph.from_edges(n, [])
    with pytest.raises(ValueError, match="at least two nodes"):
        parse_edge_list("nodes 1\n")
    with pytest.raises(ValueError, match="at least two nodes"):
        digraph_from_adjacency([[0.0]])


def test_digraph_rejects_out_of_range_nodes():
    with pytest.raises(ValueError):
        DiGraph.from_edges(2, [(1, 3)])
    with pytest.raises(ValueError):
        DiGraph.from_edges(2, [(0, 1)])


def test_laplacian_two_node_bidirectional():
    assert_allclose(analyze(two_node_graph()).laplacian,
                    [[1.0, -1.0], [-1.0, 1.0]], atol=0.0)


def test_laplacian_directed_three_cycle():
    assert_allclose(analyze(three_cycle()).laplacian,
                    [[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]],
                    atol=0.0)


def test_laplacian_benchmark_matrix(bench_graph):
    assert_allclose(analyze(bench_graph).laplacian, BENCH_LAPLACIAN, atol=0.0)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_laplacian_row_sums_and_sign(seed):
    rng = np.random.default_rng(seed)
    g = random_sc_digraph(rng)
    ls = analyze(g).laplacian
    assert_allclose(ls @ np.ones(g.n), 0.0, atol=0.0)
    off = ls - np.diag(np.diag(ls))
    assert np.all(off <= 0.0)


def test_adjacency_orientation():
    # edge (parent, child) lands in the child's row
    a = adjacency(DiGraph.from_edges(2, [(1, 2)]))
    assert_allclose(a, [[0.0, 0.0], [1.0, 0.0]], atol=0.0)


def test_classify_benchmark(bench_graph):
    flags = analyze(bench_graph).flags
    assert flags.strongly_connected
    assert flags.balanced
    assert flags.has_spanning_tree
    assert flags.leader_follower_root is None


def test_classify_star():
    flags = analyze(star_graph()).flags
    assert not flags.strongly_connected
    assert flags.has_spanning_tree
    assert flags.leader_follower_root == 1


def test_classify_isolated_node():
    flags = analyze(DiGraph.from_edges(3, [(1, 2)])).flags
    assert not flags.strongly_connected
    assert not flags.balanced
    assert not flags.has_spanning_tree
    assert flags.leader_follower_root is None


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_classify_matches_reachability(seed):
    rng = np.random.default_rng(seed)
    n, density = int(rng.integers(2, 8)), rng.uniform(0.05, 0.5)
    edges = [(p, c) for p in range(1, n + 1) for c in range(1, n + 1)
             if p != c and rng.random() < density]

    def roots_of(a):
        # reach[v, w]: w is reachable from v, by transitive closure
        reach = (a.T + np.eye(len(a))) > 0
        for _ in range(len(a)):
            reach = (reach.astype(int) @ reach.astype(int)) > 0
        return [v for v in range(len(a)) if reach[v].all()]

    # the graph as drawn, and with every edge into one node removed so that
    # leader-rooted graphs are common
    cut = int(rng.integers(1, n + 1))
    for g in (DiGraph.from_edges(n, edges),
              DiGraph.from_edges(n, [e for e in edges if e[1] != cut])):
        a = adjacency(g)
        roots, indeg = roots_of(a), a.sum(axis=1)
        flags = analyze(g).flags
        assert flags.strongly_connected == (len(roots) == n)
        assert flags.has_spanning_tree == bool(roots)
        assert flags.balanced == bool(np.all(indeg == a.sum(axis=0)))
        assert flags.leader_follower_root == next(
            (v + 1 for v in roots if indeg[v] == 0), None)
        if flags.leader_follower_root is None:
            continue
        idx = [v for v in range(n) if v != flags.leader_follower_root - 1]
        sub = a[np.ix_(idx, idx)]
        sub_balanced = np.all(sub.sum(axis=1) == sub.sum(axis=0))
        assert (analyze(g).leader_follower.lambda1_sym is not None) == bool(
            sub_balanced and len(roots_of(sub)) == n - 1)


def test_left_perron_balanced_is_uniform():
    assert_allclose(spectra(two_node_graph()).r, [0.5, 0.5], atol=1e-12)
    assert_allclose(spectra(three_cycle()).r, np.full(3, 1 / 3), atol=1e-12)


def test_left_perron_benchmark_uniform(bench_graph):
    assert_allclose(spectra(bench_graph).r, np.full(6, 1 / 6), atol=1e-9)


def test_left_perron_unbalanced_against_null_space():
    g = DiGraph.from_edges(3, [(1, 2), (2, 1), (2, 3), (3, 1)])
    ls = analyze(g).laplacian
    r = spectra(g).r
    assert_allclose(r, [0.25, 0.5, 0.25], atol=1e-12)
    basis = scipy.linalg.null_space(ls.T)
    assert basis.shape[1] == 1
    oracle = basis[:, 0] / basis[:, 0].sum()
    assert_allclose(r, oracle, atol=1e-10)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_left_perron_properties(seed):
    rng = np.random.default_rng(seed)
    g = random_sc_digraph(rng)
    ls = analyze(g).laplacian
    r = spectra(g).r
    assert np.all(r > 0)
    assert_allclose(r.sum(), 1.0, atol=1e-12)
    assert np.linalg.norm(r @ ls) <= 1e-9


def test_generalized_connectivity_two_node():
    assert_allclose(spectra(two_node_graph()).a_of_l, 2.0, atol=1e-12)


def test_generalized_connectivity_three_cycle():
    assert_allclose(spectra(three_cycle()).a_of_l, 1.5, atol=1e-12)


def test_generalized_connectivity_benchmark(bench_graph):
    a_of_l = spectra(bench_graph).a_of_l
    assert_allclose(a_of_l, 0.8138593383654928, atol=1e-9)
    assert_allclose(a_of_l, benchmark.REFERENCE_LAMBDA2, atol=1e-3)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_lemma_floor_and_positivity(seed):
    rng = np.random.default_rng(seed)
    g = random_sc_digraph(rng)
    ls = analyze(g).laplacian
    sp = spectra(g)
    q = np.diag(sp.r) @ ls + ls.T @ np.diag(sp.r)
    assert np.linalg.eigvalsh(q).min() >= -1e-9
    assert sp.a_of_l > 0


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_balanced_connectivity_matches_fiedler(seed):
    rng = np.random.default_rng(seed)
    g = random_balanced_sc_digraph(rng)
    ls = analyze(g).laplacian
    lam2 = np.sort(np.linalg.eigvalsh((ls + ls.T) / 2))[1]
    assert abs(spectra(g).a_of_l - lam2) <= 1e-8


def test_rank_deficiency_matches_spanning_tree_flag():
    # strongly connected, tree-but-not-SC, and treeless graphs
    cases = [
        (three_cycle(), True),
        (star_graph(), True),
        # rooted in the cycle 1 <-> 2, with no zero in-degree node
        (DiGraph.from_edges(3, [(1, 2), (2, 1), (2, 3)]), True),
        (DiGraph.from_edges(6, [(1, 2), (2, 3), (3, 1),
                                (4, 5), (5, 6), (6, 4)]), False),
        (DiGraph.from_edges(3, [(1, 2)]), False),
    ]
    for g, has_tree in cases:
        assert analyze(g).flags.has_spanning_tree == has_tree
        rank = np.linalg.matrix_rank(analyze(g).laplacian, tol=1e-9)
        assert (rank == g.n - 1) == has_tree


def test_spectra_requires_strong_connectivity():
    with pytest.raises(PreconditionError):
        spectra(star_graph())


def test_spectra_benchmark_fields(bench_spectra):
    assert bench_spectra.flags.balanced
    assert bench_spectra.lambda2_sym is not None
    assert_allclose(bench_spectra.lambda2_sym, bench_spectra.a_of_l,
                    atol=1e-8)
    assert bench_spectra.leader_follower is None


def test_spectra_unbalanced_has_no_lambda2():
    g = DiGraph.from_edges(3, [(1, 2), (2, 1), (2, 3), (3, 1)])
    s = spectra(g)
    assert not s.flags.balanced
    assert s.lambda2_sym is None
    assert s.a_of_l > 0


def test_analyze_graph_with_neither_class():
    g = DiGraph.from_edges(3, [(1, 2)])
    a = analyze(g)
    assert not a.flags.has_spanning_tree
    assert_allclose(a.laplacian,
                    [[0.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
                    atol=0.0)
    assert a.r is None and a.a_of_l is None and a.lambda2_sym is None
    assert a.leader_follower is None
    assert a.weights is None


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=40, deadline=None)
def test_analyze_sets_the_weights_of_v(seed, rooted):
    rng = np.random.default_rng(seed)
    g = random_sc_digraph(rng)
    if not rooted:
        a = analyze(g)
        assert a.weights is a.r
        return
    # a new node with edges into the strongly connected g roots a spanning
    # tree at zero in-degree; relabel so the leader lands anywhere
    n = g.n + 1
    label = rng.permutation(n) + 1
    targets = [v for v in range(1, n) if rng.random() < 0.5] or [1]
    edges = list(g.edges) + [(n, v) for v in targets]
    g = DiGraph.from_edges(n, [(label[p - 1], label[c - 1])
                               for p, c in edges])
    leader = int(label[n - 1])
    a = analyze(g)
    lf = a.leader_follower
    assert a.r is None and lf.leader == leader
    assert a.weights[leader - 1] == 0.0
    assert np.array_equal(a.weights[np.asarray(lf.followers) - 1],
                          1.0 / lf.q)


def test_analyze_reports_indefinite_h_that_tracking_rejects():
    # leader 1 -> 2 -> 3, then 3 fans out to six leaves: a tree whose H
    # under G = diag(1/q) is indefinite
    g = DiGraph.from_edges(
        9, [(1, 2), (2, 3)] + [(3, k) for k in range(4, 10)])
    a = analyze(g)
    assert a.r is None
    lf = a.leader_follower
    assert lf.leader == 1
    assert lf.lambda1_h == pytest.approx(-0.0255, abs=1e-4)
    with pytest.raises(PreconditionError, match="positive definite"):
        leader_follower_data(g, 1)


def test_leader_follower_lone_follower_is_simplified():
    lf = analyze(DiGraph.from_edges(2, [(1, 2)])).leader_follower
    assert lf.followers == (2,)
    assert lf.lambda1_sym == pytest.approx(1.0, abs=1e-12)


def test_leader_follower_path_closed_form():
    lf = leader_follower_data(path_graph(), 1)
    assert lf.leader == 1
    assert lf.followers == (2, 3)
    assert_allclose(lf.l1, [[1.0, 0.0], [-1.0, 1.0]], atol=0.0)
    assert_allclose(lf.q, [1.0, 2.0], atol=1e-12)
    assert_allclose(analyze(path_graph()).weights, [0.0, 1.0, 0.5],
                    atol=1e-12)
    assert_allclose(lf.h, [[1.0, -0.25], [-0.25, 0.5]], atol=1e-12)
    assert_allclose(lf.lambda1_h, (3.0 - math.sqrt(2.0)) / 4.0, atol=1e-9)
    assert lf.min_q == pytest.approx(1.0, abs=1e-12)


def test_leader_follower_star_identity():
    lf = leader_follower_data(star_graph(), 1)
    assert_allclose(lf.l1, np.eye(2), atol=0.0)
    assert_allclose(lf.q, [1.0, 1.0], atol=1e-12)
    assert_allclose(lf.h, np.eye(2), atol=1e-12)
    assert_allclose(lf.lambda1_h, 1.0, atol=1e-12)
    # single-edge followers are not strongly connected among themselves
    assert lf.lambda1_sym is None


def test_leader_follower_simplified_branch():
    g = DiGraph.from_edges(3, [(1, 2), (1, 3), (2, 3), (3, 2)])
    lf = leader_follower_data(g, 1)
    assert_allclose(lf.l1, [[2.0, -1.0], [-1.0, 2.0]], atol=0.0)
    assert_allclose(lf.q, [1.0, 1.0], atol=1e-12)
    sym_vals = np.linalg.eigvalsh((lf.l1 + lf.l1.T) / 2)
    assert sym_vals.min() > 0
    assert_allclose(lf.lambda1_sym, sym_vals.min(), atol=1e-12)


def test_leader_follower_rejects_leader_with_inputs(bench_graph):
    with pytest.raises(PreconditionError):
        leader_follower_data(bench_graph, 1)


def test_leader_follower_rejects_unreachable_follower():
    g = DiGraph.from_edges(3, [(1, 2), (3, 2)])
    with pytest.raises(PreconditionError):
        leader_follower_data(g, 1)


def test_parse_edge_list_with_comments():
    text = """# benchmark pair
nodes 2

1 2
2 1  # back edge
"""
    g = parse_edge_list(text)
    assert g.n == 2
    assert g.edges == frozenset({(1, 2), (2, 1)})


def test_parse_edge_list_requires_header():
    with pytest.raises(ValueError) as exc:
        parse_edge_list("1 2\n")
    assert "line 1" in str(exc.value)


def test_parse_edge_list_reports_bad_line():
    with pytest.raises(ValueError) as exc:
        parse_edge_list("nodes 2\n1 2\n1 two\n")
    assert "line 3" in str(exc.value)


def test_parse_edge_list_rejects_out_of_range():
    with pytest.raises(ValueError):
        parse_edge_list("nodes 2\n1 3\n")


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_edge_list_round_trip(seed):
    rng = np.random.default_rng(seed)
    g = random_sc_digraph(rng)
    assert parse_edge_list(format_edge_list(g)) == g


def test_adjacency_round_trip(bench_graph):
    assert digraph_from_adjacency(adjacency(bench_graph)) == bench_graph


def test_adjacency_rejects_weights():
    with pytest.raises(ValueError):
        digraph_from_adjacency([[0.0, 0.5], [1.0, 0.0]])
