# Spectral tour of directed communication graphs: Laplacians, the left
# null vector r, the generalized algebraic connectivity a(L), and the
# leader-follower quantities q, G, H. analyze(g) derives all of them in one
# pass, with the weights of the error energy V; spectra(g) is the same
# analysis for a graph that must be strongly connected.
#
# Run from the repo root after `pip install -e .`:
#   python demos/01_graph_spectra.py

import numpy as np

from consyn import DiGraph, analyze, spectra
from consyn.benchmark import benchmark_graph

np.set_printoptions(precision=6, suppress=True)

### Two nodes talking both ways. The smallest nontrivial strongly
### connected graph; every spectral quantity is known in closed form.
g2 = DiGraph.from_edges(2, [(1, 2), (2, 1)])
print("two-node bidirectional")
sp2 = spectra(g2)
print("L =\n", sp2.laplacian)
print("r =", sp2.r)
print("a(L) =", sp2.a_of_l)             # exactly 2
print()

### A directed 3-cycle. Balanced (every node has in-degree = out-degree),
### so a(L) coincides with the second-smallest eigenvalue of (L + L^T)/2.
g3 = DiGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
sp3 = spectra(g3)
print("directed 3-cycle")
print("balanced:", sp3.flags.balanced)
print("a(L) =", sp3.a_of_l)            # 3/2
print("lambda2_sym =", sp3.lambda2_sym)  # same value
print()

### An unbalanced strongly connected graph. r is no longer uniform and
### lambda2_sym is not reported (the identity above needs balance).
gu = DiGraph.from_edges(3, [(1, 2), (2, 1), (2, 3), (3, 1)])
spu = spectra(gu)
print("unbalanced 3-node graph")
print("balanced:", spu.flags.balanced)
print("r =", spu.r)                     # [0.25, 0.5, 0.25]
print("a(L) =", spu.a_of_l)
print("lambda2_sym:", spu.lambda2_sym)
print()

### The bundled six-agent benchmark graph: a directed ring with chords,
### balanced and strongly connected by construction.
g6 = benchmark_graph()
sp6 = spectra(g6)
print("six-agent benchmark graph")
print("edges:", sorted(g6.edges))
print("strongly connected:", sp6.flags.strongly_connected)
print("balanced:", sp6.flags.balanced)
print("r =", sp6.r)                     # uniform 1/6
print("a(L) = %.10f" % sp6.a_of_l)
print("lambda2_sym = %.10f" % sp6.lambda2_sym)
print()

### Leader-follower partition on a directed path 1 -> 2 -> 3. Node 1 has
### no incoming edges, so it qualifies as a leader and the follower block
### L1 is invertible. q = L1^{-1} 1, G = diag(1/q), H = (G L1 + L1^T G)/2.
### A tracking run weights V by G's diagonal on the followers, 0 at the leader.
gp = DiGraph.from_edges(3, [(1, 2), (2, 3)])
ap = analyze(gp)
print("directed path 1 -> 2 -> 3")
print("leader_follower_root:", ap.flags.leader_follower_root)
lf = ap.leader_follower
print("q =", lf.q)                      # [1, 2]
print("weights of V =", ap.weights)      # [0, 1, 0.5]
print("H =\n", lf.h)
print("lambda1(H) = %.10f" % lf.lambda1_h)  # (3 - sqrt(2))/4
print("min q =", lf.min_q)
print("simplified threshold applicable:", lf.lambda1_sym is not None)
