# Leaderless consensus on the six-manipulator benchmark, end to end:
# feasibility search for the design certificate, gain and coupling
# threshold, closed-loop simulation, decrease diagnostic, CSV export.
#
#   python demos/02_leaderless_consensus.py
#
# Writes consensus_demo.csv next to the working directory. The CSV is the
# plotting contract; see docs/plotting.md for drawing it externally.

import numpy as np

from consyn import (Scenario, assess, integrate, max_pairwise_distance,
                    spectra, synthesize, write_csv)
from consyn.benchmark import benchmark_graph, initial_states, manipulator_model

np.set_printoptions(precision=4, suppress=True)

model = manipulator_model()
g = benchmark_graph()
sp = spectra(g)

print("agents: %d, states per agent: %d" % (g.n, model.n))
print("a(L) = %.6f" % sp.a_of_l)

# The feasibility search looks for (P, s) making the consensus matrix
# inequality strictly negative in a few tens of milliseconds. synthesize checks
# that the graph is strongly connected and divides s by a(L).
design = synthesize(model, g, "leaderless")
print("certificate margin: %.3e (feasible: %s)" %
      (design.cert.margin, design.cert.feasible))
print("gain K =", design.k)
print("coupling threshold c >= %.6f, using c = %.6f" %
      (design.c_threshold, design.c))

# Seeded uniform initial states in [-1, 1]^4 per agent keep the run
# reproducible. The design carries the model and the graph, so the run
# needs only the initial states and the time grid.
x0 = initial_states(seed=12345)
scenario = Scenario(design=design, x0=x0, t_end=10.0, dt=1e-3)
traj = integrate(scenario)

# Consensus quality: the largest pairwise distance between agent states.
d_start = max_pairwise_distance(traj.states[0])
d_end = max_pairwise_distance(traj.states[-1])
print("max pairwise distance: %.4f at t=0, %.3e at t=%.0f" %
      (d_start, d_end, traj.times[-1]))

crossing = None
for k in range(len(traj.times)):
    if max_pairwise_distance(traj.states[k]) < 1e-3:
        crossing = traj.times[k]
        break
print("first sample below 1e-3:", crossing)

# V(t) = sum_i r_i e_i^T P^{-1} e_i must not increase along the run when
# the coupling meets its threshold; integrate records it in traj.v_lyap,
# and assess counts the steps where it rose.
run = assess(traj)
print("V(0) = %.4f, steps where V increased: %d" % (run.v0, run.v_increases))

write_csv(traj, "consensus_demo.csv", decimation=10)
print("trajectory written to consensus_demo.csv")
