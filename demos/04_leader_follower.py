# Leader-follower tracking with a scalar agent model. The leader is a
# node without incoming edges; followers run the coupling protocol and
# must converge to the leader's trajectory. Shows the general coupling
# threshold 1/(lambda1(H) min q) and the simplified variant that applies
# when the follower subgraph is balanced and strongly connected.
#
#   python demos/04_leader_follower.py

import numpy as np

from consyn import (AgentModel, DiGraph, Nonlinearity, Scenario, integrate,
                    synthesize)

# Stable scalar integrator, no nonlinearity. With p = 1 and s = 1 the
# design inequality holds with margin 2 - sqrt(2), so the unit pair is a
# convenient hand-checkable certificate.
model = AgentModel(
    a=np.array([[-1.0]]),
    b=np.array([[1.0]]),
    d1=np.array([[1.0]]),
    alpha=0.0,
    f=Nonlinearity.zero(),
)
cert = (np.array([[1.0]]), 1.0)


def run(g: DiGraph, label: str, t_end: float = 10.0):
    # synthesize finds the leader (the zero in-degree root) itself and
    # carries the follower partition on its graph analysis.
    design = synthesize(model, g, "leader-follower", cert=cert)
    lf = design.analysis.leader_follower
    print()
    print(label)
    print("  unit certificate margin: %.6f" % design.cert.margin)
    print("  leader: node %d, followers: %s" % (lf.leader, list(lf.followers)))
    print("  q =", np.round(lf.q, 6).tolist())
    print("  lambda1(H) = %.8f" % lf.lambda1_h)
    print("  c threshold (general) = %.8f" % design.c_threshold)
    if design.c_threshold_simplified is not None:
        print("  c threshold (simplified) = %.8f"
              % design.c_threshold_simplified)
    else:
        print("  simplified threshold not applicable")

    # Followers start spread out; the leader starts at 1 and decays open
    # loop (it receives no coupling input).
    x0 = np.zeros((g.n, 1))
    x0[0, 0] = 1.0
    for i in range(1, g.n):
        x0[i, 0] = (-1.0) ** i * (1.0 + i)
    traj = integrate(Scenario(design=design, x0=x0, t_end=t_end, dt=1e-3))
    err = np.abs(traj.states[:, 1:, 0] - traj.states[:, :1, 0])
    print("  max |follower - leader| at t=0:   %.4f" % err[0].max())
    print("  max |follower - leader| at t=%g: %.3e" % (t_end, err[-1].max()))
    return traj


# Directed path 1 -> 2 -> 3: follower 3 only hears follower 2, so q is
# not uniform and G weights the coupling asymmetrically.
run(DiGraph.from_edges(3, [(1, 2), (2, 3)]), "path 1 -> 2 -> 3")

# Leader feeding two followers that also talk to each other both ways.
# The follower subgraph is balanced and strongly connected, so the
# simplified threshold applies and matches the general one (G = I).
run(DiGraph.from_edges(3, [(1, 2), (1, 3), (2, 3), (3, 2)]),
    "branch with bidirectional followers")
