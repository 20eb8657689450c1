# Disturbance attenuation on the six-manipulator benchmark. Designs from
# the published attenuation certificate instead of re-running the
# feasibility search, simulates a square-wave disturbance from zero initial
# state, and checks the attenuation inequality empirically: with gain level
# gamma the cost J = int(||z||^2 - gamma^2 ||w||^2) must come out negative,
# and the empirical gain sqrt(int ||z||^2 / int ||w||^2) below gamma.
#
#   python demos/03_disturbance_rejection.py

import dataclasses

import numpy as np

from consyn import Scenario, assess, integrate, synthesize, write_csv
from consyn.benchmark import (DISTURBANCE_SCALES, GAMMA, REFERENCE_C,
                              REFERENCE_EPSILON, REFERENCE_P,
                              benchmark_graph, manipulator_model)

np.set_printoptions(precision=4, suppress=True)

model = manipulator_model()
g = benchmark_graph()

# The published (P, epsilon) pair is a valid certificate for the
# attenuation inequality at gamma = 2; passing it skips the solver.
# synthesize verifies it against that inequality, checks that the graph is
# balanced and strongly connected, and divides epsilon by lambda2 of the
# symmetrized Laplacian.
design = synthesize(model, g, "hinf", GAMMA,
                    cert=(REFERENCE_P, REFERENCE_EPSILON))
print("injected certificate margin: %.3e" % design.cert.margin)
print("gain K =", design.k)
print("coupling threshold c >= %.6f" % design.c_threshold)

# The published runs use c = 37, slightly above the threshold.
design = dataclasses.replace(design, c=REFERENCE_C)

# Square wave, +1 on [0,1) then -1 on [1,2) then off, scaled per agent.
# Zero initial state isolates the disturbance response.
scenario = Scenario(
    design=design,
    x0=np.zeros((g.n, model.n)),
    disturbance="bipolar",
    scales=DISTURBANCE_SCALES,
    t_end=10.0, dt=1e-3,
)
traj = integrate(scenario)

run = assess(traj, GAMMA)
print("J = %.6f (negative: %s)" % (run.j, run.j < 0))
print("empirical gain = %.6f (gamma = %g)" % (run.empirical_gain, GAMMA))

write_csv(traj, "attenuation_demo.csv", decimation=10)
print("trajectory written to attenuation_demo.csv")
