"""Bundled six-manipulator benchmark.

A network of six single-link manipulators with flexible joints, coupled over
a directed communication ring with chords. The REFERENCE_* constants are
published design values for this system and are used as regression anchors:
REFERENCE_P and REFERENCE_EPSILON form an attenuation certificate at
gamma = 2, REFERENCE_GAIN is the matching feedback gain, and
REFERENCE_C_THRESHOLD / REFERENCE_C the matching coupling bound and the
coupling used in the published simulations. Printed values are rounded to
four decimals, so checks against them need matching slack.
"""
from __future__ import annotations

import numpy as np

from .graph import DiGraph
from .sim import AgentModel, Nonlinearity

GAMMA = 2.0

ALPHA = 0.333

REFERENCE_LAMBDA2 = 0.8139

REFERENCE_EPSILON = 29.6636

REFERENCE_C_THRESHOLD = 36.4462

REFERENCE_C = 37.0

REFERENCE_P = np.array([
    [0.4060, -0.9667, 0.3547, -0.0842],
    [-0.9667, 67.6536, 0.0162, -0.0024],
    [0.3547, 0.0162, 0.4941, -0.0496],
    [-0.0842, -0.0024, -0.0496, 0.0367],
])

REFERENCE_GAIN = np.array([[-2.4920, -0.1957, 1.4115, -3.8216]])

DISTURBANCE_SCALES = np.array([[1.0], [-1.0], [1.5], [3.0], [-0.6], [2.0]])

_EDGES = (
    (1, 2), (1, 4),
    (2, 3), (2, 6),
    (3, 1),
    (4, 1), (4, 5),
    (5, 4), (5, 6),
    (6, 2), (6, 5),
)


def manipulator_model() -> AgentModel:
    """Single-link flexible-joint manipulator, 4 states, 1 input.

    States: motor angle, motor velocity, link angle, link velocity. The
    gravity torque enters the link velocity row as -0.333 sin(x1), which is
    Lipschitz with constant 0.333.
    """
    a = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-48.6, -1.26, 48.6, 0.0],
        [0.0, 0.0, 0.0, 10.0],
        [1.95, 0.0, -1.95, 0.0],
    ])
    b = np.array([[0.0], [21.6], [0.0], [0.0]])
    d1 = np.eye(4)
    d2 = np.array([[0.0], [1.0], [0.4], [0.0]])
    c_out = np.array([[1.0, 0.0, 0.0, 0.0]])
    f = Nonlinearity.sine([(3, 0, -ALPHA)])
    return AgentModel(a=a, b=b, d1=d1, d2=d2, c_out=c_out, alpha=ALPHA, f=f)


def benchmark_graph() -> DiGraph:
    """Six-node directed communication graph, balanced and strongly connected."""
    return DiGraph.from_edges(6, _EDGES)


def initial_states(seed: int = 12345) -> np.ndarray:
    """Seeded uniform draw in [-1, 1]^4 per agent for reproducible runs."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(6, 4))
