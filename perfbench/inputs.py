"""Seeded input generator for the benchmark workloads.

Writes graphs, models and certificates in the consyn CLI's documented file
formats (edge lists, model JSON, certificate JSON) plus a manifest that
records every case, why it exists, and the rule that produced it. The same
(workload, seed, size) always gives byte-identical files.

Run standalone to time set-up in a fresh process:

    python3 perfbench/inputs.py --workload design --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import block_diag, solve_continuous_are

from paths import import_consyn

consyn = import_consyn()
from consyn import benchmark, lmi  # noqa: E402
from consyn.graph import DiGraph, leader_follower_data, spectra  # noqa: E402
from consyn.sim import AgentModel, Nonlinearity  # noqa: E402

# The design family's base models come from this fixed stream. The workload
# seed only draws an orthogonal change of state coordinates per case (and
# the case order). The matrix-inequality feasible set is invariant under that
# change, so seeds vary the numbers the solver sees but not how hard each
# problem is, which keeps per-case latency comparable between seeds.
FAMILY_SEED = 20120223
WITNESS_SCALARS = (1.0, 10.0, 100.0, 1000.0)
MAX_REDRAWS = 50
MANIPULATOR_GAMMA = 3.0

# RK4 stability function: a linear mode mu is integrated stably at step dt
# when |R(dt * mu)| < 1.
DT = 1e-3
T_END = 10.0


def rk4_amplification(z):
    return np.abs(1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24)


# ---------------------------------------------------------------- file formats

def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def write_edge_list(path: Path, n: int, edges) -> None:
    lines = [f"nodes {n}"] + [f"{p} {c}" for (p, c) in sorted(edges)]
    path.write_text("\n".join(lines) + "\n")


def model_dict(model: AgentModel, gamma=None) -> dict:
    d = {
        "a": model.a.tolist(), "b": model.b.tolist(), "d1": model.d1.tolist(),
        "d2": model.d2.tolist(), "c": model.c_out.tolist(),
        "alpha": model.alpha,
        "f": {"kind": model.f.kind,
              "terms": [[o + 1, i + 1, c] for (o, i, c) in model.f.terms]},
    }
    if gamma is not None:
        d["gamma"] = float(gamma)
    return d


# ---------------------------------------------------------------- design cases

def riccati_witness(problem: lmi.LmiProblem, scalar: float):
    """Certificate from the Riccati form of the inequality, or None.

    With Y = P^-1 the Schur complement of the consensus block is
    YA + A^T Y - s Y B B^T Y + alpha^2 Y D1 D1^T Y + I < 0, and the hinf
    block adds C^T C + gamma^-2 Y D2 D2^T Y. Solving the equality with the
    identity raised by 1% gives a strictly feasible point when the Riccati
    equation (indefinite R) has a stabilizing solution; a larger raise
    already fails on the bundled manipulator.
    """
    m = problem.model
    cols = [m.b, m.d1]
    r = [np.eye(m.b.shape[1]) / scalar,
         -np.eye(m.d1.shape[1]) / max(m.alpha, 1e-3) ** 2]
    q = 1.01 * np.eye(m.n)
    if problem.kind == lmi.LmiKind.HINF:
        cols.append(m.d2)
        r.append(-problem.gamma ** 2 * np.eye(m.d2.shape[1]))
        q = q + m.c_out.T @ m.c_out
    try:
        y = solve_continuous_are(m.a, np.hstack(cols), q, block_diag(*r))
        p = np.linalg.inv(y)
    except (np.linalg.LinAlgError, ValueError):
        return None
    p = (p + p.T) / 2.0
    cert = lmi.LmiCertificate(p=p, scalar=scalar, margin=0.0, feasible=True)
    return cert if lmi.verify(problem, cert).passed else None


def first_witness(problem):
    """Smallest scalar of WITNESS_SCALARS whose Riccati witness verifies."""
    for s in WITNESS_SCALARS:
        cert = riccati_witness(problem, s)
        if cert is not None:
            return cert
    return None


def _stable_block(rng, k):
    """k x k mildly non-normal matrix with real eigenvalues in [-4, -1]."""
    v = np.eye(k) + 0.3 * rng.standard_normal((k, k))
    lam = rng.uniform(-4.0, -1.0, size=k)
    return v @ np.diag(lam) @ np.linalg.inv(v), v


def _base_model(rng, n, kind, reachable):
    """Unstable n-state, single-input model in block form.

    State 0 carries the unstable eigenvalue u. When reachable is False its
    row of A is u e_0^T and its row of B is zero, so e_0 is a left
    eigenvector with e_0^T B = 0: an unstable mode no input can move, which
    makes both inequality kinds infeasible for every (P, s).
    """
    u = rng.uniform(0.2, 1.0)
    a2, v2 = _stable_block(rng, n - 1)
    a = np.zeros((n, n))
    a[0, 0] = u
    a[1:, 1:] = a2
    a[1:, 0] = 0.5 * rng.standard_normal(n - 1)
    b = np.zeros((n, 1))
    b[1:, 0] = v2[:, 0] + 0.3 * rng.standard_normal(n - 1)
    if reachable:
        a[0, 1:] = 0.5 * rng.standard_normal(n - 1)
        b[0, 0] = 1.0 + rng.uniform(0.0, 1.0)
    alpha = float(rng.uniform(0.05, 0.3))
    gamma = float(rng.uniform(1.5, 4.0)) if kind == lmi.LmiKind.HINF else None
    model = AgentModel(
        a=a, b=b, d1=np.eye(n), d2=0.3 * rng.standard_normal((n, 1)),
        c_out=np.eye(n)[:1], alpha=alpha,
        f=Nonlinearity.sine([(n - 1, 0, -alpha)]))
    return model, gamma


def _rotate(model: AgentModel, q) -> AgentModel:
    """Orthogonal change of state coordinates x' = Q x.

    D1 = I is unchanged and the nonlinearity keeps its Lipschitz constant,
    so (P, s) is feasible for the original exactly when (Q P Q^T, s) is for
    the rotated model.
    """
    return AgentModel(a=q @ model.a @ q.T, b=q @ model.b, d1=model.d1,
                      d2=q @ model.d2, c_out=model.c_out @ q.T,
                      alpha=model.alpha, f=model.f)


def _haar_orthogonal(rng, n):
    z, r = np.linalg.qr(rng.standard_normal((n, n)))
    return z * np.sign(np.diag(r))


def _unreachable_unstable_mode(model: AgentModel) -> float:
    """|w^T B| for the left eigenvector w of the largest real eigenvalue."""
    lam, w = np.linalg.eig(model.a.T)
    k = int(np.argmax(lam.real))
    wk = np.real(w[:, k]) / np.linalg.norm(w[:, k])
    return float(np.abs(wk @ model.b).max())


DESIGN_SLOTS = (
    [(n, kind, True) for n in (2, 3, 4, 5, 6)
     for kind in (lmi.LmiKind.CONSENSUS, lmi.LmiKind.HINF)]
    + [(2, lmi.LmiKind.CONSENSUS, False), (3, lmi.LmiKind.HINF, False),
       (4, lmi.LmiKind.CONSENSUS, False)]
)
TINY_DESIGN_SLOTS = ((2, lmi.LmiKind.CONSENSUS, True),
                     (2, lmi.LmiKind.HINF, False))


def _mode(kind):
    return "leaderless" if kind == lmi.LmiKind.CONSENSUS else "hinf"


def design_cases(seed: int, tiny: bool = False) -> list[dict]:
    """Build the design cases (models plus, for feasible ones, witnesses)."""
    family = np.random.default_rng(FAMILY_SEED)
    rng = np.random.default_rng([seed, 1])
    cases = []
    for n, kind, reachable in (TINY_DESIGN_SLOTS if tiny else DESIGN_SLOTS):
        # Base model: redraw from the family stream until a witness verifies
        # (feasible slots) or the unstable mode is provably unreachable.
        for redraws in range(MAX_REDRAWS):
            base, gamma = _base_model(family, n, kind, reachable)
            problem = lmi.LmiProblem(kind, base, gamma=gamma)
            if reachable and first_witness(problem) is not None:
                break
            if not reachable and _unreachable_unstable_mode(base) < 1e-12:
                break
        else:
            raise RuntimeError(f"no base model for slot n={n} {kind.value}")
        # Seeded rotation: redraw it if rounding breaks the witness.
        for rot_redraws in range(MAX_REDRAWS):
            model = _rotate(base, _haar_orthogonal(rng, n))
            problem = lmi.LmiProblem(kind, model, gamma=gamma)
            witness = first_witness(problem) if reachable else None
            if not reachable or witness is not None:
                break
        else:
            raise RuntimeError(f"no witness after rotation, slot n={n}")
        expect = "feasible" if reachable else "infeasible"
        name = f"{_mode(kind)}-n{n}-{expect}"
        cases.append({
            "name": name, "model": model, "gamma": gamma,
            "mode": _mode(kind), "expect": expect, "witness": witness,
            "redraws": redraws, "rotation_redraws": rot_redraws,
            "why": ("witnessed-feasible unstable model: solver cost at this "
                    "state dimension and inequality kind") if reachable else
                   ("unstable mode unreachable from B (|w^T B| < 1e-12): "
                    "the full ladder then the infeasible exit 3"),
        })
    if not tiny:
        model = benchmark.manipulator_model()
        problem = lmi.LmiProblem(lmi.LmiKind.HINF, model,
                                 gamma=MANIPULATOR_GAMMA)
        cases.append({
            "name": "hinf-manipulator", "model": model,
            "gamma": MANIPULATOR_GAMMA, "mode": "hinf", "expect": "feasible",
            "witness": first_witness(problem), "redraws": 0,
            "rotation_redraws": 0,
            "why": "bundled manipulator at a gamma the published design "
                   "does not cover",
        })
        if cases[-1]["witness"] is None:
            raise RuntimeError("manipulator case has no witness")
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


def write_design(out: Path, seed: int, tiny: bool = False) -> dict:
    graph = benchmark.benchmark_graph()
    write_edge_list(out / "graph.txt", graph.n, graph.edges)
    entries = []
    for case in design_cases(seed, tiny):
        model_file = f"{case['name']}.json"
        write_json(out / model_file, model_dict(case["model"], case["gamma"]))
        entry = {k: case[k] for k in ("name", "mode", "gamma", "expect", "why",
                                      "redraws", "rotation_redraws")}
        entry |= {"model": model_file, "n": case["model"].n}
        if case["witness"] is not None:
            entry["witness_scalar"] = case["witness"].scalar
            write_json(out / f"{case['name']}.witness.json",
                       {"p": case["witness"].p.tolist(),
                        "scalar": case["witness"].scalar})
        entries.append(entry)
    return {"graph": "graph.txt", "cases": entries}


# ---------------------------------------------------------------- network

def _published_gain(model):
    return -0.5 * np.linalg.solve(benchmark.REFERENCE_P, model.b).T


def _rk4_stable(model, laplacian_eigs, c) -> float:
    """Largest RK4 amplification over the linear error modes
    A + c * lambda_i(L) B K of the published design."""
    bk = model.b @ _published_gain(model)
    worst = 0.0
    for lam in laplacian_eigs:
        mu = np.linalg.eigvals(model.a + c * lam * bk)
        worst = max(worst, float(rk4_amplification(DT * mu).max()))
    return worst


def _random_sc_graph(rng, n, p):
    order = rng.permutation(n) + 1
    edges = {(int(order[i]), int(order[(i + 1) % n])) for i in range(n)}
    mask = rng.random((n, n)) < p
    edges |= {(i + 1, j + 1) for i in range(n) for j in range(n)
              if i != j and mask[i, j]}
    return edges


def _cycle_union(rng, nodes, k):
    """Union of k edge-disjoint Hamiltonian cycles over nodes (balanced)."""
    edges: set = set()
    cycles = 0
    for _ in range(20 * k):
        if cycles == k:
            break
        order = [int(v) for v in rng.permutation(nodes)]
        cyc = {(order[i], order[(i + 1) % len(order)])
               for i in range(len(order))}
        if cyc & edges:
            continue
        edges |= cyc
        cycles += 1
    return edges


def _leaderless(rng, n, model, eps):
    for p in (0.02, 0.04, 0.06, 0.08, 0.1, 0.15, 0.2):
        edges = _random_sc_graph(rng, n, p)
        sp = spectra(DiGraph.from_edges(n, edges))
        c = eps / sp.a_of_l
        lams = np.linalg.eigvals(sp.laplacian)
        worst = _rk4_stable(model, lams[np.abs(lams) > 1e-9], c)
        if worst < 1.0:
            return edges, {"edge_probability": p, "c": c, "rk4_amp": worst}
    raise RuntimeError("no stable leaderless family parameter")


def _balanced(rng, n, model, eps):
    for k in (2, 3, 4, 6):
        edges = _cycle_union(rng, np.arange(1, n + 1), k)
        sp = spectra(DiGraph.from_edges(n, edges))
        c = eps / sp.lambda2_sym
        lams = np.linalg.eigvals(sp.laplacian)
        worst = _rk4_stable(model, lams[np.abs(lams) > 1e-9], c)
        if worst < 1.0:
            return edges, {"cycles": k, "c": c, "rk4_amp": worst}
    raise RuntimeError("no stable balanced family parameter")


def _leader_tree(rng, n, model, eps):
    """Leader 1 pinned to a share of the followers, which form a balanced
    two-cycle digraph; the pinning edges make a leader-rooted spanning tree."""
    followers = np.arange(2, n + 1)
    for share in (0.25, 0.5, 0.75, 1.0):
        edges = _cycle_union(rng, followers, 2)
        pinned = rng.permutation(followers)[:max(1, round(share * (n - 1)))]
        edges |= {(1, int(v)) for v in pinned}
        try:
            lf = leader_follower_data(DiGraph.from_edges(n, edges), 1)
        except consyn.PreconditionError:
            continue
        c = eps / (lf.lambda1_h * lf.min_q)
        worst = _rk4_stable(model, np.linalg.eigvals(lf.l1), c)
        if worst < 1.0:
            return edges, {"pinned_share": share, "c": c, "rk4_amp": worst}
    raise RuntimeError("no stable leader-follower family parameter")


NETWORK_SCENARIOS = (
    ("leaderless", _leaderless, "none",
     "leaderless consensus on a strongly connected digraph"),
    ("hinf", _balanced, "bipolar",
     "attenuation run with bipolar disturbance on a balanced digraph"),
    ("leader-follower", _leader_tree, "none",
     "tracking under a leader-rooted spanning tree"),
)


def write_network(out: Path, seed: int, tiny: bool = False) -> dict:
    """Three N=64 graphs, the manipulator model and its published certificate.

    Each family is walked from sparsest to densest and the first parameter
    whose linear error modes keep RK4 stable at dt is kept (recorded as
    rk4_amp < 1). Seeds are never re-picked.
    """
    n = 8 if tiny else 64
    model = benchmark.manipulator_model()
    eps = benchmark.REFERENCE_EPSILON
    write_json(out / "model.json", model_dict(model, benchmark.GAMMA))
    write_json(out / "cert.json", {"p": benchmark.REFERENCE_P.tolist(),
                                   "scalar": eps})
    rng = np.random.default_rng([seed, 2])
    scenarios = []
    for mode, family, disturbance, why in NETWORK_SCENARIOS:
        edges, rule = family(rng, n, model, eps)
        graph_file = f"graph-{mode}.txt"
        write_edge_list(out / graph_file, n, edges)
        scenarios.append({
            "name": mode, "mode": mode, "graph": graph_file, "nodes": n,
            "edges": len(edges), "disturbance": disturbance,
            "x0_seed": int(rng.integers(2 ** 31)), "rule": rule, "why": why,
            "t_end": 0.5 if tiny else T_END, "dt": DT,
        })
    return {"model": "model.json", "cert": "cert.json",
            "scenarios": scenarios}


def write_repro(out: Path, seed: int, tiny: bool = False) -> dict:
    """No files: the seed only picks repro's --seed. The tiny size is the
    full one, since the gates need the 10 s horizon to see convergence."""
    rng = np.random.default_rng([seed, 3])
    return {"repro_seed": int(rng.integers(2 ** 31))}


WRITERS = {"repro": write_repro, "design": write_design,
           "network": write_network}


def generate(workload: str, seed: int, out: Path, tiny: bool = False) -> dict:
    """Write the workload's inputs into out and return the manifest."""
    out.mkdir(parents=True, exist_ok=True)
    manifest = WRITERS[workload](out, seed, tiny)
    manifest |= {"workload": workload, "seed": seed, "tiny": tiny}
    write_json(out / "manifest.json", manifest)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WRITERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    ns = parser.parse_args(argv)
    generate(ns.workload, ns.seed, Path(ns.out), ns.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
