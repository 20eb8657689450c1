"""Operations and correctness gates of the three workloads.

An operation is one call of the documented CLI entry point,
``consyn.cli.main(argv)``, on generated input files. Each gate reads what the
call left behind (exit code, report JSON, trajectory CSV) and recomputes the
claims it checks from the inputs, never from the program's internals.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# repro: the comparison row that is a documented rounding MISMATCH. The
# published 36.4462 is a quotient of two rounded displays; the faithful
# full-precision threshold is gated instead.
KNOWN_MISMATCH = "c_threshold_injected"
FAITHFUL_THRESHOLD = 36.448067376820456
FAITHFUL_TOL = 1e-6
REPRO_CHECKS = ("solver_feasible", "consensus_converged", "j_negative",
                "gain_below_gamma")

MARGIN_REL = 1e-6
DESIGN_RTOL = 1e-8
THRESHOLD_RTOL = 1e-6
INFEASIBLE_EXIT = 3

# network: largest final consensus (or tracking) error accepted at t_end.
# At the published design every scenario decays to about 1e-9 or below by
# t = 10 s; the tiny smoke size stops at 0.5 s and is only checked for
# finiteness.
FINAL_ERROR = 1e-6


class GateFailure(Exception):
    """An operation's output is wrong; the message says how."""


@dataclass
class Operation:
    case: str
    argv: Callable[[Path], list[str]]
    gate: Callable[[int, Path], list[float]]
    """Returns the certificate scalars of the designs the call produced."""


def _report(out: Path, name: str) -> dict:
    path = out / name
    if not path.is_file():
        raise GateFailure(f"no {name}")
    return json.loads(path.read_text())


def _expect_exit(rc, want):
    if rc != want:
        raise GateFailure(f"exit code {rc}, expected {want}")


# ---------------------------------------------------------------- repro

def gate_repro(rc: int, out: Path) -> list[float]:
    _expect_exit(rc, 0)
    report = _report(out, "repro_report.json")
    checks = report["checks"]
    bad = [k for k in REPRO_CHECKS if checks.get(k) is not True]
    if bad:
        raise GateFailure(f"repro checks false: {bad}")
    for row in report["comparison"]:
        if row["name"] == KNOWN_MISMATCH:
            if abs(row["computed"] - FAITHFUL_THRESHOLD) > FAITHFUL_TOL:
                raise GateFailure(
                    f"{KNOWN_MISMATCH} = {row['computed']!r}, faithful value "
                    f"is {FAITHFUL_THRESHOLD!r}")
        elif not row["ok"]:
            raise GateFailure(f"comparison MISMATCH on {row['name']}")
    return [report["design_solver"]["certificate"]["scalar"],
            report["design_consensus"]["certificate"]["scalar"]]


def repro_operations(manifest: dict, inputs: Path) -> list[Operation]:
    def argv(out):
        return ["repro", "--seed", str(manifest["repro_seed"]),
                "--out-dir", str(out)]
    return [Operation("repro", argv, gate_repro)]


# ---------------------------------------------------------------- design

def load_model(path: Path) -> dict:
    d = json.loads(path.read_text())
    return {k: np.asarray(d[k], dtype=float) for k in ("a", "b", "d1", "d2",
                                                      "c")} | {
        "alpha": float(d["alpha"]), "gamma": d.get("gamma")}


def assemble_block(m: dict, mode: str, p, s) -> np.ndarray:
    """The design inequality's block matrix, written out independently of
    the program (consensus border [P, -I]; hinf adds C P and D2 rows)."""
    a, b, d1, d2, c = m["a"], m["b"], m["d1"], m["d2"], m["c"]
    n = a.shape[0]
    b11 = a @ p + p @ a.T - s * b @ b.T + m["alpha"] ** 2 * d1 @ d1.T
    if mode != "hinf":
        return np.block([[b11, p], [p, -np.eye(n)]])
    m2, m1 = c.shape[0], d2.shape[1]
    z = np.zeros
    return np.block([
        [b11, p, p @ c.T, d2],
        [p, -np.eye(n), z((n, m2)), z((n, m1))],
        [c @ p, z((m2, n)), -np.eye(m2), z((m2, m1))],
        [d2.T, z((m1, n)), z((m1, m2)), -m["gamma"] ** 2 * np.eye(m1)],
    ])


def lambda2_sym(graph_file: Path) -> float:
    lines = [ln.split() for ln in graph_file.read_text().splitlines()
             if ln.strip()]
    n = int(lines[0][1])
    lap = np.zeros((n, n))
    for p, c in lines[1:]:
        lap[int(c) - 1, int(p) - 1] -= 1.0
        lap[int(c) - 1, int(c) - 1] += 1.0
    return float(np.linalg.eigvalsh((lap + lap.T) / 2.0)[1])


def check_certificate(model: dict, mode: str, design: dict, spectral: float,
                      verify) -> float:
    """Gate one synthesized design; returns its certificate scalar.

    verify(p, s) -> bool is the program's own lmi.verify on the certificate;
    the margin rule, gain and threshold are recomputed here.
    """
    cert = design["certificate"]
    p = np.asarray(cert["p"], dtype=float)
    s = float(cert["scalar"])
    if not verify(p, s):
        raise GateFailure("certificate fails lmi.verify")
    block = assemble_block(model, mode, p, s)
    margin = -float(np.linalg.eigvalsh(block)[-1])
    required = MARGIN_REL * (1.0 + float(np.linalg.norm(block, "fro")))
    if not margin >= required:
        raise GateFailure(f"margin {margin:.3e} below rule {required:.3e}")
    if float(np.linalg.eigvalsh(p)[0]) <= 0 or s <= 0:
        raise GateFailure("p or scalar not positive")
    k = -0.5 * np.linalg.solve(p, model["b"]).T
    if not np.allclose(design["k"], k, rtol=DESIGN_RTOL, atol=1e-12):
        raise GateFailure("gain K differs from -B^T P^-1 / 2")
    threshold = s / spectral
    if abs(design["c_threshold"] - threshold) > THRESHOLD_RTOL * threshold:
        raise GateFailure(f"threshold {design['c_threshold']!r} != "
                          f"s / lambda2 = {threshold!r}")
    return s


def design_operations(manifest: dict, inputs: Path, verify) -> list[Operation]:
    """verify(model_file, mode, p, s) -> bool is the program's check."""
    graph = inputs / manifest["graph"]
    # The bundled graph is balanced, where a(L) equals lambda2((L+L^T)/2),
    # so both modes share this spectral quantity.
    spectral = lambda2_sym(graph)
    ops = []
    for case in manifest["cases"]:
        model_file = inputs / case["model"]

        def argv(out, case=case, model_file=model_file):
            return ["synth", str(model_file), str(graph), "--mode",
                    case["mode"], "--out-dir", str(out)]

        def gate(rc, out, case=case, model_file=model_file):
            if case["expect"] == "infeasible":
                _expect_exit(rc, INFEASIBLE_EXIT)
                return []
            _expect_exit(rc, 0)
            design = _report(out, "synth_report.json")["design"]
            return [check_certificate(
                load_model(model_file), case["mode"], design, spectral,
                lambda p, s: verify(model_file, case["mode"], p, s))]

        ops.append(Operation(case["name"], argv, gate))
    return ops


# ---------------------------------------------------------------- network

def _csv_shape(path: Path) -> tuple[int, int]:
    """(data rows, header columns) of a CSV, read in chunks."""
    with path.open("rb") as fh:
        header = fh.readline()
        rows = 0
        while chunk := fh.read(1 << 20):
            rows += chunk.count(b"\n")
    return rows, header.count(b",") + 1


def network_operations(manifest: dict, inputs: Path) -> list[Operation]:
    model = json.loads((inputs / manifest["model"]).read_text())
    n_state = len(model["a"])
    m2 = len(model["c"])
    gamma = float(model["gamma"])
    ops = []
    for sc in manifest["scenarios"]:
        def argv(out, sc=sc):
            return ["simulate", str(inputs / manifest["model"]),
                    str(inputs / sc["graph"]), "--mode", sc["mode"],
                    "--cert", str(inputs / manifest["cert"]),
                    "--dt", repr(sc["dt"]), "--t-end", repr(sc["t_end"]),
                    "--seed", str(sc["x0_seed"]),
                    "--disturbance", sc["disturbance"],
                    "--out-dir", str(out)]

        def gate(rc, out, sc=sc):
            _expect_exit(rc, 0)
            report = _report(out, "simulate_report.json")
            sim = report["simulation"]
            err = sim["final_consensus_error"]
            limit = FINAL_ERROR if sc["t_end"] >= 10.0 else np.inf
            if not (np.isfinite(err) and err < limit):
                raise GateFailure(f"final error {err!r} not below {limit}")
            if sc["disturbance"] == "none" and sim["v_fraction_increasing"]:
                raise GateFailure("V increased on an undisturbed run")
            if sc["disturbance"] != "none":
                if not (sim["j"] < 0 and sim["empirical_gain"] < gamma):
                    raise GateFailure("attenuation bound not met")
            steps = round(sc["t_end"] / sc["dt"])
            rows, cols = _csv_shape(out / "trajectory.csv")
            want_cols = 1 + sc["nodes"] * (2 * n_state + m2) + 2
            if (rows, cols) != (steps + 1, want_cols):
                raise GateFailure(f"CSV is {rows}x{cols}, expected "
                                  f"{steps + 1}x{want_cols}")
            return [report["design"]["certificate"]["scalar"]]

        ops.append(Operation(sc["name"], argv, gate))
    return ops
