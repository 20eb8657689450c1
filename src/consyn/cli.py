"""Command-line front end.

Subcommands: graph (spectral analysis), synth (protocol design), simulate
(closed-loop run with CSV export), repro (built-in six-manipulator benchmark
bundle). Reports are JSON, trajectories CSV, graphs plain-text edge lists.
Where the process may use two or more CPUs, repro integrates its attenuation
run in a forked child while it runs the consensus stage itself; the child
only integrates, so files, messages and their order, and every byte of
them, are those of the one-CPU run, which does one stage after the other.

Exit codes: 0 success, 2 precondition violation (including unreadable or
malformed inputs, an output that cannot be written, named in the message,
and an allocation too large for the machine), 3 feasibility search
exhausted its budget, 4 simulation blow-up (an overflowing run included,
without a warning). main alone maps an exception to its exit code. The default output
directory comes from CONSYN_OUT_DIR, falling back to the current directory.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, benchmark, sim
from .errors import BlowUpError, InfeasibleError, PreconditionError
from .graph import (DiGraph, GraphAnalysis, analyze, digraph_from_adjacency,
                    parse_edge_list)
from .sim import (AgentModel, CsvWriter, Nonlinearity, Scenario, assess,
                  check_time_grid, integrate, write_csv)
from .synthesis import DesignMode, ProtocolDesign, synthesize

OUT_DIR_ENV = "CONSYN_OUT_DIR"
# The final pairwise distance below which repro calls the consensus run
# converged.
CONVERGED_BELOW = 1e-3


def _listify(a):
    return np.asarray(a, dtype=float).tolist()


def model_from_dict(d: dict) -> tuple[AgentModel, float | None]:
    """Model and gamma of a model file's JSON. A well-formed model whose
    alpha understates f's Lipschitz constant raises AgentModel's
    PreconditionError; any other bad entry is a malformed model file."""
    try:
        if not isinstance(d, dict):
            raise TypeError("the model must be a JSON object")
        fdesc = d.get("f", {"kind": "zero", "terms": []})
        if not isinstance(fdesc, dict):
            raise TypeError("f must be a JSON object")
        terms = tuple((int(o) - 1, int(i) - 1, float(c))
                      for (o, i, c) in fdesc.get("terms", []))
        f = Nonlinearity(kind=fdesc.get("kind", "zero"), terms=terms)
        model = AgentModel(
            a=np.asarray(d["a"], dtype=float),
            b=np.asarray(d["b"], dtype=float),
            d1=np.asarray(d["d1"], dtype=float),
            d2=np.asarray(d["d2"], dtype=float) if "d2" in d else None,
            c_out=np.asarray(d["c"], dtype=float) if "c" in d else None,
            alpha=float(d.get("alpha", 0.0)),
            f=f,
        )
        gamma = d.get("gamma")
        gamma = float(gamma) if gamma is not None else None
    except PreconditionError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed model file: {exc}") from exc
    return model, gamma


def _adjacency_graph(value, path) -> DiGraph:
    try:
        return digraph_from_adjacency(np.asarray(value, dtype=float))
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"{path}: malformed adjacency: {exc}") from exc


def _read_text(path, what: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read {what} {path}: {exc}") from exc


def _read_json(path, what: str):
    """The JSON value in a file; read and parse errors name the file."""
    text = _read_text(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_model(path) -> tuple[AgentModel, float | None, DiGraph | None]:
    """Load a JSON model file; returns (model, gamma, embedded graph)."""
    data = _read_json(path, "model file")
    try:
        model, gamma = model_from_dict(data)
    except PreconditionError as exc:
        raise PreconditionError(f"{path}: {exc}") from exc
    g = None
    if "adjacency" in data:
        g = _adjacency_graph(data["adjacency"], path)
    return model, gamma, g


def load_graph(path) -> DiGraph:
    """Load a graph from an edge-list file or a JSON adjacency file."""
    text = _read_text(path, "graph file")
    if text.lstrip().startswith("{"):
        data = _read_json(path, "graph file")
        if "adjacency" not in data:
            raise PreconditionError(
                f"graph file {path} lacks an 'adjacency' entry")
        return _adjacency_graph(data["adjacency"], path)
    try:
        return parse_edge_list(text)
    except ValueError as exc:
        raise PreconditionError(f"{path}: {exc}") from exc


def load_certificate(path) -> tuple[np.ndarray, float]:
    """Load a certificate file; returns its (p, scalar) pair."""
    data = _read_json(path, "certificate")
    try:
        p = np.asarray(data["p"], dtype=float)
        scalar = float(data["scalar"])
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(
            f"{path}: malformed certificate file: {exc}") from exc
    return p, scalar


def _config_hash(parts: list) -> str:
    payload = json.dumps(parts, sort_keys=True, default=str).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _provenance(args_dict, extra_parts=()) -> dict:
    return {
        "tool": "consyn",
        "version": __version__,
        # func, the subcommand function, prints with a memory address
        "config_hash": _config_hash([
            {k: v for k, v in args_dict.items() if k != "func"},
            list(extra_parts)]),
        "seed": args_dict.get("seed"),
    }


def _out_dir(ns) -> Path:
    out = ns.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_report(report: dict, out_dir: Path, name: str) -> Path:
    path = out_dir / name
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def _graph_section(analysis: GraphAnalysis) -> dict:
    g, flags = analysis.graph, analysis.flags
    section = {
        "nodes": g.n,
        "edges": sorted(list(e) for e in g.edges),
        "strongly_connected": flags.strongly_connected,
        "balanced": flags.balanced,
        "has_spanning_tree": flags.has_spanning_tree,
        "leader_follower_root": flags.leader_follower_root,
    }
    if flags.strongly_connected:
        section["r"] = _listify(analysis.r)
        section["a_of_l"] = analysis.a_of_l
        if analysis.lambda2_sym is not None:
            section["lambda2_sym"] = analysis.lambda2_sym
    lf = analysis.leader_follower
    if lf is not None:
        section["leader_follower"] = {
            "leader": lf.leader,
            "q": _listify(lf.q),
            "lambda1_h": lf.lambda1_h,
            "min_q": lf.min_q,
            "simplified_applicable": lf.lambda1_sym is not None,
        }
    return section


def _design_section(design: ProtocolDesign) -> dict:
    section = {
        "mode": design.mode.value,
        "k": _listify(design.k),
        "c": design.c,
        "c_threshold": design.c_threshold,
        "certificate": {
            "p": _listify(design.cert.p),
            "scalar": design.cert.scalar,
            "margin": design.cert.margin,
            "feasible": design.cert.feasible,
        },
    }
    if design.gamma is not None:
        section["gamma"] = design.gamma
    if design.c_threshold_simplified is not None:
        section["c_threshold_simplified"] = design.c_threshold_simplified
    return section


def cmd_graph(ns) -> int:
    g = load_graph(ns.graph_file)
    section = _graph_section(analyze(g))
    if not section["strongly_connected"]:
        print("warning: graph is not strongly connected", file=sys.stderr)
    out_dir = _out_dir(ns)
    report = {
        "graph": section,
        "provenance": _provenance(vars(ns) | {"seed": None},
                                  [Path(ns.graph_file).read_text()]),
    }
    path = _write_report(report, out_dir, "graph_report.json")
    print(f"nodes: {g.n}  edges: {len(g.edges)}")
    print(f"strongly_connected: {section['strongly_connected']}")
    print(f"balanced: {section['balanced']}")
    print(f"has_spanning_tree: {section['has_spanning_tree']}")
    if section.get("leader_follower_root"):
        print(f"leader_follower_root: {section['leader_follower_root']}")
    if "r" in section:
        print(f"r: {np.array(section['r'])}")
        print(f"a_of_l: {section['a_of_l']:.10g}")
    if "lambda2_sym" in section:
        print(f"lambda2_sym: {section['lambda2_sym']:.10g}")
    print(f"report: {path}")
    return 0


def _load_inputs(ns) -> tuple[AgentModel, float | None, DiGraph]:
    """Model, gamma (--gamma over the model file's) and graph of a run."""
    model, gamma_model, embedded = load_model(ns.model_file)
    g = load_graph(ns.graph_file) if ns.graph_file else embedded
    if g is None:
        raise PreconditionError("no graph given (file or embedded adjacency)")
    gamma = ns.gamma if ns.gamma is not None else gamma_model
    return model, gamma, g


def _build_design(ns, model: AgentModel, gamma, g: DiGraph
                  ) -> ProtocolDesign:
    cert = load_certificate(ns.cert) if ns.cert else None
    return synthesize(model, g, ns.mode, gamma, cert=cert,
                      c_multiplier=ns.c_multiplier)


def cmd_synth(ns) -> int:
    design = _build_design(ns, *_load_inputs(ns))
    out_dir = _out_dir(ns)
    report = {
        "graph": _graph_section(design.analysis),
        "design": _design_section(design),
        "provenance": _provenance(vars(ns)),
    }
    path = _write_report(report, out_dir, "synth_report.json")
    print(f"mode: {design.mode.value}")
    print(f"k: {np.array2string(design.k, precision=6)}")
    print(f"c_threshold: {design.c_threshold:.10g}")
    print(f"c: {design.c:.10g}")
    print(f"margin: {design.cert.margin:.6e}")
    print(f"report: {path}")
    return 0


def cmd_simulate(ns) -> int:
    check_time_grid(ns.dt, ns.t_end)
    model, gamma, g = _load_inputs(ns)
    if ns.disturbance != "none" and ns.mode == DesignMode.LEADER_FOLLOWER:
        raise PreconditionError(
            "disturbance rejection for tracking runs is out of scope")
    design = _build_design(ns, model, gamma, g)
    x0 = np.zeros((g.n, model.n)) if ns.disturbance != "none" else \
        np.random.default_rng(ns.seed).uniform(-1.0, 1.0, (g.n, model.n))
    scenario = Scenario(design=design, x0=x0, disturbance=ns.disturbance,
                        t_end=ns.t_end, dt=ns.dt)
    csv_path = _out_dir(ns) / "trajectory.csv"
    with CsvWriter(csv_path) as csv:
        traj = integrate(scenario, csv)
        csv.finish(traj)
    run = assess(traj, design.gamma)
    summary = {
        "final_consensus_error": run.final_error,
        "v_fraction_increasing": run.v_fraction_increasing,
        "v0": run.v0,
    }
    if design.gamma is not None:
        summary["j"] = run.j
        summary["empirical_gain"] = run.empirical_gain
    report = {
        "graph": _graph_section(design.analysis),
        "design": _design_section(design),
        "simulation": summary | {
            "dt": ns.dt, "t_end": ns.t_end,
            "disturbance": ns.disturbance,
            "x0": _listify(x0),
            "trajectory_csv": str(csv_path),
        },
        "provenance": _provenance(vars(ns)),
    }
    path = _write_report(report, csv_path.parent, "simulate_report.json")
    print(f"final consensus error: {summary['final_consensus_error']:.6e}")
    if "j" in summary:
        print(f"J: {summary['j']:.6f}")
        gain = summary["empirical_gain"]
        print(f"empirical gain: {gain:.6f}" if gain is not None
              else "empirical gain: undefined (zero disturbance)")
    print(f"V increases: {run.v_increases}")
    print(f"trajectory: {csv_path}")
    print(f"report: {path}")
    return 0


def _compare_row(name, computed, reference, tolerance):
    delta = abs(computed - reference)
    return {
        "name": name,
        "computed": computed,
        "reference": reference,
        "abs_delta": delta,
        "tolerance": tolerance,
        "ok": bool(delta <= tolerance),
    }


def cmd_repro(ns) -> int:
    check_time_grid(ns.dt, ns.t_end)
    out_dir = _out_dir(ns)
    stage = "graph"
    try:
        model = benchmark.manipulator_model()
        g = benchmark.benchmark_graph()

        stage = "attenuation-solve"
        solved = synthesize(model, g, DesignMode.HINF, benchmark.GAMMA)

        stage = "attenuation-inject"
        injected = synthesize(
            model, g, DesignMode.HINF, benchmark.GAMMA,
            cert=(benchmark.REFERENCE_P, benchmark.REFERENCE_EPSILON))
        published = dataclasses.replace(injected, c=benchmark.REFERENCE_C)

        stage = "consensus-solve"
        consensus = synthesize(model, g, DesignMode.LEADERLESS)

        stage = "consensus-sim"
        consensus_run = Scenario(
            design=consensus, x0=benchmark.initial_states(ns.seed),
            t_end=ns.t_end, dt=ns.dt)
        attenuation_run = Scenario(
            design=published, x0=np.zeros((6, 4)),
            disturbance=ns.disturbance, scales=benchmark.DISTURBANCE_SCALES,
            t_end=ns.t_end, dt=ns.dt)

        def consensus_stage():
            traj_c = integrate(consensus_run)
            write_csv(traj_c, out_dir / "consensus_traj.csv", decimation=10)
            return assess(traj_c)

        if sim._cpu_count() > 1:
            # a forked child integrates the attenuation run meanwhile
            children = sim._Children()
            try:
                children.fork(lambda: integrate(attenuation_run))
                run_c = consensus_stage()
                (traj_h,) = children.reap()
            finally:
                children.kill()
            stage = "attenuation-sim"
            if isinstance(traj_h, BaseException):
                raise traj_h
        else:
            run_c = consensus_stage()
            stage = "attenuation-sim"
            traj_h = integrate(attenuation_run)
        write_csv(traj_h, out_dir / "attenuation_traj.csv", decimation=10)
        run_h = assess(traj_h, published.gamma)

        stage = "compare"
        rows = [
            _compare_row("lambda2_sym", injected.analysis.lambda2_sym,
                         benchmark.REFERENCE_LAMBDA2, 1e-3),
            _compare_row("c_threshold_injected", injected.c_threshold,
                         benchmark.REFERENCE_C_THRESHOLD, 1e-3),
        ]
        for j in range(4):
            rows.append(_compare_row(
                f"k_{j + 1}_injected", float(injected.k[0, j]),
                float(benchmark.REFERENCE_GAIN[0, j]), 5e-3))
        checks = {
            "solver_margin": solved.cert.margin,
            "solver_feasible": solved.cert.feasible,
            "consensus_final_error": run_c.final_error,
            "consensus_converged": bool(run_c.final_error < CONVERGED_BELOW),
            "v_increases": run_c.v_increases,
            "j": run_h.j,
            "j_negative": bool(run_h.j < 0),
            "empirical_gain": run_h.empirical_gain,
            "gain_below_gamma": bool(run_h.empirical_gain < published.gamma),
        }
    except Exception:
        print(f"stage {stage} failed", file=sys.stderr)
        raise

    report = {
        "graph": _graph_section(solved.analysis),
        "design_solver": _design_section(solved),
        "design_injected": _design_section(published),
        "design_consensus": _design_section(consensus),
        "comparison": rows,
        "checks": checks,
        "provenance": _provenance(vars(ns)),
    }
    path = _write_report(report, out_dir, "repro_report.json")
    width = max(len(r["name"]) for r in rows)
    print(f"{'quantity':<{width}}  {'computed':>14}  {'reference':>14}  "
          f"{'abs delta':>11}  {'tol':>8}  result")
    for r in rows:
        flag = "ok" if r["ok"] else "MISMATCH"
        print(f"{r['name']:<{width}}  {r['computed']:>14.8g}  "
              f"{r['reference']:>14.8g}  {r['abs_delta']:>11.3e}  "
              f"{r['tolerance']:>8.1e}  {flag}")
    print(f"solver margin: {checks['solver_margin']:.6e} "
          f"(feasible: {checks['solver_feasible']})")
    print(f"consensus final error: {checks['consensus_final_error']:.6e} "
          f"(converged: {checks['consensus_converged']})")
    print(f"V increases: {checks['v_increases']}")
    print(f"J: {checks['j']:.6f} (negative: {checks['j_negative']})")
    print(f"empirical gain: {checks['empirical_gain']:.6f} "
          f"(below gamma: {checks['gain_below_gamma']})")
    print(f"report: {path}")
    return 0


def _seed(text: str) -> int:
    """The --seed value: numpy's generators take non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consyn",
        description="Consensus protocol synthesis and network simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="analyze a communication graph")
    p_graph.add_argument("graph_file")
    p_graph.add_argument("--out-dir", default=None)
    p_graph.set_defaults(func=cmd_graph)

    def add_run_flags(p):
        p.add_argument("--dt", type=float, default=1e-3)
        p.add_argument("--t-end", type=float, default=10.0, dest="t_end")
        p.add_argument("--seed", type=_seed, default=12345)

    def add_synth_flags(p, with_sim=False):
        p.add_argument("model_file")
        p.add_argument("graph_file", nargs="?", default=None)
        p.add_argument("--mode", required=True,
                       choices=[m.value for m in DesignMode])
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--c-multiplier", type=float, default=1.0,
                       dest="c_multiplier")
        p.add_argument("--cert", default=None)
        p.add_argument("--out-dir", default=None)
        if with_sim:
            add_run_flags(p)
            p.add_argument("--disturbance", default="none",
                           choices=["bipolar", "unipolar", "none"])

    p_synth = sub.add_parser("synth", help="design a protocol")
    add_synth_flags(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_sim = sub.add_parser("simulate", help="design and simulate")
    add_synth_flags(p_sim, with_sim=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_repro = sub.add_parser(
        "repro", help="run the bundled six-manipulator benchmark")
    p_repro.add_argument("--out-dir", default=None)
    add_run_flags(p_repro)
    p_repro.add_argument("--disturbance", default="bipolar",
                         choices=["bipolar", "unipolar"])
    p_repro.set_defaults(func=cmd_repro)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BlowUpError as exc:
        print(f"error: {exc} (last valid time {exc.last_valid_time})",
              file=sys.stderr)
        return 4
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
