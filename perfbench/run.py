"""consyn benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload {repro,design,network} --seed N \
        --seconds S --trace {0,1}

A closed loop from one process: each operation is one in-process call of
``consyn.cli.main`` and the next starts when it returns. Operations run in
passes over the workload's cases for about ``--seconds`` (see measure()).
Every operation is gated for correctness.

--trace 0 prints the end-to-end metrics, with every time rescaled to a
reference machine speed by the probe in speed.py; --trace 1 alternates
untraced and traced passes and prints the per-layer metrics (wall times) from
the traced ones, plus the tracing overhead. The last stdout line is the JSON
result. Run files (inputs, outputs, spans) go to .perfbench/ at the checkout
root.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import paths
import spans

WORKLOADS = ("repro", "design", "network")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


class Nondeterminism(RuntimeError):
    """Input generation wrote different bytes for the same seed."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def set_up(workload: str, seed: int, tiny: bool = False, scaled=False):
    """Generate the inputs SETUP_REPEATS times, each in a fresh process.

    Returns (median seconds of one set-up, inputs dir, manifest, wall
    seconds of each). A set-up is interpreter start, importing consyn, and
    writing the inputs. If `scaled`, each set-up is rescaled to the
    reference speed the probe samples in this process while the child
    works (in parallel, so the sampling is not subtracted). All repeats
    must produce byte-identical inputs.
    """
    env = os.environ | paths.BLAS_ENV
    probe = None
    if scaled:
        import speed
        probe = speed.SpeedProbe()
        probe.start()
    try:
        intervals, walls, digests = _set_up_repeats(workload, seed, tiny,
                                                    env)
    finally:
        if probe is not None:
            probe.stop()
    if probe is not None:
        times = [(t1 - t0) * probe.scale(t0, t1) for t0, t1 in intervals]
    else:
        times = walls
    if len(digests) != 1:
        raise Nondeterminism("input generation differs between repeats")
    out = paths.WORK / f"inputs-{workload}-{SETUP_REPEATS - 1}"
    manifest = json.loads((out / "manifest.json").read_text())
    return statistics.median(times), out, manifest, walls


def _set_up_repeats(workload, seed, tiny, env):
    """((start, end) of each set-up, wall seconds, input digests)."""
    intervals, walls, digests = [], [], set()
    for k in range(SETUP_REPEATS):
        out = paths.WORK / f"inputs-{workload}-{k}"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, str(Path(__file__).with_name("inputs.py")),
               "--workload", workload, "--seed", str(seed), "--out", str(out)]
        if tiny:
            cmd.append("--tiny")
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        intervals.append((t0, t1))
        if proc.returncode != 0:
            raise RuntimeError(f"input generation failed:\n{proc.stderr}")
        digests.add(_tree_digest(out))
        if k:
            shutil.rmtree(paths.WORK / f"inputs-{workload}-{k - 1}")
    return intervals, walls, digests


def fix_mmap_threshold() -> bool:
    """Fix glibc's mmap threshold at its initial 128 KiB.

    By default glibc raises the threshold each time a large block is freed,
    so later large arrays may come from the heap instead of their own
    mappings, and peak RSS then depends on the order of earlier
    allocations: 182 or 197 MB on the same `network` inputs. Fixed, large
    arrays always get their own mappings and peak RSS repeats to 0.5%.
    Returns whether the C library took the setting.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_mmap_threshold = -3
    return mallopt(m_mmap_threshold, 128 * 1024) == 1


def environment(consyn) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "consyn": consyn.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in paths.BLAS_ENV},
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def program_verify():
    """lmi.verify on a (p, s) pair for a model file, via the program."""
    from consyn import cli, lmi
    verify = lmi.verify

    def check(model_file, mode, p, s):
        model, gamma, _ = cli.load_model(model_file)
        kind = lmi.LmiKind.HINF if mode == "hinf" else lmi.LmiKind.CONSENSUS
        problem = lmi.LmiProblem(kind, model, gamma=gamma)
        cert = lmi.LmiCertificate(p=p, scalar=s, margin=0.0, feasible=True)
        return verify(problem, cert).passed
    return check


def build_operations(workload, manifest, inputs):
    import workloads  # late: numpy must load after main() pins BLAS
    if workload == "repro":
        return workloads.repro_operations(manifest, inputs)
    if workload == "design":
        return workloads.design_operations(manifest, inputs, program_verify())
    return workloads.network_operations(manifest, inputs)


def run_operation(op, cli, tracer=None, trace_id=None) -> dict:
    """One CLI call, timed, then gated. Never raises for a failed call.

    "seconds" is the wall time here; measure() rescales it with a probe.
    """
    import workloads
    out = paths.WORK / "op"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argv = op.argv(out)
    sink = io.StringIO()
    first_span = len(tracer.spans) if tracer is not None else 0
    if tracer is not None:
        tracer.begin(trace_id)
    t0 = time.perf_counter()
    error = None
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse exits on arguments it rejects
        rc = exc.code
    except Exception as exc:  # a traceback out of the CLI is a failed call
        rc, error = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    report_bytes = sum(p.stat().st_size for p in out.glob("*_report.json"))
    if tracer is not None:
        tracer.end()
        if len(tracer.spans) > first_span:  # the operation's root span
            tracer.spans[first_span]["attrs"]["report_bytes"] = report_bytes
    scalars = []
    if error is None:
        try:
            scalars = op.gate(rc, out)
        except (workloads.GateFailure, OSError, KeyError, TypeError,
                ValueError) as exc:
            error = f"{type(exc).__name__}: {exc}"
    if error is not None:
        print(f"FAILED {op.case}: {error}\n{sink.getvalue()[-2000:]}",
              file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)
    return {"case": op.case, "seconds": t1 - t0, "wall": t1 - t0,
            "start": t0, "end": t1, "ok": error is None,
            "error": error, "scalars": scalars, "traced": tracer is not None,
            "trace_id": trace_id}


def measure(ops, cli, seconds, tracer=None, probe=None) -> list[dict]:
    """Run operations in passes over the cases for about `seconds`.

    The first pass always completes, so every case is measured (with a
    tracer, the first two: one untraced, one traced; passes alternate).
    After that an operation starts only if its case's last latency says it
    ends before the deadline, so a run does not overshoot by a whole pass.
    With a probe (untraced runs only), it samples the machine's speed
    throughout and each operation's "seconds" is rescaled by it.
    """
    results = []
    last: dict[str, float] = {}
    mandatory = len(ops) * (2 if tracer is not None else 1)
    if probe is not None:
        probe.start()
    try:
        deadline = time.perf_counter() + seconds
        for i in itertools.count():
            op = ops[i % len(ops)]
            if i >= mandatory and \
                    time.perf_counter() + last[op.case] > deadline:
                break
            traced = tracer is not None and (i // len(ops)) % 2 == 1
            trace_id = len(results) if traced else None
            result = run_operation(op, cli, tracer if traced else None,
                                   trace_id)
            last[op.case] = result["wall"]
            results.append(result)
    finally:
        if probe is not None:
            probe.stop()
    if probe is not None:
        for r in results:
            r["seconds"] = probe.rescale(r["start"], r["end"])
    return results


def case_means(results, key="seconds") -> dict[str, float]:
    by_case: dict[str, list[float]] = {}
    for r in results:
        by_case.setdefault(r["case"], []).append(r[key])
    return {c: statistics.fmean(v) for c, v in by_case.items()}


def end_to_end(results, setup_s) -> dict:
    """End-to-end metrics of an untraced run.

    pass_s sums each case's mean latency over the run: the time to run
    every case once, in the seconds the operations were rescaled to.
    """
    scalars = {}
    for r in results:
        if r["ok"] and r["scalars"]:
            scalars.setdefault(r["case"], r["scalars"])
    flat = [s for v in scalars.values() for s in v]
    geomean = math.exp(statistics.fmean(math.log(s) for s in flat)) \
        if flat else 0.0
    passed = sum(r["ok"] for r in results)
    return {
        "pass_s": (sum(case_means(results).values()), "s"),
        "setup_s": (setup_s, "s"),
        "cert_scalar_geomean": (geomean, "1"),
        "pass_share": (passed / len(results), "share"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(results, tracer) -> dict:
    traced = [r for r in results if r["traced"]]
    metrics = spans.layer_metrics(tracer.spans, len(traced))
    untraced = case_means([r for r in results if not r["traced"]])
    traced_m = case_means(traced)
    over = statistics.fmean(traced_m[c] - untraced[c] for c in traced_m)
    metrics["trace.overhead_s"] = over
    metrics["trace.overhead_share"] = \
        over / statistics.fmean(untraced.values())
    return {k: (metrics[k], unit) for k, unit in spans.PER_LAYER.items()}


def check_counts(workload, seed, results, tracer) -> list[str]:
    """Machine-independent counts must repeat exactly for one seed.

    Compared between traced repeats of a case in this run, and with the
    counts an earlier run of the same seed on the same source left in
    .perfbench/.
    """
    keys = ("lmi.nfev", "lmi.inner_runs", "sim.rk4_steps",
            "graph.spectra_calls", "sim.csv_bytes")
    per_case: dict[str, dict] = {}
    problems = []
    for r in results:
        if not r["traced"]:
            continue
        op_spans = [s for s in tracer.spans if s["trace"] == r["trace_id"]]
        m = spans.layer_metrics(op_spans, 1)
        counts = {k: m.get(k, 0) for k in keys}
        if per_case.setdefault(r["case"], counts) != counts:
            problems.append(f"{r['case']}: {counts} != {per_case[r['case']]}")
    record = paths.WORK / f"counts-{workload}-seed{seed}.json"
    state = {"source": _tree_digest(paths.SRC / "consyn"), "cases": per_case}
    if record.is_file():
        old = json.loads(record.read_text())
        if old["source"] == state["source"]:
            for case, counts in per_case.items():
                prev = old["cases"].get(case)
                if prev is not None and prev != counts:
                    problems.append(f"{case}: {counts} != earlier run {prev}")
            state["cases"] = old["cases"] | per_case
    record.write_text(json.dumps(state, indent=1, sort_keys=True))
    return problems


def main(argv=None) -> int:
    ns = parse_args(argv)
    os.environ.update(paths.BLAS_ENV)
    mmap_fixed = fix_mmap_threshold()
    try:
        consyn = paths.import_consyn()
    except (paths.MissingProgram, ImportError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import consyn.cli as cli
    import speed  # late: numpy must load after BLAS is pinned

    paths.WORK.mkdir(exist_ok=True)
    env = environment(consyn) | {"mmap_threshold_fixed": mmap_fixed}
    print(json.dumps({"environment": env}, sort_keys=True))
    tracer = probe = None
    if ns.trace:
        tracer = spans.Tracer()
    else:
        probe = speed.SpeedProbe()
    try:
        setup_s, inputs, manifest, setup_walls = set_up(
            ns.workload, ns.seed, scaled=probe is not None)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    ops = build_operations(ns.workload, manifest, inputs)

    if tracer is not None:
        tracer.install()
    try:
        results = measure(ops, cli, ns.seconds, tracer, probe)
    finally:
        if tracer is not None:
            tracer.uninstall()

    failed = sum(not r["ok"] for r in results)
    problems = []
    if tracer is not None:
        problems = check_counts(ns.workload, ns.seed, results, tracer)
        for p in problems:
            print(f"NONDETERMINISM {p}", file=sys.stderr)
        metrics = per_layer(results, tracer)
    else:
        metrics = end_to_end(results, setup_s)
        wall = {"pass_wall_s": sum(case_means(results, "wall").values()),
                "setup_wall_s": statistics.median(setup_walls),
                "kernel_median_s": probe.kernel_median_s(),
                "kernel_samples": len(probe.starts)}
        print(json.dumps({"unscaled": wall}))
    record = {"environment": env, "setup_s": setup_s,
              "setup_wall_s": setup_walls, "operations": results}
    if tracer is not None:
        record |= {"skipped_bindings": tracer.skipped, "spans": tracer.spans}
    name = f"{'trace' if ns.trace else 'run'}-{ns.workload}-seed{ns.seed}"
    (paths.WORK / f"{name}.json").write_text(json.dumps(record))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
