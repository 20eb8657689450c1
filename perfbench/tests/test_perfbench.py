"""Smoke tests of the benchmark at a tiny size, and of its gates.

    python3 -m pytest perfbench/tests -q
"""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import paths  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

paths.import_consyn()
from consyn import cli  # noqa: E402

BENCHMARK = json.loads((paths.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(paths, "WORK", tmp_path / "work")
    paths.WORK.mkdir()


def tiny_operations(workload):
    """(operations, inputs dir) of the workload at the tiny size. Set-up
    itself fails unless its three repeats write identical inputs."""
    setup_s, inputs, manifest, walls = run.set_up(workload, seed=3,
                                                  tiny=True)
    assert setup_s > 0 and len(walls) == run.SETUP_REPEATS
    return run.build_operations(workload, manifest, inputs), inputs


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_passes_and_reports_every_metric(workload):
    ops, _ = tiny_operations(workload)
    probe = speed.SpeedProbe(interval=0.01)
    results = run.measure(ops, cli, seconds=0, probe=probe)
    assert results and all(r["ok"] for r in results), results
    assert probe.starts and all(r["seconds"] > 0 for r in results)
    e2e = run.end_to_end(results, setup_s=1.0)
    assert all(v > 0 for v, _ in e2e.values()), e2e
    assert [(k, u) for k, (_, u) in e2e.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]

    tracer = spans.Tracer()
    tracer.install()
    try:
        results = run.measure(ops, cli, seconds=0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert not tracer.skipped
    layer = run.per_layer(results, tracer)
    assert [(k, u) for k, (_, u) in layer.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert run.check_counts(workload, 3, results, tracer) == []
    if workload == "design":
        assert layer["sim.integrate_s"][0] == 0
        assert layer["lmi.solve_calls"][0] > 0
    if workload == "network":
        assert layer["lmi.solve_calls"][0] == 0
        assert layer["sim.rk4_steps"][0] > 0


def test_perturbed_design_certificate_is_a_failure(tmp_path):
    op = next(o for o in tiny_operations("design")[0]
              if "infeasible" not in o.case)
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(op.argv(out)) == 0
    assert op.gate(0, out)
    report_file = out / "synth_report.json"
    report = json.loads(report_file.read_text())
    report["design"]["certificate"]["scalar"] *= 1e-3
    report_file.write_text(json.dumps(report))
    with pytest.raises(workloads.GateFailure):
        op.gate(0, out)


def test_perturbed_network_certificate_is_counted_failed():
    ops, inputs = tiny_operations("network")
    cert_file = inputs / "cert.json"
    cert = json.loads(cert_file.read_text())
    cert["p"][0][0] = -cert["p"][0][0]
    cert_file.write_text(json.dumps(cert))
    result = run.run_operation(ops[0], cli)
    assert not result["ok"]
    assert "exit code 2" in result["error"]


def test_probe_rescales_by_mean_kernel_speed():
    probe = speed.SpeedProbe()
    k = speed.KERNEL_NOMINAL_S
    # Kernel samples at 0.0, 0.5, ..., 9.5 s: nominal speed for the first
    # five seconds, half speed after.
    for i in range(20):
        t = 0.5 * i
        probe.starts.append(t)
        probe.ends.append(t + (k if t < 5 else 2 * k))
    sampled = 2 * k  # the two samples inside [0.2, 1.2]
    assert probe.rescale(0.2, 1.2) == pytest.approx(1.0 - sampled)
    # An operation over 6..9 s ran at half speed: half its time is work.
    inside = 6 * 2 * k  # the samples starting at 6.0 .. 8.5 s
    assert probe.rescale(6.0, 9.0) == pytest.approx((3.0 - inside) / 2)
