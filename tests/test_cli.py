import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from consyn import adjacency
from consyn import benchmark
from consyn import cli, lmi
from consyn.graph import format_edge_list

from conftest import scalar_model

SCALAR_MODEL = {
    "a": [[-1.0]], "b": [[1.0]], "d1": [[1.0]], "alpha": 0.0,
    "f": {"kind": "zero", "terms": []},
}
TWO_NODE = "nodes 2\n1 2\n2 1\n"
WITNESS = {"p": [[1.0]], "scalar": 1.0}


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def run(argv):
    return cli.main(argv)


def test_graph_command_benchmark(tmp_path, capsys):
    gfile = tmp_path / "bench.txt"
    gfile.write_text(format_edge_list(benchmark.benchmark_graph()))
    assert run(["graph", str(gfile), "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "balanced: True" in out
    report = json.loads((tmp_path / "graph_report.json").read_text())
    sec = report["graph"]
    assert sec["strongly_connected"] and sec["balanced"]
    assert sec["lambda2_sym"] == pytest.approx(0.8139, abs=1e-3)
    assert_allclose(sec["r"], np.full(6, 1 / 6), atol=1e-9)


def test_graph_command_two_node(tmp_path):
    gfile = tmp_path / "two.txt"
    gfile.write_text(TWO_NODE)
    assert run(["graph", str(gfile), "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "graph_report.json").read_text())
    assert report["graph"]["a_of_l"] == pytest.approx(2.0, abs=1e-9)


def test_graph_command_warns_when_disconnected(tmp_path, capsys):
    gfile = tmp_path / "star.txt"
    gfile.write_text("nodes 3\n1 2\n1 3\n")
    assert run(["graph", str(gfile), "--out-dir", str(tmp_path)]) == 0
    assert "not strongly connected" in capsys.readouterr().err
    report = json.loads((tmp_path / "graph_report.json").read_text())
    assert "r" not in report["graph"]
    assert report["graph"]["leader_follower"]["leader"] == 1


def test_graph_command_empty_edge_set(tmp_path):
    gfile = tmp_path / "empty.txt"
    gfile.write_text("nodes 3\n")
    assert run(["graph", str(gfile), "--out-dir", str(tmp_path)]) == 0
    sec = json.loads((tmp_path / "graph_report.json").read_text())["graph"]
    assert not sec["strongly_connected"]
    assert not sec["has_spanning_tree"]
    assert sec["leader_follower_root"] is None


def test_graph_command_parse_error_exit_code(tmp_path, capsys):
    gfile = tmp_path / "bad.txt"
    gfile.write_text("nodes 2\n1 two\n")
    assert run(["graph", str(gfile), "--out-dir", str(tmp_path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_graph_command_json_adjacency(tmp_path):
    gfile = tmp_path / "adj.json"
    write_json(gfile, {"adjacency": [[0, 1], [1, 0]]})
    assert run(["graph", str(gfile), "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "graph_report.json").read_text())
    assert report["graph"]["a_of_l"] == pytest.approx(2.0, abs=1e-9)


def test_synth_scalar_witness(tmp_path, capsys):
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    cert = write_json(tmp_path / "cert.json", WITNESS)
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    code = run(["synth", model, str(gfile), "--mode", "leaderless",
                "--cert", cert, "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "synth_report.json").read_text())
    assert_allclose(report["design"]["k"], [[-0.5]], atol=1e-12)
    assert report["design"]["c"] == pytest.approx(0.5, abs=1e-12)
    assert "c_threshold" in capsys.readouterr().out


def test_synth_benchmark_injected_certificate(tmp_path):
    model_dict = cli.model_to_dict(benchmark.manipulator_model(),
                                   gamma=benchmark.GAMMA)
    model_dict["adjacency"] = adjacency(benchmark.benchmark_graph()).tolist()
    model = write_json(tmp_path / "bench.json", model_dict)
    cert = write_json(tmp_path / "cert.json", {
        "p": benchmark.REFERENCE_P.tolist(),
        "scalar": benchmark.REFERENCE_EPSILON,
    })
    code = run(["synth", model, "--mode", "hinf", "--cert", cert,
                "--out-dir", str(tmp_path)])
    assert code == 0
    design = json.loads((tmp_path / "synth_report.json").read_text())["design"]
    assert design["c_threshold"] == pytest.approx(36.448067376820456,
                                                  abs=1e-6)
    assert np.max(np.abs(np.array(design["k"])
                         - benchmark.REFERENCE_GAIN)) < 5e-3
    assert design["gamma"] == 2.0


def test_synth_hinf_rejects_unbalanced_graph(tmp_path, capsys):
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    gfile = tmp_path / "g.txt"
    gfile.write_text("nodes 3\n1 2\n2 1\n2 3\n3 1\n")
    code = run(["synth", model, str(gfile), "--mode", "hinf",
                "--gamma", "2", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "balanced" in capsys.readouterr().err


def test_synth_hinf_needs_gamma(tmp_path, capsys):
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    code = run(["synth", model, str(gfile), "--mode", "hinf",
                "--out-dir", str(tmp_path)])
    assert code == 2
    assert "gamma" in capsys.readouterr().err


def test_synth_infeasible_model_exit_code(tmp_path, capsys):
    bad = dict(SCALAR_MODEL)
    bad.update(a=[[1.0]], b=[[0.0]], alpha=1.0)
    model = write_json(tmp_path / "m.json", bad)
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    code = run(["synth", model, str(gfile), "--mode", "leaderless",
                "--out-dir", str(tmp_path)])
    assert code == 3
    assert "budget" in capsys.readouterr().err


def test_simulate_scalar_run(tmp_path):
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    cert = write_json(tmp_path / "cert.json", WITNESS)
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    code = run(["simulate", model, str(gfile), "--mode", "leaderless",
                "--cert", cert, "--t-end", "1.0", "--out-dir",
                str(tmp_path)])
    assert code == 0
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x1_1,x2_1,e1_1,e2_1,z1_1,z2_1,V,J_running"
    report = json.loads((tmp_path / "simulate_report.json").read_text())
    sim = report["simulation"]
    assert np.isfinite(sim["final_consensus_error"])
    assert sim["v_fraction_increasing"] == 0.0
    assert report["provenance"]["seed"] == 12345


def test_simulate_seed_determinism(tmp_path):
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    cert = write_json(tmp_path / "cert.json", WITNESS)
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        assert run(["simulate", str(model), str(gfile), "--mode",
                    "leaderless", "--cert", str(cert), "--t-end", "0.5",
                    "--seed", "7", "--out-dir", str(out)]) == 0
        reports.append(
            json.loads((out / "simulate_report.json").read_text()))
    assert reports[0]["simulation"]["x0"] == reports[1]["simulation"]["x0"]
    assert (reports[0]["simulation"]["final_consensus_error"]
            == reports[1]["simulation"]["final_consensus_error"])


def test_simulate_disturbed_reports_cost(tmp_path):
    model_dict = dict(SCALAR_MODEL)
    model_dict.update(d2=[[1.0]], c=[[1.0]], gamma=2.0)
    model = write_json(tmp_path / "m.json", model_dict)
    cert = write_json(tmp_path / "cert.json", WITNESS)
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    code = run(["simulate", model, str(gfile), "--mode", "hinf",
                "--cert", cert, "--disturbance", "bipolar",
                "--t-end", "4.0", "--out-dir", str(tmp_path)])
    assert code == 0
    sim = json.loads(
        (tmp_path / "simulate_report.json").read_text())["simulation"]
    assert sim["j"] < 0
    assert sim["empirical_gain"] < 2.0
    assert np.all(np.array(sim["x0"]) == 0.0)


def test_simulate_rejects_disturbed_tracking(tmp_path, capsys):
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    cert = write_json(tmp_path / "cert.json", WITNESS)
    gfile = tmp_path / "g.txt"
    gfile.write_text("nodes 3\n1 2\n2 3\n")
    code = run(["simulate", model, str(gfile), "--mode", "leader-follower",
                "--cert", cert, "--disturbance", "bipolar",
                "--out-dir", str(tmp_path)])
    assert code == 2


def test_simulate_rejects_disturbed_tracking_before_solving(tmp_path,
                                                            monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("certificate search started")

    monkeypatch.setattr(lmi, "solve", no_solve)
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    gfile = tmp_path / "g.txt"
    gfile.write_text("nodes 3\n1 2\n2 3\n")
    code = run(["simulate", model, str(gfile), "--mode", "leader-follower",
                "--disturbance", "bipolar", "--out-dir", str(tmp_path)])
    assert code == 2


def test_model_with_understated_lipschitz_constant_exit_code(tmp_path,
                                                            capsys):
    # f = 50 sin(x) declared with alpha = 0: the sampled difference ratio
    # reaches 50, so the certificate's hypothesis fails at load time
    model = write_json(tmp_path / "m.json", dict(
        SCALAR_MODEL, a=[[0.0]], f={"kind": "sine", "terms": [[1, 1, 50]]}))
    gfile = tmp_path / "g.txt"
    gfile.write_text("nodes 3\n1 2\n2 3\n3 1\n")
    code = run(["simulate", model, str(gfile), "--mode", "leaderless",
                "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "Lipschitz" in err and "alpha = 0" in err
    assert not (tmp_path / "simulate_report.json").exists()


def test_simulate_blow_up_exit_code(tmp_path, capsys):
    model = write_json(tmp_path / "m.json",
                       dict(SCALAR_MODEL, a=[[2.0]]))
    cert = write_json(tmp_path / "cert.json", {"p": [[1.0]], "scalar": 6.0})
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    code = run(["simulate", model, str(gfile), "--mode", "leaderless",
                "--cert", cert, "--seed", "3", "--t-end", "20",
                "--out-dir", str(tmp_path)])
    assert code == 4
    assert "last valid time" in capsys.readouterr().err


def test_model_round_trip():
    model = benchmark.manipulator_model()
    d = cli.model_to_dict(model, gamma=2.0)
    # nonlinearity terms are serialized 1-based
    assert d["f"]["terms"] == [[4, 1, -benchmark.ALPHA]]
    back, gamma = cli.model_from_dict(d)
    assert gamma == 2.0
    assert_allclose(back.a, model.a, atol=0.0)
    assert_allclose(back.d2, model.d2, atol=0.0)
    assert back.f == model.f
    assert back.alpha == model.alpha


def test_report_json_round_trip():
    report = {"graph": {"nodes": 2}, "values": [1.0, 2.5]}
    assert cli.report_from_json(cli.report_to_json(report)) == report


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    assert run(["graph", str(gfile)]) == 0
    assert (tmp_path / "graph_report.json").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


def test_repro_end_to_end(tmp_path, capsys):
    code = run(["repro", "--t-end", "10.0", "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda2_sym" in out
    assert (tmp_path / "consensus_traj.csv").exists()
    assert (tmp_path / "attenuation_traj.csv").exists()
    report = json.loads((tmp_path / "repro_report.json").read_text())
    rows = {r["name"]: r for r in report["comparison"]}
    assert rows["lambda2_sym"]["ok"]
    for j in range(1, 5):
        assert rows[f"k_{j}_injected"]["ok"]
    # the published threshold pairs a rounded scalar with a rounded
    # eigenvalue; the full-precision quotient lands 1.9e-3 away, outside
    # the printed 1e-3 tolerance, and the comparison table says so
    assert not rows["c_threshold_injected"]["ok"]
    assert rows["c_threshold_injected"]["computed"] == pytest.approx(
        36.448067376820456, abs=1e-6)
    checks = report["checks"]
    assert checks["solver_feasible"]
    assert checks["consensus_converged"]
    assert checks["v_increases"] == 0
    assert checks["j_negative"]
    assert checks["gain_below_gamma"]
