import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from consyn import adjacency, parse_edge_list
from consyn import benchmark
from consyn import BlowUpError, InfeasibleError, PreconditionError, cli, lmi
from consyn import sim

from conftest import scalar_model
from test_sim import assert_no_child_left

SCALAR_MODEL = {
    "a": [[-1.0]], "b": [[1.0]], "d1": [[1.0]], "alpha": 0.0,
    "f": {"kind": "zero", "terms": []},
}
# the bundled six-manipulator model and graph, as files would hold them
MANIPULATOR = {
    "a": [[0.0, 1.0, 0.0, 0.0], [-48.6, -1.26, 48.6, 0.0],
          [0.0, 0.0, 0.0, 10.0], [1.95, 0.0, -1.95, 0.0]],
    "b": [[0.0], [21.6], [0.0], [0.0]],
    "d1": np.eye(4).tolist(), "d2": [[0.0], [1.0], [0.4], [0.0]],
    "c": [[1.0, 0.0, 0.0, 0.0]], "alpha": 0.333,
    "f": {"kind": "sine", "terms": [[4, 1, -0.333]]},
}
BENCH_GRAPH = ("nodes 6\n1 2\n1 4\n2 3\n2 6\n3 1\n4 1\n4 5\n5 4\n5 6\n"
               "6 2\n6 5\n")
TWO_NODE = "nodes 2\n1 2\n2 1\n"
# leader 1 -> 2 -> 3, then 3 fans out to six leaves; H is indefinite
FAN_TREE = "nodes 9\n1 2\n2 3\n" + "".join(f"3 {k}\n" for k in range(4, 10))
WITNESS = {"p": [[1.0]], "scalar": 1.0}


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def run(argv):
    return cli.main(argv)


def test_graph_command_benchmark(tmp_path, capsys):
    gfile = tmp_path / "bench.txt"
    gfile.write_text(BENCH_GRAPH)
    assert run(["graph", str(gfile), "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "balanced: True" in out
    report = json.loads((tmp_path / "graph_report.json").read_text())
    sec = report["graph"]
    assert sec["strongly_connected"] and sec["balanced"]
    assert sec["lambda2_sym"] == pytest.approx(0.8139, abs=1e-3)
    assert_allclose(sec["r"], np.full(6, 1 / 6), atol=1e-9)


def test_config_hash_is_the_same_in_two_processes(tmp_path):
    gfile = tmp_path / "two.txt"
    gfile.write_text(TWO_NODE)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    hashes = []
    for _ in range(2):
        subprocess.run([sys.executable, "-m", "consyn.cli", "graph",
                        str(gfile), "--out-dir", str(tmp_path)],
                       env=env, check=True, capture_output=True, timeout=120)
        report = json.loads((tmp_path / "graph_report.json").read_text())
        hashes.append(report["provenance"]["config_hash"])
    assert hashes[0] == hashes[1]


@pytest.mark.parametrize("kind, changed", [
    ("model", '{"a": [[1.0]], "b": [[2.0]], "d1": [[1.0]]}'),
    ("graph", "nodes 2\n# the same graph\n1 2\n2 1\n"),
    ("certificate", '{"p": [[1.0]], "scalar": 2.0}'),
], ids=["model", "graph", "certificate"])
def test_config_hash_covers_the_input_files(tmp_path, kind, changed):
    """Each input file counts in config_hash by its bytes: the same bytes
    give the same hash, other bytes at the same path another one."""
    files = {"model": tmp_path / "m.json", "graph": tmp_path / "g.txt",
             "certificate": tmp_path / "cert.json"}
    write_json(files["model"], {"a": [[-1.0]], "b": [[1.0]], "d1": [[1.0]]})
    files["graph"].write_text(TWO_NODE)
    write_json(files["certificate"], WITNESS)

    def config_hash():
        assert run(["synth", str(files["model"]), str(files["graph"]),
                    "--mode", "leaderless", "--cert",
                    str(files["certificate"]), "--out-dir",
                    str(tmp_path)]) == 0
        report = json.loads((tmp_path / "synth_report.json").read_text())
        return report["provenance"]["config_hash"]
    first = config_hash()
    assert config_hash() == first
    files[kind].write_text(changed)
    assert config_hash() != first


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


def test_graph_command_reports_indefinite_tracking_form(tmp_path, capsys):
    gfile = tmp_path / "fan.txt"
    gfile.write_text(FAN_TREE)
    assert run(["graph", str(gfile), "--out-dir", str(tmp_path)]) == 0
    sec = json.loads((tmp_path / "graph_report.json").read_text())["graph"]
    assert sec["leader_follower"]["lambda1_h"] == pytest.approx(-0.0255,
                                                                abs=1e-4)
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    cert = write_json(tmp_path / "cert.json", WITNESS)
    capsys.readouterr()
    assert run(["synth", model, str(gfile), "--mode", "leader-follower",
                "--cert", cert, "--out-dir", str(tmp_path)]) == 2
    assert ("follower form H must be positive definite"
            in capsys.readouterr().err)


@pytest.mark.parametrize("text", ["nodes 1\n", '{"adjacency": [[0]]}'])
def test_one_node_graph_exit_code(tmp_path, capsys, text):
    gfile = tmp_path / "one.txt"
    gfile.write_text(text)
    assert run(["graph", str(gfile), "--out-dir", str(tmp_path)]) == 2
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    assert run(["synth", model, str(gfile), "--mode", "leaderless",
                "--out-dir", str(tmp_path)]) == 2
    assert "at least two nodes" in capsys.readouterr().err


EDGE_LINE = st.one_of(
    st.builds("{} {}".format, st.integers(-1, 6), st.integers(-1, 6)),
    st.text(st.characters(codec="utf-8"), max_size=6),
)
EDGE_LIST = st.one_of(
    st.builds(lambda n, lines: "\n".join([f"nodes {n}"] + lines),
              st.integers(-1, 6), st.lists(EDGE_LINE, max_size=8)),
    st.lists(EDGE_LINE, max_size=8).map("\n".join),
)
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats()
    | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=12,
)
ADJACENCY = st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([0, 1, 1, 0.5]), min_size=n, max_size=n),
    min_size=n, max_size=n))
ADJACENCY_JSON = st.one_of(ADJACENCY, JSON_VALUE).map(
    lambda a: json.dumps({"adjacency": a}))


@given(st.one_of(EDGE_LIST, ADJACENCY_JSON))
@example("nodes 1\n")
@example('{"adjacency": [[0]]}')
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_graph_command_fuzz_exit_codes(tmp_path, text):
    """Any graph file text ends in exit 0 or 2, never a traceback."""
    gfile = tmp_path / "fuzz.txt"
    gfile.write_text(text)
    assert run(["graph", str(gfile), "--out-dir", str(tmp_path)]) in (0, 2)


MODEL_KEYS = ("a", "b", "d1", "d2", "c", "alpha", "f", "gamma")


# Small numbers, which reach the solver, or any finite float, which also
# reaches the overflow range of the numbers a model or certificate may hold.
FINITE = st.floats(-10, 10) | st.floats(-1e308, 1e308)


def matrix(rows, cols):
    return st.lists(st.lists(FINITE, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


ANY_MATRIX = st.integers(0, 3).flatmap(
    lambda r: st.integers(0, 3).flatmap(lambda c: matrix(r, c)))
NONLINEARITY = st.one_of(JSON_VALUE, st.fixed_dictionaries({}, optional={
    "kind": st.one_of(st.sampled_from(["zero", "sine", "saturation", "tanh"]),
                      JSON_VALUE),
    "terms": st.one_of(JSON_VALUE, st.lists(st.lists(
        st.integers(-1, 3) | FINITE, max_size=4), max_size=3)),
}))
VALID_MODEL = st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries(
    {"a": matrix(n, n), "b": matrix(n, 1), "d1": matrix(n, 1)},
    optional={"d2": matrix(n, 1), "c": matrix(1, n),
              "alpha": FINITE.map(abs), "gamma": FINITE,
              "f": NONLINEARITY}))
# a well-shaped model with some keys dropped and others given wrong types
MUTATED_MODEL = st.builds(
    lambda d, drop, swap: {k: v for k, v in (d | swap).items()
                           if k not in drop},
    VALID_MODEL, st.sets(st.sampled_from(MODEL_KEYS), max_size=2),
    st.dictionaries(st.sampled_from(MODEL_KEYS),
                    st.one_of(JSON_VALUE, ANY_MATRIX), max_size=2))


def holds_bool(value) -> bool:
    return isinstance(value, bool) or (
        isinstance(value, list) and any(map(holds_bool, value)))


def put_bool(value, path, flag):
    """value with the entry at path (list indices, wrapped) set to flag."""
    if not path or not isinstance(value, list) or not value:
        return flag
    head = path[0] % len(value)
    return [put_bool(v, path[1:], flag) if k == head else v
            for k, v in enumerate(value)]


NUMERIC_SLOTS = ("a", "b", "d1", "d2", "c", "alpha", "gamma", "terms")


def with_a_bool(model, slot, path, flag):
    """model with true or false in one numeric slot: a matrix entry, alpha,
    gamma, or (slot "terms") a term's index or coefficient."""
    if slot == "terms":
        terms = put_bool([[1, 1, 0.5]], [0] + path, flag)
        return model | {"alpha": 2.0, "f": {"kind": "sine", "terms": terms}}
    return model | {slot: put_bool(model.get(slot, [[1.0]]), path, flag)}


BOOL_MODEL = st.builds(with_a_bool, VALID_MODEL,
                       st.sampled_from(NUMERIC_SLOTS),
                       st.lists(st.integers(0, 2), min_size=2, max_size=2),
                       st.booleans())


def bool_in_a_number(model) -> bool:
    """Whether a model file's JSON holds true or false where a number goes."""
    if not isinstance(model, dict):
        return False
    f = model.get("f")
    terms = f.get("terms") if isinstance(f, dict) else None
    return any(holds_bool(model.get(k)) for k in NUMERIC_SLOTS) or \
        holds_bool(terms)


@given(st.one_of(JSON_VALUE, VALID_MODEL, MUTATED_MODEL, BOOL_MODEL),
       st.sampled_from(["leaderless", "hinf"]))
@example([1], "leaderless")
# B R^-1 B^T underflows in the Riccati seed
@example({"a": [[0]], "b": [[4.2e-279]], "d1": [[0]]}, "leaderless")
# a subnormal A overflows the Riccati solver's balancing
@example({"a": [[-2.225073858507203e-309]], "b": [[1.401298464324817e-45]],
          "d1": [[0.0]]}, "leaderless")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_model_file_fuzz_exit_codes(tmp_path, model, mode):
    """Any model file JSON ends in exit 0, 2 or 3, never a traceback; 2
    when it holds true or false where a number goes."""
    mfile = write_json(tmp_path / "m.json", model)
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    code = run(["synth", mfile, str(gfile), "--mode", mode,
                "--out-dir", str(tmp_path)])
    assert code == 2 if bool_in_a_number(model) else code in (0, 2, 3)


@given(st.one_of(
    JSON_VALUE,
    st.fixed_dictionaries({"p": matrix(1, 1), "scalar": FINITE}),
    st.fixed_dictionaries({}, optional={
        "p": st.one_of(JSON_VALUE, ANY_MATRIX),
        "scalar": st.one_of(JSON_VALUE, FINITE)}),
    # true or false in p or as the scalar
    st.builds(lambda p, path, flag, where: {
        "p": put_bool(p, path, flag) if where else p,
        "scalar": 1.0 if where else flag},
        matrix(1, 1), st.lists(st.integers(0, 1), min_size=2, max_size=2),
        st.booleans(), st.booleans())))
@example({"p": [[1.0]], "scalar": 1.0})
@example({"p": [[True]], "scalar": 1.0})
@example({"p": [[1.0]], "scalar": False})
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_certificate_file_fuzz_exit_codes(tmp_path, cert):
    """Any certificate file JSON ends in exit 0, 2 or 3, never a traceback;
    2 when p or the scalar holds true or false."""
    mfile = write_json(tmp_path / "m.json", SCALAR_MODEL)
    cfile = write_json(tmp_path / "cert.json", cert)
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    code = run(["synth", mfile, str(gfile), "--mode", "leaderless",
                "--cert", cfile, "--out-dir", str(tmp_path)])
    booled = isinstance(cert, dict) and (
        holds_bool(cert.get("p")) or holds_bool(cert.get("scalar")))
    assert code == 2 if booled else code in (0, 2, 3)


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
    model = write_json(tmp_path / "bench.json", dict(
        MANIPULATOR, gamma=benchmark.GAMMA,
        adjacency=adjacency(benchmark.benchmark_graph()).tolist()))
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


def test_json_graph_file_without_adjacency_exit_code(tmp_path, capsys):
    gfile = write_json(tmp_path / "g.json", {"nodes": 2})
    assert run(["graph", gfile, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"graph file {gfile} lacks an 'adjacency' entry" in err
    assert not (tmp_path / "graph_report.json").exists()


def test_synth_without_any_graph_exit_code(tmp_path, capsys):
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    code = run(["synth", model, "--mode", "leaderless",
                "--out-dir", str(tmp_path)])
    assert code == 2
    assert "no graph given" in capsys.readouterr().err
    assert not (tmp_path / "synth_report.json").exists()


def test_simulate_hinf_without_disturbance_has_no_gain(tmp_path, capsys):
    model = write_json(tmp_path / "m.json", dict(
        SCALAR_MODEL, d2=[[1.0]], c=[[1.0]], gamma=2.0))
    cert = write_json(tmp_path / "cert.json", WITNESS)
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    code = run(["simulate", model, str(gfile), "--mode", "hinf",
                "--disturbance", "none", "--cert", cert, "--t-end", "0.5",
                "--out-dir", str(tmp_path)])
    assert code == 0
    assert "empirical gain: undefined (zero disturbance)" in \
        capsys.readouterr().out
    sim = json.loads((tmp_path / "simulate_report.json").read_text())
    summary = sim["simulation"]
    assert summary["empirical_gain"] is None
    # no disturbance, a nonzero error: J is the output energy alone
    assert summary["j"] > 0


def test_synth_leader_follower_reports_simplified_threshold(tmp_path):
    # leader 1 feeds 2; followers 2 and 3 form a balanced 2-cycle, whose
    # symmetrized block [[2, -1], [-1, 1]] has smallest eigenvalue
    # (3 - sqrt 5) / 2
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    cert = write_json(tmp_path / "cert.json", WITNESS)
    gfile = tmp_path / "g.txt"
    gfile.write_text("nodes 3\n1 2\n2 3\n3 2\n")
    code = run(["synth", model, str(gfile), "--mode", "leader-follower",
                "--cert", cert, "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "synth_report.json").read_text())
    assert report["design"]["c_threshold_simplified"] == pytest.approx(
        2.0 / (3.0 - np.sqrt(5.0)), rel=1e-12)
    assert report["graph"]["leader_follower"]["simplified_applicable"]


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


@pytest.mark.parametrize("command", ["simulate", "repro"])
def test_negative_seed_exits_2_before_any_search(tmp_path, monkeypatch,
                                                 capsys, command):
    """A negative --seed is refused as the flags are parsed: exit 2, a
    message naming --seed, no certificate search and no stage run."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        raise AssertionError("certificate search started")

    monkeypatch.setattr(cli, "synthesize", counting)
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    argv = {"simulate": ["simulate", model, str(gfile), "--mode",
                         "leaderless"],
            "repro": ["repro"]}[command]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--seed", "-3", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err
    assert not any(line.startswith("stage") for line in err.splitlines())
    assert calls == []


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


# round(1 / dt) steps of dt = 0.3 or 0.6 end at 0.9 or 1.2, not at t_end
@pytest.mark.parametrize("argv, named", [
    (["simulate", "{model}", "{graph}", "--mode", "leaderless",
      "--t-end", "inf"], ["need 0 < dt <= t_end < inf"]),
    (["repro", "--dt", "0"], ["need 0 < dt <= t_end < inf"]),
    (["simulate", "{model}", "{graph}", "--mode", "leaderless",
      "--dt", "0.3", "--t-end", "1"], ["t_end = 1.0", "dt = 0.3"]),
    (["simulate", "{model}", "{graph}", "--mode", "leaderless",
      "--dt", "0.6", "--t-end", "1"], ["t_end = 1.0", "dt = 0.6"]),
    # t_end / dt overflows to inf
    (["simulate", "{model}", "{graph}", "--mode", "leaderless",
      "--dt", "5e-324", "--t-end", "1"], ["t_end = 1.0", "dt = 5e-324"]),
], ids=["simulate-t-end-inf", "repro-dt-0", "simulate-dt-0.3",
        "simulate-dt-0.6", "simulate-dt-denormal"])
def test_time_grid_rejected_before_solving(tmp_path, monkeypatch, capsys,
                                           argv, named):
    def no_solve(*args, **kwargs):
        raise AssertionError("certificate search started")

    monkeypatch.setattr(lmi, "solve", no_solve)
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    argv = [a.format(model=model, graph=gfile) for a in argv]
    assert run(argv + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert all(text in err for text in named)


def test_cancelling_terms_load_silently_with_alpha_zero(tmp_path, capsys):
    # f = sin(x) - sin(x) is identically zero, so alpha = 0 is exact even
    # though the absolute coefficients |1| + |-1| sum to 2
    model = write_json(tmp_path / "m.json", dict(
        SCALAR_MODEL, f={"kind": "sine", "terms": [[1, 1, 1], [1, 1, -1]]}))
    cli.load_model(model)
    assert capsys.readouterr().err == ""


def test_benchmark_model_draws_no_lipschitz_warning(tmp_path, capsys):
    model = write_json(tmp_path / "m.json", MANIPULATOR)
    cli.load_model(model)
    assert capsys.readouterr().err == ""


def test_model_with_understated_lipschitz_constant_exit_code(tmp_path,
                                                            capsys):
    # f = 50 sin(x) declared with alpha = 0: its Lipschitz constant is 50,
    # so the certificate's hypothesis fails at load time
    model = write_json(tmp_path / "m.json", dict(
        SCALAR_MODEL, a=[[0.0]], f={"kind": "sine", "terms": [[1, 1, 50]]}))
    gfile = tmp_path / "g.txt"
    gfile.write_text("nodes 3\n1 2\n2 3\n3 1\n")
    code = run(["simulate", model, str(gfile), "--mode", "leaderless",
                "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "Lipschitz" in err and "alpha = 0" in err
    # the file is well formed; the message names it
    assert model in err and "malformed" not in err
    assert not (tmp_path / "simulate_report.json").exists()


def test_alpha_below_off_axis_lipschitz_constant_exit_code(tmp_path, capsys):
    # C = [[1, 1], [0.5, 0]]: its top right singular vector lies off the
    # axes, and alpha = 0.999 ||C||_2 exceeds the slope along either axis
    terms = [[1, 1, 1.0], [1, 2, 1.0], [2, 1, 0.5]]
    lip = float(np.linalg.norm([[1.0, 1.0], [0.5, 0.0]], 2))
    alpha = 0.999 * lip
    model = write_json(tmp_path / "m.json", {
        "a": [[-1.0, 0.0], [0.0, -1.0]], "b": [[1.0], [1.0]],
        "d1": [[1.0, 0.0], [0.0, 1.0]], "alpha": alpha,
        "f": {"kind": "sine", "terms": terms}})
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    code = run(["simulate", model, str(gfile), "--mode", "leaderless",
                "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"Lipschitz constant {lip}" in err and f"alpha = {alpha}" in err
    assert model in err and "malformed" not in err
    assert not (tmp_path / "simulate_report.json").exists()


def test_no_command_loads_scipy(tmp_path):
    """numpy is the only runtime dependency: importing consyn, and a graph,
    a certified simulate, a feasible and an infeasible synth and a short
    repro run, each in a fresh process, load no scipy module."""
    src = str(Path(cli.__file__).resolve().parents[1])
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    # no rung of the scalar ladder has a feasible point: exit 3
    bad = write_json(tmp_path / "bad.json",
                     {"a": [[1.0]], "b": [[0.0]], "d1": [[1.0]]})
    cert = write_json(tmp_path / "cert.json", WITNESS)
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    out = ["--out-dir", str(tmp_path)]
    runs = {"import": ([], 0), "graph": (["graph", str(gfile)] + out, 0),
            "simulate --cert": (["simulate", model, str(gfile), "--mode",
                                 "leaderless", "--cert", cert, "--t-end",
                                 "0.5"] + out, 0),
            "synth": (["synth", model, str(gfile), "--mode", "leaderless"]
                      + out, 0),
            "infeasible synth": (["synth", bad, str(gfile), "--mode",
                                  "leaderless"] + out, 3),
            "repro": (["repro", "--t-end", "0.5"] + out, 0)}
    for name, (argv, code) in runs.items():
        loaded = json.loads(subprocess.run(
            [sys.executable, "-c",
             "import json, sys; from consyn import cli\n"
             "code = cli.main(sys.argv[2:]) if sys.argv[2:] else 0\n"
             "assert code == int(sys.argv[1]), code\n"
             "print(json.dumps(sorted(m for m in sys.modules\n"
             "                        if m.split('.')[0] == 'scipy')))",
             str(code), *argv],
            env=dict(os.environ, PYTHONPATH=src), check=True,
            capture_output=True, text=True,
            # the last line, after the command's own output
            timeout=120).stdout.splitlines()[-1])
        assert loaded == [], name


# an empty b would reach the Riccati solver as a 1x0 input matrix; int()
# would read the term index 1.5 as 1, and JSON's true as 1
@pytest.mark.parametrize("data, named", [
    ([1], "the model must be a JSON object"),
    ({"a": [[1]], "b": [[1]], "d1": [[1]], "f": []},
     "f must be a JSON object"),
    (dict(SCALAR_MODEL, b=[]), "b is empty"),
    (dict(SCALAR_MODEL, a=[[-1.0, 0.0]]), "a must be square"),
    (dict(SCALAR_MODEL, b=[[1.0], [1.0]]),
     "b and d1 must have as many rows as a"),
    (dict(SCALAR_MODEL, d1=[[1.0], [1.0]]),
     "b and d1 must have as many rows as a"),
    (dict(SCALAR_MODEL, d2=[[1.0], [1.0]]), "d2 must have as many rows as a"),
    (dict(SCALAR_MODEL, c=[[1.0, 1.0]]),
     "c_out must have as many columns as a"),
    (dict(SCALAR_MODEL, alpha=1.0,
          f={"kind": "sine", "terms": [[1.5, 1, 0.5]]}),
     "nonlinearity term indices must be integers"),
    (dict(SCALAR_MODEL, alpha=1.0,
          f={"kind": "sine", "terms": [[1, float("inf"), 0.5]]}),
     "nonlinearity term indices must be integers"),
    (dict(SCALAR_MODEL, alpha=1.0,
          f={"kind": "sine", "terms": [[True, 1, 0.5]]}),
     "nonlinearity term indices must be integers"),
    # the file's own 1-based indices, not the 0-based ones they become
    (dict(SCALAR_MODEL, alpha=1.0,
          f={"kind": "sine", "terms": [[0, 1, 0.5]]}),
     "nonlinearity term 1: output index 0 outside 1..1, the columns of d1"),
    (dict(SCALAR_MODEL, alpha=1.0,
          f={"kind": "sine", "terms": [[1, 1, 0.5], [1, 2, 0.5]]}),
     "nonlinearity term 2: input index 2 outside 1..1, the states"),
    # JSON's true and false are not numbers, though Python reads them as ints
    (dict(SCALAR_MODEL, a=[[True]]),
     "entry (1, 1) of a is true, not a number"),
    (dict(SCALAR_MODEL, d1=[[1.0, False]]),
     "entry (1, 2) of d1 is false, not a number"),
    (dict(SCALAR_MODEL, alpha=True), "alpha is true, not a number"),
    (dict(SCALAR_MODEL, gamma=False), "gamma is false, not a number"),
    (dict(SCALAR_MODEL, alpha=1.0,
          f={"kind": "sine", "terms": [[1, 1, True]]}),
     "the coefficient of nonlinearity term 1 is true, not a number"),
    (dict(SCALAR_MODEL, b=[["1.0"]]),
     'entry (1, 1) of b is "1.0", not a number'),
    (dict(SCALAR_MODEL, c=[[10 ** 400]]),
     "c holds an integer beyond the float range"),
    (dict(SCALAR_MODEL, alpha=1.0,
          f={"kind": "sine", "terms": [[1, 1, 10 ** 400]]}),
     "the coefficient of nonlinearity term 1 holds an integer beyond the "
     "float range"),
    (dict(SCALAR_MODEL, alpha=1.0,
          f={"kind": "sine", "terms": [[1, 1, None]]}),
     "the coefficient of nonlinearity term 1 is null, not a number"),
    # a of the wrong shape is named, not the term it leaves out of range
    (dict(SCALAR_MODEL, a=[[-1.0, 0.0]], alpha=1.0,
          f={"kind": "sine", "terms": [[1, 2, 0.5]]}), "a must be square"),
], ids=["list", "f-list", "empty-b", "a-not-square", "b-rows", "d1-rows",
        "d2-rows", "c-columns", "term-index-1.5", "term-index-inf",
        "term-index-true", "term-output-0", "term-input-2", "a-true",
        "d1-false", "alpha-true", "gamma-false", "coefficient-true",
        "b-string", "c-huge-integer", "coefficient-huge-integer",
        "coefficient-null", "a-not-square-term-input-2"])
def test_malformed_model_file_exit_code(tmp_path, capsys, data, named):
    model = write_json(tmp_path / "m.json", data)
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    code = run(["synth", model, str(gfile), "--mode", "leaderless",
                "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"malformed model file: {named}" in capsys.readouterr().err
    assert not (tmp_path / "synth_report.json").exists()


def test_model_file_builds_its_model_once(monkeypatch):
    """A model file's matrices are checked, and f's Lipschitz constant
    taken, once per load."""
    calls = []
    lipschitz = sim.Nonlinearity.lipschitz_constant

    def counted(f, n, out_dim):
        calls.append(f.terms)
        return lipschitz(f, n, out_dim)
    monkeypatch.setattr(sim.Nonlinearity, "lipschitz_constant", counted)
    terms = {"kind": "sine", "terms": [[1, 1, 0.5]]}
    model, _ = cli.model_from_dict(dict(SCALAR_MODEL, alpha=1.0, f=terms))
    assert calls == [((0, 0, 0.5),)] and model.f.terms == calls[0]


def test_integral_term_index_loads_as_its_integer():
    """A term index written 1.0 is the index 1, as it is written 1."""
    terms = {"kind": "sine", "terms": [[1.0, 1, 0.5]]}
    model, _ = cli.model_from_dict(dict(SCALAR_MODEL, alpha=1.0, f=terms))
    assert model.f.terms == ((0, 0, 0.5),)


@pytest.mark.parametrize("graph, cert, named", [
    ("nodes 2.5\n1 2\n2 1\n", json.dumps(WITNESS),
     "line 1: node count is not an integer"),
    ('{"adjacency": [[0, 1]]}', json.dumps(WITNESS),
     "adjacency must be square"),
    (TWO_NODE, '{"p": [[1.0]], "scalar": 1e999}',
     "the certificate scalar must be finite, got scalar = inf"),
    ('{"adjacency": [[0, true], [1, 0]]}', json.dumps(WITNESS),
     "entry (1, 2) of adjacency is true, not a number"),
    (TWO_NODE, '{"p": [[true]], "scalar": 1.0}',
     "malformed certificate file: entry (1, 1) of p is true, not a number"),
    (TWO_NODE, '{"p": [[1.0]], "scalar": true}',
     "malformed certificate file: scalar is true, not a number"),
    (TWO_NODE, '{"p": [[1.0]], "scalar": [1.0]}',
     "malformed certificate file: scalar is [1.0], not a number"),
], ids=["nodes-2.5", "adjacency-not-square", "scalar-1e999",
        "adjacency-true", "p-true", "scalar-true", "scalar-list"])
def test_malformed_graph_or_certificate_exit_code(tmp_path, capsys, graph,
                                                  cert, named):
    """A graph file or an injected certificate that cannot be used exits 2
    with a message naming the fault, and writes no report."""
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    gfile = tmp_path / "g.txt"
    gfile.write_text(graph)
    cfile = tmp_path / "cert.json"
    cfile.write_text(cert)
    code = run(["synth", model, str(gfile), "--mode", "leaderless",
                "--cert", str(cfile), "--out-dir", str(tmp_path)])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "synth_report.json").exists()


@pytest.mark.parametrize("command", ["synth", "simulate"])
def test_infinite_coupling_exit_code(tmp_path, capsys, command):
    """A c_multiplier that takes the published design's coupling past the
    float range exits 2 naming it, before any report or run."""
    model = write_json(tmp_path / "m.json", MANIPULATOR)
    cert = write_json(tmp_path / "cert.json",
                      {"p": benchmark.REFERENCE_P.tolist(),
                       "scalar": benchmark.REFERENCE_EPSILON})
    gfile = tmp_path / "g.txt"
    gfile.write_text(BENCH_GRAPH)
    code = run([command, model, str(gfile), "--mode", "hinf", "--gamma", "2",
                "--cert", cert, "--c-multiplier", "1e307",
                "--out-dir", str(tmp_path)])
    assert code == 2
    assert "c_multiplier = 1e+307 times the threshold 36.4481 overflows the " \
        "coupling c" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["cert.json", "g.txt", "m.json"]


@pytest.mark.parametrize("kind", ["model", "graph", "certificate"])
@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe", "cannot read"),
    (b"{\"p\": ", "is not valid JSON"),
], ids=["undecodable", "broken-json"])
def test_unreadable_input_file_names_the_path(tmp_path, capsys, kind,
                                              content, message):
    files = {
        "model": write_json(tmp_path / "m.json", SCALAR_MODEL),
        "graph": str(tmp_path / "g.txt"),
        "certificate": write_json(tmp_path / "cert.json", WITNESS),
    }
    Path(files["graph"]).write_text(TWO_NODE)
    Path(files[kind]).write_bytes(content)
    code = run(["synth", files["model"], files["graph"], "--mode",
                "leaderless", "--cert", files["certificate"],
                "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert files[kind] in err and message in err


def test_malformed_certificate_file_names_the_path(tmp_path, capsys):
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    cert = write_json(tmp_path / "cert.json", {"p": [[1.0]]})
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    code = run(["synth", model, str(gfile), "--mode", "leaderless",
                "--cert", cert, "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"{cert}: malformed certificate file" in capsys.readouterr().err


def run_subprocess(argv):
    """The CLI in a fresh interpreter with default warning filters, so a
    leaked numpy warning shows on its stderr."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "consyn.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("p", [1e300, 1.7e308])
def test_certificate_near_float_range_exit_code(tmp_path, p):
    """A certificate whose p squares past the float range fails cleanly."""
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    cert = write_json(tmp_path / "cert.json", {"p": [[p]], "scalar": 1.0})
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    proc = run_subprocess(["synth", model, str(gfile), "--mode",
                           "leaderless", "--cert", cert,
                           "--out-dir", str(tmp_path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("update, named", [
    ({"a": [[1e200]]}, "entry (1, 1) of a is 1e+200"),
    ({"d1": [[1.0, -3e12]]}, "entry (1, 2) of d1 is -3e+12"),
    ({"alpha": 2e12}, "alpha is 2e+12"),
    ({"f": {"kind": "tanh", "terms": [[1, 1, 0.5], [1, 1, 1e100]]},
      "alpha": 1.0}, "the coefficient of nonlinearity term 2 is 1e+100"),
], ids=["a", "d1", "alpha", "f"])
def test_model_number_beyond_range_exit_code(tmp_path, update, named):
    """A model number too large for the certificate search is rejected as
    the file is loaded, naming the file and the entry, with no warning."""
    model = write_json(tmp_path / "m.json",
                       {"a": [[1.0]], "b": [[1.0]], "d1": [[1.0]]} | update)
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    proc = run_subprocess(["synth", model, str(gfile), "--mode",
                           "leaderless", "--out-dir", str(tmp_path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {model}: {named}, beyond 1e+12")
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("command, flags, model_update, named", [
    ("simulate", ["--t-end", "inf"], {}, "t_end = inf"),
    ("simulate", ["--dt", "nan"], {}, "dt = nan"),
    ("simulate", ["--t-end", "nan"], {}, "t_end = nan"),
    ("synth", ["--mode", "hinf", "--gamma", "nan"], {}, "gamma = nan"),
    ("synth", ["--mode", "hinf", "--gamma", "inf"], {}, "gamma = inf"),
    ("synth", ["--c-multiplier", "nan"], {}, "c_multiplier = nan"),
    ("synth", ["--c-multiplier", "inf"], {}, "c_multiplier = inf"),
    ("synth", [], {"alpha": float("inf")}, "alpha = inf"),
], ids=["t-end-inf", "dt-nan", "t-end-nan", "gamma-nan", "gamma-inf",
        "c-multiplier-nan", "c-multiplier-inf", "alpha-inf"])
def test_non_finite_number_exit_code(tmp_path, capsys, command, flags,
                                     model_update, named):
    model = write_json(tmp_path / "m.json", SCALAR_MODEL | model_update)
    cert = write_json(tmp_path / "cert.json", WITNESS)
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    mode = [] if "--mode" in flags else ["--mode", "leaderless"]
    code = run([command, model, str(gfile), *mode, *flags, "--cert", cert,
                "--out-dir", str(tmp_path)])
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("cert, named", [
    ('{"p": [[1.0, 0.0]], "scalar": 1.0}', "p must be square"),
    ('{"p": [[1.0, 0.5], [0.0, 1.0]], "scalar": 1.0}', "p is not symmetric"),
    ('{"p": [[1.0, 0.0], [0.0, 1.0]], "scalar": 1e400}',
     "the certificate scalar must be finite, got scalar = inf"),
], ids=["not-square", "asymmetric", "scalar-inf"])
def test_malformed_certificate_names_its_entry(tmp_path, cert, named):
    """A certificate p that is not a symmetric square, or a scalar beyond
    the float range, exits 2 naming the entry the file holds."""
    model = write_json(tmp_path / "m.json",
                       {"a": [[-1.0, 0.0], [0.0, -1.0]], "b": [[1.0], [1.0]],
                        "d1": np.eye(2).tolist()})
    cfile = tmp_path / "cert.json"
    cfile.write_text(cert)
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    proc = run_subprocess(["simulate", model, str(gfile), "--mode",
                           "leaderless", "--cert", str(cfile), "--t-end",
                           "0.01", "--out-dir", str(tmp_path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {named}")
    assert "Traceback" not in proc.stderr


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


def cycle(n: int) -> str:
    return f"nodes {n}\n" + "".join(f"{i} {i % n + 1}\n"
                                    for i in range(1, n + 1))


@pytest.mark.parametrize("blocked", ["out-dir", "csv"])
def test_simulate_unwritable_csv_exits_before_integrating(
        tmp_path, monkeypatch, capsys, blocked):
    """An --out-dir that is a file, or a directory in the CSV's place,
    exits 2 naming it before any RK4 step: the CSV is opened first."""
    def no_run(*args, **kwargs):
        raise AssertionError("integrate was called")
    monkeypatch.setattr(cli, "integrate", no_run)
    out = tmp_path / "out"
    path = out / "trajectory.csv" if blocked == "csv" else out
    if blocked == "csv":
        path.mkdir(parents=True)
    else:
        path.write_text("")
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    assert run(["simulate", write_json(tmp_path / "m.json", SCALAR_MODEL),
                str(gfile), "--mode", "leaderless", "--cert",
                write_json(tmp_path / "cert.json", WITNESS),
                "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_simulate_blow_up_after_streaming_leaves_nothing(
        tmp_path, monkeypatch, capsys):
    """A 64-agent run that blows up after the writer handed rows to forked
    children exits 4 with its last valid time, and leaves no CSV, no part
    file and no child."""
    forks = []
    fork = sim._Children.fork
    monkeypatch.setattr(sim, "_cpu_count", lambda: 2)
    monkeypatch.setattr(sim._Children, "fork",
                        lambda self, task: (forks.append(task),
                                            fork(self, task)))
    gfile = tmp_path / "cycle.txt"
    gfile.write_text(cycle(64))
    out = tmp_path / "out"
    code = run(["simulate", write_json(tmp_path / "m.json",
                                       dict(SCALAR_MODEL, a=[[2.0]])),
                str(gfile), "--mode", "leaderless", "--cert",
                write_json(tmp_path / "cert.json",
                           {"p": [[1.0]], "scalar": 6.0}),
                "--t-end", "20", "--out-dir", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: state norm crossed 1.0e+09")
    assert "last valid time" in err
    assert forks
    assert os.listdir(out) == []
    assert_no_child_left()


def test_simulate_overflow_exit_code(tmp_path):
    """A run whose arithmetic overflows exits 4 with no RuntimeWarning."""
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    proc = run_subprocess(["simulate", model, str(gfile), "--mode",
                           "leaderless", "--c-multiplier", "1e150",
                           "--out-dir", str(tmp_path)])
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: state norm crossed")
    assert "RuntimeWarning" not in proc.stderr


# Both allocations exceed the 128 PiB address space of 5-level paging, so
# they fail at once and touch no memory: 6.94 EiB for the graph's
# adjacency, 711 PiB for the run's time grid.
@pytest.mark.parametrize("command", ["graph", "simulate"])
def test_allocation_too_large_exit_code(tmp_path, command):
    gfile = tmp_path / "g.txt"
    if command == "graph":
        gfile.write_text("nodes 1000000000\n1 2\n2 1\n")
        argv = ["graph", str(gfile)]
    else:
        gfile.write_text(TWO_NODE)
        argv = ["simulate", write_json(tmp_path / "m.json", SCALAR_MODEL),
                str(gfile), "--mode", "leaderless", "--t-end", "1e11",
                "--dt", "1e-6"]
    proc = run_subprocess([*argv, "--out-dir", str(tmp_path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: Unable to allocate")
    assert "Traceback" not in proc.stderr


def test_model_round_trip():
    """The model file of the bundled manipulator loads as that model."""
    model = benchmark.manipulator_model()
    assert parse_edge_list(BENCH_GRAPH) == benchmark.benchmark_graph()
    # nonlinearity terms are written 1-based
    back, gamma = cli.model_from_dict(dict(MANIPULATOR, gamma=2.0))
    assert gamma == 2.0
    for name in ("a", "b", "d1", "d2", "c_out"):
        assert_allclose(getattr(back, name), getattr(model, name), atol=0.0)
    assert back.f == model.f
    assert back.alpha == model.alpha


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


@pytest.mark.parametrize("binding, error, code, stage", [
    ("integrate", BlowUpError("state norm too large", 0.5), 4,
     "consensus-sim"),
    ("synthesize", InfeasibleError("no certificate"), 3,
     "attenuation-solve"),
    ("synthesize", PreconditionError("wrong graph"), 2, "attenuation-solve"),
], ids=["blow-up", "infeasible", "precondition"])
def test_repro_stage_exit_codes(tmp_path, monkeypatch, capsys, binding,
                                error, code, stage):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, binding, fail)
    assert run(["repro", "--t-end", "0.01", "--out-dir", str(tmp_path)]) \
        == code
    assert f"stage {stage} failed" in capsys.readouterr().err
    assert not (tmp_path / "repro_report.json").exists()


def repro_outputs(out_dir, capsys) -> dict:
    """The files a repro run left in out_dir, its report without the
    provenance, and its captured stdout and stderr."""
    outputs = {path.name: path.read_bytes()
               for path in sorted(out_dir.iterdir())}
    if "repro_report.json" in outputs:
        report = json.loads(outputs["repro_report.json"])
        del report["provenance"]
        outputs["repro_report.json"] = report
    captured = capsys.readouterr()
    return outputs | {"stdout": captured.out, "stderr": captured.err}


def repro_on(cpus, out_dir, monkeypatch, capsys, *flags):
    """Exit code and outputs of repro --t-end 1 with cpus CPUs, after
    which no child is left."""
    monkeypatch.setattr(sim, "_cpu_count", lambda: cpus)
    code = run(["repro", "--t-end", "1", "--out-dir", str(out_dir),
                *flags])
    assert_no_child_left()
    return code, repro_outputs(out_dir, capsys)


def fail_disturbed_runs(monkeypatch, failure):
    """Make integrate call failure() on the attenuation run only."""
    def flaky(scenario):
        if scenario.disturbance != "none":
            failure()
        return real(scenario)

    real = cli.integrate
    monkeypatch.setattr(cli, "integrate", flaky)


@pytest.mark.parametrize("disturbance", ["bipolar", "unipolar"])
def test_repro_is_the_same_on_one_and_two_cpus(tmp_path, monkeypatch,
                                               capsys, disturbance):
    """The attenuation run integrated in a forked child gives the CSVs,
    stdout and report of the one-CPU run, which forks nothing: there
    sim._Children integrates it in process, before the consensus stage."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(sim._cpu_count())
                        or fork())
    flags = ["--disturbance", disturbance]
    one = repro_on(1, tmp_path, monkeypatch, capsys, *flags)
    two = repro_on(2, tmp_path, monkeypatch, capsys, *flags)
    assert forks == [2]
    assert one[0] == 0
    assert sorted(one[1]) == ["attenuation_traj.csv", "consensus_traj.csv",
                              "repro_report.json", "stderr", "stdout"]
    assert two == one


def test_repro_attenuation_blow_up_on_one_and_two_cpus(tmp_path, monkeypatch,
                                                       capsys):
    """A blow-up of the attenuation run alone exits 4 with its stage and
    its last valid time, after the consensus stage wrote its CSV, whether
    the child or this process integrated it."""
    def blow_up():
        raise BlowUpError("state norm crossed 1.0e+09 at t = 0.5", 0.499)

    fail_disturbed_runs(monkeypatch, blow_up)
    outcomes = []
    for cpus in (1, 2):
        out_dir = tmp_path / str(cpus)
        outcomes.append(repro_on(cpus, out_dir, monkeypatch, capsys))
        assert sorted(os.listdir(out_dir)) == ["consensus_traj.csv"]
    code, outputs = outcomes[0]
    assert code == 4
    assert outputs["stderr"] == (
        "stage attenuation-sim failed\n"
        "error: state norm crossed 1.0e+09 at t = 0.5 "
        "(last valid time 0.499)\n")
    assert outcomes[1] == outcomes[0]


def test_repro_consensus_failure_kills_the_child(tmp_path, monkeypatch,
                                                 capsys):
    """A consensus stage that fails while the child still integrates kills
    it: repro ends at once, with no child and no attenuation CSV."""
    fail_disturbed_runs(monkeypatch, lambda: time.sleep(60))

    def no_room(traj, path, decimation=1):
        raise OSError(f"cannot write {path}: no room")

    monkeypatch.setattr(cli, "write_csv", no_room)
    start = time.monotonic()
    code, outputs = repro_on(2, tmp_path, monkeypatch, capsys)
    assert time.monotonic() - start < 30
    assert code == 2
    assert outputs["stderr"].startswith("stage consensus-sim failed\n")
    assert sorted(os.listdir(tmp_path)) == []


def test_repro_child_killed_by_a_signal(tmp_path, monkeypatch, capsys):
    """A child that dies of a signal makes repro exit 2, naming the stage
    and the signal, with no traceback."""
    fail_disturbed_runs(
        monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    code, outputs = repro_on(2, tmp_path, monkeypatch, capsys)
    assert code == 2
    assert outputs["stderr"] == (
        "stage attenuation-sim failed\n"
        "error: a forked process was killed by signal SIGKILL\n")
    assert sorted(os.listdir(tmp_path)) == ["consensus_traj.csv"]


def _unwritable(tmp_path, command):
    """argv of a run whose output is in the way, and the path it names."""
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    out = tmp_path / "out"
    if command == "graph":
        out.write_text("")
        return ["graph", str(gfile), "--out-dir", str(out)], out
    if command == "repro":
        blocked = out / "consensus_traj.csv"
        blocked.mkdir(parents=True)
        return ["repro", "--t-end", "0.01", "--out-dir", str(out)], blocked
    blocked = out / "simulate_report.json"
    blocked.mkdir(parents=True)
    model = write_json(tmp_path / "m.json", SCALAR_MODEL)
    cert = write_json(tmp_path / "cert.json", WITNESS)
    return ["simulate", model, str(gfile), "--mode", "leaderless", "--cert",
            cert, "--t-end", "0.01", "--out-dir", str(out)], blocked


@pytest.mark.parametrize("command", ["graph", "repro", "simulate"])
def test_unwritable_output_exit_code(tmp_path, capsys, command):
    argv, path = _unwritable(tmp_path, command)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err
    if command == "repro":
        assert "stage consensus-sim failed" in err


def test_reports_state_the_run_assessment(tmp_path, monkeypatch):
    assessed = []

    def spy(*args, **kwargs):
        assessed.append(real(*args, **kwargs))
        return assessed[-1]

    real = cli.assess
    monkeypatch.setattr(cli, "assess", spy)
    gfile = tmp_path / "g.txt"
    gfile.write_text(TWO_NODE)
    cert = write_json(tmp_path / "cert.json", WITNESS)
    hinf_model = dict(SCALAR_MODEL, d2=[[1.0]], c=[[1.0]], gamma=2.0)
    runs = [
        ("leaderless", SCALAR_MODEL, []),
        ("hinf", hinf_model, ["--disturbance", "bipolar"]),
    ]
    for mode, model_dict, flags in runs:
        model = write_json(tmp_path / f"{mode}.json", model_dict)
        out = tmp_path / mode
        before = len(assessed)
        assert run(["simulate", model, str(gfile), "--mode", mode, "--cert",
                    cert, "--t-end", "1", "--out-dir", str(out)] + flags) \
            == 0
        assert len(assessed) == before + 1
        sim = json.loads(
            (out / "simulate_report.json").read_text())["simulation"]
        a = assessed[-1]
        assert sim["final_consensus_error"] == a.final_error
        assert sim["v0"] == a.v0
        assert sim["v_fraction_increasing"] == a.v_fraction_increasing
        assert sim.get("j") == a.j
        assert sim.get("empirical_gain") == a.empirical_gain
    assert assessed[-1].j is not None

    out = tmp_path / "repro"
    before = len(assessed)
    assert run(["repro", "--t-end", "1", "--out-dir", str(out)]) == 0
    assert len(assessed) == before + 2
    checks = json.loads((out / "repro_report.json").read_text())["checks"]
    consensus, attenuation = assessed[-2:]
    assert checks["consensus_final_error"] == consensus.final_error
    assert checks["v_increases"] == consensus.v_increases
    assert checks["j"] == attenuation.j
    assert checks["empirical_gain"] == attenuation.empirical_gain


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
