"""The narrative demos run end to end against the current API."""

import runpy
from pathlib import Path

import numpy as np
import pytest

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = ("01_graph_spectra", "02_leaderless_consensus",
         "03_disturbance_rejection", "04_leader_follower")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # demos set numpy print options; keep them out of the other tests
    with np.printoptions():
        runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
