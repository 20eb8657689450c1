"""The narrative demos and the README's Python examples run end to end
against the current API."""

import re
import runpy
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMO_DIR = ROOT / "demos"
DEMOS = ("01_graph_spectra", "02_leaderless_consensus",
         "03_disturbance_rejection", "04_leader_follower")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(), re.S | re.M)
README_IDS = tuple(f"README-{i + 1}" for i in range(len(README_BLOCKS)))


@pytest.mark.parametrize("name", DEMOS + README_IDS)
def test_demo_runs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if name in README_IDS:
        script = tmp_path / f"{name}.py"
        script.write_text(README_BLOCKS[README_IDS.index(name)])
    else:
        script = DEMO_DIR / f"{name}.py"
    # demos set numpy print options; keep them out of the other tests
    with np.printoptions():
        runpy.run_path(str(script), run_name="__main__")
