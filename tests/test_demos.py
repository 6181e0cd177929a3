"""The demos run to completion against the current library.

Each demo prints counter keys and calls public functions by name, so a
rename that forgets a demo shows up here.  `demo_game` is left out: it
plays long games, and `TestGame` covers `game_simulate`.  CI runs it as
a step of its own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name",
    ["demo_best_approx", "demo_clustering", "demo_negative_pipeline", "demo_nonneg_solver"],
)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout
