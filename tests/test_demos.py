"""The narrative demo scripts must stay runnable."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"

QUICK_DEMOS = [
    "closed_form_spectrum.py",
    "channel_oracles.py",
    "spherical_chain.py",
    "hellmann_feynman.py",
    "grid3d_check.py",
]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name):
    # the demos import the package from the absolute source path, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(DEMO_DIR / name)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert "FAIL" not in done.stdout
    assert done.stdout.strip()
