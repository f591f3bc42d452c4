"""The narrative demo scripts must stay runnable."""

import pathlib
import subprocess
import sys

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"

QUICK_DEMOS = [
    "closed_form_spectrum.py",
    "channel_oracles.py",
    "spherical_chain.py",
    "hellmann_feynman.py",
    "grid3d_check.py",
]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name):
    done = subprocess.run([sys.executable, str(DEMO_DIR / name)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "FAIL" not in done.stdout
    assert done.stdout.strip()
