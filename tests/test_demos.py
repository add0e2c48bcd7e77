"""Every narrative demo under ``demos/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import liftphase

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_signals_and_spectrogram",
    "02_lifted_system",
    "03_end_to_end_recovery",
    "04_noise_robustness",
])
def test_demo_runs(tmp_path, name):
    # run from an empty directory (demo 03 may write plots there) against
    # the package this suite imports
    src = str(Path(liftphase.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(DEMO_DIR / f"{name}.py")],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=600)
    assert result.returncode == 0, result.stderr
