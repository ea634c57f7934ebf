"""Every demo script runs to completion as a user would start it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout
    assert proc.stdout.strip()
