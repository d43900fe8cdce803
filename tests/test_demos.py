"""Every read-only demo runs to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

import drinfeld_forge

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
# generate_discrepancy_report.py rewrites DISCREPANCIES.md, so it is left out
READ_ONLY = sorted(path.name for path in DEMOS.glob("*.py")
                   if path.name != "generate_discrepancy_report.py")


@pytest.mark.parametrize("demo", READ_ONLY)
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(drinfeld_forge.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
