"""Smoke runs of the experiment scripts at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("name, args, outputs", [
    ("train_choice_model.py", ["--n", "300", "--epochs", "5", "--runs", "1",
                               "--hidden", "8,8"], []),
    ("recover_weighting_params.py", ["--sizes", "200"], []),
    ("run_desk_scale.py", ["--inits", "2", "--baseline-pairs", "10",
                           "--outdir", "desk"], ["desk/report.csv"]),
])
def test_script_runs(name, args, outputs, tmp_path):
    out = run_script(name, *args, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
    for path in outputs:
        assert (tmp_path / path).is_file(), path
