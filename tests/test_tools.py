"""``tools/ab.py``, the in-process A/B timing script, run as a smoke test:
an A/A run of one workload, and a run against a copy whose outputs differ."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_ab(root_a, root_b, passes):
    argv = [sys.executable, str(ROOT / "tools" / "ab.py"), str(root_a), str(root_b),
            "--workload", "automorphisms", "--passes", str(passes)]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def test_an_a_a_run_reports_both_sides_and_identical_outputs():
    proc = run_ab(ROOT, ROOT, 2)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["identical"] and result["passes"] == 2 and result["items"] > 0
    for key in ("a_us_per_item", "b_us_per_item", "ratio"):
        assert 0.0 < result[key] < math.inf
    assert "outputs: identical" in proc.stdout


def test_outputs_that_differ_exit_nonzero(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "geodisc" / "ball.py", "a") as f:
        f.write("\n\n_c_star_ball = c_star_ball\n\n\ndef c_star_ball(w, z):\n    return _c_star_ball(w, z) / 2.0\n")
    proc = run_ab(ROOT, tmp_path, 1)
    assert proc.returncode == 1, proc.stderr
    assert not json.loads(proc.stdout.splitlines()[-1])["identical"]
