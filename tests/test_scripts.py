"""Smoke test of the scripts: they import library names a refactor can break."""

import os
import re
import subprocess
import sys
from pathlib import Path

import jshm

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(jshm.__file__).parent.parent)},
    )


def test_certificate_grid():
    proc = run_script("certificate_grid.py", "--k-max", "3", "--n-max", "8")
    assert proc.returncode == 0, proc.stderr
    assert "0 invalid certificates" in proc.stdout


def test_show_discrepancies():
    proc = run_script("show_discrepancies.py")
    assert proc.returncode == 0, proc.stderr
    assert "corrected variant: equal" in proc.stdout


def test_certificate_grid_below_regime():
    # below (t+1)(k-t+1) the certificate's spectrum goes negative
    proc = run_script("certificate_grid.py", "--include-below-regime",
                      "--k-max", "5", "--n-max", "14")
    assert proc.returncode == 0, proc.stderr
    below = sum(n < (t + 1) * (k - t + 1)
                for k in range(2, 6) for t in range(1, k) for n in range(2 * k, 15))
    assert below > 0
    assert re.search(r"^(\d+) invalid certificates", proc.stdout, re.M).group(1) == str(below)
