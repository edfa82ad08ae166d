import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("coupling", ["0.3", "0.7853981633974483"])
def test_repetition_histogram_geometric_law_is_truncated_like_the_exact_law(tmp_path, coupling):
    # from the maximally mixed start with no noise, the exact law of the
    # first flag is the geometric law on the |-> half, so once both are
    # conditioned on a flag within --max-steps they agree to rounding
    out = tmp_path / "hist.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), *sys.path]))
    argv = [sys.executable, str(REPO / "scripts" / "repetition_histogram.py"), "--j", coupling,
            "--trajectories", "4000", "--max-steps", "30", "--out", str(out)]
    printed = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    geometric = np.array([float(r["geometric_pmf"]) for r in rows])
    exact = np.array([float(r["exact_pmf"]) for r in rows])
    assert np.allclose(geometric, exact, rtol=1e-12, atol=0.0)
    predicted = re.search(r"geometric prediction ([\d.]+), exact law ([\d.]+)", printed)
    assert predicted.group(1) == predicted.group(2)
