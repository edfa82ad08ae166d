"""The README commands against their golden outputs (see tests/golden.py)."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from qsteer.cli import _operator, main
from qsteer.protocol import NoiseConfig, _maximally_mixed, repetition_law

import golden


def test_readme_commands_reproduce_the_golden_tree(tmp_path):
    runner = CliRunner()

    def invoke(argv):
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, (argv, result.output)

    fresh = tmp_path / "golden"
    golden.run_commands(fresh, invoke)
    moves, problems = golden.compare(golden.GOLDEN, fresh)
    assert len(moves) == 42
    report = [f"{name}: largest relative float move {move:.3g}" for name, move in moves.items()]
    assert not problems, "\n".join(problems + report)

    # CI's inline checks, on the tree and on the fresh run
    for root in (golden.GOLDEN, fresh):
        assert golden.split_sweep_cells(root / "sweep_readme" / "sweep.csv") == (93, 0)
        assert golden.non_canonical_json(root) == []


@pytest.mark.parametrize("name", ["nonblind", "steern"])
def test_sampled_stopping_law_agrees_with_the_exact_law(name):
    # the golden samples against the exact law written beside them: the
    # failure share and the mean stopping cycle each within 4 standard errors
    doc = json.loads((golden.GOLDEN / name / "records.json").read_text())
    config, rep = doc["config"], doc["records"]["repetitions"]
    _, op = _operator(config["target"], config["coupling"])
    rho0, noise = _maximally_mixed(op.system_dim), NoiseConfig(**config["noise"])
    pmf, failure = repetition_law(rho0, op, config["steps"], noise)
    cond, cycles = pmf / pmf.sum(), np.arange(1, config["steps"] + 1)
    assert rep["exact_failure_probability"] == pytest.approx(failure, rel=1e-12)
    assert rep["exact_mean"] == pytest.approx(cond @ cycles, rel=1e-12)
    n, flagged = rep["n_trajectories"], rep["n_trajectories"] - rep["failures"]
    assert abs(rep["failures"] / n - failure) <= 4 * math.sqrt(failure * (1 - failure) / n)
    variance = cond @ cycles**2 - rep["exact_mean"] ** 2
    assert abs(rep["mean"] - rep["exact_mean"]) <= 4 * math.sqrt(variance / flagged)
