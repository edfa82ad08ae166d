"""The README commands against their golden outputs (see tests/golden.py)."""

from click.testing import CliRunner

from qsteer.cli import main

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
