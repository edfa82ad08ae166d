"""Golden outputs of the README commands.

``tests/golden/`` holds the files that the README commands of CI's a/b loop
write, one directory per command.  ``tests/test_golden.py`` reruns the
commands in process and compares what they write with the tree.

    python tests/golden.py           # compare a fresh run with the tree
    python tests/golden.py --write   # regenerate the tree
    python tests/golden.py --cli OUT # run each command in its own qsteer process

A change that moves output regenerates the tree, so its diff lists every
moved number.

Comparison rule: byte-equal files pass.  Otherwise both files are parsed
(JSON, CSV, or circuit text split around its numbers) and must have the same
structure, strings and integers; floats must agree within a relative 1e-12,
taken against the larger magnitude and never less than 1, so an entry that is
zero up to rounding may move by 1e-12.  The tolerance is there because numpy
is not pinned and BLAS kernels round differently across CPUs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
REL_TOL = 1e-12

NOISE_ALL = {
    "depolarizing_p": 0.01,
    "amplitude_damping_gamma": 0.02,
    "reset_infidelity": 0.05,
    "readout_confusion": [[0.97, 0.03], [0.05, 0.95]],
}

# (output directory, qsteer arguments), in CI's order.  "{noise}" is the path
# of a file holding NOISE_ALL.  The kak --circuit run reads the circuit that
# the qc run wrote; kak.json records only the file's name, so the path it is
# read by does not matter.
COMMANDS = [
    ("blind", "steer --target + --J 1.5707963267948966 --N 1 --mode blind"),
    ("nonblind", "steer --target + --J 0.785 --N 40 --mode nonblind --trajectories 100000 --seed 1"),
    ("sweep_readme", "sweep --targets 0,1,+,-,i,-i --Js 0.39,0.79,1.57 --N 30"),
    ("tomo", "tomo --target + --J 0.785 --N 10 --shots 4096 --seed 3"),
    ("tomot", "tomo --target qutrit-equal --J 0.785 --N 10 --shots 4096 --seed 3"),
    ("tomol", "tomo --target qutrit-equal --J 0.785 --N 200 --shots 16 --seed 3"),
    ("qpt", "qpt --target + --J 1.5707963267948966 --shots inf"),
    ("qpts", "qpt --target + --J 1.5707963267948966 --shots 256 --seed 9"),
    ("kak", "kak --target + --J 0.3"),
    ("kakx", "kak --target qubit:0.7,1.9 --J 2.5"),
    ("kake", "kak --target + --J 1.5707963267948966"),
    ("qc", "circuit --target + --J 0.785"),
    ("qc", "kak --circuit circuit.txt"),
    ("qx", "circuit --target qubit:0.7,1.9 --J 2.5"),
    ("qt", "circuit --target qutrit-equal --J 0.5"),
    ("qg", "circuit --target qutrit:1.2,0.9,1.0,5.0 --J 2.5"),
    ("sweep", "sweep --targets 0,+,qutrit-equal,-i --Js 0.7,0.3,0.7 --N 5 --noise {noise}"),
    ("steern", "steer --target qutrit-equal --J 0.785 --N 20 --mode nonblind "
               "--trajectories 20000 --seed 5 --noise {noise}"),
    ("tomon", "tomo --target qutrit-equal --J 0.785 --N 10 --shots 4096 --seed 3 --noise {noise}"),
    ("blindn", "steer --target + --J 0.785 --N 40 --mode blind --noise {noise}"),
    ("blindqn", "steer --target qutrit-equal --J 0.3 --N 60 --mode blind --noise {noise}"),
]


def run_commands(out: Path, invoke) -> None:
    """Runs COMMANDS into ``out``, one directory each.  ``invoke(argv)``
    runs ``qsteer argv`` in the current directory."""
    noise = out / "noise_all.json"
    out.mkdir(parents=True, exist_ok=True)
    noise.write_text(json.dumps(NOISE_ALL))
    for name, args in COMMANDS:
        argv = args.format(noise=noise).split()
        (out / name).mkdir(exist_ok=True)
        cwd = os.getcwd()
        os.chdir(out / name)
        try:
            invoke([*argv, "--out", "."])
        finally:
            os.chdir(cwd)
    noise.unlink()


def written_files(root: Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def _parse_csv(text: str) -> list:
    return [[_cell(v) for v in row] for row in csv.reader(io.StringIO(text))]


def _cell(text: str):
    """A number as a float (%.17g writes 1.0 as "1", and integers below 1e12
    still have to be equal under REL_TOL), other text as it is."""
    try:
        return float(text)
    except ValueError:
        return text


def _parse_text(text: str) -> list:
    """Circuit text as alternating literal pieces and numbers."""
    return [_cell(piece) if i % 2 else piece for i, piece in enumerate(_NUMBER.split(text))]


def _parse(name: str, text: str):
    if name.endswith(".json"):
        return json.loads(text)
    if name.endswith(".csv"):
        return _parse_csv(text)
    return _parse_text(text)


def _moves(want, got, where: str, problems: list[str]) -> float:
    """The largest relative float move between two parsed documents; each
    difference that is not a float move within REL_TOL goes to ``problems``."""
    if isinstance(want, float) and isinstance(got, float):
        move = abs(want - got) / max(abs(want), abs(got), 1.0)
        if not move <= REL_TOL:
            problems.append(f"{where}: {want!r} -> {got!r}")
        return move
    if type(want) is not type(got):
        problems.append(f"{where}: {want!r} -> {got!r}")
        return 0.0
    if isinstance(want, dict):
        if sorted(want) != sorted(got):
            problems.append(f"{where}: keys {sorted(want)} -> {sorted(got)}")
            return 0.0
        return max((_moves(want[k], got[k], f"{where}.{k}", problems) for k in want), default=0.0)
    if isinstance(want, list):
        if len(want) != len(got):
            problems.append(f"{where}: length {len(want)} -> {len(got)}")
            return 0.0
        return max((_moves(w, g, f"{where}[{i}]", problems)
                    for i, (w, g) in enumerate(zip(want, got))), default=0.0)
    if want != got:
        problems.append(f"{where}: {want!r} -> {got!r}")
    return 0.0


def compare(golden: Path, fresh: Path) -> tuple[dict[str, float], list[str]]:
    """({file: largest relative float move}, problems) of a fresh run against
    the golden tree; a byte-equal file moves 0."""
    moves, problems = {}, []
    want_files, got_files = written_files(golden), written_files(fresh)
    if want_files != got_files:
        problems.append(f"file lists differ: {sorted(set(want_files) ^ set(got_files))}")
    for name in sorted(set(want_files) & set(got_files)):
        want, got = (golden / name).read_bytes(), (fresh / name).read_bytes()
        if want == got:
            moves[name] = 0.0
            continue
        found = []
        moves[name] = _moves(_parse(name, want.decode()), _parse(name, got.decode()), name, found)
        problems += found
    return moves, problems


def split_sweep_cells(sweep_csv: Path) -> tuple[int, int]:
    """(cells, cells with more than one mean_fid) of a sweep.csv: every
    target of one (J, n) cell shares the curve of its channel."""
    cells = {}
    with open(sweep_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            cells.setdefault((row["J"], row["n"]), set()).add(row["mean_fid"])
    return len(cells), sum(len(values) != 1 for values in cells.values())


def non_canonical_json(root: Path) -> list[str]:
    """JSON files under ``root`` not as json.dumps(sort_keys=True, indent=2)
    writes them, with a newline."""
    return [p.relative_to(root).as_posix() for p in sorted(root.rglob("*.json"))
            if p.read_text() != json.dumps(json.loads(p.read_text()), sort_keys=True, indent=2) + "\n"]


def _invoke(argv: list[str]) -> None:
    from qsteer.cli import main

    main.main(args=argv, prog_name="qsteer", standalone_mode=False)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--write", action="store_true", help="regenerate tests/golden/")
    ap.add_argument("--cli", metavar="OUT", type=Path,
                    help="run the commands through the installed qsteer console script into OUT")
    args = ap.parse_args()
    if args.cli is not None:
        run_commands(args.cli.resolve(), lambda argv: subprocess.run(["qsteer", *argv], check=True))
        return 0
    sys.path.insert(0, str(REPO / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp) / "golden"
        run_commands(fresh, _invoke)
        if args.write:
            shutil.rmtree(GOLDEN, ignore_errors=True)
            shutil.copytree(fresh, GOLDEN)
            print(f"wrote {len(written_files(GOLDEN))} files to {GOLDEN.relative_to(REPO)}")
            return 0
        moves, problems = compare(GOLDEN, fresh)
    for name, move in moves.items():
        print(f"{name}: largest relative float move {move:.3g}")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
