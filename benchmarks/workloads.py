"""The benchmark's two workloads: inputs built from the seed, the timed
operations, and the check each operation's output must pass.

* ``readme_nonblind``: the README's 100k-trajectory non-blind ``steer``.
* ``noisy_qutrit_ensemble``: ``run_nonblind_batch`` on a qutrit target with
  all four noise keys, every trajectory running every step.

Every run reports every end-to-end metric, so both workloads also run a
command phase: the README's other CLI commands, the same in both.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import checks

HALF_PI = "1.5707963267948966"
README_J = 0.785
# Every noise key; the readout confusion is the 2x2 one of a qubit ancilla.
NOISE_ALL = {
    "depolarizing_p": 0.01,
    "amplitude_damping_gamma": 0.02,
    "reset_infidelity": 0.05,
    "readout_confusion": [[0.97, 0.03], [0.05, 0.95]],
}
# ROADMAP's example of the tomo/steer disagreement: reset infidelity alone.
NOISE_RESET = {"reset_infidelity": 0.3}
SWEEP_TARGETS = ("0", "1", "+", "-", "i", "-i")
SWEEP_JS = ("0.39", "0.79", "1.57")
TOMO_SHOTS = "4096"

COMMAND_KINDS = (
    "steer_blind",
    "steer_blind_noisy",
    "sweep",
    "kak",
    "circuit_qubit",
    "circuit_qutrit",
    "tomo_qubit",
    "tomo_qutrit",
    "qpt",
)


@dataclass(frozen=True)
class Shape:
    """How a workload spends a run; the tests shrink it to run the same
    code in seconds.

    An untraced run interleaves trajectory operations with rounds of the
    command phase so that trajectory operations take ``traj_share`` of
    ``--seconds``, with at least ``min_traj`` operations and ``min_rounds``
    rounds.  A traced run does fixed work instead, so that its counts
    repeat: ``trace_traj`` trajectory operations and ``trace_rounds`` rounds
    untraced, then ``trace_traj`` operations and ``trace_rounds_traced``
    rounds twice under tracing.
    """

    traj_share: float
    min_traj: int
    trace_traj: int
    trace_rounds: int
    trace_rounds_traced: int
    min_rounds: int = 10


SHAPES = {
    "readme_nonblind": Shape(0.5, 2, 1, 100, 10),
    "noisy_qutrit_ensemble": Shape(0.5, 5, 1, 100, 10),
}


@dataclass
class Op:
    """One timed operation and the check of its output."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    trajectories: int = 0
    out_dir: Path | None = None


@dataclass
class Workload:
    name: str
    shape: Shape
    trajectory_op: Callable[[int], Op]
    command_ops: Callable[[int], list[Op]]
    diagnostics: Callable[[], dict]
    batches: list = field(default_factory=list)


def derive(seed: int, *tags) -> int:
    """A 31-bit seed for one input, derived from the workload seed."""
    digest = hashlib.blake2b(repr((seed,) + tags).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % (1 << 31)


def qsteer_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "qsteer" or n.startswith("qsteer.")}


def import_qsteer() -> SimpleNamespace:
    """Import qsteer afresh, so that set-up pays for it every time."""
    for name in qsteer_modules():
        del sys.modules[name]
    mods = ("protocol", "steering", "states", "linalg", "geometry", "circuits", "tomography", "cli")
    importlib.import_module("qsteer")
    return SimpleNamespace(**{m: importlib.import_module(f"qsteer.{m}") for m in mods})


class CommandFailed(RuntimeError):
    pass


def invoke(q, argv: list[str]) -> None:
    """Run one CLI command in process, as ``qsteer <argv>`` would."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            q.cli.main.main(args=argv, prog_name="qsteer", standalone_mode=False)
    except SystemExit as exc:
        if exc.code:
            raise CommandFailed(f"exit {exc.code}: {err.getvalue().strip()}") from None


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _operator(q, label: str, coupling: float):
    _, target = q.cli.parse_target(label)
    return q.steering.make_steering_operator(q.steering.TargetSpec(target, coupling, label))


def _mixed(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex) / d


def _write_noise(path: Path, noise: dict) -> str:
    path.write_text(json.dumps(noise, sort_keys=True))
    return str(path)


# ---------------------------------------------------------------------------
# trajectory operations


def _nonblind_cli_ops(q, seed: int, out: Path, n: int, replays: int, batches: list):
    """The README's non-blind ``steer`` at ``n`` trajectories, checked
    against the batch it computed, which a wrapper on the CLI's reference to
    run_nonblind_batch hands over."""
    steps = 40
    op = _operator(q, "+", README_J)
    rho0 = q.states.DensityState(matrix=_mixed(2), dims=(2,))
    q_fail = checks.no_success_probability(op.unitary, rho0.matrix, steps)

    def capture(*args, **kwargs):
        batch = q.protocol.run_nonblind_batch(*args, **kwargs)
        batches.append(batch)
        return batch

    q.cli.run_nonblind_batch = capture

    def make(i: int) -> Op:
        s = derive(seed, "steer_nonblind", n, i)
        d = out / "steer_nonblind"
        argv = ["steer", "--target", "+", "--J", str(README_J), "--N", str(steps),
                "--mode", "nonblind", "--trajectories", str(n), "--seed", str(s),
                "--out", str(d)]

        def run():
            invoke(q, argv)
            return batches[-1]

        def check(batch) -> list[str]:
            payload = _read_json(d / "records.json")
            hist = _read_csv(d / "repetitions_hist.csv")
            fids = checks.batch_fidelities(batch.final_states, op.target)
            fails = checks.nonblind_records(payload, hist, batch, fids)
            fails += checks.density_batch(batch.final_states, "steer nonblind")
            fails += checks.geometric_ks(batch.repetitions)
            fails += checks.failure_share(int(np.sum(batch.repetitions == 0)), n, q_fail)
            idx = np.random.default_rng(s).choice(n, size=replays, replace=False)
            single = lambda t: q.protocol.run_nonblind(  # noqa: E731
                rho0, op, steps, seed=s, trajectory_index=t
            )
            return fails + checks.replay(batch, single, idx, op.target)

        return Op("trajectory", run, check, trajectories=n, out_dir=d)

    return make


def _qutrit_ensemble_ops(q, seed: int, n: int, replays: int, batches: list):
    steps = 20
    op = _operator(q, "qutrit-equal", README_J)
    rho0 = q.states.random_density(3, derive(seed, "ginibre"))
    noise_kwargs = dict(NOISE_ALL, readout_confusion=np.array(NOISE_ALL["readout_confusion"]))
    noise = q.protocol.NoiseConfig(**noise_kwargs)
    reference = checks.blind_states(op.unitary, rho0.matrix, steps, NOISE_ALL)[-1]

    def make(i: int) -> Op:
        s = derive(seed, "qutrit_ensemble", i)

        def run():
            batch = q.protocol.run_nonblind_batch(
                rho0, op, steps, n, noise, seed=s, early_stop=False
            )
            batches.append(batch)
            return batch, batch.final_states.mean(axis=0), q.protocol.repetition_stats(batch)

        def check(result) -> list[str]:
            batch, mean, stats = result
            fails = checks.ensemble_mean(mean, batch.final_states, reference)
            fails += checks.density_batch(batch.final_states, "qutrit ensemble")
            fails += checks.unit_interval(
                checks.batch_fidelities(batch.final_states, op.target), "ensemble fidelities"
            )
            if stats.n_records != n or stats.n_failures != int(np.sum(batch.repetitions == 0)):
                fails.append("repetition_stats disagrees with the batch")
            idx = np.random.default_rng(s).choice(n, size=replays, replace=False)
            single = lambda t: q.protocol.run_nonblind(  # noqa: E731
                rho0, op, steps, noise, seed=s, trajectory_index=t, early_stop=False
            )
            return fails + checks.replay(batch, single, idx, op.target)

        return Op("trajectory", run, check, trajectories=n)

    return make


# ---------------------------------------------------------------------------
# command operations


def _command_ops(q, seed: int, out: Path):
    """The README's short commands; ``make(r)`` gives round ``r``."""
    noise_all = _write_noise(out / "noise_all.json", NOISE_ALL)
    plus = _operator(q, "+", README_J)
    qutrit = _operator(q, "qutrit-equal", README_J)
    circ_qubit = _operator(q, "+", README_J)
    circ_qutrit = _operator(q, "qutrit-equal", 0.5)
    steer_noisy_want = checks.fidelities(
        checks.blind_states(plus.unitary, _mixed(2), 40, NOISE_ALL), plus.target
    )
    sweep_refs = {}
    for label in SWEEP_TARGETS:
        for j in SWEEP_JS:
            if label == "+":
                sweep_refs[(label, float(j))] = checks.plus_blind_fidelities(float(j), 30)
            else:
                o = _operator(q, label, float(j))
                states = checks.blind_states(o.unitary, _mixed(2), 30)
                sweep_refs[(label, float(j))] = checks.fidelities(states, o.target)
    tomo_want = {
        2: checks.fidelities(checks.blind_states(plus.unitary, _mixed(2), 10), plus.target),
        3: checks.fidelities(checks.blind_states(qutrit.unitary, _mixed(3), 10), qutrit.target),
    }

    def circuit_check(d: Path, o, qubit: bool):
        payload = _read_json(d / "verify.json")
        circ = q.circuits.parse_text((d / "circuit.txt").read_text())
        return checks.circuit_payload(payload, q.circuits.evaluate_circuit(circ), o.unitary, qubit)

    specs = {
        "steer_blind": (
            lambda r: ["steer", "--target", "+", "--J", HALF_PI, "--N", "1", "--mode", "blind"],
            lambda d: checks.record_fidelities(
                _read_json(d / "records.json"),
                checks.plus_blind_fidelities(float(HALF_PI), 1),
                checks.ANALYTIC_TOL,
                "steer blind",
            ),
        ),
        "steer_blind_noisy": (
            lambda r: ["steer", "--target", "+", "--J", str(README_J), "--N", "40",
                       "--mode", "blind", "--noise", noise_all],
            lambda d: checks.record_fidelities(
                _read_json(d / "records.json"), steer_noisy_want, checks.ANALYTIC_TOL,
                "steer blind noisy",
            ),
        ),
        "sweep": (
            lambda r: ["sweep", "--targets", ",".join(SWEEP_TARGETS), "--Js", ",".join(SWEEP_JS),
                       "--N", "30"],
            lambda d: checks.sweep_rows(_read_json(d / "sweep.json"), sweep_refs,
                                        len(SWEEP_TARGETS)),
        ),
        "kak": (
            lambda r: ["kak", "--target", "+", "--J", "0.3"],
            lambda d: checks.kak_payload(_read_json(d / "kak.json"), 0.3),
        ),
        "circuit_qubit": (
            lambda r: ["circuit", "--target", "+", "--J", str(README_J)],
            lambda d: circuit_check(d, circ_qubit, True),
        ),
        "circuit_qutrit": (
            lambda r: ["circuit", "--target", "qutrit-equal", "--J", "0.5"],
            lambda d: circuit_check(d, circ_qutrit, False),
        ),
        "tomo_qubit": (
            lambda r: ["tomo", "--target", "+", "--J", str(README_J), "--N", "10",
                       "--shots", TOMO_SHOTS, "--seed", str(derive(seed, "tomo_qubit", r))],
            lambda d: checks.tomo_payload(_read_json(d / "tomo.json"), tomo_want[2]),
        ),
        "tomo_qutrit": (
            lambda r: ["tomo", "--target", "qutrit-equal", "--J", str(README_J), "--N", "10",
                       "--shots", TOMO_SHOTS, "--seed", str(derive(seed, "tomo_qutrit", r))],
            lambda d: checks.tomo_payload(_read_json(d / "tomo.json"), tomo_want[3]),
        ),
        "qpt": (
            lambda r: ["qpt", "--target", "+", "--J", HALF_PI, "--shots", "inf"],
            lambda d: checks.qpt_payload(_read_json(d / "qpt.json")),
        ),
    }
    assert tuple(specs) == COMMAND_KINDS

    def make(r: int) -> list[Op]:
        ops = []
        for kind, (argv_of, check_dir) in specs.items():
            d = out / kind
            argv = argv_of(r) + ["--out", str(d)]
            ops.append(
                Op(kind, lambda argv=argv: invoke(q, argv),
                   lambda _, d=d, check_dir=check_dir: check_dir(d), out_dir=d)
            )
        return ops

    return make


def _noise_gap(q, out: Path) -> Callable[[], dict]:
    """|exact fidelity of tomo - fidelity of blind steer| after N=3 cycles
    under one noise file with reset infidelity.  Nonzero while ``tomo``
    skips the reset-infidelity Kraus terms; recorded, not gated."""
    noise = _write_noise(out / "noise_reset.json", NOISE_RESET)

    def measure() -> dict:
        d = out / "noise_gap"
        common = ["--target", "+", "--J", HALF_PI, "--N", "3", "--noise", noise, "--out", str(d)]
        invoke(q, ["tomo", *common, "--shots", "inf"])
        tomo = _read_json(d / "tomo.json")["fidelities"][-1]["exact"]
        invoke(q, ["steer", *common, "--mode", "blind"])
        steer = _read_json(d / "records.json")["records"][0]["fidelities"][-1]
        return {"cli.tomo_vs_steer_noisy_gap": abs(tomo - steer)}

    return measure


def build(name: str, q, seed: int, out: Path) -> Workload:
    """Inputs, operators, noise configs, initial states and references."""
    out.mkdir(parents=True, exist_ok=True)
    batches: list = []
    if name == "readme_nonblind":
        traj = _nonblind_cli_ops(q, seed, out, 100_000, 100, batches)
    elif name == "noisy_qutrit_ensemble":
        traj = _qutrit_ensemble_ops(q, seed, 25_000, 50, batches)
    else:
        raise KeyError(name)
    return Workload(
        name=name,
        shape=SHAPES[name],
        trajectory_op=traj,
        command_ops=_command_ops(q, seed, out),
        diagnostics=_noise_gap(q, out),
        batches=batches,
    )


def step_counts(batches) -> dict[str, int]:
    """Steps with a recorded outcome, against trajectories x loop iterations."""
    steps = slots = 0
    for b in batches:
        per_traj = (b.recorded_outcomes >= 0).sum(axis=1)
        steps += int(per_traj.sum())
        slots += int(b.n_trajectories * per_traj.max())
    return {"protocol.trajectory_steps": steps, "protocol.step_slots": slots}


def dir_bytes(d: Path | None) -> int:
    if d is None or not d.is_dir():
        return 0
    return sum(p.stat().st_size for p in d.iterdir() if p.is_file())

