"""Command-line surface: steering runs, sweeps, KAK analysis, circuit
emission, and tomography, with CSV/JSON result persistence.

Conventions: all angles in radians; CSV files are RFC-4180 with a header row
and floats at 17 significant digits; JSON files are single documents with
sorted keys so identical seeds reproduce byte-identical outputs.  Exit codes:
0 success, 2 configuration error, 3 numerical failure.  Errors print one
machine-readable JSON object to stderr.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import ConfigError, QsteerError
from .circuits import emit_text, evaluate_circuit, parse_text, synth_kak_circuit, synth_qutrit_circuit, CNOT
from .geometry import CNOT_GATE, cphase_gate, kak_decompose, locally_equivalent, weyl_coordinates
from .linalg import phase_invariant_distance
from .protocol import (
    NO_NOISE,
    NoiseConfig,
    RunRecord,
    _blind_states,
    _check_seed,
    repetition_stats,
    run_blind,
    run_nonblind_batch,
    sweep,
)
from .states import (
    DensityState,
    QubitTarget,
    QutritTarget,
    QUTRIT_EQUAL_LABEL,
    QUTRIT_EQUAL_TARGET,
    fidelity,
    stabilizer_catalog,
)
from .steering import KrausSet, TargetSpec, make_steering_operator
from .tomography import (
    average_gate_fidelity,
    compose_ptm,
    invert_ptm,
    process_tomography,
    ptm_of_unitary,
    tomo_qubit_state,
    tomo_qutrit_state,
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def parse_target(text: str) -> tuple[str, QubitTarget | QutritTarget]:
    """Catalog label (0, 1, +, -, i, -i, qutrit-equal) or explicit angles
    (qubit:theta,phi or qutrit:xi,theta,phi01,phi02)."""
    text = text.strip()
    for entry in stabilizer_catalog():
        if text == entry.label:
            return entry.label, entry.target
    if text == QUTRIT_EQUAL_LABEL:
        return QUTRIT_EQUAL_LABEL, QUTRIT_EQUAL_TARGET
    if ":" in text:
        kind, _, args = text.partition(":")
        try:
            vals = [float(v) for v in args.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad angle list in target {text!r}") from exc
        if kind == "qubit" and len(vals) == 2:
            return text, QubitTarget(*vals)
        if kind == "qutrit" and len(vals) == 4:
            return text, QutritTarget(*vals)
    raise ConfigError(
        f"unknown target {text!r}; use a catalog label, qubit:theta,phi "
        "or qutrit:xi,theta,phi01,phi02"
    )


def load_noise(path: str | None) -> NoiseConfig:
    if path is None:
        return NO_NOISE
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read noise file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"noise file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("noise file must hold a JSON object")
    allowed = {
        "depolarizing_p",
        "amplitude_damping_gamma",
        "readout_confusion",
        "reset_infidelity",
    }
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown noise keys: {sorted(unknown)}")
    kwargs = dict(raw)
    if "readout_confusion" in kwargs and kwargs["readout_confusion"] is not None:
        kwargs["readout_confusion"] = np.asarray(kwargs["readout_confusion"], dtype=float)
    return NoiseConfig(**kwargs)


def _noise_echo(noise: NoiseConfig) -> dict:
    return {
        "depolarizing_p": noise.depolarizing_p,
        "amplitude_damping_gamma": noise.amplitude_damping_gamma,
        "reset_infidelity": noise.reset_infidelity,
        "readout_confusion": None
        if noise.readout_confusion is None
        else [[float(v) for v in row] for row in noise.readout_confusion],
    }


def _record_payload(rec: RunRecord) -> dict:
    return {
        "seed": rec.seed,
        "mode": rec.mode,
        "trajectory_index": rec.trajectory_index,
        "fidelities": list(rec.fidelities),
        "outcomes": None if rec.outcomes is None else list(rec.outcomes),
        "repetitions_to_success": rec.repetitions_to_success,
        "coupling": rec.coupling,
        "target": rec.target_label,
    }


def _die(code: int, kind: str, message: str) -> None:
    print(json.dumps({"error": {"kind": kind, "message": message}}), file=sys.stderr)
    raise SystemExit(code)


def _guard(fn):
    def wrapper(*args, **kwargs):
        t0 = time.monotonic()
        try:
            fn(*args, **kwargs)
        except (ConfigError, click.ClickException) as exc:
            _die(2, "config", str(exc))
        except QsteerError as exc:
            _die(3, "numerical", str(exc))
        print(f"done in {time.monotonic() - t0:.2f}s", file=sys.stderr)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Measurement-induced steering simulator."""


_target_opt = click.option("--target", "target_text", required=True, help="target state")
_j_opt = click.option("--J", "coupling", type=float, required=True, help="coupling strength (radians)")
_seed_opt = click.option("--seed", type=int, default=0, show_default=True)
_out_opt = click.option(
    "--out", "out_dir", type=click.Path(file_okay=False), default=".", show_default=True
)
_format_opt = click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json", "both"]),
    default="both",
    show_default=True,
    help="which result files to write",
)


def _parse_shots(text: str) -> int | None:
    """--shots: 'inf' (exact expectations, None) or an integer >= 1."""
    if text == "inf":
        return None
    if not text.isdecimal() or int(text) < 1:
        raise ConfigError(f"--shots must be 'inf' or an integer >= 1, got {text!r}")
    return int(text)


def _outdir(out_dir: str) -> Path:
    p = Path(out_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _base_payload(config: dict) -> dict:
    return {"config": config, "tool_version": __version__}


@main.command()
@_target_opt
@_j_opt
@click.option("--N", "steps", type=int, default=10, show_default=True, help="protocol cycles")
@click.option("--mode", type=click.Choice(["blind", "nonblind"]), default="blind", show_default=True)
@click.option("--trajectories", type=int, default=1000, show_default=True)
@click.option("--max-steps", "max_steps", type=int, default=None, help="nonblind cycle budget (defaults to N)")
@click.option("--noise", "noise_path", type=click.Path(exists=False), default=None)
@_seed_opt
@_out_opt
@_format_opt
@_guard
def steer(target_text, coupling, steps, mode, trajectories, max_steps, noise_path, seed, out_dir, fmt):
    """Run the steering protocol and write fidelity_vs_n.csv + records.json."""
    if steps < 1:
        raise ConfigError("--N must be >= 1")
    _check_seed(seed)
    label, target = parse_target(target_text)
    noise = load_noise(noise_path)
    op = make_steering_operator(TargetSpec(target, coupling, label))
    d = op.system_dim
    rho0 = DensityState(matrix=np.eye(d, dtype=complex) / d, dims=(d,))
    out = _outdir(out_dir)
    config = {
        "command": "steer",
        "target": label,
        "coupling": coupling,
        "steps": steps,
        "mode": mode,
        "trajectories": trajectories if mode == "nonblind" else None,
        "max_steps": max_steps,
        "noise": _noise_echo(noise),
        "seed": seed,
        "initial_state": "maximally-mixed",
    }
    payload = _base_payload(config)
    csv_on = fmt in ("csv", "both")
    json_on = fmt in ("json", "both")
    if mode == "blind":
        rec = run_blind(rho0, op, steps, noise, seed=seed)
        rows = [
            [label, coupling, n, f, 0.0]
            for n, f in enumerate(rec.fidelities)
        ]
        if csv_on:
            write_csv(out / "fidelity_vs_n.csv", ["target", "J", "n", "mean_fid", "std"], rows)
        payload["records"] = [_record_payload(rec)]
    else:
        if trajectories < 1:
            raise ConfigError("--trajectories must be >= 1")
        budget = max_steps if max_steps is not None else steps
        batch = run_nonblind_batch(rho0, op, budget, trajectories, noise, seed=seed)
        stats = repetition_stats(batch)
        fids = fidelity(batch.final_states, op.target)
        rows = [[label, coupling, budget, float(fids.mean()), float(fids.std())]]
        if csv_on:
            write_csv(out / "fidelity_vs_n.csv", ["target", "J", "n", "mean_fid", "std"], rows)
        hist_rows = []
        total = sum(stats.counts.values())
        cdf_map = dict(stats.cdf)
        for value in sorted(stats.counts):
            hist_rows.append(
                [value, stats.counts[value], stats.counts[value] / total, cdf_map[value]]
            )
        if csv_on:
            write_csv(
                out / "repetitions_hist.csv",
                ["repetitions", "count", "frequency", "cdf"],
                hist_rows,
            )
        payload["records"] = {
            "final_fidelity_mean": float(fids.mean()),
            "final_fidelity_std": float(fids.std()),
            "repetitions": {
                "mean": stats.mean_repetitions,
                "failures": stats.n_failures,
                "n_trajectories": stats.n_records,
                "counts": {str(k): v for k, v in sorted(stats.counts.items())},
            },
        }
    if json_on:
        write_json(out / "records.json", payload)


@main.command("sweep")
@click.option(
    "--targets",
    "targets_text",
    default="0,1,+,-,i,-i",
    show_default=True,
    help="comma-separated target labels",
)
@click.option("--Js", "js_text", required=True, help="comma-separated couplings (radians)")
@click.option("--N", "steps", type=int, default=10, show_default=True)
@click.option("--noise", "noise_path", default=None)
@_seed_opt
@_out_opt
@_format_opt
@_guard
def sweep_cmd(targets_text, js_text, steps, noise_path, seed, out_dir, fmt):
    """Fidelity grid over targets x couplings x steps (blind runs)."""
    targets = [parse_target(t) for t in targets_text.split(",") if t.strip()]
    try:
        js = [float(v) for v in js_text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --Js list: {exc}") from exc
    noise = load_noise(noise_path)
    rows = sweep(targets, js, steps, noise)
    out = _outdir(out_dir)
    csv_rows = [
        [r.target_label, r.coupling, r.step, r.mean_fidelity, r.std_fidelity,
         "" if r.stabilizer_average is None else r.stabilizer_average]
        for r in rows
    ]
    if fmt in ("csv", "both"):
        write_csv(
            out / "sweep.csv",
            ["target", "J", "n", "mean_fid", "std", "stabilizer_avg"],
            csv_rows,
        )
    payload = _base_payload(
        {
            "command": "sweep",
            "targets": [t[0] for t in targets],
            "couplings": js,
            "steps": steps,
            "noise": _noise_echo(noise),
            "seed": seed,
        }
    )
    payload["rows"] = [
        {
            "target": r.target_label,
            "J": r.coupling,
            "n": r.step,
            "mean_fid": r.mean_fidelity,
            "std": r.std_fidelity,
            "stabilizer_avg": r.stabilizer_average,
        }
        for r in rows
    ]
    if fmt in ("json", "both"):
        write_json(out / "sweep.json", payload)


def _matrix_payload(m: np.ndarray) -> list[list[list[float]]]:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


@main.command()
@click.option("--target", "target_text", default=None, help="target state (with --J)")
@click.option("--J", "coupling", type=float, default=None)
@click.option("--circuit", "circuit_path", type=click.Path(exists=False), default=None)
@_out_opt
@_guard
def kak(target_text, coupling, circuit_path, out_dir):
    """KAK-decompose a steering operator or a circuit file; write kak.json."""
    if circuit_path is not None:
        try:
            text = Path(circuit_path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read circuit file: {exc}") from exc
        circuit = parse_text(text)
        if circuit.wire_dims != (2, 2):
            raise ConfigError("kak needs a two-qubit circuit")
        u = evaluate_circuit(circuit)
        source = {"circuit": circuit_path}
    elif target_text is not None and coupling is not None:
        label, target = parse_target(target_text)
        if not isinstance(target, QubitTarget):
            raise ConfigError("kak applies to qubit steering operators")
        op = make_steering_operator(TargetSpec(target, coupling, label))
        u = op.unitary
        source = {"target": label, "coupling": coupling}
    else:
        raise ConfigError("pass either --circuit or both --target and --J")
    dec = kak_decompose(u)
    payload = _base_payload({"command": "kak", **source})
    payload["weyl_coordinates"] = [float(v) for v in dec.c]
    payload["global_phase"] = dec.global_phase
    payload["k1_local"] = [_matrix_payload(m) for m in dec.k1_local]
    payload["k2_local"] = [_matrix_payload(m) for m in dec.k2_local]
    payload["reassembly_distance"] = phase_invariant_distance(u, dec.reassemble())
    payload["locally_equivalent_cnot"] = locally_equivalent(u, CNOT_GATE)
    payload["locally_equivalent_cphase"] = locally_equivalent(u, cphase_gate(math.pi))
    out = _outdir(out_dir)
    write_json(out / "kak.json", payload)


@main.command()
@_target_opt
@_j_opt
@_out_opt
@_guard
def circuit(target_text, coupling, out_dir):
    """Synthesize the steering circuit; write circuit.txt + verify.json."""
    label, target = parse_target(target_text)
    spec = TargetSpec(target, coupling, label)
    if isinstance(target, QubitTarget):
        circ = synth_kak_circuit(spec)
    else:
        circ = synth_qutrit_circuit(spec)
    op = make_steering_operator(spec)
    dist = phase_invariant_distance(evaluate_circuit(circ), op.unitary)
    out = _outdir(out_dir)
    (out / "circuit.txt").write_text(emit_text(circ))
    payload = _base_payload({"command": "circuit", "target": label, "coupling": coupling})
    payload["phase_invariant_distance"] = dist
    payload["gate_count"] = len(circ.gates)
    payload["cnot_count"] = circ.count(CNOT)
    write_json(out / "verify.json", payload)


@main.command()
@_target_opt
@_j_opt
@click.option("--N", "steps", type=int, default=10, show_default=True)
@click.option("--shots", default="inf", show_default=True, help="shots per observable, or 'inf'")
@click.option("--noise", "noise_path", default=None)
@_seed_opt
@_out_opt
@_format_opt
@_guard
def tomo(target_text, coupling, steps, shots, noise_path, seed, out_dir, fmt):
    """Blind run with state tomography at each step; exact vs reconstructed."""
    n_shots = _parse_shots(shots)
    _check_seed(seed)
    label, target = parse_target(target_text)
    noise = load_noise(noise_path)
    op = make_steering_operator(TargetSpec(target, coupling, label))
    d = op.system_dim
    rho0 = DensityState(matrix=np.eye(d, dtype=complex) / d, dims=(d,))
    states = _blind_states(rho0, op, steps, noise)
    exact = fidelity(states, op.target).tolist()
    reconstruct = tomo_qubit_state if d == 2 else tomo_qutrit_state
    rows = []
    for n, st in enumerate(states):
        rec = reconstruct(DensityState(matrix=st, dims=(d,)), shots=n_shots, seed=(seed << 16) + n)
        rows.append([label, coupling, n, exact[n], fidelity(rec, op.target)])
    out = _outdir(out_dir)
    if fmt in ("csv", "both"):
        write_csv(
            out / "tomo_fidelities.csv",
            ["target", "J", "n", "exact_fid", "reconstructed_fid"],
            rows,
        )
    payload = _base_payload(
        {
            "command": "tomo",
            "target": label,
            "coupling": coupling,
            "steps": steps,
            "shots": shots,
            "noise": _noise_echo(noise),
            "seed": seed,
        }
    )
    payload["fidelities"] = [
        {"n": int(r[2]), "exact": r[3], "reconstructed": r[4]} for r in rows
    ]
    payload["estimator"] = "linear-inversion+eigenvalue-truncation"
    if fmt in ("json", "both"):
        write_json(out / "tomo.json", payload)


@main.command()
@_target_opt
@_j_opt
@click.option("--shots", default="inf", show_default=True, help="shots per setting, or 'inf'")
@_seed_opt
@_out_opt
@_format_opt
@_guard
def qpt(target_text, coupling, shots, seed, out_dir, fmt):
    """Process tomography of the two-qubit steering unitary channel."""
    label, target = parse_target(target_text)
    if not isinstance(target, QubitTarget):
        raise ConfigError("qpt applies to qubit steering operators")
    n_shots = _parse_shots(shots)
    _check_seed(seed)
    op = make_steering_operator(TargetSpec(target, coupling, label))
    chan = KrausSet(operators=(op.unitary,))
    rec = process_tomography(chan, 2, shots=n_shots, seed=seed)
    ideal = ptm_of_unitary(op.unitary)
    err = compose_ptm(rec, invert_ptm(ideal))
    dev = np.abs(err.r - np.eye(err.r.shape[0]))
    out = _outdir(out_dir)
    if fmt in ("csv", "both"):
        write_csv(
            out / "ptm.csv",
            [f"c{j}" for j in range(rec.r.shape[1])],
            [list(map(float, row)) for row in rec.r],
        )
        write_csv(
            out / "r_minus_i.csv",
            [f"c{j}" for j in range(dev.shape[1])],
            [list(map(float, row)) for row in dev],
        )
    payload = _base_payload(
        {"command": "qpt", "target": label, "coupling": coupling, "shots": shots, "seed": seed}
    )
    payload["average_gate_fidelity"] = average_gate_fidelity(rec, ideal)
    payload["max_abs_r_minus_i"] = float(dev.max())
    payload["estimator"] = "linear-inversion+choi-truncation"
    if fmt in ("json", "both"):
        write_json(out / "qpt.json", payload)


if __name__ == "__main__":
    main()
