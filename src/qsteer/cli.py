"""Command-line surface: steering runs, sweeps, KAK analysis, circuit
emission, and tomography, with CSV/JSON result persistence.

Conventions: all angles in radians; CSV files are RFC-4180 with a header row
and floats at 17 significant digits; JSON files are single documents with
sorted keys so identical seeds reproduce byte-identical outputs.  Exit codes:
0 success, 2 usage or configuration error, 3 numerical failure.  Errors,
click's usage errors included, print one machine-readable JSON object to
stderr.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import ConfigError, DimensionMismatchError, NumericalError, QsteerError
from .circuits import (CNOT, emit_text, evaluate_circuit, parse_text, steering_kak,
                       synth_kak_circuit, synth_qutrit_circuit)
from .geometry import kak_decompose, reassembly_distance, same_weyl_point
from .linalg import kron
from .protocol import (
    NO_NOISE,
    NoiseConfig,
    _check_run_bytes,
    _check_seed,
    _maximally_mixed,
    repetition_law,
    repetition_stats,
    run_blind,
    run_nonblind_batch,
    sweep,
)
from .states import CATALOG, QubitTarget, QutritTarget, fidelity
from .steering import TargetSpec, make_steering_operator
from .tomography import (
    average_gate_fidelity,
    process_tomography,
    ptm_of_unitary,
    tomo_qubit_state,
    tomo_qutrit_state,
)


def _overwrite(path: Path, text: str, newline: str | None = None) -> None:
    """Writes the rendered ``text`` over ``path`` in place, then cuts off the
    tail of a longer old file.  A render that raises never gets here, so the
    old file stays as it was; and on ext4 a file truncated to zero is flushed
    on close (``auto_da_alloc``), which every rerun would otherwise pay."""
    with open(path, "w", newline=newline,
              opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        fh.write(text)
        fh.truncate()


def write_csv(path: Path, header: list[str], rows: list[list] | np.ndarray) -> None:
    """Writes the header and rows, each float at 17 significant digits; a 2-D
    float64 array in one format over its flat cells, as no float needs quoting."""
    buf = io.StringIO()
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        csv.writer(buf).writerow(header)
        line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
        buf.write((line * len(rows)) % tuple(rows.ravel().tolist()))
    else:
        cells = ([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)
        csv.writer(buf).writerows([header, *cells])
    _overwrite(path, buf.getvalue(), newline="")


def write_json(path: Path, payload) -> None:
    """Writes ``json.dumps(payload, sort_keys=True, indent=2)`` and a newline."""
    _overwrite(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def parse_target(text: str) -> tuple[str, QubitTarget | QutritTarget]:
    """Catalog label (0, 1, +, -, i, -i, qutrit-equal) or explicit angles
    (qubit:theta,phi or qutrit:xi,theta,phi01,phi02)."""
    text = text.strip()
    target = CATALOG.get(text)
    if target is not None:
        return text, target
    if ":" in text:
        kind, _, args = text.partition(":")
        try:
            vals = [float(v) for v in args.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad angle list in target {text!r}") from exc
        if len(vals) == _ANGLE_COUNTS.get(kind):
            return text, (QubitTarget if kind == "qubit" else QutritTarget)(*vals)
    raise ConfigError(
        f"unknown target {text!r}; use a catalog label, qubit:theta,phi "
        "or qutrit:xi,theta,phi01,phi02"
    )


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of ``path``; a file that cannot be read or decoded is a
    ConfigError naming ``what``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc


def _json_numbers(value) -> bool:
    """True for a JSON number (not a boolean) or a nested list of them."""
    if isinstance(value, list):
        return all(_json_numbers(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_noise(path: str | None) -> NoiseConfig:
    """The noise file's JSON object as a NoiseConfig; every value must be a
    JSON number, or a matrix of numbers for ``readout_confusion`` (which may
    also be null)."""
    if path is None:
        return NO_NOISE
    try:
        raw = json.loads(_read_text(path, "noise file"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"noise file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("noise file must hold a JSON object")
    unknown = set(raw) - set(NoiseConfig._fields)
    if unknown:
        raise ConfigError(f"unknown noise keys: {sorted(unknown)}")
    for key, value in raw.items():
        if not (_json_numbers(value) or key == "readout_confusion" and value is None):
            raise ConfigError(f"noise value {key}={json.dumps(value)} is not made of JSON numbers")
    try:
        return NoiseConfig(**raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad noise value: {exc}") from exc


def _noise_echo(noise: NoiseConfig) -> dict:
    confusion = noise.readout_confusion
    return {**noise._asdict(), "readout_confusion": None if confusion is None else confusion.tolist()}


def _die(code: int, kind: str, message: str) -> None:
    print(json.dumps({"error": {"kind": kind, "message": message}}), file=sys.stderr)
    raise SystemExit(code)


@contextmanager
def _errors_as_json():
    """The one error path: exit 2 for a usage or configuration error, 3 for
    any other library error, each with one JSON line on stderr."""
    try:
        yield
    except click.exceptions.NoArgsIsHelpError:
        raise  # a bare `qsteer` prints the help
    except click.ClickException as exc:
        _die(2, "config", exc.format_message())
    except ConfigError as exc:
        _die(2, "config", str(exc))
    except QsteerError as exc:
        _die(3, "numerical", str(exc))


class _Qsteer(click.Group):
    """Sends errors in the group's own options and in resolving, parsing or
    running a command through :func:`_errors_as_json`, and times each
    command."""

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        with _errors_as_json():
            return super().parse_args(ctx, args)

    def invoke(self, ctx: click.Context) -> None:
        t0 = time.monotonic()
        with _errors_as_json():
            super().invoke(ctx)
        print(f"done in {time.monotonic() - t0:.2f}s", file=sys.stderr)


@click.group(cls=_Qsteer)
@click.version_option(version=__version__)
def main() -> None:
    """Measurement-induced steering simulator."""


_target_opt = click.option("--target", "target_text", required=True, help="target state")
_j_opt = click.option("--J", "coupling", type=float, required=True, help="coupling strength (radians)")
_steps_opt = click.option(
    "--N", "steps", type=click.IntRange(min=1), default=10, show_default=True, help="protocol cycles"
)
_seed_opt = click.option("--seed", type=int, default=0, show_default=True)
_noise_opt = click.option("--noise", "noise_path", default=None)
_out_opt = click.option(
    "--out", "out_dir", type=click.Path(file_okay=False), default=".", show_default=True
)


# numpy's multinomial draw takes a signed 64-bit count
_MAX_SHOTS = 2**63 - 1


def _parse_shots(text: str) -> int | None:
    """--shots: 'inf' (exact expectations, None) or an integer in
    [1, 2^63 - 1]."""
    if text == "inf":
        return None
    # the digit count is checked first: int() refuses strings of over 4300 digits
    short = text.isdecimal() and len(text.lstrip("0")) <= len(str(_MAX_SHOTS))
    if not (short and 1 <= int(text) <= _MAX_SHOTS):
        raise ConfigError(f"--shots must be 'inf' or an integer in [1, {_MAX_SHOTS}], got {text!r}")
    return int(text)


def _operator(target_text: str, coupling: float):
    """(spec, steering operator) for a --target and --J pair."""
    label, target = parse_target(target_text)
    spec = TargetSpec(target, coupling, label)
    return spec, make_steering_operator(spec)


def _write(out_dir: str, json_name: str, config: dict, results: dict,
           tables: dict | None = None) -> Path:
    """Write each ``{file: (header, rows)}`` table as CSV, and ``json_name``
    with the config, tool version and results.  Returns the output
    directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in (tables or {}).items():
        write_csv(out / name, header, rows)
    write_json(out / json_name, {"config": config, "tool_version": __version__, **results})
    return out


@main.command()
@_target_opt
@_j_opt
@_steps_opt
@click.option("--mode", type=click.Choice(["blind", "nonblind"]), default="blind", show_default=True)
@click.option("--trajectories", type=click.IntRange(min=1), default=1000, show_default=True)
@_noise_opt
@_seed_opt
@_out_opt
def steer(target_text, coupling, steps, mode, trajectories, noise_path, seed, out_dir):
    """Run the steering protocol and write fidelity_vs_n.csv + records.json."""
    _check_seed(seed)
    spec, op = _operator(target_text, coupling)
    label = spec.label
    noise = load_noise(noise_path)
    rho0 = _maximally_mixed(op.system_dim)
    config = {
        "command": "steer",
        "target": label,
        "coupling": coupling,
        "steps": steps,
        "mode": mode,
        "trajectories": trajectories if mode == "nonblind" else None,
        "noise": _noise_echo(noise),
        "seed": seed,
        "initial_state": "maximally-mixed",
    }
    fid_header = ["target", "J", "n", "mean_fid", "std"]
    if mode == "blind":
        fids = run_blind(rho0, op, steps, noise)[0].tolist()
        fid_rows = [[label, coupling, n, f, 0.0] for n, f in enumerate(fids)]
        tables = {"fidelity_vs_n.csv": (fid_header, fid_rows)}
        record = {"seed": None, "mode": "blind", "trajectory_index": 0, "fidelities": fids,
                  "outcomes": None, "repetitions_to_success": None, "coupling": coupling,
                  "target": label}
        results = {"records": [record]}
    else:
        batch = run_nonblind_batch(rho0, op, steps, trajectories, noise, seed=seed)
        stats = repetition_stats(batch)
        fids = fidelity(batch.final_states, op.target)
        mean_fid, std_fid = float(fids.mean()), float(fids.std())
        # the exact law of the first recorded 1, conditioned on a flag within N
        pmf, failure = repetition_law(rho0, op, steps, noise)
        flagged = float(pmf.sum())
        exact_pmf = pmf / flagged if flagged else pmf
        total = sum(stats.counts.values())
        cdf_map = dict(stats.cdf)
        hist_rows = [[value, count, count / total, cdf_map[value], float(exact_pmf[value - 1])]
                     for value, count in sorted(stats.counts.items())]
        tables = {
            "fidelity_vs_n.csv": (fid_header, [[label, coupling, steps, mean_fid, std_fid]]),
            "repetitions_hist.csv": (["repetitions", "count", "frequency", "cdf", "exact_pmf"],
                                     hist_rows),
        }
        results = {
            "records": {
                "final_fidelity_mean": mean_fid,
                "final_fidelity_std": std_fid,
                "repetitions": {
                    "mean": stats.mean_repetitions,
                    "failures": stats.n_failures,
                    "n_trajectories": stats.n_records,
                    "counts": {str(k): v for k, v in sorted(stats.counts.items())},
                    "exact_failure_probability": failure,
                    "exact_mean": float(np.arange(1, steps + 1) @ exact_pmf) if flagged else None,
                },
            }
        }
    _write(out_dir, "records.json", config, results, tables)


# sweep.csv's columns, and the one place that knows their order.  A row is
# its label's CSV text, then its _CSV_TAIL; "target" sorts last, so a
# sweep.json row is its _JSON_TAIL, then its label's JSON text.  Each tail is
# filled from one tuple per row: its cells' texts in SWEEP_HEADER's order for
# _CSV_TAIL, in _JSON_KEYS' order for _JSON_TAIL.
SWEEP_HEADER = ["target", "J", "n", "mean_fid", "std", "stabilizer_avg"]
_JSON_KEYS = sorted(SWEEP_HEADER)[:-1]
_CSV_TAIL = ",%s" * (len(SWEEP_HEADER) - 1) + "\r\n"
_JSON_TAIL = "    {" + "".join(f'\n      "{k}": %s,' for k in _JSON_KEYS) + '\n      "target": '
_ANGLE_COUNTS = {"qubit": 2, "qutrit": 4}  # angles of a qubit: or qutrit: target


def _split_targets(text: str) -> list[str]:
    """Splits a comma-separated target list; a qubit:/qutrit: token takes
    its following 2 or 4 comma-separated numbers along."""
    parts = text.split(",")
    tokens = []
    while parts:
        kind, colon, _ = parts[0].strip().partition(":")
        take = _ANGLE_COUNTS.get(kind, 1) if colon else 1
        tokens.append(",".join(parts[:take]))
        del parts[:take]
    return [t for t in tokens if t.strip()]


def write_sweep(labels: list[str], couplings, fids: np.ndarray, average: np.ndarray,
                csv_path: Path, json_path: Path, config: dict) -> None:
    """Writes the grid of :func:`sweep`, one row per (target, J, n) with a std
    of 0, to ``csv_path`` as write_csv does with SWEEP_HEADER, and the config,
    tool version and rows to ``json_path`` as write_json does, byte for byte;
    a NaN average is written as None.  Each label is rendered once per
    target, and each curve once per coupling."""
    couplings, fids, average = (np.asarray(a, dtype=float) for a in (couplings, fids, average))
    if fids.shape[:2] != (len(labels), couplings.size) or average.shape != fids.shape:
        raise DimensionMismatchError("the sweep arrays do not match the labels and couplings")
    if not (np.isfinite(couplings).all() and np.isfinite(fids).all()) or np.isinf(average).any():
        raise NumericalError("the sweep grid has non-finite fidelities, couplings or averages")
    tails = {}  # (J index, curve bits, average bits) -> its rows' CSV and JSON tails
    csv_parts, json_parts = [",".join(SWEEP_HEADER) + "\r\n"], []
    n_rows = fids.shape[2]  # rows per (target, J) cell
    ns = [str(n) for n in range(n_rows)]  # an int as "%.17g" and repr write it
    for label, curves, averages in zip(labels, fids, average):
        buf = io.StringIO()  # as csv quotes one field of several; as JSON, closing the row
        csv.writer(buf).writerow([label, ""])
        csv_label, json_label = buf.getvalue()[:-3], json.dumps(label) + "\n    },\n"
        for j, (coupling, curve, avg) in enumerate(zip(couplings.tolist(), curves, averages)):
            key = j, curve.tobytes(), avg.tobytes()  # bits: 0.0 == -0.0 prints apart from it
            if key not in tails:  # json.dumps writes a finite float as float.__repr__ does
                f, a = curve.tolist(), avg.tolist()
                columns = {  # column -> its rows' CSV texts and JSON texts
                    "J": (["%.17g" % coupling] * n_rows, [repr(coupling)] * n_rows),
                    "n": (ns, ns),
                    "mean_fid": (["%.17g" % v for v in f], list(map(repr, f))),
                    "std": (["%.17g" % 0.0] * n_rows, [repr(0.0)] * n_rows),
                    "stabilizer_avg": (["" if math.isnan(v) else "%.17g" % v for v in a],
                                       ["null" if math.isnan(v) else repr(v) for v in a]),
                }
                tails[key] = (
                    [_CSV_TAIL % row for row in zip(*(columns[k][0] for k in SWEEP_HEADER[1:]))],
                    [_JSON_TAIL % row for row in zip(*(columns[k][1] for k in _JSON_KEYS))],
                )
            csv_tails, json_tails = tails[key]
            csv_parts.append(csv_label + csv_label.join(csv_tails))
            json_parts.append(json_label.join(json_tails) + json_label)
    _overwrite(csv_path, "".join(csv_parts), newline="")
    doc = json.dumps({"config": config, "rows": [], "tool_version": __version__},
                     sort_keys=True, indent=2)
    if json_parts:  # the top-level "rows" is the only one at an indent of two
        items = "".join(json_parts)[:-2]
        doc = doc.replace('\n  "rows": []', '\n  "rows": [\n' + items + "\n  ]", 1)
    _overwrite(json_path, doc + "\n")


@main.command("sweep")
@click.option(
    "--targets",
    "targets_text",
    default="0,1,+,-,i,-i",
    show_default=True,
    help="comma-separated target labels or explicit angles",
)
@click.option("--Js", "js_text", required=True, help="comma-separated couplings (radians)")
@_steps_opt
@_noise_opt
@_out_opt
def sweep_cmd(targets_text, js_text, steps, noise_path, out_dir):
    """Fidelity grid over targets x couplings x steps (blind runs)."""
    targets = [parse_target(t) for t in _split_targets(targets_text)]
    try:
        js = [float(v) for v in js_text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --Js list: {exc}") from exc
    noise = load_noise(noise_path)
    fids, average = sweep(targets, js, steps, noise)
    labels = [t[0] for t in targets]
    config = {
        "command": "sweep",
        "targets": labels,
        "couplings": js,
        "steps": steps,
        "noise": _noise_echo(noise),
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep(labels, js, fids, average, out / "sweep.csv", out / "sweep.json", config)


def _matrix_payload(m: np.ndarray) -> list[list[list[float]]]:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


# Canonical Weyl coordinates of CNOT and of CPHASE(pi) (= CZ).
_CNOT_POINT = (math.pi / 2, 0.0, 0.0)


@main.command()
@click.option("--target", "target_text", default=None, help="target state (with --J)")
@click.option("--J", "coupling", type=float, default=None)
@click.option("--circuit", "circuit_path", type=click.Path(exists=False), default=None)
@_out_opt
def kak(target_text, coupling, circuit_path, out_dir):
    """KAK of a steering operator (read off its frame) or of a circuit file
    (decomposed); write kak.json."""
    if circuit_path is not None:
        if target_text is not None or coupling is not None:
            raise ConfigError("pass either --circuit or both --target and --J, not both")
        circuit = parse_text(_read_text(circuit_path, "circuit file"))
        if circuit.wire_dims != (2, 2):
            raise ConfigError("kak needs a two-qubit circuit")
        u = evaluate_circuit(circuit)
        dec = kak_decompose(u)
        source = {"circuit": Path(circuit_path).name}
    elif target_text is not None and coupling is not None:
        spec, op = _operator(target_text, coupling)
        if not isinstance(spec.target, QubitTarget):
            raise ConfigError("kak applies to qubit steering operators")
        u = op.unitary
        dec = steering_kak(spec, op)
        source = {"target": spec.label, "coupling": coupling}
    else:
        raise ConfigError("pass either --circuit or both --target and --J")
    on_cnot = same_weyl_point(dec.c, _CNOT_POINT)  # CNOT and CZ share the point
    results = {
        "weyl_coordinates": [float(v) for v in dec.c],
        "global_phase": dec.global_phase,
        "k1_local": [_matrix_payload(m) for m in dec.k1_local],
        "k2_local": [_matrix_payload(m) for m in dec.k2_local],
        "reassembly_distance": reassembly_distance(u, dec),
        "locally_equivalent_cnot": on_cnot,
        "locally_equivalent_cphase": on_cnot,
    }
    _write(out_dir, "kak.json", {"command": "kak", **source}, results)


@main.command()
@_target_opt
@_j_opt
@_out_opt
def circuit(target_text, coupling, out_dir):
    """Synthesize the steering circuit; write circuit.txt + verify.json."""
    spec, op = _operator(target_text, coupling)
    synth = synth_kak_circuit if op.system_dim == 2 else synth_qutrit_circuit
    circ, distance = synth(op)
    results = {
        "phase_invariant_distance": distance,
        "gate_count": len(circ.gates),
        "cnot_count": circ.count(CNOT),
    }
    config = {"command": "circuit", "target": spec.label, "coupling": coupling}
    out = _write(out_dir, "verify.json", config, results)
    _overwrite(out / "circuit.txt", emit_text(circ))


@main.command()
@_target_opt
@_j_opt
@_steps_opt
@click.option("--shots", default="inf", show_default=True, help="shots per observable, or 'inf'")
@_noise_opt
@_seed_opt
@_out_opt
def tomo(target_text, coupling, steps, shots, noise_path, seed, out_dir):
    """Blind run with state tomography at each step; exact vs reconstructed."""
    n_shots = _parse_shots(shots)
    _check_seed(seed)
    spec, op = _operator(target_text, coupling)
    label = spec.label
    noise = load_noise(noise_path)
    d = op.system_dim
    # reconstructions, rows and JSON text: up to about 1.5 KB a step under
    # tracemalloc, counted twice
    _check_run_bytes(3072 * (steps + 1))
    fids, states = run_blind(_maximally_mixed(d), op, steps, noise)
    reconstruct = tomo_qubit_state if d == 2 else tomo_qutrit_state
    recs = reconstruct(states, shots=n_shots, seed=seed)
    pairs = zip(fids.tolist(), fidelity(recs, op.target).tolist())
    rows = [[label, coupling, n, exact, rec] for n, (exact, rec) in enumerate(pairs)]
    config = {
        "command": "tomo",
        "target": label,
        "coupling": coupling,
        "steps": steps,
        "shots": shots,
        "noise": _noise_echo(noise),
        "seed": seed,
    }
    results = {
        "fidelities": [{"n": int(r[2]), "exact": r[3], "reconstructed": r[4]} for r in rows],
        "estimator": "linear-inversion+eigenvalue-truncation",
    }
    header = ["target", "J", "n", "exact_fid", "reconstructed_fid"]
    _write(out_dir, "tomo.json", config, results, {"tomo_fidelities.csv": (header, rows)})


@main.command()
@_target_opt
@_j_opt
@click.option("--shots", default="inf", show_default=True, help="shots per setting, or 'inf'")
@_seed_opt
@_out_opt
def qpt(target_text, coupling, shots, seed, out_dir):
    """Process tomography of the two-qubit steering unitary channel."""
    spec, op = _operator(target_text, coupling)
    if not isinstance(spec.target, QubitTarget):
        raise ConfigError("qpt applies to qubit steering operators")
    n_shots = _parse_shots(shots)
    _check_seed(seed)
    rec = process_tomography(kron(op.unitary, op.unitary.conj()), shots=n_shots, seed=seed)
    ideal = ptm_of_unitary(op.unitary)
    dev = np.abs(rec @ np.linalg.inv(ideal) - np.eye(len(rec)))
    config = {"command": "qpt", "target": spec.label, "coupling": coupling, "shots": shots,
              "seed": seed}
    results = {
        "average_gate_fidelity": average_gate_fidelity(rec, ideal),
        "max_abs_r_minus_i": float(dev.max()),
        "estimator": "linear-inversion+cptp-projection",
    }
    columns = [f"c{j}" for j in range(rec.shape[1])]
    tables = {"ptm.csv": (columns, rec), "r_minus_i.csv": (columns, dev)}
    _write(out_dir, "qpt.json", config, results, tables)


if __name__ == "__main__":
    main()
