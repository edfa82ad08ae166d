"""Output checks behind the benchmark's ``failed`` count.

Every function returns a list of failure messages; an empty list means the
output passed.  The references here are written with numpy alone from the
documented physics (Kraus operators <k|U|a> of the steering unitary, reset
infidelity as a mixture of ancilla inputs, depolarizing then amplitude
damping on the system), so they do not share code with the program they
check.  Bounds are set so that a correct program fails with negligible
probability: statistical checks allow six standard deviations or more.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances the acceptance criteria use.
WEYL_TOL = 1e-8  # criterion 5
QUBIT_CIRCUIT_TOL = 1e-9  # criterion 6
QUTRIT_CIRCUIT_TOL = 1e-6  # tests/test_circuits.py, cx23 synthesis
QPT_TOL = 1e-9  # criterion 10
REASSEMBLY_TOL = 1e-9  # tests/test_geometry.py
ANALYTIC_TOL = 1e-10  # criterion 2
Z_MAX = 6.0
# Shot-noise bound on a reconstructed fidelity with 4096 shots per
# observable: its standard deviation is at most 0.008 for the qubit and
# 0.009 for the equal-superposition qutrit, so this is over ten of them.
TOMO_SHOT_TOL = 0.1


def unit_interval(values, what: str) -> list[str]:
    v = np.asarray(values, dtype=float)
    bad = ~((v >= 0.0) & (v <= 1.0))
    if np.any(bad):
        return [f"{what}: {int(bad.sum())} value(s) outside [0, 1], e.g. {v[bad][0]!r}"]
    return []


def close(got, want, tol: float, what: str) -> list[str]:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    dev = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not dev <= tol:
        return [f"{what}: deviation {dev:.3e} exceeds {tol:.1e}"]
    return []


# ---------------------------------------------------------------------------
# reference physics


def kraus_groups(unitary, system_dim: int, reset_infidelity: float = 0.0):
    """Per-outcome Kraus operators sqrt(w_a) <k|U|a> over ancilla inputs a."""
    u = np.asarray(unitary, dtype=complex).reshape(2, system_dim, 2, system_dim)
    weights = (1.0 - reset_infidelity, reset_infidelity)
    return [
        [math.sqrt(w) * u[k, :, a, :] for a, w in enumerate(weights) if w > 0.0]
        for k in range(2)
    ]


def system_noise(rho, depolarizing_p: float, damping_gamma: float):
    d = rho.shape[0]
    out = (1.0 - depolarizing_p) * rho + depolarizing_p * np.trace(rho) * np.eye(d) / d
    if damping_gamma > 0.0:
        ops = [np.diag([1.0] + [math.sqrt(1.0 - damping_gamma)] * (d - 1)).astype(complex)]
        for level in range(1, d):
            k = np.zeros((d, d), dtype=complex)
            k[level - 1, level] = math.sqrt(damping_gamma)
            ops.append(k)
        out = sum(k @ out @ k.conj().T for k in ops)
    return out


def blind_states(unitary, rho0, steps: int, noise: dict | None = None) -> list[np.ndarray]:
    """States of the averaged channel after 0..steps cycles."""
    noise = noise or {}
    d = rho0.shape[0]
    groups = kraus_groups(unitary, d, noise.get("reset_infidelity", 0.0))
    ops = [a for grp in groups for a in grp]
    states = [np.asarray(rho0, dtype=complex)]
    for _ in range(steps):
        rho = sum(a @ states[-1] @ a.conj().T for a in ops)
        rho = system_noise(
            rho, noise.get("depolarizing_p", 0.0), noise.get("amplitude_damping_gamma", 0.0)
        )
        states.append(rho)
    return states


def fidelities(states, ket) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex)
    return np.array([float((ket.conj() @ s @ ket).real) for s in states])


def plus_blind_fidelities(coupling: float, steps: int) -> np.ndarray:
    """<+|rho_n|+> from the maximally mixed start, by the closed form
    s_x(n) = 1 - cos^{2n}(J) (1 - s_x(0)) with s_x(0) = 0."""
    n = np.arange(steps + 1)
    return 0.5 * (2.0 - math.cos(coupling) ** (2 * n))


def no_success_probability(unitary, rho0, steps: int) -> float:
    """Probability that a noiseless run records no "1" in ``steps`` cycles."""
    d = rho0.shape[0]
    a0 = kraus_groups(unitary, d)[0][0]
    m = np.linalg.matrix_power(a0, steps)
    return float(np.trace(m @ rho0 @ m.conj().T).real)


# ---------------------------------------------------------------------------
# trajectory checks


def replay(batch, run_single, indices, ket) -> list[str]:
    """Trajectories replayed one at a time must record the same outcomes.

    ``run_single(i)`` returns the RunRecord of trajectory ``i``.  The seed
    contract makes the recorded outcomes bit-identical; the final fidelity
    to ``ket`` agrees to rounding.
    """
    fails = []
    final_fids = batch_fidelities(batch.final_states[list(indices)], ket)
    for i, fid in zip(indices, final_fids):
        rec = run_single(int(i))
        row = batch.recorded_outcomes[i]
        n = len(rec.outcomes)
        if tuple(int(v) for v in row[:n]) != tuple(rec.outcomes) or np.any(row[n:] != -1):
            fails.append(f"trajectory {i}: batch outcomes differ from the single replay")
            continue
        reps = rec.repetitions_to_success or 0
        if int(batch.repetitions[i]) != reps:
            fails.append(f"trajectory {i}: repetitions {batch.repetitions[i]} != {reps}")
        if not abs(fid - rec.fidelities[-1]) <= 1e-9:
            fails.append(f"trajectory {i}: final fidelity {fid} != replay {rec.fidelities[-1]}")
    return fails


def geometric_ks(repetitions) -> list[str]:
    """Criterion 8's test: successes follow the fitted geometric law.

    The bound is 2.5/sqrt(successes), about criterion 8's 0.01 at its size.
    """
    succ = np.sort(np.asarray(repetitions)[np.asarray(repetitions) > 0])
    if len(succ) == 0:
        return ["no recorded successes"]
    p_hat = 1.0 / float(np.mean(succ))
    values = np.arange(1, succ.max() + 1)
    emp = np.searchsorted(succ, values, side="right") / len(succ)
    geo = 1.0 - (1.0 - p_hat) ** values
    ks = float(np.max(np.abs(emp - geo)))
    bound = 2.5 / math.sqrt(len(succ))
    if not ks <= bound:
        return [f"repetitions: KS distance {ks:.4f} to the geometric law exceeds {bound:.4f}"]
    return []


def failure_share(n_failures: int, n: int, q: float) -> list[str]:
    """The share of runs with no recorded "1" against its exact probability."""
    sigma = math.sqrt(max(q * (1.0 - q), 1e-300) / n)
    z = abs(n_failures / n - q) / sigma
    if not z <= Z_MAX:
        return [f"failure share {n_failures / n:.5f} is {z:.1f} sigma from {q:.5f}"]
    return []


def ensemble_mean(mean, final_states, reference) -> list[str]:
    """Criterion 11's test: the trajectory mean is within Z_MAX sigma of the
    averaged channel, element by element."""
    final_states = np.asarray(final_states)
    dev = np.abs(np.asarray(mean) - reference)
    spread = final_states.std(axis=0) / math.sqrt(final_states.shape[0])
    worst = 0.0
    for dv, sp in zip(dev.ravel(), spread.ravel()):
        worst = max(worst, dv / sp if sp > 0 else (0.0 if dv <= 1e-12 else math.inf))
    if not worst <= Z_MAX:
        return [f"ensemble mean is {worst:.2f} sigma from the blind channel"]
    return []


def density_batch(states, what: str) -> list[str]:
    states = np.asarray(states)
    tr = np.einsum("nii->n", states)
    herm = np.max(np.abs(states - np.conj(np.swapaxes(states, 1, 2))))
    if not (np.max(np.abs(tr - 1.0)) <= 1e-9 and herm <= 1e-9):
        return [f"{what}: final states are not unit-trace Hermitian"]
    return []


def nonblind_records(payload, hist_rows, batch, fids) -> list[str]:
    """The CLI's records.json and repetitions_hist.csv agree with its batch."""
    fails = []
    reps = batch.repetitions
    counts = {str(int(v)): int(c) for v, c in zip(*np.unique(reps[reps > 0], return_counts=True))}
    rec = payload["records"]["repetitions"]
    if rec["counts"] != counts:
        fails.append("records.json: repetition counts differ from the batch")
    if rec["failures"] != int(np.sum(reps == 0)) or rec["n_trajectories"] != len(reps):
        fails.append("records.json: failure or trajectory count differs from the batch")
    if [int(r["repetitions"]) for r in hist_rows] != sorted(int(k) for k in counts) or [
        int(r["count"]) for r in hist_rows
    ] != [counts[k] for k in sorted(counts, key=int)]:
        fails.append("repetitions_hist.csv differs from the batch")
    mean = payload["records"]["final_fidelity_mean"]
    fails += unit_interval([mean], "final_fidelity_mean")
    fails += unit_interval(fids, "final fidelities")
    if not abs(mean - float(np.mean(fids))) <= 1e-12:
        fails.append(f"final_fidelity_mean {mean} != {float(np.mean(fids))}")
    return fails


def batch_fidelities(final_states, ket) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex)
    vals = np.einsum("i,nij,j->n", ket.conj(), final_states, ket).real
    return np.clip(vals, 0.0, 1.0)


# ---------------------------------------------------------------------------
# command checks


def record_fidelities(payload, want, tol: float, what: str) -> list[str]:
    got = payload["records"][0]["fidelities"]
    return unit_interval(got, what) + close(got, want, tol, what)


def sweep_rows(payload, refs: dict, n_targets: int) -> list[str]:
    """``refs[(label, J)]`` holds the expected fidelities for n = 0..N."""
    fails = []
    rows = payload["rows"]
    expected = sum(len(v) for v in refs.values())
    if len(rows) != expected:
        return [f"sweep: {len(rows)} rows, expected {expected}"]
    fails += unit_interval([r["mean_fid"] for r in rows], "sweep mean_fid")
    cells: dict = {}
    for r in rows:
        cells.setdefault((r["J"], r["n"]), []).append(r["mean_fid"])
    for r in rows:
        want = refs[(r["target"], r["J"])][r["n"]]
        if not abs(r["mean_fid"] - want) <= ANALYTIC_TOL or r["std"] != 0.0:
            fails.append(f"sweep {r['target']} J={r['J']} n={r['n']}: {r['mean_fid']} != {want}")
            break
        cell = cells[(r["J"], r["n"])]
        if len(cell) == n_targets and not abs(r["stabilizer_avg"] - np.mean(cell)) <= 1e-12:
            fails.append(f"sweep J={r['J']} n={r['n']}: stabilizer average is wrong")
            break
    return fails


def kak_payload(payload, coupling: float) -> list[str]:
    """The steering family sits on the Weyl line [J, J, 0] (0 < J <= pi/2)."""
    fails = close(payload["weyl_coordinates"], [coupling, coupling, 0.0], WEYL_TOL, "kak weyl")
    if not payload["reassembly_distance"] <= REASSEMBLY_TOL:
        fails.append(f"kak reassembly distance {payload['reassembly_distance']:.3e}")
    if payload["locally_equivalent_cnot"] or payload["locally_equivalent_cphase"]:
        fails.append("kak: steering operator reported locally equivalent to CNOT")
    return fails


def unitary_distance(u, v) -> float:
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    return max(0.0, 1.0 - abs(np.trace(u.conj().T @ v)) / u.shape[0])


def circuit_payload(payload, circuit_unitary, unitary, qubit: bool) -> list[str]:
    """verify.json's distance and the emitted circuit.txt both reproduce U."""
    tol = QUBIT_CIRCUIT_TOL if qubit else QUTRIT_CIRCUIT_TOL
    fails = []
    dist = payload["phase_invariant_distance"]
    if not 0.0 <= dist <= tol:
        fails.append(f"circuit distance {dist:.3e} exceeds {tol:.0e}")
    own = unitary_distance(circuit_unitary, unitary)
    if not own <= tol:
        fails.append(f"circuit.txt evaluates to distance {own:.3e} from U")
    if qubit and payload["cnot_count"] != 2:
        fails.append(f"circuit uses {payload['cnot_count']} CNOTs, expected 2")
    return fails


def qpt_payload(payload) -> list[str]:
    fails = []
    if not payload["max_abs_r_minus_i"] <= QPT_TOL:
        fails.append(f"qpt deviation {payload['max_abs_r_minus_i']:.3e} exceeds {QPT_TOL:.0e}")
    if not abs(payload["average_gate_fidelity"] - 1.0) <= QPT_TOL:
        fails.append(f"qpt average gate fidelity {payload['average_gate_fidelity']}")
    return fails


def tomo_payload(payload, exact_want) -> list[str]:
    exact = [f["exact"] for f in payload["fidelities"]]
    rec = [f["reconstructed"] for f in payload["fidelities"]]
    fails = unit_interval(exact, "tomo exact") + unit_interval(rec, "tomo reconstructed")
    fails += close(exact, exact_want, ANALYTIC_TOL, "tomo exact fidelity")
    fails += close(rec, exact, TOMO_SHOT_TOL, "tomo reconstructed fidelity")
    return fails
