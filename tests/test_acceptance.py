"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 4 holds the qutrit protocol to steering from arbitrary
initial states.  The paper's qutrit generator alone couples only one
direction of the target's two-dimensional orthogonal complement and leaves
(perp1 - perp2)/sqrt(2) dark; the steering operator follows it with a
system-only gate that exchanges the two directions, so no population is
conserved outside the target.  See tests/test_steering.py for the dark
direction of the bare generator and for the operator's contract.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from qsteer.circuits import CNOT, evaluate_circuit, synth_kak_circuit
from qsteer.cli import main as cli_main
from qsteer.geometry import CNOT_GATE, locally_equivalent, weyl_coordinates
from qsteer.linalg import dagger, expm_i_herm, kron, partial_trace, phase_invariant_distance
from qsteer.protocol import NoiseConfig, repetition_law, run_blind, run_nonblind_batch, repetition_stats
from qsteer.states import (
    DensityState,
    GELL_MANN,
    PAULIS,
    QubitTarget,
    QUTRIT_EQUAL_TARGET,
    fidelity,
    random_density,
)
from qsteer.steering import (
    TargetSpec,
    averaged_step,
    build_qubit_hamiltonian,
    kraus_from_unitary,
    make_steering_operator,
)
from qsteer.tomography import (
    process_tomography,
    ptm_of_unitary,
    tomo_qubit_state,
    tomo_qutrit_state,
)

from conftest import (
    STABILIZERS,
    bloch_vector,
    canonicalize_weyl_vector,
    channel_superoperator,
    cphase_gate,
    measure_expectation,
    reconstruction_fidelity,
    steering_inequality_holds,
)

PLUS = QubitTarget(math.pi / 2, 0.0)


def _report(num: int, description: str, ok: bool, elapsed: float, budget: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {verdict} ({elapsed:.2f}s / budget {budget:.0f}s): {description}")


def test_criterion_01_one_step_convergence():
    budget, t0 = 1.0, time.monotonic()
    op = make_steering_operator(TargetSpec(PLUS, math.pi / 2, "+"))
    worst = 1.0
    for seed in range(100):
        fids = run_blind(random_density(2, seed), op, 1)[0]
        worst = min(worst, fids[-1])
    elapsed = time.monotonic() - t0
    ok = worst >= 1 - 1e-10 and elapsed < budget
    _report(1, f"one blind step at J=pi/2 reaches |+> (worst fidelity {worst:.3e})", ok, elapsed, budget)
    assert worst >= 1 - 1e-10
    assert elapsed < budget


def test_criterion_02_exponential_law():
    budget, t0 = 5.0, time.monotonic()
    worst = 0.0
    for coupling in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        op = make_steering_operator(TargetSpec(PLUS, coupling, "+"))
        kset = kraus_from_unitary(op)
        c = math.cos(coupling)
        for seed in range(10):
            state = random_density(2, seed)
            s0 = bloch_vector(state)
            for n in range(51):
                s = bloch_vector(state)
                worst = max(
                    worst,
                    abs(abs(s[1]) - c**n * abs(s0[1])),
                    abs(abs(s[2]) - c**n * abs(s0[2])),
                )
                state = averaged_step(state, kset)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < budget
    _report(2, f"transverse Bloch components decay as cos^n(J) (worst dev {worst:.3e})", ok, elapsed, budget)
    assert worst <= 1e-10
    assert elapsed < budget


def test_criterion_03_steering_inequality():
    budget, t0 = 30.0, time.monotonic()
    violations = []
    for label, target in STABILIZERS:
        for coupling in (math.pi / 8, math.pi / 4, math.pi / 2):
            op = make_steering_operator(TargetSpec(target, coupling, label))
            kset = kraus_from_unitary(op)
            for seed in range(50):
                state = random_density(2, seed)
                fids = [fidelity(state.matrix, op.target)]
                for _ in range(30):
                    state = averaged_step(state, kset)
                    fids.append(fidelity(state.matrix, op.target))
                ok, idx = steering_inequality_holds(fids)
                if not ok:
                    violations.append((label, coupling, seed, idx))
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < budget
    _report(3, f"fidelity monotone for 6 targets x 50 states x 3 couplings ({len(violations)} violations)", ok, elapsed, budget)
    assert not violations
    assert elapsed < budget


def test_criterion_04_qutrit_fixed_point():
    budget, t0 = 30.0, time.monotonic()
    coupling = math.pi / 2
    steps = math.ceil(80 / coupling**2)
    op = make_steering_operator(TargetSpec(QUTRIT_EQUAL_TARGET, coupling, "qutrit-equal"))
    kset = kraus_from_unitary(op)
    worst = 1.0
    for seed in range(50):
        state = random_density(3, seed)
        for _ in range(steps):
            state = averaged_step(state, kset)
        worst = min(worst, fidelity(state.matrix, op.target))
    elapsed = time.monotonic() - t0
    ok = worst >= 1 - 1e-8 and elapsed < budget
    _report(
        4,
        "qutrit equal superposition from 50 random states "
        f"(worst fidelity {worst:.12f}; the exchange gate leaves no dark complement direction, "
        "so every state reaches the target)",
        ok,
        elapsed,
        budget,
    )
    assert worst >= 1 - 1e-8, (
        f"worst fidelity {worst:.12f}: population left outside the target after {steps} "
        "cycles; a conserved complement direction would cap fidelity at 1 - <dark|rho0|dark>"
    )
    assert elapsed < budget


def test_criterion_05_weyl_coordinates():
    budget, t0 = 10.0, time.monotonic()
    worst = 0.0
    grid = np.linspace(0.02, math.pi / 2, 50)
    for coupling in grid:
        u = expm_i_herm(build_qubit_hamiltonian(math.pi / 2, 0.0, float(coupling)))
        want = canonicalize_weyl_vector([coupling, coupling, 0.0])
        worst = max(worst, float(np.max(np.abs(weyl_coordinates(u) - want))))
    cnot_cphase = locally_equivalent(CNOT_GATE, cphase_gate(math.pi))
    steering_separate = True
    for coupling in grid:
        u = expm_i_herm(build_qubit_hamiltonian(math.pi / 2, 0.0, float(coupling)))
        if locally_equivalent(CNOT_GATE, u) or locally_equivalent(cphase_gate(math.pi), u):
            steering_separate = False
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and cnot_cphase and steering_separate and elapsed < budget
    _report(5, f"steering line at [J, J, 0] (worst dev {worst:.3e}); CNOT=CPHASE, both off the line", ok, elapsed, budget)
    assert worst <= 1e-8
    assert cnot_cphase
    assert steering_separate
    assert elapsed < budget


def test_criterion_06_circuit_equivalence():
    budget, t0 = 10.0, time.monotonic()
    worst = 0.0
    cnot_counts = set()
    for label, target in STABILIZERS:
        for coupling in np.linspace(0.05, math.pi / 2, 20):
            spec = TargetSpec(target, float(coupling), label)
            circuit = synth_kak_circuit(make_steering_operator(spec))[0]
            u = expm_i_herm(build_qubit_hamiltonian(target.theta, target.phi, float(coupling)))
            worst = max(worst, phase_invariant_distance(evaluate_circuit(circuit), u))
            cnot_counts.add(circuit.count(CNOT))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and cnot_counts == {2} and elapsed < budget
    _report(6, f"two-CNOT circuits match exp(-iH) (worst distance {worst:.3e})", ok, elapsed, budget)
    assert worst <= 1e-9
    assert cnot_counts == {2}
    assert elapsed < budget


def test_criterion_07_kraus_partial_trace_duality():
    budget, t0 = 10.0, time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        coupling = rng.uniform(0.05, math.pi / 2)
        op = make_steering_operator(TargetSpec(QubitTarget(theta, phi), coupling))
        rho = random_density(2, int(rng.integers(0, 2**31)))
        kset = kraus_from_unitary(op)
        via_kraus = sum(a @ rho.matrix @ dagger(a) for a in kset)
        anc = np.diag([1.0, 0.0]).astype(complex)
        joint = op.unitary @ kron(anc, rho.matrix) @ dagger(op.unitary)
        via_trace = partial_trace(joint, keep=1, dims=(2, 2))
        worst = max(worst, float(np.max(np.abs(via_kraus - via_trace))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-11 and elapsed < budget
    _report(7, f"operator-sum step equals entangle-and-trace step (worst dev {worst:.3e})", ok, elapsed, budget)
    assert worst <= 1e-11
    assert elapsed < budget


def test_criterion_08_nonblind_speedup_and_geometric_law():
    budget, t0 = 60.0, time.monotonic()
    coupling = math.pi / 4
    op = make_steering_operator(TargetSpec(PLUS, coupling, "+"))
    rho0 = DensityState(matrix=np.eye(2, dtype=complex) / 2, dims=(2,))
    batch = run_nonblind_batch(rho0, op, 80, 100_000, seed=0)
    stats = repetition_stats(batch)
    mean_nonblind = stats.mean_repetitions

    blind_fids = run_blind(rho0, op, 40)[0]
    blind_steps = next(n for n, f in enumerate(blind_fids) if f >= 0.9)

    succ = np.sort(batch.repetitions[batch.repetitions > 0])
    p_hat = 1.0 / float(np.mean(succ))
    values = np.arange(1, succ.max() + 1)
    emp_cdf = np.searchsorted(succ, values, side="right") / len(succ)
    geo_cdf = 1.0 - (1.0 - p_hat) ** values
    ks = float(np.max(np.abs(emp_cdf - geo_cdf)))
    elapsed = time.monotonic() - t0
    ok = mean_nonblind <= blind_steps and ks < 0.01 and elapsed < budget
    _report(
        8,
        f"non-blind mean {mean_nonblind:.3f} cycles <= blind {blind_steps} steps to 0.9; "
        f"KS to fitted geometric {ks:.4f}",
        ok,
        elapsed,
        budget,
    )
    assert mean_nonblind <= blind_steps
    assert ks < 0.01
    assert elapsed < budget


@pytest.mark.parametrize(
    "noise",
    [
        NoiseConfig(depolarizing_p=0.05),
        NoiseConfig(amplitude_damping_gamma=0.08),
        NoiseConfig(reset_infidelity=0.1),
        NoiseConfig(readout_confusion=np.array([[0.93, 0.07], [0.1, 0.9]])),
    ],
    ids=["depolarizing_p", "amplitude_damping_gamma", "reset_infidelity", "readout_confusion"],
)
@pytest.mark.parametrize("label", ["+", "qutrit-equal"])
def test_criterion_08_exact_repetition_law(label, noise):
    """Criterion 8's geometric law is the noiseless case of repetition_law;
    under each noise key the sampled stopping cycles follow the exact law."""
    from scipy.stats import chi2

    budget, t0 = 60.0, time.monotonic()
    target = PLUS if label == "+" else QUTRIT_EQUAL_TARGET
    op = make_steering_operator(TargetSpec(target, math.pi / 4, label))
    rho0 = random_density(op.system_dim, 12)
    steps, n = 20, 40_000
    pmf, failure = repetition_law(rho0, op, steps, noise)
    batch = run_nonblind_batch(rho0, op, steps, n, noise, seed=13)
    observed = np.bincount(batch.repetitions, minlength=steps + 1)  # bin 0: no success
    expected = n * np.concatenate([[failure], pmf])
    # pool the tail so that every bin expects at least 5 counts
    last = int(np.flatnonzero(expected >= 5)[-1])
    observed = np.append(observed[:last], observed[last:].sum())
    expected = np.append(expected[:last], expected[last:].sum())
    stat = float(np.sum((observed - expected) ** 2 / expected))
    p_value = float(chi2.sf(stat, expected.size - 1))
    elapsed = time.monotonic() - t0
    ok = p_value > 1e-3 and abs(pmf.sum() + failure - 1.0) <= 1e-12 and elapsed < budget
    _report(
        8,
        f"{label} repetitions vs exact law: chi2 {stat:.1f} on {expected.size - 1} dof, p {p_value:.3f}",
        ok,
        elapsed,
        budget,
    )
    assert abs(pmf.sum() + failure - 1.0) <= 1e-12
    assert p_value > 1e-3
    assert elapsed < budget


def test_criterion_09_tomography_exactness():
    budget, t0 = 60.0, time.monotonic()
    worst = 1.0
    for seed in range(500):
        rho2 = random_density(2, seed)
        rec2 = tomo_qubit_state(rho2.matrix[None])[0]
        rho3 = random_density(3, seed)
        rec3 = tomo_qutrit_state(rho3.matrix[None])[0]
        worst = min(
            worst,
            reconstruction_fidelity(rho2, rec2),
            reconstruction_fidelity(rho3, rec3),
        )
    exact_ok = worst >= 1 - 1e-9

    # finite shots: every estimated expectation should sit inside its own
    # 3-sigma multinomial band, up to the expected ~0.3% tail rate
    shots = 4096
    checks = 0
    outliers = 0
    for seed in range(100):
        rho2 = random_density(2, seed)
        for i, p in enumerate("XYZ"):
            obs = PAULIS[p]
            exact = float(np.trace(rho2.matrix @ obs).real)
            var = 1.0 - exact**2
            est = measure_expectation(rho2, obs, shots, seed=31_000 + 7 * seed + i)
            checks += 1
            if abs(est - exact) > 3.0 * math.sqrt(max(var, 1e-12) / shots):
                outliers += 1
        rho3 = random_density(3, seed)
        for i, obs in enumerate(GELL_MANN):
            exact = float(np.trace(rho3.matrix @ obs).real)
            second = float(np.trace(rho3.matrix @ obs @ obs).real)
            var = second - exact**2
            est = measure_expectation(rho3, obs, shots, seed=77_000 + 11 * seed + i)
            checks += 1
            if abs(est - exact) > 3.0 * math.sqrt(max(var, 1e-12) / shots):
                outliers += 1
    shot_ok = outliers / checks <= 0.01
    elapsed = time.monotonic() - t0
    ok = exact_ok and shot_ok and elapsed < budget
    _report(
        9,
        f"infinite-shot tomography exact (worst residual {1 - worst:.3e}); "
        f"4096-shot estimates inside 3-sigma bands ({outliers}/{checks} outliers)",
        ok,
        elapsed,
        budget,
    )
    assert exact_ok
    assert shot_ok
    assert elapsed < budget


def test_criterion_10_qpt_identity_and_depolarizing():
    budget, t0 = 30.0, time.monotonic()
    op = make_steering_operator(TargetSpec(PLUS, math.pi / 2, "+"))
    rec = process_tomography(channel_superoperator([op.unitary]))
    ideal = ptm_of_unitary(op.unitary)
    err = rec @ np.linalg.inv(ideal)
    dev_identity = float(np.max(np.abs(err - np.eye(16))))

    p = 0.3
    dep_ops = [math.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=complex)]
    dep_ops += [math.sqrt(p / 4) * PAULIS[s] for s in "XYZ"]
    ptm = process_tomography(channel_superoperator(dep_ops))
    dev_dep = float(np.max(np.abs(ptm - np.diag([1, 1 - p, 1 - p, 1 - p]))))
    elapsed = time.monotonic() - t0
    ok = dev_identity <= 1e-9 and dev_dep <= 1e-9 and elapsed < budget
    _report(
        10,
        f"error-channel PTM is identity ({dev_identity:.3e}); depolarizing PTM diagonal ({dev_dep:.3e})",
        ok,
        elapsed,
        budget,
    )
    assert dev_identity <= 1e-9
    assert dev_dep <= 1e-9
    assert elapsed < budget


def test_criterion_11_trajectory_channel_consistency():
    budget, t0 = 120.0, time.monotonic()
    coupling = math.pi / 4
    op = make_steering_operator(TargetSpec(PLUS, coupling, "+"))
    kset = kraus_from_unitary(op)
    rho0 = random_density(2, 42)
    n_traj = 100_000
    worst_sigma = 0.0
    for steps in range(1, 6):
        batch = run_nonblind_batch(rho0, op, steps, n_traj, seed=steps, early_stop=False)
        mean_state = batch.final_states.mean(axis=0)
        state = rho0
        for _ in range(steps):
            state = averaged_step(state, kset)
        spread = batch.final_states.std(axis=0) / math.sqrt(n_traj)
        dev = np.abs(mean_state - state.matrix)
        with np.errstate(divide="ignore", invalid="ignore"):
            sigmas = np.where(spread > 0, dev / spread, 0.0)
        worst_sigma = max(worst_sigma, float(np.max(sigmas)))
    elapsed = time.monotonic() - t0
    ok = worst_sigma <= 3.0 and elapsed < budget
    _report(
        11,
        f"averaged trajectories reproduce the blind state (worst deviation {worst_sigma:.2f} sigma)",
        ok,
        elapsed,
        budget,
    )
    assert worst_sigma <= 3.0
    assert elapsed < budget


def test_criterion_12_cli_determinism(tmp_path):
    budget, t0 = 10.0, time.monotonic()
    runner = CliRunner()
    commands = [
        ["steer", "--target", "+", "--J", "0.9", "--N", "4", "--mode", "blind"],
        ["steer", "--target", "+", "--J", "0.8", "--N", "15", "--mode", "nonblind",
         "--trajectories", "300", "--seed", "5"],
        ["qpt", "--target", "+", "--J", "0.7", "--shots", "256", "--seed", "9"],
    ]
    identical = True
    for idx, args in enumerate(commands):
        dirs = [tmp_path / f"{idx}_{run}" for run in "ab"]
        for d in dirs:
            result = runner.invoke(cli_main, args + ["--out", str(d)])
            assert result.exit_code == 0, result.output
        for name in sorted(p.name for p in dirs[0].iterdir()):
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                identical = False
    elapsed = time.monotonic() - t0
    ok = identical and elapsed < budget
    _report(12, "seeded CLI reruns are byte-identical", ok, elapsed, budget)
    assert identical
    assert elapsed < budget
