import math

import numpy as np
import pytest

from qsteer.errors import ConfigError
from qsteer.linalg import dagger, expm_i_herm, kraus_apply, kron
from qsteer.states import (
    QubitTarget,
    QutritTarget,
    QUTRIT_EQUAL_KET,
    QUTRIT_EQUAL_TARGET,
    fidelity,
    pauli_string_matrix,
    random_density,
    target_ket,
)
from qsteer.steering import (
    SteeringOperator,
    TargetSpec,
    averaged_step,
    build_qubit_hamiltonian,
    build_qutrit_hamiltonian,
    kraus_from_unitary,
    make_steering_operator,
    qutrit_complement_basis,
    steering_frame,
)

from conftest import (
    STABILIZERS,
    analytic_plus_trajectory,
    bloch_vector,
    channel_superoperator,
    ginibre_density,
    joint_step,
    pure_state,
    steering_grid,
    steering_inequality_holds,
)


def explicit_qubit_matrix(theta, phi, coupling):
    """The anti-block-diagonal closed form with alpha = sin(theta) and
    beta_pm = e^{i phi}(cos(theta) +- 1)."""
    a = math.sin(theta)
    bp = np.exp(1j * phi) * (math.cos(theta) + 1)
    bm = np.exp(1j * phi) * (math.cos(theta) - 1)
    return (coupling / 2) * np.array(
        [
            [0, 0, a, -np.conj(bm)],
            [0, 0, -bp, -a],
            [a, -np.conj(bp), 0, 0],
            [-bm, -a, 0, 0],
        ]
    )


class TestQubitHamiltonian:
    def test_plus_target_two_term_form(self):
        h = build_qubit_hamiltonian(math.pi / 2, 0.0, 0.9)
        want = (0.9 / 2) * (pauli_string_matrix("XZ") - pauli_string_matrix("YY"))
        assert np.max(np.abs(h - want)) < 1e-14

    def test_ground_target_two_term_form(self):
        h = build_qubit_hamiltonian(0.0, 0.0, 0.9)
        want = (0.9 / 2) * (-pauli_string_matrix("XX") - pauli_string_matrix("YY"))
        assert np.max(np.abs(h - want)) < 1e-14

    def test_operator_form_matches_explicit_matrix(self, rng):
        # the closed-form phase factor is e^{i phi}; the brute-force Pauli
        # expansion is the normative side
        for _ in range(100):
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            coupling = rng.uniform(0.1, 3.0)
            got = build_qubit_hamiltonian(theta, phi, coupling)
            assert np.max(np.abs(got - explicit_qubit_matrix(theta, phi, coupling))) < 1e-12

    def test_anti_block_diagonal(self, rng):
        h = build_qubit_hamiltonian(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), 1.0)
        assert np.max(np.abs(h[:2, :2])) < 1e-14
        assert np.max(np.abs(h[2:, 2:])) < 1e-14

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            build_qubit_hamiltonian(-0.2, 0.0, 1.0)

    def test_target_in_kernel_of_ground_block(self):
        # H (|0>_A (x) |target>) points entirely to the flipped-ancilla sector
        for _, target in STABILIZERS:
            h = build_qubit_hamiltonian(target.theta, target.phi, 1.3)
            ket = np.kron(np.array([1, 0], dtype=complex), target_ket(target))
            image = h @ ket
            assert np.max(np.abs(image[:2])) < 1e-12


class TestQutritHamiltonian:
    def test_equal_superposition_reproduces_closed_form(self):
        h = build_qutrit_hamiltonian(QUTRIT_EQUAL_TARGET)
        tr = np.array([[2, 2, 2], [-1, -1, -1], [-1, -1, -1]]) / 3.0
        want = np.zeros((6, 6), dtype=complex)
        want[:3, 3:] = tr
        want[3:, :3] = tr.T
        assert np.max(np.abs(h - want)) <= 1e-12

    def test_complement_basis_orthonormal(self, rng):
        for _ in range(25):
            t = QutritTarget(
                rng.uniform(0, math.pi),
                rng.uniform(0, math.pi),
                rng.uniform(0, 2 * math.pi),
                rng.uniform(0, 2 * math.pi),
            )
            psi, p1, p2 = qutrit_complement_basis(t)
            gram = np.array([[v.conj() @ w for w in (psi, p1, p2)] for v in (psi, p1, p2)])
            assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_target_is_annihilated(self):
        t = QutritTarget(0.0, 0.0, 0.0, 0.0)  # |2>
        h = build_qutrit_hamiltonian(t)
        ket = np.kron(np.array([1, 0], dtype=complex), target_ket(t))
        assert np.max(np.abs(h @ ket)) < 1e-14

    def test_random_target_maps_complement_to_target_only(self, rng):
        for _ in range(20):
            t = QutritTarget(
                rng.uniform(0.1, math.pi - 0.1),
                rng.uniform(0.1, math.pi - 0.1),
                rng.uniform(0, 2 * math.pi),
                rng.uniform(0, 2 * math.pi),
            )
            psi, p1, p2 = qutrit_complement_basis(t)
            h = build_qutrit_hamiltonian(t)
            for perp in (p1, p2):
                out = h @ np.kron(np.array([1, 0], dtype=complex), perp)
                # lands in the flipped-ancilla target direction
                flipped = np.kron(np.array([0, 1], dtype=complex), psi)
                overlap = flipped.conj() @ out
                assert np.linalg.norm(out - overlap * flipped) < 1e-12

    def test_block_coupling_strength_uniform(self, rng):
        # largest singular value of the coupling block is sqrt(2) for every
        # target, matching the equal-superposition normalization
        targets = [QUTRIT_EQUAL_TARGET] + [
            QutritTarget(
                rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0), rng.uniform(0, 6.0), rng.uniform(0, 6.0)
            )
            for _ in range(10)
        ]
        for t in targets:
            h = build_qutrit_hamiltonian(t)
            s = np.linalg.svd(h[:3, 3:], compute_uv=False)
            assert abs(s[0] - math.sqrt(2)) < 1e-12


class TestSteeringOperator:
    def test_zero_coupling_is_identity(self):
        op = make_steering_operator(TargetSpec(QubitTarget(1.0, 2.0), 0.0))
        assert np.allclose(op.unitary, np.eye(4), atol=1e-14)

    def test_unitarity_and_completeness(self, rng):
        for _ in range(10):
            spec = TargetSpec(
                QubitTarget(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
                rng.uniform(0.1, 1.5),
            )
            op = make_steering_operator(spec)
            assert np.max(np.abs(dagger(op.unitary) @ op.unitary - np.eye(4))) < 1e-12
            kset = kraus_from_unitary(op)
            assert len(kset) == 2
            assert np.max(np.abs(sum(dagger(a) @ a for a in kset) - np.eye(2))) < 1e-10

    def test_closed_form_matches_paper_generators(self):
        # exp(-i H) of the paper's qubit generator; for a qutrit its rotation
        # exp(-i (J/sqrt(2)) H) followed by the bright/dark exchange gate
        qubits, qutrits = steering_grid()
        for spec in qubits:
            t = spec.target
            want = expm_i_herm(build_qubit_hamiltonian(t.theta, t.phi, spec.coupling))
            assert np.max(np.abs(make_steering_operator(spec).unitary - want)) <= 1e-13
        for spec in qutrits:
            psi, p1, p2 = qutrit_complement_basis(spec.target)
            b, d = (p1 + p2) / math.sqrt(2), (p1 - p2) / math.sqrt(2)
            exchange = np.outer(psi, psi.conj()) + np.outer(b, d.conj()) + np.outer(d, b.conj())
            h = (spec.coupling / math.sqrt(2)) * build_qutrit_hamiltonian(spec.target)
            want = kron(np.eye(2), exchange) @ expm_i_herm(h)
            assert np.max(np.abs(make_steering_operator(spec).unitary - want)) <= 1e-13

    def test_frame(self):
        qubits, qutrits = steering_grid()
        for spec in qubits[::7] + qutrits[::7]:
            frame = steering_frame(spec.target)
            d = len(frame)
            psi, bright = frame[:, 0], frame[:, 1]
            assert np.max(np.abs(dagger(frame) @ frame - np.eye(d))) <= 1e-14
            assert abs(abs(np.vdot(target_ket(spec.target), psi)) - 1) <= 1e-14
            assert abs(np.vdot(psi, bright)) <= 1e-14
            if d == 3:
                # the generator couples |1,psi> to |0,b> only: |0,d> is its zero mode
                h = build_qutrit_hamiltonian(spec.target)
                assert np.max(np.abs(h @ np.kron([1, 0], frame[:, 2]))) <= 1e-14
            # F P F^dag, with P the frame cycle's e_1 <-> e_2 exchange (none
            # for a qubit), fixes psi and is an involution
            exchange = frame[:, [0, 2, 1] if d == 3 else [0, 1]] @ dagger(frame)
            assert np.max(np.abs(exchange @ psi - psi)) <= 1e-14
            assert np.max(np.abs(exchange @ exchange - np.eye(d))) <= 1e-14

    def test_unitary_is_the_frame_cycle_lifted(self):
        # U = (I (x) F) V (I (x) F^dag) and the target is F's first column,
        # bit for bit
        qubits, qutrits = steering_grid()
        for spec in qubits + qutrits:
            op = make_steering_operator(spec)
            frame = steering_frame(spec.target)
            lift = kron(np.eye(2), frame)
            assert np.array_equal(op.unitary, lift @ op.frame_unitary @ dagger(lift))
            assert np.array_equal(op.target, frame[:, 0])

    def test_build_needs_no_eigendecomposition(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("eigh called while building a steering operator")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        for target in (QubitTarget(1.1, 0.3), QUTRIT_EQUAL_TARGET, QutritTarget(1.2, 0.9, 1.0, 5.0)):
            make_steering_operator(TargetSpec(target, 0.7))

    def test_one_step_swap_to_plus(self):
        op = make_steering_operator(TargetSpec(QubitTarget(math.pi / 2, 0.0), math.pi / 2, "+"))
        kset = kraus_from_unitary(op)
        plus = target_ket(QubitTarget(math.pi / 2, 0.0))
        for seed in range(25):
            rho = random_density(2, seed)
            out = averaged_step(rho, kset)
            assert fidelity(out.matrix, plus) >= 1 - 1e-12


class TestKraus:
    def test_identity_unitary(self):
        op = make_steering_operator(TargetSpec(QubitTarget(0.3, 0.4), 0.0))
        kset = kraus_from_unitary(op)
        assert np.allclose(kset[0], np.eye(2), atol=1e-14)
        assert np.allclose(kset[1], np.zeros((2, 2)), atol=1e-14)

    def test_swap_unitary_gives_replacement_kraus(self):
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        op = SteeringOperator(
            unitary=swap,
            system_dim=2,
            coupling=0.0,
            target=np.array([1, 0], dtype=complex),
            frame=np.eye(2, dtype=complex),
            frame_unitary=swap,
        )
        kset = kraus_from_unitary(op)
        for k, a in enumerate(kset):
            want = np.zeros((2, 2), dtype=complex)
            want[0, k] = 1.0  # |0><k|
            assert np.allclose(a, want, atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_superoperator_and_stacked_apply(self, dim, rng):
        ops = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
        sup = channel_superoperator(ops)
        stack = np.array([ginibre_density(dim, rng) for _ in range(5)]).reshape(5, 1, dim, dim)
        out = kraus_apply(ops, stack)
        assert out.shape == stack.shape
        for m, got in zip(stack[:, 0], out[:, 0]):
            want = sum(a @ m @ dagger(a) for a in ops)
            assert np.max(np.abs(got - want)) < 1e-13
            assert np.max(np.abs(sup @ m.reshape(-1) - want.reshape(-1))) < 1e-13


class TestAveragedStep:
    def test_identity_kraus(self, rng):
        rho = random_density(2, 0)
        kset = np.eye(2, dtype=complex)[None]
        assert np.allclose(averaged_step(rho, kset).matrix, rho.matrix)

    def test_matches_joint_partial_trace(self, rng):
        # operator-sum evolution equals the entangle-then-trace recurrence
        for seed in range(40):
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            op = make_steering_operator(TargetSpec(QubitTarget(theta, phi), 0.7))
            rho = random_density(2, seed)
            a = averaged_step(rho, kraus_from_unitary(op)).matrix
            b = joint_step(rho, op).matrix
            assert np.max(np.abs(a - b)) < 1e-11

    def test_channel_linearity(self, rng):
        op = make_steering_operator(TargetSpec(QubitTarget(1.1, 0.3), 0.5))
        kset = kraus_from_unitary(op)
        r1 = ginibre_density(2, rng)
        r2 = ginibre_density(2, rng)
        alpha = 0.37
        mix = alpha * r1 + (1 - alpha) * r2
        lhs = sum(a @ mix @ dagger(a) for a in kset)
        rhs = alpha * sum(a @ r1 @ dagger(a) for a in kset) + (1 - alpha) * sum(
            a @ r2 @ dagger(a) for a in kset
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_trace_and_positivity_preserved(self, rng):
        op = make_steering_operator(TargetSpec(QubitTarget(2.0, 5.0), 1.2))
        kset = kraus_from_unitary(op)
        state = random_density(2, 3)
        for _ in range(30):
            state = averaged_step(state, kset)
            assert abs(np.trace(state.matrix) - 1) < 1e-11
            assert np.linalg.eigvalsh(state.matrix).min() > -1e-11


class TestSteeringInequality:
    def test_constant_sequence(self):
        ok, idx = steering_inequality_holds([0.5, 0.5, 0.5])
        assert ok and idx is None

    def test_decreasing_sequence_flagged(self):
        ok, idx = steering_inequality_holds([0.4, 0.6, 0.55, 0.7])
        assert not ok and idx == 1

    def test_exact_runs_monotone(self, rng):
        for label, target in STABILIZERS:
            for seed in range(20):
                op = make_steering_operator(TargetSpec(target, 0.6, label))
                kset = kraus_from_unitary(op)
                state = random_density(2, seed)
                fids = [fidelity(state.matrix, op.target)]
                for _ in range(40):
                    state = averaged_step(state, kset)
                    fids.append(fidelity(state.matrix, op.target))
                ok, idx = steering_inequality_holds(fids)
                assert ok, (label, seed, idx)


class TestFixedPoints:
    @pytest.mark.parametrize("coupling", [math.pi / 8, math.pi / 4, math.pi / 2])
    def test_qubit_targets_converge(self, coupling):
        steps = math.ceil(80 / coupling**2)
        for label, target in STABILIZERS:
            op = make_steering_operator(TargetSpec(target, coupling, label))
            kset = kraus_from_unitary(op)
            for seed in range(10):
                state = random_density(2, seed)
                for _ in range(steps):
                    state = averaged_step(state, kset)
                assert fidelity(state.matrix, op.target) >= 1 - 1e-8

    def test_qutrit_channel_preserves_dark_complement_direction(self):
        # The paper's equal-superposition generator alone couples only one
        # complement direction to the ancilla; the orthogonal combination
        # (perp1 - perp2)/sqrt(2) is exactly invariant under exp(-i J H), so
        # the reachable fidelity from rho0 is 1 - <dark|rho0|dark>.  This is
        # why make_steering_operator follows the rotation with an exchange gate.
        psi, p1, p2 = qutrit_complement_basis(QUTRIT_EQUAL_TARGET)
        dark = (p1 - p2) / np.sqrt(2)
        h = (math.pi / 2) * build_qutrit_hamiltonian(QUTRIT_EQUAL_TARGET)
        frame = make_steering_operator(TargetSpec(QUTRIT_EQUAL_TARGET, math.pi / 2)).frame
        lift = kron(np.eye(2), frame)
        op = SteeringOperator(
            unitary=expm_i_herm(h),
            system_dim=3,
            coupling=math.pi / 2,
            target=psi,
            frame=frame,
            frame_unitary=dagger(lift) @ expm_i_herm(h) @ lift,
        )
        kset = kraus_from_unitary(op)
        for seed in range(10):
            rho0 = random_density(3, seed)
            dark_pop = float((dark.conj() @ rho0.matrix @ dark).real)
            state = rho0
            for _ in range(200):
                state = averaged_step(state, kset)
            assert abs(float((dark.conj() @ state.matrix @ dark).real) - dark_pop) < 1e-10
            assert abs(fidelity(state.matrix, psi) - (1 - dark_pop)) < 1e-8

    def test_qutrit_converges_from_dark_free_states(self):
        # from any state orthogonal to the dark direction (e.g. |0><0| or the
        # maximally mixed state restricted there) the protocol reaches the
        # target; the hardware-style ground-state start is the canonical case
        op = make_steering_operator(TargetSpec(QUTRIT_EQUAL_TARGET, math.pi / 2, "qutrit-equal"))
        kset = kraus_from_unitary(op)
        state = pure_state(np.array([1, 0, 0], dtype=complex))
        for _ in range(40):
            state = averaged_step(state, kset)
        assert fidelity(state.matrix, QUTRIT_EQUAL_KET) >= 1 - 1e-10


class TestQutritSteeringContract:
    """The qutrit steering operator heralds the target, keeps it fixed, and
    has no second fixed point."""

    @pytest.mark.parametrize("coupling", [0.3, math.pi / 4, math.pi / 2])
    @pytest.mark.parametrize(
        "target", [QUTRIT_EQUAL_TARGET, QutritTarget(1.2, 0.9, 1.0, 5.0)], ids=["equal", "general"]
    )
    def test_heralded_dark_free_and_generated(self, target, coupling):
        op = make_steering_operator(TargetSpec(target, coupling))
        psi = op.target
        a0, a1 = kraus_from_unitary(op)
        # a recorded "1" heralds the target: A_1 is rank one onto psi
        assert np.linalg.svd(a1, compute_uv=False)[1] <= 1e-12
        assert np.max(np.abs(a1 - np.outer(psi, psi.conj() @ a1))) <= 1e-12
        # <psi| A_0 = <psi|, so blind fidelity is monotone
        assert np.max(np.abs(psi.conj() @ a0 - psi.conj())) <= 1e-12
        # psi is the only fixed point of the blind channel
        channel = np.kron(a0, a0.conj()) + np.kron(a1, a1.conj())
        moduli = np.sort(np.abs(np.linalg.eigvals(channel)))[::-1]
        assert moduli[0] == pytest.approx(1.0, abs=1e-12)
        assert moduli[1] < 1
        assert moduli[1] == pytest.approx(math.sqrt(abs(math.cos(coupling))), abs=1e-6)


class TestAnalyticPlusTrajectory:
    def test_zero_steps_identity(self):
        s0 = np.array([0.2, -0.3, 0.4])
        assert np.allclose(analytic_plus_trajectory(s0, 0.9, 0), s0)

    def test_transverse_decay_rates(self, rng):
        s0 = np.array([0.1, 0.5, -0.7])
        for coupling in (0.4, 1.0, 2.2):
            c = math.cos(coupling)
            for n in (1, 3, 10):
                s = analytic_plus_trajectory(s0, coupling, n)
                assert s[1] == pytest.approx(c**n * s0[1], abs=1e-14)
                assert s[2] == pytest.approx(c**n * s0[2], abs=1e-14)

    def test_one_step_at_half_pi(self, rng):
        for seed in range(5):
            rho = random_density(2, seed)
            s0 = bloch_vector(rho)
            assert np.allclose(analytic_plus_trajectory(s0, math.pi / 2, 1), [1, 0, 0], atol=1e-14)

    def test_matches_brute_force_channel(self, rng):
        op_plus = QubitTarget(math.pi / 2, 0.0)
        for coupling in (math.pi / 8, math.pi / 4, 3 * math.pi / 8, 1.1):
            op = make_steering_operator(TargetSpec(op_plus, coupling, "+"))
            kset = kraus_from_unitary(op)
            for seed in range(5):
                state = random_density(2, seed)
                s0 = bloch_vector(state)
                for n in range(51):
                    want = analytic_plus_trajectory(s0, coupling, n)
                    got = bloch_vector(state)
                    assert np.max(np.abs(got - want)) < 1e-10, (coupling, n)
                    state = averaged_step(state, kset)

    def test_rejects_bad_coupling(self):
        with pytest.raises(ConfigError):
            analytic_plus_trajectory(np.zeros(3), 0.0, 1)
        with pytest.raises(ConfigError):
            analytic_plus_trajectory(np.zeros(3), math.pi, 1)


class TestKernelStructure:
    def test_dark_sector_consistency(self, rng):
        # H (|0>_A (x) |target>) lies outside the ancilla-ground sector
        for _, target in STABILIZERS:
            h = build_qubit_hamiltonian(target.theta, target.phi, 0.77)
            anc0 = np.array([1, 0], dtype=complex)
            vec = h @ np.kron(anc0, target_ket(target))
            ground_block = vec[:2]
            assert np.max(np.abs(ground_block)) < 1e-12
