import functools
import math
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsteer import tomography
from qsteer.cli import parse_target
from qsteer.errors import ConfigError, DimensionMismatchError
from qsteer.states import (
    DensityState,
    GELL_MANN,
    PAULIS,
    QubitTarget,
    fidelity,
    pauli_string_matrix,
    random_density,
    target_ket,
)
from qsteer.protocol import NO_NOISE, NoiseConfig, _step_superoperator, run_blind
from qsteer.steering import TargetSpec, kraus_from_unitary, make_steering_operator
from qsteer.tomography import (
    average_gate_fidelity,
    mle_project,
    process_tomography,
    ptm_of_superoperator,
    ptm_of_unitary,
    tomo_qubit_state,
    tomo_qutrit_state,
)

from conftest import (
    channel_superoperator,
    shot_draw,
    ginibre_density,
    measure_expectation,
    pure_state,
    qubit_state_tomo,
    qutrit_state_tomo,
    random_hermitian,
    reconstruction_fidelity,
    truncate_loop,
)


def depolarizing_channel(p: float) -> np.ndarray:
    ops = [math.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=complex)]
    ops += [math.sqrt(p / 4) * PAULIS[s] for s in "XYZ"]
    return channel_superoperator(ops)


class TestShotDraws:
    """One finite-shot measurement: counts over the observable's ascending
    eigenbasis, from Born probabilities."""

    def test_ground_state_all_zero_outcomes(self):
        rho = pure_state(np.array([1, 0], dtype=complex))
        _, counts = shot_draw(rho, PAULIS["Z"], 500, 1)
        # ascending eigenbasis: outcome 1 is the +1 eigenvector |0>
        assert counts[1] == 500
        assert measure_expectation(rho, PAULIS["Z"], 500, seed=1) == 1.0

    def test_plus_state_born_rule(self):
        rho = pure_state(target_ket(QubitTarget(math.pi / 2, 0.0)))
        _, counts = shot_draw(rho, PAULIS["Z"], 100_000, 2)
        sigma = 0.5 / math.sqrt(100_000)
        assert abs(counts[0] / 100_000 - 0.5) < 3 * sigma

    def test_qutrit_born_rule(self):
        rho = pure_state(np.array([1, 1j, 1], dtype=complex) / math.sqrt(3))
        obs = np.diag([0.0, 1.0, 2.0]).astype(complex)
        shots = 200_000
        _, counts = shot_draw(rho, obs, shots, 3)
        assert counts.sum() == shots
        sigma = math.sqrt((1 / 3) * (2 / 3) / shots)
        assert np.all(np.abs(counts / shots - 1 / 3) <= 3 * sigma)

    def test_joint_six_outcome_born_rule(self):
        # readout over the qubit (x) qutrit joint space, six outcomes at once
        rho = random_density(6, 4)
        obs = np.diag(np.arange(6.0)).astype(complex)
        shots = 100_000
        _, counts = shot_draw(rho, obs, shots, 8)
        assert counts.sum() == shots
        p_want = np.clip(np.diag(rho.matrix).real, 0, None)
        p_want = p_want / p_want.sum()
        sigma = np.sqrt(p_want * (1 - p_want) / shots)
        assert np.all(np.abs(counts / shots - p_want) <= 4 * sigma + 1e-12)

    def test_deterministic_per_seed(self):
        rho = random_density(2, 0)
        a = shot_draw(rho, PAULIS["X"], 1000, 5)[1]
        b = shot_draw(rho, PAULIS["X"], 1000, 5)[1]
        assert np.array_equal(a, b)
        assert measure_expectation(rho, PAULIS["X"], 1000, seed=5) == measure_expectation(
            rho, PAULIS["X"], 1000, seed=5
        )


U40 = 2.0**-40  # the grid of snapped shot probabilities


def diagonal_probs(p, snap=True) -> np.ndarray:
    """_outcome_probs of the diagonal state diag(p) in the computational basis."""
    d = len(p)
    mats = np.diag(np.asarray(p, dtype=complex))[None]
    return tomography._outcome_probs(mats, np.eye(d, dtype=complex)[None], snap)[0, 0]


class TestSnappedProbabilities:
    def test_on_grid_and_normalized(self, rng):
        for d in (2, 3, 4, 6):
            for _ in range(20):
                rho = ginibre_density(d, rng)
                vecs = np.linalg.eigh(random_hermitian(d, rng))[1]
                exact = tomography._outcome_probs(rho[None], vecs[None], False)[0, 0]
                got = tomography._outcome_probs(rho[None], vecs[None], True)[0, 0]
                assert np.array_equal(got, np.round(got / U40) * U40)
                assert got.sum() == 1.0
                assert np.max(np.abs(got - exact)) <= d * U40

    def test_near_zero_last_outcome(self):
        # a last outcome below half a grid step snaps to exactly 0
        got = diagonal_probs([0.5, 0.5 - 1e-17, 1e-17])
        assert got.tolist() == [0.5, 0.5, 0.0]
        # three outcomes rounded up by 0.6 steps each leave the last a
        # remainder of -1 step, which is clamped at 0
        got = diagonal_probs([0.25 + 0.6 * U40, 0.25 + 0.6 * U40, 0.5 - 1.2 * U40 - 2e-14, 2e-14])
        assert got.tolist() == [0.25 + U40, 0.25 + U40, 0.5 - U40, 0.0]
        assert tomography._keyed_multinomial(64, got[None], 0).sum() == 64

    def test_exact_probabilities_not_snapped(self):
        p = [0.5 + 1e-15, 0.5 - 1e-15]
        assert diagonal_probs(p, snap=False).tolist() == p

    @staticmethod
    def perturbed(u: np.ndarray, rng) -> np.ndarray:
        """u with every entry moved by a random relative 1e-15."""
        noise = rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape)
        return u * (1.0 + 1e-15 * noise)

    def test_qpt_stable_under_rounding(self, rng):
        # `qsteer qpt --target + --J pi/2 --shots 256 --seed 9`: many of its
        # Born probabilities are 0.5 up to rounding
        u = make_steering_operator(TargetSpec(QubitTarget(math.pi / 2, 0.0), math.pi / 2)).unitary
        want = process_tomography(channel_superoperator([u]), shots=256, seed=9)
        for _ in range(20):
            chan = channel_superoperator([self.perturbed(u, rng)])
            assert np.array_equal(process_tomography(chan, shots=256, seed=9), want)

    @pytest.mark.parametrize("target", ["+", "qutrit-equal"])
    def test_tomo_stable_under_rounding(self, target, rng):
        # `qsteer tomo --target T --J 0.785 --N 10 --shots 4096 --seed 3`
        op = make_steering_operator(TargetSpec(parse_target(target)[1], 0.785))
        d = op.system_dim
        rho0 = DensityState(matrix=np.eye(d, dtype=complex) / d, dims=(d,))
        tomo = tomo_qubit_state if d == 2 else tomo_qutrit_state
        want = tomo(run_blind(rho0, op, 10, NO_NOISE)[1], shots=4096, seed=3)
        for _ in range(20):
            # a blind run reads the frame and the cycle in it
            moved = op._replace(frame=self.perturbed(op.frame, rng),
                                frame_unitary=self.perturbed(op.frame_unitary, rng))
            got = tomo(run_blind(rho0, moved, 10, NO_NOISE)[1], shots=4096, seed=3)
            assert np.array_equal(got, want)


class TestMleProject:
    def test_physical_input_unchanged(self):
        rho = random_density(3, 7)
        out = mle_project(rho.matrix)
        assert np.max(np.abs(out - rho.matrix)) < 1e-12

    def test_two_level_hand_run(self):
        out = mle_project(np.diag([1.1, -0.1]).astype(complex))
        assert np.allclose(np.sort(np.diag(out).real), [0.0, 1.0], atol=1e-12)

    def test_three_level_hand_run(self):
        out = mle_project(np.diag([0.7, 0.5, -0.2]).astype(complex))
        assert np.allclose(np.sort(np.diag(out).real), [0.0, 0.4, 0.6], atol=1e-12)

    def test_matches_quadratic_program_bruteforce(self, rng):
        # optimal eigenvalue vector minimizes sum (x - w)^2 over the simplex
        from scipy.optimize import minimize

        for _ in range(10):
            w = rng.normal(size=4)
            w = w - (w.sum() - 1) / 4  # unit trace
            mat = np.diag(w).astype(complex)
            got = np.sort(np.linalg.eigvalsh(mle_project(mat)))

            cons = (
                {"type": "eq", "fun": lambda x: x.sum() - 1},
                {"type": "ineq", "fun": lambda x: x},
            )
            res = minimize(
                lambda x: np.sum((x - w) ** 2),
                np.full(4, 0.25),
                constraints=cons,
                method="SLSQP",
                options={"ftol": 1e-12, "maxiter": 500},
            )
            # SLSQP convergence limits the oracle side
            assert np.max(np.abs(got - np.sort(res.x))) < 1e-5

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stack_equals_one_row_calls(self, rng, d):
        # unit-trace Hermitian rows, most with a negative eigenvalue, and
        # one density matrix
        rows = [random_hermitian(d, rng) for _ in range(40)]
        rows = [h - np.eye(d) * (np.trace(h).real - 1) / d for h in rows]
        stack = np.array(rows + [random_density(d, 5).matrix])
        assert (np.linalg.eigvalsh(stack).min(axis=-1) < 0).sum() > 20
        got = mle_project(stack)
        for row, out in zip(stack, got):
            assert np.array_equal(out, mle_project(row))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ConfigError):
            mle_project(np.diag([1.0, 0.5]).astype(complex))

    @pytest.mark.parametrize("d", [2, 3, 4, 16])
    def test_closed_form_truncation_is_the_loop_bit_for_bit(self, d):
        # ascending unit-sum rows, many with negative eigenvalues, some
        # with +0.0 and -0.0 entries, which the running sum must not flip
        rng = np.random.default_rng(d)
        w = rng.normal(size=(3000, d)) + rng.uniform(-0.5, 1.5, size=(3000, 1)) / d
        w[rng.random(w.shape) < 0.1] = 0.0
        w[rng.random(w.shape) < 0.1] = -0.0
        w = w[w.sum(axis=1) > 0.05]
        w = np.sort(w / w.sum(axis=1, keepdims=True), axis=1)
        assert (w[:, 0] < 0).sum() > 400 and np.signbit(w[w == 0]).any()
        got = tomography._truncate(w)
        assert got.tobytes() == truncate_loop(w).tobytes()
        for row in w[:50]:
            assert tomography._truncate(row).tobytes() == truncate_loop(row).tobytes()

    def test_projection_keeps_the_loop_bits(self, rng):
        # the whole projection, against the loop on the same eigenvalues
        rows = [random_hermitian(4, rng) for _ in range(200)]
        stack = np.array([h - np.eye(4) * (np.trace(h).real - 1) / 4 for h in rows])
        w, v = tomography.herm_eig(stack)
        mat = (v * truncate_loop(w)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()
        want = mat / np.trace(mat, axis1=-2, axis2=-1).real[..., None, None]
        assert mle_project(stack).tobytes() == want.tobytes()


class TestStateTomography:
    def test_plus_from_expectations(self):
        rho = qubit_state_tomo(1.0, 0.0, 0.0)
        assert fidelity(rho.matrix, target_ket(QubitTarget(math.pi / 2, 0.0))) == pytest.approx(1.0)

    def test_zero_expectations_maximally_mixed(self):
        rho = qubit_state_tomo(0.0, 0.0, 0.0)
        assert np.allclose(rho.matrix, np.eye(2) / 2)

    def test_noisy_expectations_projected(self):
        rho = qubit_state_tomo(1.06, 0.02, -0.03)
        assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-12
        assert fidelity(rho.matrix, target_ket(QubitTarget(math.pi / 2, 0.0))) >= 0.99

    def test_qutrit_zero_expectations(self):
        rho = qutrit_state_tomo(np.zeros(8))
        assert np.allclose(rho.matrix, np.eye(3) / 3)

    def test_qutrit_exact_roundtrip(self):
        from qsteer.states import QUTRIT_EQUAL_KET

        truth = pure_state(QUTRIT_EQUAL_KET)
        exps = [float(np.trace(truth.matrix @ l).real) for l in GELL_MANN]
        rho = qutrit_state_tomo(exps)
        assert fidelity(rho.matrix, QUTRIT_EQUAL_KET) >= 1 - 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_infinite_shot_exactness(self, seed):
        rho2 = random_density(2, seed)
        rec2 = tomo_qubit_state(rho2.matrix[None])[0]
        assert np.max(np.abs(rec2 - rho2.matrix)) < 1e-10
        rho3 = random_density(3, seed)
        rec3 = tomo_qutrit_state(rho3.matrix[None])[0]
        assert np.max(np.abs(rec3 - rho3.matrix)) < 1e-10

    def test_consecutive_seeds_draw_independent_shots(self, monkeypatch):
        # with a key of seed + i per observable, Z at seed n and Y at seed
        # n + 1 would read one stream
        values = []
        draw = tomography._keyed_multinomial

        def record(*args):
            counts = draw(*args)
            values.extend(counts[:, 1])  # +1 outcomes, one value per observable
            return counts

        monkeypatch.setattr(tomography, "_keyed_multinomial", record)
        plus = pure_state(target_ket(QubitTarget(math.pi / 2, 0.0)))
        for n in range(3):
            tomo_qubit_state(plus.matrix[None], shots=4096, seed=3 + n)
        xyz = np.reshape(values, (3, 3))
        assert xyz[0, 2] != xyz[1, 1] and xyz[1, 2] != xyz[2, 1]

    @pytest.mark.parametrize("shots", [None, 64])
    @pytest.mark.parametrize("tomo,dim", [(tomo_qubit_state, 3), (tomo_qutrit_state, 2)])
    def test_wrong_state_dimension_rejected(self, tomo, dim, shots):
        with pytest.raises(DimensionMismatchError):
            tomo(random_density(dim, 0).matrix[None], shots=shots, seed=0)

    def test_finite_shot_quality(self):
        fids = []
        for seed in range(100):
            rho = random_density(3, seed)
            rec = tomo_qutrit_state(rho.matrix[None], shots=4096, seed=10_000 + seed)[0]
            fids.append(reconstruction_fidelity(rho, rec))
        assert min(fids) >= 0.99


MAX_SEED = 2**64 - 2


class TestKeyedDraws:
    @pytest.mark.parametrize("shots", [1, 64, 4096])
    @pytest.mark.parametrize("order", [1, -1])
    def test_rows_equal_fresh_generators(self, shots, order):
        # row j reads key words (j, seed + 1) whatever its probabilities
        probs = np.random.default_rng(shots).dirichlet(np.ones(3), size=8)[::order]
        for seed in (0, 5, 2**63 + 11, MAX_SEED):
            got = tomography._keyed_multinomial(shots, probs, seed)
            for j, (row, p) in enumerate(zip(got, probs)):
                rng = np.random.Generator(np.random.Philox(key=((seed + 1) << 64) + j))
                assert np.array_equal(row, rng.multinomial(shots, p)), (seed, j)

    @pytest.mark.parametrize("seed", [-1, 2**64 - 1])
    def test_seed_outside_range_rejected(self, seed):
        with pytest.raises(ConfigError):
            tomography._keyed_multinomial(8, np.array([[0.5, 0.5]]), seed)

    def test_process_tomography_draws_equal_fresh_generators(self, monkeypatch):
        op = make_steering_operator(TargetSpec(QubitTarget(math.pi / 2, 0.0), 0.9, "+"))
        chan = channel_superoperator([op.unitary])
        got = process_tomography(chan, shots=256, seed=MAX_SEED)

        def fresh(shots, probs, seed):
            return np.array([
                np.random.Generator(np.random.Philox(key=((seed + 1) << 64) + j)).multinomial(shots, p)
                for j, p in enumerate(probs)
            ])

        monkeypatch.setattr(tomography, "_keyed_multinomial", fresh)
        assert np.array_equal(got, process_tomography(chan, shots=256, seed=MAX_SEED))


def tomography_stack(d: int) -> np.ndarray:
    """Ginibre states and pure states; a pure state's finite-shot estimate
    often has a negative eigenvalue, so its row needs mle_project."""
    rng = np.random.default_rng(d)
    kets = rng.normal(size=(6, d)) + 1j * rng.normal(size=(6, d))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    pure = [pure_state(ket).matrix for ket in kets]
    return np.array([random_density(d, s).matrix for s in range(6)] + pure)


class TestStackedStateTomography:
    @pytest.mark.parametrize("shots", [None, 1, 16, 4096])
    @pytest.mark.parametrize("tomo,d", [(tomo_qubit_state, 2), (tomo_qutrit_state, 3)])
    def test_prefix_of_stack_draws_the_same_shots(self, monkeypatch, tomo, d, shots):
        # a state's shots depend on its position, not on the states after it
        stack = tomography_stack(d)
        seed = 2**40 + 5
        projected = []
        project = tomography.mle_project
        monkeypatch.setattr(tomography, "mle_project", lambda m: projected.append(m) or project(m))
        got = tomo(stack, shots=shots, seed=seed)
        if shots in (1, 16):
            assert projected
        assert got.shape == stack.shape
        for k in range(1, len(stack) + 1):
            assert np.array_equal(tomo(stack[:k], shots=shots, seed=seed), got[:k])


class TestProcessTomography:
    def test_identity_channel(self):
        chan = channel_superoperator([np.eye(2, dtype=complex)])
        ptm = process_tomography(chan)
        assert np.max(np.abs(ptm - np.eye(4))) < 1e-9

    def test_ptm_first_row_trace_preservation(self, rng):
        for _ in range(10):
            spec = TargetSpec(
                QubitTarget(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
                rng.uniform(0.2, 1.5),
            )
            op = make_steering_operator(spec)
            kset = kraus_from_unitary(op)
            ptm = ptm_of_superoperator(channel_superoperator(kset))
            want = np.zeros(4)
            want[0] = 1.0
            assert np.max(np.abs(ptm[0] - want)) < 1e-10

    def test_ptm_strictly_real_channel_reconstruction(self):
        p = 0.35
        ptm = process_tomography(depolarizing_channel(p))
        assert np.max(np.abs(ptm - np.diag([1, 1 - p, 1 - p, 1 - p]))) < 1e-9

    def test_two_qubit_error_channel_identity(self):
        op = make_steering_operator(TargetSpec(QubitTarget(math.pi / 2, 0.0), math.pi / 2, "+"))
        chan = channel_superoperator([op.unitary])
        rec = process_tomography(chan)
        ideal = ptm_of_unitary(op.unitary)
        err = rec @ np.linalg.inv(ideal)
        assert np.max(np.abs(err - np.eye(16))) <= 1e-9

    def test_finite_shots_stay_physical(self):
        op = make_steering_operator(TargetSpec(QubitTarget(math.pi / 2, 0.0), 0.9, "+"))
        chan = channel_superoperator([op.unitary])
        rec = process_tomography(chan, shots=2000, seed=3)
        ideal = ptm_of_unitary(op.unitary)
        agf = average_gate_fidelity(rec, ideal)
        assert 0.9 < agf <= 1.0

    def test_wire_count_validation(self):
        # the wire count is read off the superoperator's shape: (4, 4) is one
        # wire, (16, 16) two, and no other shape is a supported register
        for channel in (np.eye(9), np.eye(64), np.ones((4, 16)), np.ones(16)):
            with pytest.raises(ConfigError):
                process_tomography(channel)

    @pytest.mark.parametrize("target", [QubitTarget(math.pi / 2, 0.0), QubitTarget(1.1, 0.3)])
    def test_noisy_cycle_channel_equals_its_ptm(self, target):
        # the blind cycle with a reset infidelity and damping, taken out of
        # the frame: exact tomography reads back its PTM
        op = make_steering_operator(TargetSpec(target, 0.785))
        noise = NoiseConfig(amplitude_damping_gamma=0.1, reset_infidelity=0.05)
        lift = np.kron(op.frame, op.frame.conj())
        channel = lift @ _step_superoperator(op, noise).sum(axis=0) @ lift.conj().T
        want = ptm_of_superoperator(channel)
        assert np.max(np.abs(want[0] - np.eye(4)[0])) < 1e-12  # trace preserving
        assert np.max(np.abs(process_tomography(channel) - want)) < 1e-12

    @pytest.mark.parametrize("shots", [1, 16, 256, 4096])
    def test_finite_shot_estimates_are_cptp(self, shots):
        # first row (1, 0, ..., 0) and a positive semidefinite normalized
        # Choi matrix, each to 1e-12, for a two-wire and a one-wire channel
        op = make_steering_operator(TargetSpec(QubitTarget(math.pi / 2, 0.0), math.pi / 2, "+"))
        channels = ((channel_superoperator([op.unitary]), 2), (depolarizing_channel(0.2), 1))
        for channel, n in channels:
            for seed in range(5):
                ptm = process_tomography(channel, shots=shots, seed=seed)
                assert np.max(np.abs(ptm[0] - np.eye(4**n)[0])) <= 1e-12
                assert np.linalg.eigvalsh(loop_choi(ptm, n))[0] >= -1e-12

    def test_exact_mode_runs_no_projection(self, monkeypatch):
        # an exact estimate is CPTP already: it comes back as linear inversion
        # gave it, and equals what the clip-and-rescale estimator gave, to 1e-12
        monkeypatch.setattr(tomography, "_project_spectrum", lambda w, v: pytest.fail("projected"))
        op = make_steering_operator(TargetSpec(QubitTarget(1.1, 0.3), 0.785))
        channels = ((channel_superoperator([op.unitary]), 2), (depolarizing_channel(0.35), 1))
        for channel, n in channels:
            raw = raw_ptms(lambda: process_tomography(channel))
            assert np.array_equal(process_tomography(channel), raw[0])
            assert np.max(np.abs(raw[0] - loop_clipped_ptm(raw[0], n))) <= 1e-12

    def test_mean_gate_fidelity_no_lower_than_the_clipped_estimator(self):
        # qpt --target + --J pi/2 --shots 256 over seeds 0..29
        op = make_steering_operator(TargetSpec(QubitTarget(math.pi / 2, 0.0), math.pi / 2, "+"))
        channel, ideal = channel_superoperator([op.unitary]), ptm_of_unitary(op.unitary)
        new, old = [], []
        for seed in range(30):
            raw = raw_ptms(lambda: new.append(process_tomography(channel, shots=256, seed=seed)))
            old.append(loop_clipped_ptm(raw[0], 2))
        mean_new, mean_old = (np.mean([average_gate_fidelity(r, ideal) for r in ptms])
                              for ptms in (new, old))
        assert mean_new >= mean_old


def loop_pauli_basis(n):
    return [pauli_string_matrix("".join(c)) for c in product("IXYZ", repeat=n)]


def loop_ptm_of_kraus(ops):
    """R_jk = Tr[P_j E(P_k)] / d, one Pauli pair at a time."""
    d = ops[0].shape[0]
    paulis = loop_pauli_basis(int(round(math.log2(d))))
    r = np.zeros((d * d, d * d))
    for k, pk in enumerate(paulis):
        out = sum(a @ pk @ a.conj().T for a in ops)
        for j, pj in enumerate(paulis):
            r[j, k] = float(np.trace(pj @ out).real) / d
    return r


def loop_choi(r, n):
    """Normalized Choi matrix sum_jk R_jk P_k^T (x) P_j / d^2, term by term."""
    paulis = list(enumerate(loop_pauli_basis(n)))
    return sum(r[j, k] * np.kron(pk.T, pj) for j, pj in paulis for k, pk in paulis) / 4**n


def loop_ptm_of_choi(choi, n):
    paulis = loop_pauli_basis(n)
    return np.array([[np.trace(np.kron(pk.T, pj).conj().T @ choi).real for pk in paulis]
                     for pj in paulis])


def loop_clipped_ptm(r, n):
    """The estimator before the CPTP projection: negative Choi eigenvalues
    clipped and the trace restored, which is not trace preserving."""
    w, v = np.linalg.eigh(loop_choi(r, n))
    w = np.clip(w, 0.0, None)
    return loop_ptm_of_choi((v * w) @ v.conj().T / w.sum(), n)


def loop_cptp_ptm(r, n):
    """Dykstra's alternating projection on the term-by-term Choi matrix, as
    _project_ptm_physical runs it: eigenvalues onto the probability simplex
    by sorting, with Dykstra's correction, then Tr_out J = I/d by an index
    loop, until the two iterates agree to 1e-12 in Frobenius norm."""
    d = 2**n

    def trace_preserving(m):
        tr_out = [[sum(m[a * d + i, b * d + i] for i in range(d)) for b in range(d)]
                  for a in range(d)]
        return m - np.kron(np.array(tr_out) - np.eye(d) / d, np.eye(d) / d)

    x, correction = trace_preserving(loop_choi(r, n)), 0.0
    while True:
        w, v = np.linalg.eigh(x + correction)
        u = np.sort(w)[::-1]
        shifts = (np.cumsum(u) - 1) / np.arange(1, d * d + 1)
        y = (v * np.maximum(w - shifts[np.flatnonzero(u > shifts)[-1]], 0.0)) @ v.conj().T
        correction = x + correction - y
        x = trace_preserving(y)
        if np.linalg.norm(x - y) <= 1e-12:
            return loop_ptm_of_choi(x, n)


def raw_ptms(runs):
    """The linear-inversion PTMs of the process_tomography calls in ``runs()``."""
    raw, project = [], tomography._project_ptm_physical
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tomography, "_project_ptm_physical",
                      lambda r, n: raw.append(r) or project(r, n))
        runs()
    return raw


class TestChannelConversions:
    def test_ptm_of_kraus_matches_loop(self, rng):
        for _ in range(10):
            spec = TargetSpec(
                QubitTarget(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
                rng.uniform(0.2, 1.5),
            )
            op = make_steering_operator(spec)
            for ops in (kraus_from_unitary(op), [op.unitary]):
                got = ptm_of_superoperator(channel_superoperator(ops))
                assert np.max(np.abs(got - loop_ptm_of_kraus(ops))) < 1e-12

    def test_choi_projection_matches_loop_on_finite_shot_ptms(self, rng):
        def runs():
            for seed in range(6):
                spec = TargetSpec(
                    QubitTarget(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
                    rng.uniform(0.2, 1.5),
                )
                op = make_steering_operator(spec)
                process_tomography(channel_superoperator([op.unitary]), shots=256, seed=seed)

        raw = raw_ptms(runs)
        assert len(raw) == 6
        for r in raw:
            got = tomography._project_ptm_physical(r, 2)
            assert np.max(np.abs(got - r)) > 1e-3  # each estimate needed the projection
            assert np.max(np.abs(got - loop_cptp_ptm(r, 2))) < 1e-12


def fresh_qpt_tables(n):
    """The tables of tomography._qpt_tables(n), built one entry at a time
    from the Pauli matrices and the four input kets (oracle path)."""
    kets = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex),
            tomography.KET_PLUS, tomography.KET_PLUS_I]
    inputs = []
    for combo in product(kets, repeat=n):
        ket = functools.reduce(np.kron, combo, np.ones(1, dtype=complex))
        inputs.append(np.outer(ket, ket.conj()).reshape(-1))
    inputs = np.array(inputs)
    basis = np.stack([p.reshape(-1) for p in loop_pauli_basis(n)], axis=1)
    eigvecs = {a: np.linalg.eigh(PAULIS[a])[1] for a in "XYZ"}
    rotations = np.array([
        functools.reduce(np.kron, (eigvecs[a] for a in setting), np.ones((1, 1), dtype=complex))
        for setting in product("XYZ", repeat=n)
    ])
    supports = [t for t in product((0, 1), repeat=n) if any(t)]
    # bit w of outcome b is wire w's, most significant first; bit 1 is the +1 eigenvalue
    signs = np.array([[math.prod(2 * (b >> (n - 1 - w) & 1) - 1 for w in range(n) if t[w])
                       for t in supports] for b in range(2**n)])
    columns = [(s, t) for s in product((1, 2, 3), repeat=n) for t in supports]
    first = []
    for label in product(range(4), repeat=n):  # letters I=0, X=1, Y=2, Z=3
        if any(label):
            first.append(next(col for col, (s, t) in enumerate(columns)
                              if all(k == (x if kept else 0) for k, x, kept in zip(label, s, t))))
    return inputs, np.linalg.inv(inputs.T) @ basis, rotations, signs, np.array(first), basis


# the order in which _qpt_tables returns its tables
QPT_TABLE_NAMES = ("inputs", "coeffs", "rotations", "signs", "first", "basis")


def amplitude_damping_channel(gamma: float) -> np.ndarray:
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return channel_superoperator([k0, k1])


class TestQptTables:
    @pytest.mark.parametrize("n", [1, 2])
    def test_cached_tables_equal_a_fresh_build(self, n):
        got, want = tomography._qpt_tables(n), fresh_qpt_tables(n)
        assert got is tomography._qpt_tables(n)
        for name, table, fresh in zip(QPT_TABLE_NAMES, got, want, strict=True):
            assert table.shape == fresh.shape and np.array_equal(table, fresh), name

    @pytest.mark.parametrize("n", [1, 2])
    def test_cached_tables_are_read_only(self, n):
        for name, table in zip(QPT_TABLE_NAMES, tomography._qpt_tables(n), strict=True):
            with pytest.raises(ValueError):
                table.flat[0] = 0
            assert not table.flags.writeable, name

    def test_nothing_is_built_at_import(self):
        # the benchmark's set-up imports qsteer afresh each time
        code = ("from qsteer import cli, tomography; "
                "assert tomography._qpt_tables.cache_info().currsize == 0")
        src = os.path.dirname(os.path.dirname(tomography.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_channels_give_the_bits_of_fresh_tables(self, monkeypatch):
        # a one-wire amplitude damping and a two-wire steering unitary, exact
        # and at 64 shots, where the Dykstra projection runs
        op = make_steering_operator(TargetSpec(QubitTarget(1.1, 0.3), 0.785))
        channels = (amplitude_damping_channel(0.3), channel_superoperator([op.unitary]))
        runs = [(channel, shots) for channel in channels for shots in (None, 64)]
        cached = [process_tomography(channel, shots=shots, seed=7) for channel, shots in runs]
        monkeypatch.setattr(tomography, "_qpt_tables", fresh_qpt_tables)
        for (channel, shots), got in zip(runs, cached):
            want = process_tomography(channel, shots=shots, seed=7)
            assert got.tobytes() == want.tobytes(), (channel.shape, shots)


class TestAverageGateFidelity:
    def test_self_fidelity_one(self, rng):
        op = make_steering_operator(TargetSpec(QubitTarget(1.0, 1.0), 0.8))
        ptm = ptm_of_unitary(op.unitary)
        assert average_gate_fidelity(ptm, ptm) == pytest.approx(1.0, abs=1e-12)

    def test_fully_depolarizing_single_qubit(self):
        ptm = ptm_of_superoperator(depolarizing_channel(1.0))
        got = average_gate_fidelity(ptm, ptm_of_unitary(np.eye(2)))
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_two_qubit_depolarizing_closed_form(self):
        # brute-force PTM inner product for the two-qubit depolarizing map
        p = 0.4
        ops = [math.sqrt(1 - 15 * p / 16) * np.eye(4, dtype=complex)]
        from qsteer.states import pauli_string_matrix

        for a in "IXYZ":
            for b in "IXYZ":
                if a == b == "I":
                    continue
                ops.append(math.sqrt(p / 16) * pauli_string_matrix(a + b))
        chan = channel_superoperator(ops)
        got = average_gate_fidelity(ptm_of_superoperator(chan), ptm_of_unitary(np.eye(4)))
        f_pro = (1 + 15 * (1 - p)) / 16
        want = (4 * f_pro + 1) / 5
        assert got == pytest.approx(want, abs=1e-12)


class TestPipeline:
    def test_tomography_during_steering_within_shot_noise(self):
        op = make_steering_operator(TargetSpec(QubitTarget(math.pi / 2, 0.0), math.pi / 4, "+"))
        kset = kraus_from_unitary(op)
        from qsteer.steering import averaged_step

        state = random_density(2, 1)
        shots = 4096
        for n in range(6):
            rec = tomo_qubit_state(state.matrix[None], shots=shots, seed=100 + n)[0]
            exact = fidelity(state.matrix, op.target)
            noisy = fidelity(rec, op.target)
            # fidelity is a linear functional of the three estimated
            # expectations; 3 sigma of each, summed, bounds the error
            sigma = 3 * math.sqrt(3) * 0.5 / math.sqrt(shots)
            assert abs(noisy - exact) <= 3 * sigma + 0.01
            state = averaged_step(state, kset)
