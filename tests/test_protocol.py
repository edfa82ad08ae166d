import hashlib
import json
import math

import numpy as np
import pytest

from qsteer.cli import write_sweep
from qsteer.errors import ConfigError, DimensionMismatchError
from qsteer.linalg import expm_i_herm
from qsteer import protocol
from qsteer.protocol import (
    MAX_RUN_BYTES,
    MAX_SEED,
    NO_NOISE,
    _PHILOX_CHUNK,
    NoiseConfig,
    TrajectoryBatch,
    _blind_grid,
    _check_run_bytes,
    _maximally_mixed,
    _outcome_threshold,
    _philox_draws,
    _run_trajectories,
    _step_superoperator,
    amplitude_damping_kraus,
    apply_noise,
    channel_spectrum,
    repetition_law,
    repetition_stats,
    run_blind,
    run_nonblind,
    run_nonblind_batch,
    sweep,
)
from qsteer.states import (
    DensityState,
    QubitTarget,
    QUTRIT_EQUAL_TARGET,
    QutritTarget,
    CATALOG,
    fidelity,
    random_density,
)
from qsteer.steering import (
    TargetSpec,
    averaged_step,
    build_qutrit_hamiltonian,
    kraus_from_unitary,
    make_steering_operator,
)

from conftest import (STABILIZERS, channel_superoperator, ginibre_density, pure_state,
                      steering_inequality_holds)

PLUS = TargetSpec(QubitTarget(math.pi / 2, 0.0), math.pi / 2, "+")
PLUS_QUARTER = TargetSpec(QubitTarget(math.pi / 2, 0.0), math.pi / 4, "+")


def _to_unit_double(words: np.ndarray) -> np.ndarray:
    """numpy's uint64 -> [0, 1) map: the top 53 bits times 2^-53."""
    return (words >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def _batch_of(repetitions) -> TrajectoryBatch:
    """A batch with the given repetitions-to-success (0 for none); the
    states and records are placeholders that repetition_stats never reads."""
    reps = np.asarray(repetitions, dtype=np.int64)
    return TrajectoryBatch(
        final_states=np.zeros((reps.size, 2, 2), dtype=complex),
        recorded_outcomes=np.zeros((reps.size, 0), dtype=np.int8),
        repetitions=reps,
        seed=0,
    )


class TestNoiseConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            NoiseConfig(depolarizing_p=1.5)
        with pytest.raises(ConfigError):
            NoiseConfig(readout_confusion=np.array([[0.9, 0.2], [0.1, 0.9]]))
        NoiseConfig(readout_confusion=np.array([[0.9, 0.1], [0.2, 0.8]]))

    @pytest.mark.parametrize(
        "confusion",
        [[[math.nan, math.nan], [0.0, 1.0]], [[math.nan, 1.0], [0.0, 1.0]], [[1.0, 0.0], [math.inf, 0.0]]],
    )
    def test_non_finite_confusion_rejected(self, confusion):
        # NaN passes both the negativity and the row-sum comparison
        with pytest.raises(ConfigError, match="non-finite"):
            NoiseConfig(readout_confusion=np.array(confusion))

    def test_channels_trace_and_positivity(self, rng):
        noise = NoiseConfig(depolarizing_p=0.1, amplitude_damping_gamma=0.2)
        for d in (2, 3):
            for _ in range(20):
                rho = ginibre_density(d, rng)
                out = apply_noise(rho, noise)
                assert abs(np.trace(out).real - 1) < 1e-12
                assert np.linalg.eigvalsh(out).min() > -1e-12

    def test_amplitude_damping_completeness(self):
        for d in (2, 3):
            ops = amplitude_damping_kraus(d, 0.3)
            acc = sum(k.conj().T @ k for k in ops)
            assert np.allclose(acc, np.eye(d), atol=1e-14)


class TestRunBlind:
    def test_one_step_plus(self):
        op = make_steering_operator(PLUS)
        for seed in range(10):
            fids = run_blind(random_density(2, seed), op, 1)[0]
            assert fids[-1] >= 1 - 1e-10

    def test_initial_entry_is_rho0_fidelity(self):
        op = make_steering_operator(PLUS_QUARTER)
        rho = random_density(2, 11)
        fids, states = run_blind(rho, op, 4)
        assert fids[0] == pytest.approx(fidelity(rho.matrix, op.target))
        assert fids.shape == (5,) and states.shape == (5, 2, 2)
        assert np.allclose(states[0], rho.matrix, rtol=0.0, atol=1e-15)
        assert np.allclose(fidelity(states, op.target), fids, rtol=0.0, atol=1e-15)

    def test_depolarizing_plateau_matches_transfer_matrix_fixed_point(self):
        # compose steering + depolarizing as a superoperator, find its
        # eigenvalue-1 fixed point, and compare the long-run fidelity
        p = 0.05
        op = make_steering_operator(PLUS)
        kset = kraus_from_unitary(op)
        s = channel_superoperator(kset)
        d = 2
        dep = (1 - p) * np.eye(d * d, dtype=complex)
        eye_flat = np.eye(d, dtype=complex).reshape(-1)
        # depolarizing in superoperator form: rho -> (1-p) rho + p tr(rho) I/d
        trace_vec = np.eye(d, dtype=complex).reshape(-1).conj()
        dep = dep + (p / d) * np.outer(eye_flat, trace_vec)
        total = dep @ s
        w, v = np.linalg.eig(total)
        k = int(np.argmin(np.abs(w - 1.0)))
        fixed = v[:, k].reshape(d, d)
        fixed = fixed / np.trace(fixed)
        want = float((op.target.conj() @ fixed @ op.target).real)

        noise = NoiseConfig(depolarizing_p=p)
        fids = run_blind(random_density(2, 0), op, 200, noise)[0]
        # the nonsymmetric eigensolver limits the oracle side to ~1e-8
        assert fids[-1] == pytest.approx(want, abs=1e-7)
        assert fids[-1] < 1.0
        # analytic fixed point for maximal coupling: (1-p) target + p I/2
        assert fids[-1] == pytest.approx(1 - p / 2, abs=1e-12)

    def test_reset_infidelity_lowers_plateau(self):
        op = make_steering_operator(PLUS)
        clean = run_blind(random_density(2, 1), op, 50)[0]
        dirty = run_blind(random_density(2, 1), op, 50, NoiseConfig(reset_infidelity=0.1))[0]
        assert dirty[-1] < clean[-1]

    def test_invalid_steps(self):
        op = make_steering_operator(PLUS)
        with pytest.raises(ConfigError):
            run_blind(random_density(2, 0), op, 0)


def ancilla_readout(op, rho: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """(p_k, post-measurement system state) of ancilla outcome k after one
    cycle from |0><0| (x) rho, read off the projected joint state."""
    d = op.system_dim
    joint = op.unitary @ np.kron(np.diag([1.0, 0.0]), rho) @ op.unitary.conj().T
    block = joint.reshape(2, d, 2, d)[k, :, k, :]
    p = float(np.trace(block).real)
    return p, block / p


class TestMeasureAncilla:
    def test_outcome_one_projects_to_target(self):
        # after the maximal-coupling steering unitary, reading "1" leaves the
        # system exactly in the target state
        op = make_steering_operator(PLUS)
        for seed in range(10):
            p, post = ancilla_readout(op, random_density(2, seed).matrix, 1)
            if p < 1e-14:
                continue
            assert fidelity(post, op.target) >= 1 - 1e-10

    def test_probabilities_sum_to_one(self, rng):
        op = make_steering_operator(PLUS_QUARTER)
        rho = ginibre_density(2, rng)
        total = sum(ancilla_readout(op, rho, k)[0] for k in range(2))
        assert total == pytest.approx(1.0, abs=1e-11)

    def test_law_of_total_channel(self, rng):
        op = make_steering_operator(PLUS_QUARTER)
        kset = kraus_from_unitary(op)
        for _ in range(20):
            rho = ginibre_density(2, rng)
            acc = np.zeros((2, 2), dtype=complex)
            for k in range(2):
                p, post = ancilla_readout(op, rho, k)
                if p >= 1e-14:
                    acc += p * post
            want = sum(a @ rho @ a.conj().T for a in kset)
            assert np.max(np.abs(acc - want)) < 1e-10


class TestRunNonblind:
    def test_seed_replay(self):
        op = make_steering_operator(PLUS_QUARTER)
        rho = random_density(2, 5)
        a = run_nonblind(rho, op, 20, seed=9, trajectory_index=4)
        b = run_nonblind(rho, op, 20, seed=9, trajectory_index=4)
        assert a == b

    def test_stops_at_first_recorded_one(self):
        op = make_steering_operator(PLUS_QUARTER)
        rho = random_density(2, 5)
        rec = run_nonblind(rho, op, 50, seed=1)
        if rec.repetitions_to_success is not None:
            assert rec.outcomes[-1] == 1
            assert all(o == 0 for o in rec.outcomes[:-1])
            assert rec.repetitions_to_success == len(rec.outcomes)

    def test_batch_equals_singles(self):
        op = make_steering_operator(PLUS_QUARTER)
        rho = random_density(2, 5)
        noise = NoiseConfig(readout_confusion=np.array([[0.93, 0.07], [0.06, 0.94]]))
        batch = run_nonblind_batch(rho, op, 12, 40, noise, seed=17)
        for i in range(40):
            single = run_nonblind(rho, op, 12, noise, seed=17, trajectory_index=i)
            want_reps = single.repetitions_to_success or 0
            assert batch.repetitions[i] == want_reps
            n = len(single.outcomes)
            assert list(batch.recorded_outcomes[i][:n]) == list(single.outcomes)

    @pytest.mark.parametrize(
        "spec,d",
        [(PLUS_QUARTER, 2), (TargetSpec(QUTRIT_EQUAL_TARGET, 0.6, "qutrit-equal"), 3)],
    )
    def test_record_holds_initial_and_final_fidelity(self, spec, d):
        op = make_steering_operator(spec)
        rho = random_density(d, 6)
        noise = NoiseConfig(
            depolarizing_p=0.02, readout_confusion=np.array([[0.95, 0.05], [0.07, 0.93]])
        )
        batch = run_nonblind_batch(rho, op, 12, 20, noise, seed=5)
        for i in range(20):
            rec = run_nonblind(rho, op, 12, noise, seed=5, trajectory_index=i)
            assert len(rec.fidelities) == 2
            assert rec.fidelities[0] == fidelity(rho.matrix, op.target)
            # the batch's lane i: the same draws, a batched matrix product
            want = fidelity(batch.final_states[i], op.target)
            assert rec.fidelities[1] == pytest.approx(want, abs=1e-12)

    def test_repetitions_geometric_at_quarter_pi(self):
        op = make_steering_operator(PLUS_QUARTER)
        rho = DensityState(matrix=np.eye(2, dtype=complex) / 2, dims=(2,))
        batch = run_nonblind_batch(rho, op, 80, 20_000, seed=3)
        succ = np.sort(batch.repetitions[batch.repetitions > 0])
        # success probability per cycle is sin^2(J) exactly
        p = math.sin(math.pi / 4) ** 2
        values = np.arange(1, succ.max() + 1)
        emp = np.searchsorted(succ, values, side="right") / len(succ)
        geo = 1 - (1 - p) ** values
        assert np.max(np.abs(emp - geo)) < 0.015
        assert np.mean(succ) == pytest.approx(1 / p, rel=0.05)

    def test_mean_one_at_half_pi(self):
        # at maximal coupling any recorded success happens on the first cycle
        op = make_steering_operator(PLUS)
        rho = DensityState(matrix=np.eye(2, dtype=complex) / 2, dims=(2,))
        batch = run_nonblind_batch(rho, op, 30, 4000, seed=5)
        stats = repetition_stats(batch)
        assert stats.mean_repetitions == 1.0

    def test_trajectory_mean_matches_blind(self):
        op = make_steering_operator(PLUS_QUARTER)
        rho = random_density(2, 2)
        n = 40_000
        batch = run_nonblind_batch(rho, op, 4, n, seed=11, early_stop=False)
        mean_state = batch.final_states.mean(axis=0)
        blind = run_blind(rho, op, 4)[0]
        kset = kraus_from_unitary(op)
        state = rho
        for _ in range(4):
            state = averaged_step(state, kset)
        # three-sigma bound on each entry from the trajectory spread
        spread = batch.final_states.std(axis=0) / math.sqrt(n)
        bound = 3 * np.abs(spread) + 1e-9
        assert np.all(np.abs(mean_state - state.matrix) <= bound)
        assert blind[-1] == pytest.approx(
            float((op.target.conj() @ state.matrix @ op.target).real), abs=1e-12
        )

    def test_histogram_log_linear(self):
        op = make_steering_operator(PLUS_QUARTER)
        rho = DensityState(matrix=np.eye(2, dtype=complex) / 2, dims=(2,))
        batch = run_nonblind_batch(rho, op, 60, 50_000, seed=2)
        stats = repetition_stats(batch)
        xs, ys = [], []
        for value, count in sorted(stats.counts.items()):
            if count >= 100:
                xs.append(value)
                ys.append(math.log(count))
        slope, intercept = np.polyfit(xs, ys, 1)
        pred = slope * np.array(xs) + intercept
        ss_res = float(np.sum((np.array(ys) - pred) ** 2))
        ss_tot = float(np.sum((np.array(ys) - np.mean(ys)) ** 2))
        assert 1 - ss_res / ss_tot >= 0.99


class TestSweep:
    def test_one_step_maximal_coupling(self):
        targets = STABILIZERS
        _, average = sweep(targets, [math.pi / 2], 1)
        finals = average[:, 0, 1]
        assert len(finals) == 6
        assert all(a == pytest.approx(1.0, abs=1e-10) for a in finals)

    def test_smaller_coupling_needs_more_steps(self):
        targets = STABILIZERS
        steps_needed = {}
        for coupling in (math.pi / 8, math.pi / 4, math.pi / 2):
            fids, _ = sweep(targets, [coupling], 60)
            avg = fids[:, 0].mean(axis=0)
            steps_needed[coupling] = min(n for n, f in enumerate(avg) if f >= 0.99)
        assert steps_needed[math.pi / 8] > steps_needed[math.pi / 4] > steps_needed[math.pi / 2]

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep([], [0.1], 3)


class TestRepetitionStats:
    def test_all_ones(self):
        stats = repetition_stats(_batch_of([1] * 5))
        assert stats.mean_repetitions == 1.0
        assert stats.cdf == ((1, 1.0),)
        assert stats.n_failures == 0

    def test_synthetic_geometric_mean(self):
        rng = np.random.default_rng(0)
        p = 0.23
        reps = rng.geometric(p, size=20_000)
        stats = repetition_stats(_batch_of(reps))
        sigma = math.sqrt((1 - p) / p**2 / len(reps))
        assert abs(stats.mean_repetitions - 1 / p) <= 3 * sigma

    def test_failures_counted_separately(self):
        stats = repetition_stats(_batch_of([0, 1]))
        assert stats.n_failures == 1
        assert stats.mean_repetitions == 1.0


class TestQutritProtocol:
    def test_nonblind_batch_matches_singles_with_full_noise(self):
        op = make_steering_operator(TargetSpec(QUTRIT_EQUAL_TARGET, 0.6, "qutrit-equal"))
        rho = random_density(3, 1)
        noise = NoiseConfig(
            reset_infidelity=0.08,
            depolarizing_p=0.02,
            readout_confusion=np.array([[0.95, 0.05], [0.07, 0.93]]),
        )
        batch = run_nonblind_batch(rho, op, 15, 30, noise, seed=21)
        for i in range(30):
            single = run_nonblind(rho, op, 15, noise, seed=21, trajectory_index=i)
            assert batch.repetitions[i] == (single.repetitions_to_success or 0)
            n = len(single.outcomes)
            assert list(batch.recorded_outcomes[i][:n]) == list(single.outcomes)

    def test_blind_run_from_ground_state(self):
        op = make_steering_operator(TargetSpec(QUTRIT_EQUAL_TARGET, math.pi / 2, "qutrit-equal"))
        rho = pure_state(np.array([1, 0, 0], dtype=complex))
        fids = run_blind(rho, op, 40)[0]
        assert fids[-1] >= 1 - 1e-10
        ok, _ = steering_inequality_holds(fids)
        assert ok


class TestTrajectoryBoundary:
    """Both entry points share one engine, so they reject the same inputs."""

    @staticmethod
    def entry_points(rho, op, noise=NoiseConfig(), seed=0):
        return (
            lambda: run_nonblind(rho, op, 5, noise, seed=seed),
            lambda: run_nonblind_batch(rho, op, 5, 10, noise, seed=seed),
        )

    def test_confusion_size_must_match_ancilla(self):
        # the ancilla is always a qubit, so a 3x3 confusion never reaches a run
        with pytest.raises(ConfigError, match="2x2"):
            NoiseConfig(readout_confusion=np.eye(3))

    def test_initial_state_dimension_must_match(self):
        op = make_steering_operator(PLUS_QUARTER)
        for run in self.entry_points(random_density(3, 0), op):
            with pytest.raises(DimensionMismatchError):
                run()

    @pytest.mark.parametrize("seed", [-1, MAX_SEED + 1, 2**64, 1.5])
    def test_seed_range(self, seed):
        op = make_steering_operator(PLUS_QUARTER)
        for run in self.entry_points(random_density(2, 0), op, seed=seed):
            with pytest.raises(ConfigError):
                run()

    def test_largest_seed_accepted(self):
        op = make_steering_operator(PLUS_QUARTER)
        rho = random_density(2, 0)
        batch = run_nonblind_batch(rho, op, 5, 3, seed=MAX_SEED)
        single = run_nonblind(rho, op, 5, seed=MAX_SEED, trajectory_index=2)
        assert batch.repetitions[2] == (single.repetitions_to_success or 0)


class TestRunBytesBudget:
    """Runs over MAX_RUN_BYTES are refused before they allocate.  The large
    cases only call the check; the runs themselves are refused at a lowered
    budget, so no test allocates a refused size."""

    @pytest.mark.parametrize("n_bytes", [
        16 * (10**8 + 1) * 4,  # a blind qubit run of 10**8 steps
        10**7 * (16 * 9 + 10**4),  # 10**7 qutrit trajectories of 10**4 steps
        10**40,
        MAX_RUN_BYTES + 1,
    ])
    def test_over_budget_is_config_error(self, n_bytes):
        with pytest.raises(ConfigError) as info:
            _check_run_bytes(n_bytes)
        assert str(n_bytes) in str(info.value) and str(MAX_RUN_BYTES) in str(info.value)

    def test_budget_itself_passes(self):
        _check_run_bytes(MAX_RUN_BYTES)

    @pytest.mark.parametrize("spare", [0, -1])
    def test_each_run_estimates_what_it_allocates(self, monkeypatch, spare):
        qubit = make_steering_operator(PLUS)
        qutrit = make_steering_operator(TargetSpec(QUTRIT_EQUAL_TARGET, 0.5))
        targets = [("+", PLUS.target), ("+", PLUS.target)]
        runs = [
            # (N + 1) x cells x d^2 complex values
            (16 * 6 * 2 * 9, lambda: _blind_grid(_maximally_mixed(3), [qutrit] * 2, 5, NoiseConfig())),
            # (n, d^2) complex final states and the (N, n) int8 record
            (7 * (16 * 4 + 5), lambda: run_nonblind_batch(_maximally_mixed(2), qubit, 5, 7)),
            # about 200 bytes per row
            (200 * 2 * 3 * 5, lambda: sweep(targets, [0.1, 0.2, 0.3], 4)),
        ]
        for n_bytes, run in runs:
            monkeypatch.setattr(protocol, "MAX_RUN_BYTES", n_bytes + spare)
            if spare < 0:
                with pytest.raises(ConfigError, match=str(n_bytes)):
                    run()
            else:
                run()


def _numpy_draws(seed: int, index: int, n_blocks: int) -> np.ndarray:
    """(n_blocks, 4): the top 53 bits of numpy's raw Philox words of
    trajectory ``index``, each block in the engine's order: words 0 and 2
    (true outcomes), then 1 and 3 (readouts)."""
    raw = np.random.Philox(key=((seed + 1) << 64) + int(index)).random_raw(4 * n_blocks)
    return (raw >> np.uint64(11)).reshape(n_blocks, 4)[:, [0, 2, 1, 3]]


class TestPhiloxStreams:
    @pytest.mark.parametrize("seed", [0, 17, 2**63, MAX_SEED])
    def test_uniforms_match_numpy_philox(self, seed):
        indices = np.concatenate([
            np.arange(2000, dtype=np.uint64),
            np.uint64(2**40) + np.arange(1000, dtype=np.uint64) * np.uint64(7919),
            np.array([2**64 - 1], dtype=np.uint64),  # the largest index
        ])
        n_blocks = 4
        draws = np.stack([_philox_draws(seed, indices, b, True) for b in range(n_blocks)])
        for lane, i in enumerate(indices.tolist()):
            assert np.array_equal(draws[:, :, lane], _numpy_draws(seed, i, n_blocks)), i
        for b in range(n_blocks):
            assert np.array_equal(_philox_draws(seed, indices, b, False), draws[b, :2])

    @pytest.mark.parametrize("seed", [0, 17, 2**63, MAX_SEED])
    def test_one_index_many_blocks_match_numpy_philox(self, seed):
        # one trajectory's stream, block after block, as a lone run draws it
        for i in (0, 5, 2**40 + 7919, 2**64 - 1):
            for first in (0, 3):
                index = np.array([i], dtype=np.uint64)
                want = _numpy_draws(seed, i, first + 20)[first:]
                for readout, rows in ((True, 4), (False, 2)):
                    draws = np.concatenate(
                        [_philox_draws(seed, index, b, readout).T for b in range(first, first + 20)]
                    )
                    assert np.array_equal(draws, want[:, :rows]), (i, first, readout)

    @pytest.mark.parametrize("seed", [0, 2**63])
    def test_lanes_across_chunk_edges_match_numpy_philox(self, seed):
        # a partial last chunk must not keep words of the chunk before it
        chunk = _PHILOX_CHUNK
        for lanes in (chunk - 1, chunk, chunk + 1, 2 * chunk + 5):
            indices = np.uint64(2**40) + np.arange(lanes, dtype=np.uint64)
            full = _philox_draws(seed, indices, 3, True)
            half = _philox_draws(seed, indices, 3, False)
            assert full.shape == (4, lanes) and half.shape == (2, lanes)
            edges = {lanes - 1} | {e + j for e in range(chunk, lanes, chunk) for j in (-1, 0)}
            for lane in sorted(edges):
                want = _numpy_draws(seed, indices[lane], 4)[3]
                assert np.array_equal(full[:, lane], want), (lanes, lane)
                assert np.array_equal(half[:, lane], want[:2]), (lanes, lane)

    def test_outcomes_do_not_depend_on_the_batch(self):
        op = make_steering_operator(PLUS_QUARTER)
        rho = random_density(2, 8)
        noise = NoiseConfig(
            depolarizing_p=0.03, readout_confusion=np.array([[0.9, 0.1], [0.15, 0.85]])
        )
        big = run_nonblind_batch(rho, op, 15, 300, noise, seed=4)
        small = run_nonblind_batch(rho, op, 15, 37, noise, seed=4)
        assert np.array_equal(small.recorded_outcomes, big.recorded_outcomes[:37])
        assert np.array_equal(small.repetitions, big.repetitions[:37])
        # a window of trajectories run without any of the others
        _, recorded, reps = _run_trajectories(
            rho, op, 15, 50, noise, 4, early_stop=True, first_index=211
        )
        assert np.array_equal(recorded, big.recorded_outcomes[211:261])
        assert np.array_equal(reps, big.repetitions[211:261])


class TestPhiloxDraws:
    @pytest.mark.parametrize("readout", [False, True])
    def test_top_bits_of_the_words_the_engine_reads(self, readout):
        # words 0 and 2 (true outcomes), then 1 and 3 (readouts), >> 11
        lanes = 2 * _PHILOX_CHUNK + 5
        indices = np.uint64(2**40) + np.arange(lanes, dtype=np.uint64) * np.uint64(3)
        want = np.stack([_numpy_draws(9, i, 3)[2] for i in indices.tolist()], axis=1)
        assert np.array_equal(_philox_draws(9, indices, 2, readout), want[: 4 if readout else 2])


class TestOutcomeThreshold:
    """The engine's integer test (w >> 11) >= _outcome_threshold(c) against
    numpy's uniform test _to_unit_double(w) >= c."""

    @staticmethod
    def assert_same_test(words, cs):
        w = np.asarray(words, dtype=np.uint64)[:, None]
        c = np.asarray(cs, dtype=float)
        threshold = _outcome_threshold(c)
        assert threshold.dtype == np.uint64
        got = (w >> np.uint64(11)) >= threshold
        assert np.array_equal(got, _to_unit_double(w) >= c)

    def test_float_edges(self):
        ks = [1, 2, 3, 2**30 + 7, 2**52, 2**53 - 1]
        words = [0, 2**64 - 1] + [k << 11 for k in ks] + [(k << 11) - 1 for k in ks]
        cs = [-1.0, -5e-324, 0.0, 5e-324, 1 - 2.0**-53, 1.0, 1.5, 2.0**80, np.inf, -np.inf, np.nan]
        for k in ks:
            c = k * 2.0**-53
            cs += [c, np.nextafter(c, -1.0), np.nextafter(c, 2.0)]
        self.assert_same_test(words, cs)

    def test_random_words_at_their_own_uniforms(self):
        rng = np.random.default_rng(11)
        words = rng.integers(0, 2**64, size=2000, dtype=np.uint64)
        u = _to_unit_double(words)
        cs = np.concatenate([u, np.nextafter(u, -1.0), np.nextafter(u, 2.0), rng.random(200)])
        self.assert_same_test(words, cs)


class TestSeedContract:
    """Runs pinned to the records, repetitions and final-fidelity statistics
    they had before outcomes were drawn by integer thresholds on raw words.
    The README run's final-fidelity std is physics, not rounding: its 49,995
    heralded trajectories read fidelity 1.0, the 50,005 that never flag sit
    at 1 - cos^80(J), about 1 - 9.39e-13, and the std is half that gap.  Its
    last digits follow the rounding of that one residual, so it is pinned to
    the closed-form operator's bits."""

    def test_readme_run(self):
        op = make_steering_operator(TargetSpec(CATALOG["+"], 0.785, "+"))
        rho = DensityState(matrix=np.eye(2, dtype=complex) / 2, dims=(2,))
        batch = run_nonblind_batch(rho, op, 40, 100_000, seed=1)
        assert np.bincount(batch.repetitions).tolist() == [
            50005, 25109, 12450, 6210, 3148, 1540, 742, 366, 229, 99, 50, 24, 10, 8, 3, 3, 3, 0, 1
        ]
        record = np.ascontiguousarray(batch.recorded_outcomes)
        assert hashlib.sha256(record).hexdigest() == (
            "ea0d6f1b95a7a881c85b2bc86ae18dfff3e4af2787e585912e36a6d56af5a883"
        )
        fids = fidelity(batch.final_states, op.target)
        assert (float(fids.mean()), float(fids.std())) == (0.9999999999995303, 4.695133474147442e-13)

    def test_noisy_qutrit_run_without_early_stop(self):
        op = make_steering_operator(TargetSpec(QUTRIT_EQUAL_TARGET, 0.785, "qutrit-equal"))
        noise = NoiseConfig(0.01, 0.02, np.array([[0.97, 0.03], [0.05, 0.95]]), 0.05)
        batch = run_nonblind_batch(
            random_density(3, 4), op, 20, 25_000, noise, seed=2, early_stop=False
        )
        record = np.ascontiguousarray(batch.recorded_outcomes)
        assert hashlib.sha256(record).hexdigest() == (
            "1d64b00f07a2c599e3ac4c478be8999f7cfa48ad006511595fdfcc7bbce0f77f"
        )

    def test_readme_heralded_states_are_the_target(self):
        # A_1 is rank one onto psi, so in the frame a heralded state is e_0
        # exactly, and it leaves the frame as |psi><psi| to rounding
        op = make_steering_operator(TargetSpec(CATALOG["+"], 0.785, "+"))
        rho = DensityState(matrix=np.eye(2, dtype=complex) / 2, dims=(2,))
        batch = run_nonblind_batch(rho, op, 40, 100_000, seed=1)
        heralded = batch.final_states[batch.repetitions > 0]
        assert len(heralded) == 49_995
        target = np.outer(op.target, op.target.conj())
        assert np.max(np.abs(heralded - target)) <= 1e-15


class TestRepetitionStatsReference:
    @staticmethod
    def reference(reps):
        """The per-record loop the vectorized statistics must reproduce."""
        successes = sorted(int(r) for r in reps if r > 0)
        counts: dict[int, int] = {}
        for r in successes:
            counts[r] = counts.get(r, 0) + 1
        cdf, acc = [], 0
        for value in sorted(counts):
            acc += counts[value]
            cdf.append((value, acc / len(successes)))
        mean = float(np.mean(successes)) if successes else None
        return counts, tuple(cdf), mean, len(reps) - len(successes)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        reps = rng.geometric(0.3, size=5000)
        reps[rng.random(5000) < 0.2] = 0
        counts, cdf, mean, failures = self.reference(reps)
        stats = repetition_stats(_batch_of(reps))
        assert list(stats.counts.items()) == list(counts.items())
        assert stats.cdf == cdf
        assert stats.mean_repetitions == mean
        assert stats.n_failures == failures
        assert stats.n_records == len(reps)

    def test_all_failures(self):
        stats = repetition_stats(_batch_of([0] * 3))
        assert stats.counts == {} and stats.cdf == () and stats.mean_repetitions is None
        assert stats.n_failures == 3


CONFUSION = np.array([[0.9, 0.1], [0.2, 0.8]])
NOISE_KEYS = {
    "depolarizing_p": NoiseConfig(depolarizing_p=0.07),
    "amplitude_damping_gamma": NoiseConfig(amplitude_damping_gamma=0.11),
    "readout_confusion": NoiseConfig(readout_confusion=CONFUSION),
    "reset_infidelity": NoiseConfig(reset_infidelity=0.13),
    "all": NoiseConfig(0.07, 0.11, CONFUSION, 0.13),
}
QUTRIT_QUARTER = TargetSpec(QUTRIT_EQUAL_TARGET, math.pi / 4, "qutrit-equal")


class TestStepSuperoperator:
    """The per-outcome superoperators against the Kraus-sum oracle: the sum
    over reset states a of p_a A_ka (x) A_ka*, A_ka = <k|V|a>, then the noise
    superoperator read off the matrix units, conjugated by kron(F, F*) under
    damping."""

    @staticmethod
    def oracle(op, noise):
        d, f = op.system_dim, op.frame
        blocks = op.frame_unitary.reshape(2, d, 2, d)
        reset = (1.0 - noise.reset_infidelity, noise.reset_infidelity)
        units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
        noise_map = apply_noise(units, noise).reshape(d * d, d * d).T
        if noise.amplitude_damping_gamma > 0.0:
            lift = np.kron(f, f.conj())
            noise_map = lift.conj().T @ noise_map @ lift
        return [
            noise_map @ sum(p * np.kron(blocks[k, :, a], blocks[k, :, a].conj())
                            for a, p in enumerate(reset))
            for k in range(2)
        ]

    @pytest.mark.parametrize("key", [None, *sorted(NOISE_KEYS)])
    @pytest.mark.parametrize("spec", [PLUS_QUARTER, QUTRIT_QUARTER], ids=["qubit", "qutrit"])
    def test_branches_equal_kraus_oracle(self, spec, key):
        op = make_steering_operator(spec)
        noise = NoiseConfig() if key is None else NOISE_KEYS[key]
        got = _step_superoperator(op, noise)
        assert got.shape == (2, op.system_dim**2, op.system_dim**2) and got.flags.c_contiguous
        for branch, want in zip(got, self.oracle(op, noise)):
            if key is None:
                assert np.array_equal(branch, want)
            else:
                assert np.max(np.abs(branch - want)) <= 1e-15


class TestBlindReference:
    """run_blind against the per-step Kraus loop: averaged_step, then
    apply_noise, then a validated DensityState, once per cycle."""

    @staticmethod
    def loop_fidelities(spec, rho, steps, noise):
        op = make_steering_operator(spec)
        d = op.system_dim
        flipped = op.unitary.reshape(2, d, 2, d)[:, :, 1]  # <k|U|1> for a reset to |1>
        eps = noise.reset_infidelity
        kset = np.concatenate(
            [math.sqrt(1.0 - eps) * kraus_from_unitary(op), math.sqrt(eps) * flipped]
        )
        state, fids = rho, [fidelity(rho.matrix, op.target)]
        for _ in range(steps):
            state = averaged_step(state, kset)
            state = DensityState(matrix=apply_noise(state.matrix, noise), dims=state.dims)
            fids.append(fidelity(state.matrix, op.target))
        return fids

    @pytest.mark.parametrize("key", sorted(NOISE_KEYS))
    @pytest.mark.parametrize("spec", [PLUS_QUARTER, QUTRIT_QUARTER], ids=["qubit", "qutrit"])
    def test_matches_step_loop(self, spec, key):
        rho = random_density(spec.system_dim, 3)
        fids = run_blind(rho, make_steering_operator(spec), 25, NOISE_KEYS[key])[0]
        want = self.loop_fidelities(spec, rho, 25, NOISE_KEYS[key])
        assert len(fids) == 26
        assert np.max(np.abs(np.subtract(fids, want))) <= 1e-13

    def test_late_states_are_validated(self):
        # a frame cycle scaled by 1 + 1e-12 grows the trace by about 2e-12
        # per cycle, which leaves the 1e-10 trace tolerance only after ~50
        # cycles
        op = make_steering_operator(PLUS_QUARTER)
        leaky = op._replace(frame_unitary=(1.0 + 1e-12) * op.frame_unitary)
        rho = random_density(2, 0)
        run_blind(rho, leaky, 30)
        with pytest.raises(DimensionMismatchError, match="trace"):
            run_blind(rho, leaky, 100)

    def test_initial_state_dimension_must_match(self):
        with pytest.raises(DimensionMismatchError):
            run_blind(random_density(3, 0), make_steering_operator(PLUS_QUARTER), 3)


class TestSweepGrid:
    TARGETS = STABILIZERS

    def test_readme_targets_share_one_curve(self):
        # without damping every target of one (dimension, J) has the same
        # frame channel, so the README sweep's six curves agree bit for bit
        fids, _ = sweep(self.TARGETS, [0.39, 0.79, 1.57], 30)
        assert fids.shape == (6, 3, 31)
        assert np.all(fids == fids[0])

    def test_duplicate_coupling_has_no_stabilizer_average(self):
        fids, average = sweep(self.TARGETS, [0.7, 0.3, 0.7], 3)
        assert fids.shape == average.shape == (6, 3, 4)
        assert np.isnan(average[:, [0, 2]]).all()
        assert not np.isnan(average[:, 1]).any()
        cell = fids[:, 1, 2]
        for a in average[:, 1, 2]:
            assert a == pytest.approx(np.mean(cell), abs=1e-15)

    def test_repeats_give_exactly_zero_std(self, tmp_path):
        # a cell is one deterministic curve, so the std its rows are written with is 0
        fids, average = sweep(self.TARGETS, [0.7], 5)
        labels = [label for label, _ in self.TARGETS]
        write_sweep(labels, [0.7], fids, average, tmp_path / "s.csv", tmp_path / "s.json", {})
        rows = json.loads((tmp_path / "s.json").read_text())["rows"]
        assert len(rows) == 6 * 6
        assert [r["std"] for r in rows] == [0.0] * len(rows)

    def test_matches_run_blind(self):
        rho = DensityState(matrix=np.eye(2, dtype=complex) / 2, dims=(2,))
        targets, couplings = self.TARGETS[:2], [0.4, 1.1]
        fids, _ = sweep(targets, couplings, 6)
        for (_, target), target_fids in zip(targets, fids):
            for coupling, curve in zip(couplings, target_fids):
                spec = TargetSpec(target, coupling)
                want = run_blind(rho, make_steering_operator(spec), 6)[0]
                assert curve.tolist() == want.tolist()


class TestQubitClosedForm:
    """Without damping a qubit blind run from I/2 is a recurrence on the
    bright population: rho_bb <- (1 - p) cos^2(J) rho_bb + p/2, from 1/2,
    with fidelity 1 - rho_bb (criterion 2's law under depolarizing p)."""

    TARGETS = STABILIZERS + [
        ("qubit:0.7,1.9", QubitTarget(0.7, 1.9))
    ]

    @staticmethod
    def closed_form(coupling, p, steps):
        bright, fids = 0.5, [0.5]
        for _ in range(steps):
            bright = (1.0 - p) * math.cos(coupling) ** 2 * bright + p / 2
            fids.append(1.0 - bright)
        return np.array(fids)

    @pytest.mark.parametrize("p", [0.0, 0.01, 0.3])
    @pytest.mark.parametrize("coupling", [0.3, 0.785, 1.2])
    def test_run_blind_and_sweep_match(self, coupling, p):
        noise = NoiseConfig(depolarizing_p=p)
        want = self.closed_form(coupling, p, 25)
        rho = DensityState(matrix=np.eye(2, dtype=complex) / 2, dims=(2,))
        for _, target in self.TARGETS:
            fids = run_blind(rho, make_steering_operator(TargetSpec(target, coupling)), 25, noise)[0]
            assert np.max(np.abs(np.subtract(fids, want))) <= 1e-13
        fids, _ = sweep(self.TARGETS, [coupling], 25, noise)
        assert fids.shape == (len(self.TARGETS), 1, 26)
        assert np.max(np.abs(fids - want)) <= 1e-13


class TestBatchedSweepGrid:
    QUBITS = [("-i", CATALOG["-i"]), ("q", QubitTarget(0.3, 1.2))]
    QUTRITS = [("qutrit-equal", QUTRIT_EQUAL_TARGET), ("r", QutritTarget(0.4, 1.1, 0.3, 2.0))]
    COUPLINGS = [0.7, 0.3, 0.7]
    NOISE = NoiseConfig(
        depolarizing_p=0.01,
        amplitude_damping_gamma=0.02,
        reset_infidelity=0.05,
        readout_confusion=CONFUSION,
    )

    @pytest.mark.parametrize("dim", [None, 2, 3])
    def test_every_cell_equals_run_blind(self, dim):
        # no dimension: the mixed grid; each dimension runs from its I/d
        if dim is None:
            targets = [self.QUBITS[0], *self.QUTRITS, self.QUBITS[1]]
        else:
            targets = self.QUBITS if dim == 2 else self.QUTRITS
        fids, _ = sweep(targets, self.COUPLINGS, 6, self.NOISE)
        assert fids.shape == (len(targets), 3, 7)
        for (_, target), target_fids in zip(targets, fids):
            for coupling, curve in zip(self.COUPLINGS, target_fids):
                op = make_steering_operator(TargetSpec(target, coupling))
                d = op.system_dim
                rho0 = DensityState(matrix=np.eye(d, dtype=complex) / d, dims=(d,))
                assert curve.tolist() == run_blind(rho0, op, 6, self.NOISE)[0].tolist()
                # and the plain per-cell iteration, one matrix-vector product a
                # step in the frame, where I/d is I/d and a fidelity is the
                # (0, 0) entry
                channel = _step_superoperator(op, self.NOISE).sum(axis=0)
                vecs = [rho0.matrix.ravel()]
                for _ in range(6):
                    vecs.append(channel @ vecs[-1])
                want = np.clip(np.real(vecs)[:, 0], 0.0, 1.0)
                assert curve.tolist() == want.tolist()

    def test_stabilizer_average_stays_within_a_dimension(self):
        labels = ["0", "+", "qutrit-equal", "-i"]
        targets = [(label, CATALOG[label]) for label in labels]
        fids, average = sweep(targets, self.COUPLINGS, 5, self.NOISE)
        dim = np.array([3 if label == "qutrit-equal" else 2 for label in labels])
        assert np.isnan(average[:, [0, 2]]).all()
        for t, d in enumerate(dim):
            cell = fids[dim == d, 1]  # J = 0.3, the targets of t's dimension
            assert len(cell) == (1 if d == 3 else 3)
            for n in range(6):
                assert average[t, 1, n] == pytest.approx(np.mean(cell[:, n]), abs=1e-15)
        qutrit = labels.index("qutrit-equal")
        assert average[qutrit, 1].tolist() == fids[qutrit, 1].tolist()


class TestConditionalStateTable:
    """The table engine against single replays and a per-trajectory loop."""

    NOISE = NOISE_KEYS["all"]

    @staticmethod
    def loop_trajectory(rho, op, steps, noise, seed, index, early_stop):
        """One trajectory the textbook way: numpy's Philox stream, the
        per-outcome superoperators applied to vec(rho) in the frame,
        renormalized; without a readout confusion the record is the true
        outcome."""
        d, f, confusion = op.system_dim, op.frame, noise.readout_confusion
        sup = _step_superoperator(op, noise)
        stream = np.random.Generator(np.random.Philox(key=((seed + 1) << 64) + index))
        u = stream.random(2 * steps).reshape(steps, 2)
        vec, outcomes = (f.conj().T @ rho.matrix @ f).ravel(), []
        for s in range(steps):
            branches = sup @ vec
            weights = [np.trace(b.reshape(d, d)).real for b in branches]
            k = int(u[s, 0] >= weights[0] / sum(weights))
            vec = branches[k] / weights[k]
            outcomes.append(k if confusion is None else int(u[s, 1] >= confusion[k, 0]))
            if early_stop and outcomes[-1] == 1:
                break
        return outcomes, f @ vec.reshape(d, d) @ f.conj().T

    @pytest.mark.parametrize("early_stop", [True, False])
    @pytest.mark.parametrize("spec", [PLUS_QUARTER, QUTRIT_QUARTER], ids=["qubit", "qutrit"])
    def test_batch_final_states_equal_single_replays(self, spec, early_stop):
        op = make_steering_operator(spec)
        rho = random_density(op.system_dim, 6)
        n = 150
        batch = run_nonblind_batch(rho, op, 20, n, self.NOISE, seed=8, early_stop=early_stop)
        for i in range(n):
            final, recorded, reps = _run_trajectories(
                rho, op, 20, 1, self.NOISE, 8, early_stop, first_index=i
            )
            assert np.array_equal(recorded[0], batch.recorded_outcomes[i])
            assert reps[0] == batch.repetitions[i]
            assert np.max(np.abs(final[0] - batch.final_states[i])) <= 1e-12

    @pytest.mark.parametrize("early_stop", [True, False])
    def test_matches_per_trajectory_loop(self, early_stop):
        op = make_steering_operator(QUTRIT_QUARTER)
        rho = random_density(3, 9)
        batch = run_nonblind_batch(rho, op, 15, 60, self.NOISE, seed=2, early_stop=early_stop)
        for i in range(60):
            outcomes, state = self.loop_trajectory(rho, op, 15, self.NOISE, 2, i, early_stop)
            single = run_nonblind(rho, op, 15, self.NOISE, seed=2, trajectory_index=i,
                                  early_stop=early_stop)
            assert list(single.outcomes) == outcomes
            assert list(batch.recorded_outcomes[i][: len(outcomes)]) == outcomes
            assert np.max(np.abs(batch.final_states[i] - state)) <= 1e-12
            assert single.fidelities[-1] == pytest.approx(fidelity(state, op.target), abs=1e-12)

    @pytest.mark.parametrize("key", ["depolarizing_p", "amplitude_damping_gamma",
                                     "reset_infidelity"])
    @pytest.mark.parametrize("spec", [PLUS_QUARTER, QUTRIT_QUARTER], ids=["qubit", "qutrit"])
    def test_one_row_table_under_noise_matches_loop(self, spec, key):
        # early stop without readout confusion: every live trajectory has
        # recorded only "0"s, so the engine keeps a one-row table
        op, noise = make_steering_operator(spec), NOISE_KEYS[key]
        rho = random_density(op.system_dim, 3)
        batch = run_nonblind_batch(rho, op, 12, 80, noise, seed=5)
        assert 0 < np.sum(batch.repetitions == 0) < 80
        for i in range(80):
            outcomes, state = self.loop_trajectory(rho, op, 12, noise, 5, i, True)
            assert batch.recorded_outcomes[i].tolist() == outcomes + [-1] * (12 - len(outcomes))
            assert batch.repetitions[i] == (len(outcomes) if outcomes[-1] == 1 else 0)
            assert np.max(np.abs(batch.final_states[i] - state)) <= 1e-12

    @pytest.mark.parametrize("case", ["plus", "plus-depolarizing", "qutrit-damping-reset",
                                      "i-random-start"])
    def test_one_row_table_replays_bit_for_bit(self, case):
        # early stop without readout confusion: alone or in a batch, a
        # trajectory's table is the same one row, so each product it goes
        # through has the same shape and its final state the same bits
        spec, noise, rho = {
            "plus": (PLUS_QUARTER, NO_NOISE, None),
            "plus-depolarizing": (PLUS_QUARTER, NoiseConfig(depolarizing_p=0.03), None),
            "qutrit-damping-reset": (QUTRIT_QUARTER, NoiseConfig(amplitude_damping_gamma=0.02,
                                                                 reset_infidelity=0.05), None),
            "i-random-start": (TargetSpec(CATALOG["i"], 0.5, "i"), NO_NOISE, random_density(2, 7)),
        }[case]
        op = make_steering_operator(spec)
        rho = _maximally_mixed(op.system_dim) if rho is None else rho
        n = 3000
        batch = run_nonblind_batch(rho, op, 20, n, noise, seed=11)
        assert 0 < np.sum(batch.repetitions == 0) < n
        for i in range(0, n, 97):
            final, _, _ = _run_trajectories(rho, op, 20, 1, noise, 11, True, first_index=i)
            assert np.array_equal(final[0], batch.final_states[i]), i

    def test_batch_that_empties_on_its_first_cycle(self):
        # |-> under the + cycle at J = pi/2 flags at cycle 1 with
        # probability 1 and is steered to |+>, so no trajectory reads the
        # second step's draws of block 0
        op = make_steering_operator(PLUS)
        minus = pure_state(np.array([1.0, -1.0]) / math.sqrt(2.0))
        batch = run_nonblind_batch(minus, op, 6, 300, seed=3)
        assert batch.repetitions.tolist() == [1] * 300
        assert batch.recorded_outcomes.tolist() == [[1] + [-1] * 5] * 300
        plus = np.full((2, 2), 0.5)
        assert np.max(np.abs(batch.final_states - plus)) <= 1e-15
        for i in (0, 299):
            outcomes, state = self.loop_trajectory(minus, op, 6, NO_NOISE, 3, i, True)
            assert outcomes == [1] and np.max(np.abs(batch.final_states[i] - state)) <= 1e-15

    def test_batch_across_philox_chunks_equals_windows_run_alone(self):
        # live lanes shrink at every stop, so chunk edges move between
        # blocks; a window run alone draws each trajectory from its own lanes
        op = make_steering_operator(PLUS_QUARTER)
        rho = random_density(2, 4)
        noise = NoiseConfig(readout_confusion=CONFUSION)
        n = 2 * _PHILOX_CHUNK + 5
        batch = run_nonblind_batch(rho, op, 15, n, noise, seed=6)
        assert 0 < np.sum(batch.repetitions == 0) < n
        edges = [0, 5, _PHILOX_CHUNK - 3, _PHILOX_CHUNK + 2, 2 * _PHILOX_CHUNK - 1, n]
        for start, stop in zip(edges, edges[1:]):
            _, recorded, reps = _run_trajectories(
                rho, op, 15, stop - start, noise, 6, early_stop=True, first_index=start
            )
            assert np.array_equal(recorded, batch.recorded_outcomes[start:stop]), start
            assert np.array_equal(reps, batch.repetitions[start:stop]), start


class TestRepetitionLaw:
    @pytest.mark.parametrize("coupling", [0.3, math.pi / 4])
    def test_noiseless_plus_is_geometric_on_the_minus_half(self, coupling):
        # I/2 is half |+>, which never records a 1, and half |->, which
        # records its first 1 at cycle n with probability cos^2(J)^(n-1) sin^2(J);
        # conditioned on a flag within N, the mean is the truncated geometric
        # 1/p - N q^N / (1 - q^N)
        op = make_steering_operator(TargetSpec(QubitTarget(math.pi / 2, 0.0), coupling, "+"))
        rho = DensityState(matrix=np.eye(2, dtype=complex) / 2, dims=(2,))
        pmf, failure = repetition_law(rho, op, 30)
        p, n = math.sin(coupling) ** 2, np.arange(1, 31)
        q = 1 - p
        assert np.max(np.abs(pmf - 0.5 * p * q ** (n - 1))) <= 1e-15
        assert failure == pytest.approx(0.5 + 0.5 * q**30, abs=1e-13)
        assert n @ pmf / pmf.sum() == pytest.approx(1 / p - 30 * q**30 / (1 - q**30), rel=1e-12)

    @pytest.mark.parametrize("key", sorted(NOISE_KEYS))
    @pytest.mark.parametrize("spec", [PLUS_QUARTER, QUTRIT_QUARTER], ids=["qubit", "qutrit"])
    def test_is_a_distribution(self, spec, key):
        op = make_steering_operator(spec)
        pmf, failure = repetition_law(random_density(op.system_dim, 2), op, 40, NOISE_KEYS[key])
        assert pmf.shape == (40,) and np.all(pmf >= -1e-15) and -1e-15 <= failure <= 1
        assert pmf.sum() + failure == pytest.approx(1.0, abs=1e-13)

    def test_rejects_what_the_engine_rejects(self):
        op = make_steering_operator(PLUS_QUARTER)
        with pytest.raises(ConfigError):
            repetition_law(random_density(2, 0), op, 0)
        with pytest.raises(DimensionMismatchError):
            repetition_law(random_density(3, 0), op, 5)
        with pytest.raises(ConfigError):
            NoiseConfig(readout_confusion=np.eye(3))


class TestOutcomeRecord:
    def test_int8_record_keeps_values(self):
        # reference counts and rows from the int64 record of the same run
        op = make_steering_operator(PLUS_QUARTER)
        rho = DensityState(matrix=np.eye(2, dtype=complex) / 2, dims=(2,))
        noise = NoiseConfig(readout_confusion=CONFUSION)
        batch = run_nonblind_batch(rho, op, 12, 400, noise, seed=5)
        rec = batch.recorded_outcomes
        assert rec.dtype == np.int8 and rec.shape == (400, 12)
        assert [int(np.sum(rec == v)) for v in (-1, 0, 1)] == [2681, 1789, 330]
        assert np.bincount(batch.repetitions).tolist() == [
            70, 108, 59, 42, 20, 15, 13, 13, 11, 11, 12, 16, 10
        ]
        assert rec[:4].tolist() == [
            [0, 0, 0, 0, 0, 0, 0, 0, 1, -1, -1, -1],
            [1] + [-1] * 11,
            [0, 0, 0, 0, 0, 0, 0, 1, -1, -1, -1, -1],
            [1] + [-1] * 11,
        ]


class TestChannelSpectrum:
    @pytest.mark.parametrize("coupling", [0.3, math.pi / 4])
    def test_second_modulus_is_the_convergence_rate(self, coupling):
        plus = make_steering_operator(TargetSpec(QubitTarget(math.pi / 2, 0.0), coupling, "+"))
        qutrit = make_steering_operator(TargetSpec(QUTRIT_EQUAL_TARGET, coupling))
        rate = abs(math.cos(coupling))
        for op, rate in ((plus, rate), (qutrit, math.sqrt(rate))):
            moduli = channel_spectrum(op)
            assert moduli.shape == (op.system_dim**2,)
            assert np.all(np.diff(moduli) <= 0.0)
            assert moduli[0] == pytest.approx(1.0, abs=1e-12)
            assert moduli[1] == pytest.approx(rate, abs=1e-12)

    @pytest.mark.parametrize("coupling", [0.3, math.pi / 4])
    def test_bare_qutrit_generator_flags_a_dark_fixed_point(self, coupling):
        op = make_steering_operator(TargetSpec(QUTRIT_EQUAL_TARGET, coupling))
        h = coupling * build_qutrit_hamiltonian(QUTRIT_EQUAL_TARGET)
        lift = np.kron(np.eye(2), op.frame)  # the channel reads the cycle in the frame
        bare = op._replace(frame_unitary=lift.conj().T @ expm_i_herm(h) @ lift)
        assert channel_spectrum(bare)[1] == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_shrinks_every_mode_but_the_fixed_point(self):
        op = make_steering_operator(PLUS_QUARTER)
        clean, noisy = channel_spectrum(op), channel_spectrum(op, NoiseConfig(depolarizing_p=0.1))
        assert noisy[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(noisy[1:], 0.9 * clean[1:], atol=1e-12)
