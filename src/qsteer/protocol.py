"""Full steering protocol runs.

Every run works in its operator's steering frame F (see
:mod:`qsteer.steering`): states enter as F^dag rho F, a fidelity is the
(0, 0) entry, and only amplitude damping ties the channel to F, so without
it every target of one (dimension, J) has the same channel.  States leave
once per run, or per trajectory-table row, through one kron(F, F*) product.

Blind runs iterate the averaged channel (a deterministic CPTP map), so they
need no randomness at all; :func:`run_blind` returns the fidelity and the state
after every cycle as arrays.  Non-blind runs sample one ancilla readout per
cycle; the true projection acts on the state, the classical record may be
corrupted by a readout confusion matrix, and the run stops at the first
recorded "1".

A trajectory's state is set by its history of true outcomes alone, so the
non-blind engine propagates a table of distinct conditional states, one row
index per trajectory, not one state per trajectory.  With the early stop
every live trajectory has recorded only "0"s, so the table stays small:
without readout confusion it holds one row, and a cycle tests every draw
against that row's one threshold.  :func:`repetition_law` gives the
exact law of the stopping cycle from the same per-outcome superoperators.

Randomness model: trajectory i of a run with seed s owns the Philox4x64-10
stream of numpy.random.Philox(key=((s + 1) << 64) + i), and cycle t uses its
draws 2t (true outcome) and 2t + 1 (readout).  One engine serves single runs
and batches, and one function, :func:`_philox_draws`, generates its draws:
the top 53 bits of the stream's raw words, for the trajectories still
running, so a trajectory records the same outcomes alone or in a batch of any
size.  Seeds range over [0, 2**64 - 2].  Tomography shots follow the same
rule: row j of a command's probability table reads the stream of trajectory j.

Noise channels (depolarizing, then amplitude damping) act on the system only,
after each entangle-measure-reset cycle.  Ancilla reset is perfect unless
``reset_infidelity`` is set, in which case the ancilla re-enters each cycle
in the classical mixture (1 - eps)|0><0| + eps|1><1|.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionMismatchError
from .linalg import dagger, kraus_apply, kron
from .states import DensityState, fidelity, validate_density
from .steering import SteeringOperator, TargetSpec, make_steering_operator


def _rate(name: str, value: float) -> float:
    """A noise rate as a float, which must lie in [0, 1]."""
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ConfigError(f"{name}={v} outside [0, 1]")
    return v


class NoiseConfig(namedtuple("NoiseConfig", ["depolarizing_p", "amplitude_damping_gamma",
                                             "readout_confusion", "reset_infidelity"])):
    """Per-cycle noise model applied during protocol execution."""

    __slots__ = ()

    def __new__(cls, depolarizing_p: float = 0.0, amplitude_damping_gamma: float = 0.0,
                readout_confusion: np.ndarray | None = None, reset_infidelity: float = 0.0):
        p = _rate("depolarizing_p", depolarizing_p)
        gamma = _rate("amplitude_damping_gamma", amplitude_damping_gamma)
        eps = _rate("reset_infidelity", reset_infidelity)
        c = readout_confusion
        if c is not None:
            c = np.asarray(c, dtype=float)
            if c.shape != (2, 2):
                raise ConfigError("readout confusion must be 2x2 (the ancilla is a qubit), "
                                  f"got shape {c.shape}")
            if not np.all(np.isfinite(c)):
                raise ConfigError("readout confusion has non-finite entries")
            if np.any(c < -1e-12):
                raise ConfigError("readout confusion has negative entries")
            if np.max(np.abs(c.sum(axis=1) - 1.0)) > 1e-12:
                raise ConfigError("readout confusion rows must sum to 1")
        return super().__new__(cls, p, gamma, c, eps)


NO_NOISE = NoiseConfig()


class RunRecord(NamedTuple):
    """Outcome of one non-blind trajectory: the initial and the final
    fidelity, the recorded outcomes, and the 1-based cycle of the first
    recorded "1" (None if none came)."""

    fidelities: tuple[float, float]
    outcomes: tuple[int, ...]
    repetitions_to_success: int | None


def amplitude_damping_kraus(dim: int, gamma: float) -> np.ndarray:
    """(d, d, d) Kraus stack of damping: each level decays one step down at
    rate gamma."""
    ops = np.zeros((dim, dim, dim), dtype=complex)
    ops[0] = np.diag([1.0] + [math.sqrt(max(0.0, 1.0 - gamma))] * (dim - 1))
    for level in range(1, dim):
        ops[level, level - 1, level] = math.sqrt(gamma)
    return ops


def apply_noise(mat: np.ndarray, noise: NoiseConfig) -> np.ndarray:
    """System-only noise for one cycle, on a (d, d) matrix or on each matrix
    of a (..., d, d) stack: depolarizing, rho -> (1 - p) rho + p tr(rho) I/d,
    then amplitude damping."""
    d = mat.shape[-1]
    out = mat
    if noise.depolarizing_p > 0.0:
        p, eye = noise.depolarizing_p, np.eye(d, dtype=complex)
        tr = np.trace(out, axis1=-2, axis2=-1)
        out = (1.0 - p) * out + p * tr[..., None, None] * eye / d
    if noise.amplitude_damping_gamma > 0.0:
        out = kraus_apply(amplitude_damping_kraus(d, noise.amplitude_damping_gamma), out)
    return out


def _into_frame(mat: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """F^dag mat F for one (d, d) matrix.  Its multiple of the identity is
    kept out of the rounding, so I/d is I/d in every frame, bit for bit."""
    shift = mat.trace() / len(mat) * np.eye(len(mat))
    return shift + dagger(frame) @ (mat - shift) @ frame


def _maximally_mixed(d: int) -> DensityState:
    return DensityState(matrix=np.eye(d, dtype=complex) / d, dims=(d,))


def _frame_fidelity(states: np.ndarray) -> np.ndarray:
    """Fidelities of frame states (..., d, d), clamped to [0, 1]."""
    return np.clip(states[..., 0, 0].real, 0.0, 1.0)


# Philox4x64-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3",
# SC'11) on uint64 arrays, bit-compatible with numpy.random.Philox: one pass
# draws a block of many lanes at once, a lane being one (trajectory, block)
# pair.  Counter words 0 and 2 are multiplied in each round, so once every
# word varies by lane they are kept as one (2, lanes) array, as are words 1
# and 3.  A round maps (c0, c1, c2, c3) to (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1,
# lo0), with (hi_j, lo_j) the 128-bit product of multiplier j and word 2j.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_MASK64 = 2**64 - 1
# (multiplier, low limb, high limb) for both multiplied words, and for each alone
_PHILOX_MUL = (_PHILOX_M, _PHILOX_M & _LO32, _PHILOX_M >> _SHIFT32)
_PHILOX_MUL0, _PHILOX_MUL1 = (tuple(a[j] for a in _PHILOX_MUL) for j in (0, 1))
# Lanes per pass, so that a pass's (2, chunk) buffers stay in cache.
_PHILOX_CHUNK = 16384
MAX_SEED = 2**64 - 2  # seed + 1 is key word 1 and must fit in 64 bits


def _check_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed <= MAX_SEED:
        raise ConfigError(f"seed must be an integer in [0, 2**64 - 2], got {seed!r}")


def _philox_mulhilo(x: np.ndarray, mul=_PHILOX_MUL, out=(None,) * 5):
    """High and low words of the 128-bit products of x and the multiplier
    of ``mul``, from 32-bit limbs; no intermediate sum can overflow.  ``out``
    holds buffers, or None for new arrays, for (lo, x_lo, x_hi, tmp, mid),
    where mid may be x; the high words end in x_hi."""
    m, m_lo, m_hi = mul
    lo_out, x_lo, x_hi, tmp, mid = out
    lo = np.multiply(x, m, out=lo_out)
    x_lo = np.bitwise_and(x, _LO32, out=x_lo)
    x_hi = np.right_shift(x, _SHIFT32, out=x_hi)
    tmp = np.right_shift(np.multiply(x_lo, m_lo, out=tmp), _SHIFT32, out=tmp)
    mid = np.add(np.multiply(x_hi, m_lo, out=mid), tmp, out=mid)
    low_cross = np.multiply(x_lo, m_hi, out=x_lo)
    low_cross += np.bitwise_and(mid, _LO32, out=tmp)
    hi = np.multiply(x_hi, m_hi, out=x_hi)
    hi += np.right_shift(mid, _SHIFT32, out=mid)
    hi += np.right_shift(low_cross, _SHIFT32, out=low_cross)
    return hi, lo


def _philox_rounds(seed: int, index: np.ndarray, counter: np.ndarray, buf: np.ndarray):
    """Words (0, 2) and (1, 3) of the outputs, (2, lanes) views of the (6, 2,
    lanes) scratch ``buf``, for key words (index, seed + 1) and counter words
    (counter, 0, 0, 0); ``index`` and ``counter`` broadcast together.

    Round 1 and the word-2 half of round 2 depend on the counter alone, and
    the rest of round 2 on the index alone, so they run on the short operand.
    Rounds 3-10 run in place; the low products become the next odd words by
    a swap of buffers.  Key word 1 is one value, so only key word 0 is an
    array add per round.
    """
    even, odd, spare, x_lo, x_hi, tmp = buf
    # round 1: counter words 1-3 are zero, so c0 <- k0, c1 <- 0
    hi, c3 = _philox_mulhilo(counter, _PHILOX_MUL0)
    c2 = hi ^ np.uint64(seed + 1)
    # round 2
    hi0, lo0 = _philox_mulhilo(index, _PHILOX_MUL0)
    hi1, lo1 = _philox_mulhilo(c2, _PHILOX_MUL1)
    k0 = index + np.uint64(_PHILOX_W[0])
    k1 = np.uint64((seed + 1 + _PHILOX_W[1]) & _MASK64)
    even[0], even[1], odd[0], odd[1] = hi1 ^ k0, hi0 ^ c3 ^ k1, lo1, lo0
    for r in range(2, 10):
        hi, lo = _philox_mulhilo(even, out=(spare, x_lo, x_hi, tmp, even))
        np.bitwise_xor(hi[::-1], odd, out=even)
        even[0] ^= np.add(index, np.uint64(r * _PHILOX_W[0] & _MASK64), out=tmp[0])
        even[1] ^= np.uint64((seed + 1 + r * _PHILOX_W[1]) & _MASK64)
        odd, spare = lo[::-1], odd
    return even, odd


def _philox_draws(seed: int, indices: np.ndarray, block: int, readout: bool) -> np.ndarray:
    """The engine's draws from block ``block`` of the Philox stream of each
    trajectory in ``indices``: the top 53 bits of words 0 and 2 (the true
    outcomes of the block's two steps), then, with ``readout``, of words 1
    and 3 (their readouts); (2 or 4, lanes).

    Trajectory i's stream has key words (i, seed + 1); block b is the output
    at counter b + 1, which numpy.random.Philox(key=((seed + 1) << 64) + i)
    emits as words 4b .. 4b + 3 of its raw stream.  The lanes run through
    :func:`_philox_rounds` a chunk at a time, in one scratch buffer.
    """
    seed = int(seed)
    index = np.asarray(indices, dtype=np.uint64).reshape(-1)
    counter = np.array([block + 1], dtype=np.uint64)
    buf = np.empty((6, 2, min(index.size, _PHILOX_CHUNK)), dtype=np.uint64)
    draws = np.empty((4 if readout else 2, index.size), dtype=np.uint64)
    for start in range(0, index.size, _PHILOX_CHUNK):
        part = index[start : start + _PHILOX_CHUNK]
        even, odd = _philox_rounds(seed, part, counter, buf[..., : part.size])
        lanes = slice(start, start + part.size)
        np.right_shift(even, np.uint64(11), out=draws[:2, lanes])
        if readout:
            np.right_shift(odd, np.uint64(11), out=draws[2:, lanes])
    return draws


def _outcome_threshold(c: np.ndarray) -> np.ndarray:
    """uint64 T with (w >> 11) >= T exactly when numpy's uniform of word w,
    (w >> 11) 2^-53, is >= c: ceil(c 2^53) in [0, 2^53], 2^53 for NaN."""
    t = np.clip(np.ceil(np.asarray(c, dtype=float) * 2.0**53), 0.0, 2.0**53)
    return np.nan_to_num(t, nan=2.0**53).astype(np.uint64)


def _step_superoperator(op: SteeringOperator, noise: NoiseConfig) -> np.ndarray:
    """(K, d^2, d^2) superoperators, one per outcome k, acting on a row-major
    vec(rho) column in op's frame, read off the joint cycle: column j of
    branch k is vec N(<k| V (rho_A (x) E_j) V^dag |k>), with E_j the d^2
    matrix units, V the frame cycle, rho_A = (1 - eps)|0><0| + eps|1><1| the
    reset ancilla (eps the reset infidelity) and N :func:`apply_noise`.

    Branch k is unnormalized; N preserves trace, so its trace is still the
    outcome's weight, and the sum over k is the blind cycle channel.  Only
    damping does not commute with F, so only then is N taken as
    F^dag N(F . F^dag) F.
    """
    d, eps, v = op.system_dim, noise.reset_infidelity, op.frame_unitary
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    inputs = np.zeros((d * d, 2, d, 2, d), dtype=complex)  # rho_A (x) E_j
    inputs[:, 0, :, 0], inputs[:, 1, :, 1] = (1.0 - eps) * units, eps * units
    joint = (v @ inputs.reshape(d * d, 2 * d, 2 * d) @ dagger(v)).reshape(d * d, 2, d, 2, d)
    branches = joint[:, [0, 1], :, [0, 1]]  # (K, d^2, d, d): <k| . |k> of each unit
    if noise.amplitude_damping_gamma > 0.0:
        f = op.frame
        branches = dagger(f) @ apply_noise(f @ branches @ dagger(f), noise) @ f
    else:
        branches = apply_noise(branches, noise)
    return np.ascontiguousarray(branches.reshape(2, d * d, d * d).swapaxes(1, 2))


def channel_spectrum(op: SteeringOperator, noise: NoiseConfig = NO_NOISE) -> np.ndarray:
    """Eigenvalue moduli of the blind cycle channel, in descending order.

    The first is 1 (the channel preserves trace).  The second, |lambda_2|,
    is the factor by which a blind run's distance to its fixed point shrinks
    per cycle; |lambda_2| = 1 flags a second fixed point, such as a dark
    subspace the cycle never steers out of.
    """
    return np.sort(np.abs(np.linalg.eigvals(_step_superoperator(op, noise).sum(axis=0))))[::-1]


def _check_dim(rho0: DensityState, op: SteeringOperator) -> None:
    if rho0.dim != op.system_dim:
        raise DimensionMismatchError("initial state does not match the system dimension")


def repetition_law(
    rho0: DensityState, op: SteeringOperator, max_steps: int, noise: NoiseConfig = NO_NOISE
) -> tuple[np.ndarray, float]:
    """Exact law of the non-blind run's stopping cycle.

    R_r = sum_k C[k, r] S_k is the superoperator of recorded outcome r, with
    S_k the per-outcome superoperators of :func:`_step_superoperator` and C
    the readout confusion (the identity without one).  Returns (pmf, failure):
    pmf[n - 1] = tr(R_1 R_0^(n-1) vec rho0) is the probability that the first
    recorded "1" comes at cycle n, for n = 1 .. max_steps, and failure =
    tr(R_0^max_steps vec rho0) that none comes; together they sum to 1.
    """
    if max_steps < 1:
        raise ConfigError("max_steps must be >= 1")
    _check_dim(rho0, op)
    confusion = noise.readout_confusion
    branches = _step_superoperator(op, noise)  # per true outcome
    if confusion is not None:
        branches = np.tensordot(confusion.T, branches, axes=1)  # per recorded outcome
    stay, stop = branches
    diag = np.arange(op.system_dim) * (op.system_dim + 1)  # vec positions of the diagonal
    vec = _into_frame(rho0.matrix, op.frame).reshape(-1)
    pmf = np.empty(max_steps)
    for n in range(max_steps):
        pmf[n] = (stop @ vec)[diag].real.sum()
        vec = stay @ vec
    return pmf, float(vec[diag].real.sum())


MAX_RUN_BYTES = 2**28  # a run whose arrays and rows need more is refused before it allocates


def _check_run_bytes(n_bytes: int) -> None:
    if n_bytes > MAX_RUN_BYTES:
        raise ConfigError(f"the run would take about {n_bytes} bytes, over the budget of "
                          f"{MAX_RUN_BYTES} bytes")


def run_blind(
    rho0: DensityState,
    op: SteeringOperator,
    steps: int,
    noise: NoiseConfig = NO_NOISE,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic averaged-channel iteration for ``steps`` cycles, the
    one-cell case of :func:`_blind_grid`: (fidelities (steps + 1,), states
    (steps + 1, d, d)), rho0's first and the states out of the frame.  A
    blind run draws no randomness, so it takes no seed."""
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    frame_states = _blind_grid(rho0, [op], steps, noise)[:, 0]
    d = op.system_dim
    states = frame_states.reshape(-1, d * d) @ kron(op.frame, op.frame.conj()).T
    return _frame_fidelity(frame_states), states.reshape(-1, d, d)


def _blind_grid(
    rho0: DensityState, ops: list[SteeringOperator], steps: int, noise: NoiseConfig
) -> np.ndarray:
    """(steps + 1, cells, d, d) frame states of one blind run per operator,
    every operator of rho0's dimension: rho0, then ``steps`` cycles of that
    operator's averaged channel.  One batched product of the stacked
    (cells, d^2, d^2) superoperators with the cells' vec(rho) columns
    advances every cell per step; the whole stack is validated once, with
    the DensityState checks, at the end.  With its trailing unit axis each
    cell's product is the matrix-vector product of a run alone, so a cell's
    states do not depend on the grid around it, bit for bit."""
    if steps < 0:
        raise ConfigError("steps must be >= 0")
    for op in ops:
        _check_dim(rho0, op)
    d = rho0.dim
    _check_run_bytes(16 * (steps + 1) * len(ops) * d * d)  # the complex vec(rho) stack
    channels = np.array([_step_superoperator(op, noise).sum(axis=0) for op in ops])
    vecs = np.empty((steps + 1, len(ops), d * d, 1), dtype=complex)
    for c, op in enumerate(ops):
        vecs[0, c] = _into_frame(rho0.matrix, op.frame).reshape(-1, 1)
    for n in range(steps):
        np.matmul(channels, vecs[n], out=vecs[n + 1])
    states = vecs.reshape(steps + 1, len(ops), d, d)
    validate_density(states)
    return states


def _run_trajectories(
    rho0: DensityState,
    op: SteeringOperator,
    max_steps: int,
    n_trajectories: int,
    noise: NoiseConfig,
    seed: int,
    early_stop: bool,
    first_index: int = 0,
):
    """The non-blind engine behind run_nonblind and run_nonblind_batch.

    Runs trajectories first_index .. first_index + n_trajectories - 1.  Step
    s of trajectory i uses draws 2s (true outcome) and 2s + 1 (readout) of
    its stream, so its outcomes do not depend on which other trajectories
    run beside it.  Only live trajectories draw, one Philox block per two
    steps.  A draw is the top 53 bits of a raw word (:func:`_philox_draws`),
    tested against an :func:`_outcome_threshold`.

    States live in a table (T, d^2) of distinct conditional frame states,
    with one row index per live trajectory, or none while the table has one
    row.  A step propagates the table once and draws each trajectory's
    outcome against its row's outcome-0 share.  Trajectories that stop leave
    first: their few child rows go out of the frame at once, and each keeps
    the index of its row there.  The survivors' children are then merged by
    :func:`_children`, so an early-stopped run without readout confusion
    keeps one row and compares its draws against one threshold.  ``final``
    is filled by one gather at the end.  With a qubit ancilla an
    early-stopped record is "0"s, one "1", then -1, so it is built from the
    repetitions at the end.

    Returns (final_states (n, d, d), recorded (n, max_steps) with -1 after a
    stop, repetitions (n,) with 0 for none).
    """
    if max_steps < 1 or n_trajectories < 1:
        raise ConfigError("max_steps and n_trajectories must be >= 1")
    _check_seed(seed)
    if not 0 <= first_index <= 2**64 - n_trajectories:
        raise ConfigError("trajectory indices must lie in [0, 2**64 - 1]")
    _check_run_bytes(n_trajectories * (16 * op.system_dim**2 + max_steps))  # final, record
    _check_dim(rho0, op)
    confusion = noise.readout_confusion
    # a readout records 1 when its draw reaches confusion[true outcome, 0]
    read_threshold = None if confusion is None else _outcome_threshold(confusion[:, 0])
    n, d = n_trajectories, op.system_dim
    # (d^2, 2 d^2): a row of vec(rho) @ prop holds the two outcome branches
    prop = np.concatenate([b.T for b in _step_superoperator(op, noise)], axis=1)
    diag = np.arange(d) * (d + 1)  # vec positions of the diagonal
    final = np.empty((n, d * d), dtype=complex)
    recorded = np.empty((max_steps, n), dtype=np.int8)  # step-major: a step writes one row
    reps = np.zeros(n, dtype=np.int64)
    indices = np.uint64(first_index) + np.arange(n, dtype=np.uint64)
    live = np.arange(n)
    leave = kron(op.frame, op.frame.conj()).T  # table @ leave: rows out of the frame
    table = _into_frame(rho0.matrix, op.frame).reshape(1, d * d)  # distinct conditional states
    row = None  # each live trajectory's table row, None while the table has one row
    exits = []  # stacks of rows out of the frame: the stoppers' of each step, the last table
    exit_row = np.empty(n, dtype=np.intp)  # each trajectory's row in the stacked exits
    n_exits = 0
    for step in range(max_steps):
        offset = step % 2  # one Philox block serves two steps
        if offset == 0:
            draws = _philox_draws(seed, indices[live], step // 2, confusion is not None)
        u = draws[offset::2]  # (true outcome[, readout], live)
        branches = (table @ prop).reshape(-1, d * d)  # row 2t + k: branch k of row t
        weights = sum(branches[:, j].real for j in diag)  # (2 T,) traces
        w0, w1 = weights.reshape(-1, 2).T
        # outcome 1 when the draw reaches outcome 0's share of its row's weight
        threshold = _outcome_threshold(w0 / (w0 + w1))
        true_k = u[0] >= (threshold[0] if row is None else threshold[row])
        rec = true_k if confusion is None else u[1] >= read_threshold[true_k.view(np.int8)]
        if not early_stop:
            recorded[step] = rec
        elif np.any(rec):
            stop, keep = np.flatnonzero(rec), np.flatnonzero(~rec)
            stopped = live[stop]
            reps[stopped] = step + 1
            rows, stop_row = _children(branches, weights, true_k[stop],
                                       None if row is None else row[stop])
            exits.append(rows @ leave)
            exit_row[stopped] = n_exits if stop_row is None else n_exits + stop_row
            n_exits += len(rows)
            live, true_k = live.take(keep), true_k.take(keep)
            if live.size == 0:
                break
            if row is not None:
                row = row.take(keep)
            if offset == 0:  # the block has draws for the next step
                draws = draws.take(keep, axis=1)
        table, row = _children(branches, weights, true_k, row)
    else:  # the budget ran out with trajectories still live
        exits.append(table @ leave)
        exit_row[live] = n_exits if row is None else n_exits + row
    # every index is in range; mode "raise" would buffer out, a copy of final's size
    np.take(np.concatenate(exits), exit_row, axis=0, out=final, mode="clip")
    if early_stop:  # "0"s, a "1" at the stopping cycle, then -1
        small = np.min_scalar_type(max_steps + 1)  # a step number and "never" fit in it
        stop = np.where(reps > 0, reps, max_steps + 1).astype(small)
        cycles = np.arange(1, max_steps + 1, dtype=small)[:, None]
        np.greater_equal(cycles, stop, out=recorded.view(bool))
        np.negative(recorded, out=recorded)
        hit = np.flatnonzero(reps)
        recorded[reps[hit] - 1, hit] = 1
    else:
        reps = np.where(recorded.any(axis=0), recorded.argmax(axis=0) + 1, 0)
    return final.reshape(n, d, d), recorded.T, reps


def _children(branches: np.ndarray, weights: np.ndarray, true_k: np.ndarray, row):
    """The distinct child states of a group of trajectories, normalized, and
    each trajectory's row among them (None when there is one).

    Row 2t + k of the (2 T, d^2) ``branches`` is branch k of parent row t,
    with trace ``weights[2t + k]``; a trajectory in parent row ``row`` (None:
    all in row 0) took outcome ``true_k``.  Those that share a parent and an
    outcome share a child.  With one parent the children are the outcomes
    that came; otherwise children are keyed by row * 2 + outcome and merged
    with a presence mask and a cumsum (O(group), no sort).
    """
    if row is None:
        present = np.array([not np.all(true_k), np.any(true_k)])
        row = true_k.astype(np.intp) if present.all() else None
    else:
        key = row * 2 + true_k
        present = np.zeros(weights.size, dtype=bool)
        present[key] = True
        row = (np.cumsum(present) - 1)[key]
    norm = np.maximum(weights[present], 1e-300)
    table = (branches[present].view(np.float64) / norm[:, None]).view(complex)
    return table, (None if len(table) == 1 else row)


def run_nonblind(
    rho0: DensityState,
    op: SteeringOperator,
    max_steps: int,
    noise: NoiseConfig = NO_NOISE,
    seed: int = 0,
    trajectory_index: int = 0,
    early_stop: bool = True,
) -> RunRecord:
    """One stochastic trajectory with per-cycle ancilla readout: trajectory
    ``trajectory_index`` of the batch, run alone.

    The readout confusion corrupts only the recorded outcome; the state
    conditioning always uses the true projection.  The run stops at the first
    recorded "1" (unless ``early_stop`` is off) and reports the 1-based cycle
    index as ``repetitions_to_success``, or None if the budget is exhausted.
    """
    final, recorded, reps = _run_trajectories(
        rho0, op, max_steps, 1, noise, seed, early_stop, first_index=trajectory_index
    )
    n_steps = int(np.sum(recorded[0] >= 0))
    return RunRecord(
        fidelities=(fidelity(rho0.matrix, op.target), fidelity(final[0], op.target)),
        outcomes=tuple(recorded[0, :n_steps].tolist()),
        repetitions_to_success=int(reps[0]) or None,
    )


@dataclass(frozen=True)
class TrajectoryBatch:
    """Vectorized non-blind trajectories (identical to per-trajectory runs)."""

    final_states: np.ndarray  # (n, d, d), state when the trajectory ended
    recorded_outcomes: np.ndarray  # (n, max_steps) int8, -1 after an early stop
    repetitions: np.ndarray  # (n,), 0 means no recorded success
    seed: int

    @property
    def n_trajectories(self) -> int:
        return self.final_states.shape[0]


def run_nonblind_batch(
    rho0: DensityState,
    op: SteeringOperator,
    max_steps: int,
    n_trajectories: int,
    noise: NoiseConfig = NO_NOISE,
    seed: int = 0,
    early_stop: bool = True,
) -> TrajectoryBatch:
    """Sample many non-blind trajectories at once.

    Trajectory i is run_nonblind(seed, trajectory_index=i): the same stream,
    outcomes and stopping rule, so the batch is reproducible and
    order-insensitive.
    """
    final, recorded, reps = _run_trajectories(
        rho0, op, max_steps, n_trajectories, noise, seed, early_stop
    )
    return TrajectoryBatch(
        final_states=final, recorded_outcomes=recorded, repetitions=reps, seed=seed
    )


def sweep(
    targets,
    couplings,
    steps: int,
    noise: NoiseConfig = NO_NOISE,
) -> tuple[np.ndarray, np.ndarray]:
    """Blind-run fidelity grid over (target, J, step): (fids, average), both
    shaped (targets, couplings, steps + 1).

    ``targets`` is a sequence of (label, QubitTarget | QutritTarget) pairs.
    Every run starts from I/d, which is I/d in every frame, so each distinct
    frame channel (one per dimension and J without amplitude damping) is
    iterated once, those of each dimension as one :func:`_blind_grid`, and
    fids[t, j] is the curve of cell (t, j)'s channel, shared bit for bit.
    average[t, j] is the mean of fids[:, j] over the swept targets of target
    t's system dimension (the stabilizer average when the six stabilizer
    targets are swept), or NaN for a coupling listed more than once.
    """
    targets = list(targets)
    couplings = list(couplings)
    if not targets or not couplings:
        raise ConfigError("sweep needs nonempty target and coupling grids")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    _check_run_bytes(200 * len(targets) * len(couplings) * (steps + 1))  # ~200 B per file row
    damped = noise.amplitude_damping_gamma > 0.0
    first = {}  # frame channel -> the spec of its first cell
    cells = []  # each (target, J) cell's frame channel, target-major
    for label, target in targets:
        for coupling in couplings:
            spec = TargetSpec(target, coupling, label)
            cells.append((spec.system_dim, coupling, target if damped else None))
            first.setdefault(cells[-1], spec)
    curves = {}  # frame channel -> its fidelity curve
    for d in dict.fromkeys(channel[0] for channel in first):
        group = [channel for channel in first if channel[0] == d]
        ops = [make_steering_operator(first[channel]) for channel in group]
        grid = _blind_grid(_maximally_mixed(d), ops, steps, noise)
        curves.update(zip(group, _frame_fidelity(grid).T))
    fids = np.reshape([curves[channel] for channel in cells], (len(targets), len(couplings), -1))
    dims = np.array([channel[0] for channel in cells[:: len(couplings)]])
    average = np.empty_like(fids)
    for d in set(dims.tolist()):
        average[dims == d] = fids[dims == d].mean(axis=0)
    average[:, np.array([couplings.count(coupling) > 1 for coupling in couplings])] = np.nan
    return fids, average


class RepetitionStats(NamedTuple):
    counts: dict[int, int]
    cdf: tuple[tuple[int, float], ...]
    mean_repetitions: float | None
    n_failures: int
    n_records: int


def repetition_stats(batch: TrajectoryBatch) -> RepetitionStats:
    """Histogram, empirical CDF and mean of a batch's repetitions-to-success.

    Failures (no recorded success) are counted separately and excluded from
    the mean and CDF.
    """
    reps = np.asarray(batch.repetitions, dtype=np.int64)
    n_records = reps.size
    if n_records == 0:
        raise ConfigError("no records given")
    successes = reps[reps > 0]
    n_failures = n_records - successes.size
    tally = np.bincount(successes)
    values = np.flatnonzero(tally)
    cdf = np.cumsum(tally[values]) / successes.size
    counts = dict(zip(values.tolist(), tally[values].tolist()))
    mean = float(successes.mean()) if successes.size else None
    return RepetitionStats(
        counts=counts,
        cdf=tuple(zip(values.tolist(), cdf.tolist())),
        mean_repetitions=mean,
        n_failures=n_failures,
        n_records=n_records,
    )
