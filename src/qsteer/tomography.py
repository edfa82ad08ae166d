"""Simulated measurement with shot noise, state tomography (qubit and
qutrit), the eigenvalue truncate-and-redistribute physical projection, and
process tomography, projected onto the CPTP channels, with
Pauli-transfer-matrix analysis.

"Infinite shots" (``shots=None``) computes exact Born expectations and is the
normative mode for acceptance checks; finite-shot mode draws one multinomial
sample per measurement setting from the Born outcome distribution,
deterministically per seed, by the trajectory rule of :mod:`qsteer.protocol`:
row j of a command's probability table, drawn with seed s, reads the Philox
stream with key words (j, s + 1).  A command draws its table in one call, so
no two of its draws share a stream.  State tomography takes and returns plain
``(n, d, d)`` stacks, with one seed per stack, and projects every estimate
that needs it in one mle_project call.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .errors import ConfigError, DimensionMismatchError, NumericalError
from .linalg import ComplexMatrix, dagger, herm_eig, kron
from .protocol import _check_seed
from .states import GELL_MANN, PAULIS, pauli_string_matrix, validate_density

KET_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
KET_PLUS_I = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)


def _keyed_multinomial(shots: int, probs: np.ndarray, seed: int) -> np.ndarray:
    """(m, K) counts whose row j equals
    ``Generator(Philox(key=((seed + 1) << 64) + j)).multinomial(shots, probs[j])``.

    One bit generator per call is re-keyed for each row (key word 0, zero
    counter) instead of a generator being built per draw.  It is local to
    the call, so calls stay safe to run concurrently.
    """
    if shots < 1:
        raise ConfigError("shots must be >= 1")
    _check_seed(seed)
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # zero counter, empty output buffer
    words = state["state"]["key"]
    words[1] = int(seed) + 1
    counts = np.empty(probs.shape, dtype=np.int64)
    for j, p in enumerate(probs):
        words[0] = j
        bitgen.state = state
        counts[j] = rng.multinomial(shots, p)
    return counts


def _outcome_probs(mats: np.ndarray, vecs: np.ndarray, snap: bool) -> np.ndarray:
    """(n, K, d) outcome probabilities of the (n, d, d) states ``mats`` in
    the (K, d, d) eigenbases ``vecs`` (columns).  With ``snap``, for a shot
    draw, each is rounded to a multiple of 2^-40 and the last outcome
    takes the remainder, clamped at 0: numpy's binomial draws n - B(n, 1 - p)
    once p > 0.5, so a p of 0.5 moved by rounding would draw other counts."""
    probs = np.einsum("kji,njl,kli->nki", vecs.conj(), mats, vecs).real
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum(axis=-1, keepdims=True)
    if snap:
        probs = np.round(probs * 2.0**40) / 2.0**40
        probs[..., -1] = np.maximum(1.0 - probs[..., :-1].sum(axis=-1), 0.0)
    return probs


def mle_project(raw: ComplexMatrix) -> ComplexMatrix:
    """Nearest density matrix by the truncate-and-redistribute rule, for a
    (d, d) matrix or each of a (..., d, d) stack.

    Eigenvalues are zeroed most-negative first, each deficit being spread
    uniformly over the remaining eigenvalues; the eigenbasis is kept.  This
    is the least-squares-optimal projection among matrices sharing the
    eigenbasis.  One eigendecomposition covers the stack, and
    :func:`_truncate` handles every row at once.
    """
    raw = np.asarray(raw, dtype=complex)
    if (np.abs(np.trace(raw, axis1=-2, axis2=-1).real - 1.0) > 1e-8).any():
        raise ConfigError("mle_project expects a unit-trace matrix")
    w, v = herm_eig(raw)
    w = _truncate(w)
    mat = (v * w[..., None, :]) @ np.swapaxes(v, -1, -2).conj()
    return mat / np.trace(mat, axis1=-2, axis2=-1).real[..., None, None]


def _truncate(w: np.ndarray) -> np.ndarray:
    """The truncate-and-redistribute rule on ascending eigenvalues (..., d)
    of unit sum, in closed form.  With acc_i the sum of the i lowest,
    eigenvalue i is zeroed when it and every one below it satisfy
    w_i + acc_i / (d - i) < 0; the k zeroed ones (k < d, as the sum is 1)
    leave acc_k, which is spread uniformly over the d - k others.  acc
    starts from +0.0, as a running sum does, so signed zeros come out as a
    column-by-column loop gives them."""
    d = w.shape[-1]
    acc = np.cumsum(np.concatenate([np.zeros_like(w[..., :1]), w[..., :-1]], axis=-1), axis=-1)
    zero = np.logical_and.accumulate(w + acc / (d - np.arange(d)) < 0.0, axis=-1)
    k = zero.sum(axis=-1, keepdims=True)
    return np.where(zero, 0.0, w + np.take_along_axis(acc, k, axis=-1) / (d - k))


# Tomography observables B_k with Tr(B_i B_j) = 2 delta_ij: the Paulis and
# the Gell-Mann matrices, with their ascending eigenvalues and eigenvector
# columns per dimension, computed once.
_QUBIT_BASIS = np.array([PAULIS[p] for p in "XYZ"])
_QUTRIT_BASIS = np.array(GELL_MANN)
_EIGENBASES = {2: np.linalg.eigh(_QUBIT_BASIS), 3: np.linalg.eigh(_QUTRIT_BASIS)}


def _reconstruct(expectations: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """rho = I/d + (1/2) sum_k e_k B_k for each row of the (n, K)
    ``expectations``; the rows with an eigenvalue below -1e-12 are replaced
    by their mle_project, in one call.  The (n, d, d) result is not validated."""
    n, k = expectations.shape
    d = basis.shape[-1]
    # a stack of (1, K) by (K, d*d) products takes the vector-matrix kernel of
    # the one-state np.tensordot(e, basis, axes=1), so rows match it bit for
    # bit; one (n, K) by (K, d*d) product rounds differently
    m = 0.5 * np.matmul(expectations[:, None, :], basis.reshape(k, d * d)).reshape(n, d, d)
    m += np.eye(d, dtype=complex) / d
    negative = np.linalg.eigvalsh(m).min(axis=-1) < -1e-12
    if negative.any():
        m[negative] = mle_project(m[negative])
    return m


def _measure_and_reconstruct(mats, basis, shots, seed):
    """Measure every observable on each state of an (n, d, d) stack and
    reconstruct the (n, d, d) stack, validated once.  With shots, state k
    draws observable i from row k K + i, so its shots depend on k alone."""
    d = basis.shape[-1]
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3 or mats.shape[1:] != (d, d):
        raise DimensionMismatchError(f"{d}-level tomography of states of shape {mats.shape[1:]}")
    if shots is None:
        exps = np.trace(mats[:, None] @ basis, axis1=-2, axis2=-1).real
    else:
        w, vecs = _EIGENBASES[d]
        probs = _outcome_probs(mats, vecs, snap=True)
        probs = _keyed_multinomial(shots, probs.reshape(-1, d), seed).reshape(probs.shape) / shots
        # a stack of (1, d) by (d, 1) products takes the dot kernel of the
        # one-state np.dot(w, counts / shots); an elementwise sum rounds differently
        exps = np.matmul(probs[..., None, :], w[..., None])[..., 0, 0]
    recs = _reconstruct(exps, basis)
    validate_density(recs)
    return recs


def tomo_qubit_state(rho: np.ndarray, shots: int | None = None, seed=None) -> np.ndarray:
    """Measure X, Y, Z (exactly or with shots) and reconstruct each state of
    an (n, 2, 2) stack; state k draws observable i from row 3 k + i."""
    return _measure_and_reconstruct(rho, _QUBIT_BASIS, shots, seed)


def tomo_qutrit_state(rho: np.ndarray, shots: int | None = None, seed=None) -> np.ndarray:
    """Measure the eight Gell-Mann observables and reconstruct each state of
    an (n, 3, 3) stack; state k draws observable i from row 8 k + i."""
    return _measure_and_reconstruct(rho, _QUTRIT_BASIS, shots, seed)


# ---------------------------------------------------------------------------
# process tomography

# product inputs over {|0>, |1>, |+>, |+i>} per wire
_INPUT_KETS = np.array([[1.0, 0.0], [0.0, 1.0], KET_PLUS, KET_PLUS_I], dtype=complex)
# eigenbases of X, Y, Z, each sorted ascending: column 0 is the -1 eigenvector
_SETTING_BASES = _EIGENBASES[2][1]


def _kron_all(factors: np.ndarray, n: int) -> np.ndarray:
    """Kronecker products of every n-tuple of the (m, a, b) ``factors``, as
    an (m^n, a^n, b^n) stack in itertools.product order."""
    out = np.ones((1, 1, 1), dtype=complex)
    for _ in range(n):
        (m, a, b), (f, fa, fb) = out.shape, factors.shape
        pairs = out[:, None, :, None, :, None] * factors[None, :, None, :, None, :]
        out = pairs.reshape(m * f, a * fa, b * fb)
    return out


def _pauli_basis(n: int) -> np.ndarray:
    """(4^n, 4^n) matrix B whose column k is the row-major vec(P_k), with the
    Pauli strings P_k in itertools.product("IXYZ") order.  The strings are
    orthogonal, B^dag B = d I, so R = Re(B^dag S B) / d turns a superoperator
    S into its PTM and S = B R B^dag / d turns it back."""
    labels = ("".join(combo) for combo in product("IXYZ", repeat=n))
    return np.stack([pauli_string_matrix(label).reshape(-1) for label in labels], axis=1)


def _measured_pauli_expectations(
    rho_out: np.ndarray, n: int, shots: int | None, seed: int
) -> np.ndarray:
    """(m, 4^n) expectations of all Pauli strings, in _pauli_basis order, on
    each of the (m, d, d) states, from 3^n product X/Y/Z settings.

    Each setting's bit outcomes give the strings that keep its letter or an
    identity on each wire; a string is read from the first setting that
    covers it.  With shots, state i and setting s draw one multinomial
    sample from row 3^n i + s.
    """
    d = 2**n
    rotations = _kron_all(_SETTING_BASES, n)
    probs = _outcome_probs(rho_out, rotations, snap=shots is not None)
    if shots is not None:
        probs = _keyed_multinomial(shots, probs.reshape(-1, d), seed).reshape(probs.shape) / shots
    # signs[t, b]: eigenvalue of outcome b on support t (a nonempty subset of
    # wires), the product over kept wires of +1 for bit 1 and -1 for bit 0
    supports = np.array(list(product((0, 1), repeat=n))[1:])
    bits = (np.arange(d)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    signs = np.prod(np.where(supports[:, None, :] == 1, 2 * bits - 1, 1), axis=-1)
    # string index of (setting, support): letter digits I=0, X=1, Y=2, Z=3
    letters = np.array(list(product((1, 2, 3), repeat=n)))
    strings = (letters[:, None, :] * supports[None, :, :]) @ 4 ** np.arange(n - 1, -1, -1)
    _, first = np.unique(strings, return_index=True)  # strings 1 .. 4^n - 1
    values = (probs @ signs.T).reshape(len(probs), -1)[:, first]
    return np.concatenate([np.ones((len(probs), 1)), values], axis=1)


def process_tomography(
    channel: np.ndarray, *, shots: int | None = None, seed: int = 0
) -> np.ndarray:
    """Reconstruct the (4^n, 4^n) PTM of a channel on n = 1 or 2 qubit wires,
    given as its row-major (d^2, d^2) superoperator ((4, 4) is one wire,
    (16, 16) two), from 4^n product inputs and 3^n Pauli settings by linear
    inversion, then projected onto the completely positive,
    trace-preserving channels (:func:`_project_ptm_physical`), so every
    estimate's first row is (1, 0, ..., 0) to 1e-12."""
    n_wires = {(4, 4): 1, (16, 16): 2}.get(np.shape(channel))
    if n_wires is None:
        raise ConfigError(f"superoperator shape {np.shape(channel)} is not (4, 4) or (16, 16)")
    d = 2**n_wires
    kets = _kron_all(_INPUT_KETS[:, :, None], n_wires)[:, :, 0]
    inputs = kets[:, :, None] * kets.conj()[:, None, :]
    outputs = (inputs.reshape(len(inputs), d * d) @ np.transpose(channel)).reshape(inputs.shape)
    validate_density(outputs)
    # data[i, j] = measured Tr[P_j E(|in_i><in_i|)]; with P_k = sum_i c_ik |in_i><in_i|,
    # Tr[P_j E(P_k)] = sum_i c_ik data[i, j]
    data = _measured_pauli_expectations(outputs, n_wires, shots, seed)
    coeffs = np.linalg.inv(inputs.reshape(len(inputs), -1).T) @ _pauli_basis(n_wires)
    r = np.real(data.T @ coeffs) / d
    return _project_ptm_physical(r, n_wires)


def _project_ptm_physical(r: np.ndarray, n: int) -> np.ndarray:
    """Nearest completely positive, trace-preserving PTM, by Dykstra's
    alternating projection on the normalized Choi matrix J between the
    density matrices (mle_project, with Dykstra's correction) and the affine
    set Tr_out J = I/d, until the two agree to 1e-12 in Frobenius norm.  A
    PTM already CPTP to 1e-12 is returned as it is."""
    d = 2**n
    basis = _pauli_basis(n)
    sup = basis @ r @ dagger(basis) / d
    # normalized Choi matrix J / d, J[(a, i), (b, k)] = E(|a><b|)[i, k] = sup[(i, k), (a, b)]
    choi = sup.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d) / d
    choi = 0.5 * (choi + dagger(choi))
    mixed = np.eye(d) / d

    def trace_preserving(m):
        return m - kron(np.trace(m.reshape(d, d, d, d), axis1=1, axis2=3) - mixed, mixed)

    x = trace_preserving(choi)
    if np.abs(x - choi).max() <= 1e-12 and np.linalg.eigvalsh(choi)[0] >= -1e-12:
        return r
    correction = 0.0
    for _ in range(10_000):
        z = x + correction
        y = mle_project(0.5 * (z + dagger(z)))
        correction = z - y
        x = trace_preserving(y)
        if np.linalg.norm(x - y) <= 1e-12:
            break
    else:
        raise NumericalError("CPTP projection did not converge in 10000 iterations")
    sup = (d * x).reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)
    return ptm_of_superoperator(sup)


def ptm_of_superoperator(sup: np.ndarray) -> np.ndarray:
    """Exact PTM R_ij = Tr[P_i E(P_j)] / d of a channel given by its
    row-major (d^2, d^2) superoperator, d = 2^n."""
    d = int(round(math.sqrt(len(sup))))
    n = int(round(math.log2(d)))
    if np.shape(sup) != (d * d, d * d) or 2**n != d:
        raise DimensionMismatchError(f"PTM defined for qubit registers, not shape {np.shape(sup)}")
    basis = _pauli_basis(n)
    return np.real(dagger(basis) @ sup @ basis) / d


def ptm_of_unitary(u: ComplexMatrix) -> np.ndarray:
    """PTM of the unitary channel rho -> u rho u^dag, whose superoperator is
    u (x) u*."""
    return ptm_of_superoperator(kron(u, np.conj(u)))


def average_gate_fidelity(reconstructed: np.ndarray, ideal: np.ndarray) -> float:
    """F_avg = (d F_pro + 1) / (d + 1) with F_pro = Tr[R_ideal^T R_rec] / d^2,
    for two PTMs."""
    if reconstructed.shape != ideal.shape:
        raise DimensionMismatchError("PTM shapes differ")
    d2 = reconstructed.shape[0]
    d = int(round(math.sqrt(d2)))
    f_pro = float(np.trace(ideal.T @ reconstructed)) / d2
    f_avg = (d * f_pro + 1.0) / (d + 1.0)
    return min(1.0, max(0.0, f_avg))
