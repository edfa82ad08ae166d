"""Simulated measurement with shot noise, state tomography (qubit and
qutrit), the eigenvalue truncate-and-redistribute physical projection,
process tomography with Pauli-transfer-matrix analysis, and readout-error
mitigation.

"Infinite shots" (``shots=None``) computes exact Born expectations and is the
normative mode for acceptance checks; finite-shot mode draws one multinomial
sample per measurement setting from the (optionally confusion-corrupted)
outcome distribution, deterministically per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigError, DimensionMismatchError, NumericalError
from .linalg import ComplexMatrix, dagger, herm_eig, kron, require_hermitian
from .states import DensityState, GELL_MANN, PAULIS, fidelity
from .steering import KrausSet

KET_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
KET_PLUS_I = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)


@dataclass(frozen=True)
class ShotCounts:
    """Counts per outcome for one measurement basis."""

    basis: str
    counts: dict[int, int]
    shots: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ConfigError("counts do not sum to shots")

    def frequencies(self, n_outcomes: int) -> np.ndarray:
        return np.array(
            [self.counts.get(k, 0) / self.shots for k in range(n_outcomes)]
        )


@dataclass(frozen=True)
class PauliTransferMatrix:
    """Strictly real channel representation R_ij = Tr[P_i E(P_j)] / d."""

    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        object.__setattr__(self, "r", r)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise DimensionMismatchError("PTM must be square")


def simulate_shots(
    rho: DensityState,
    observable: ComplexMatrix,
    shots: int,
    confusion: np.ndarray | None = None,
    seed: int = 0,
    basis_label: str = "",
) -> ShotCounts:
    """Measure ``observable`` on ``rho`` with finite shots.

    Outcomes are indices into the observable's ascending eigenbasis; Born
    probabilities are corrupted by the row-stochastic confusion matrix before
    a single multinomial draw keyed by ``seed``.
    """
    if shots < 1:
        raise ConfigError("shots must be >= 1")
    observable = np.asarray(observable, dtype=complex)
    require_hermitian(observable, 1e-10)
    _, vecs = herm_eig(observable)
    probs = np.einsum("ij,jk,ki->i", dagger(vecs), rho.matrix, vecs).real
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    if confusion is not None:
        confusion = np.asarray(confusion, dtype=float)
        if confusion.shape != (len(probs), len(probs)):
            raise DimensionMismatchError("confusion matrix does not match outcome count")
        probs = confusion.T @ probs
    rng = np.random.Generator(np.random.Philox(key=seed))
    sample = rng.multinomial(shots, probs)
    return ShotCounts(
        basis=basis_label, counts={k: int(c) for k, c in enumerate(sample)}, shots=shots
    )


def expectation_from_counts(counts: ShotCounts, eigenvalues: np.ndarray) -> float:
    freqs = counts.frequencies(len(eigenvalues))
    return float(np.dot(np.sort(eigenvalues), freqs))


def measure_expectation(
    rho: DensityState,
    observable: ComplexMatrix,
    shots: int | None,
    confusion: np.ndarray | None = None,
    seed: int = 0,
) -> float:
    """<observable> on rho, exact when shots is None, sampled otherwise."""
    if shots is None:
        return float(np.trace(rho.matrix @ observable).real)
    w, _ = herm_eig(np.asarray(observable, dtype=complex))
    counts = simulate_shots(rho, observable, shots, confusion, seed)
    return expectation_from_counts(counts, w)


def mle_project(rho_raw: ComplexMatrix) -> DensityState:
    """Nearest density matrix by the truncate-and-redistribute rule.

    Eigenvalues are zeroed most-negative first, each deficit being spread
    uniformly over the remaining eigenvalues; the eigenbasis is kept.  This
    is the least-squares-optimal projection among matrices sharing the
    eigenbasis.
    """
    rho_raw = np.asarray(rho_raw, dtype=complex)
    require_hermitian(rho_raw, 1e-10)
    if abs(np.trace(rho_raw).real - 1.0) > 1e-8:
        raise ConfigError("mle_project expects a unit-trace matrix")
    w, v = herm_eig(rho_raw)
    d = len(w)
    out = np.array(w, dtype=float)
    acc = 0.0
    for i in range(d):
        share = acc / (d - i)
        if out[i] + share < 0.0:
            acc += out[i]
            out[i] = 0.0
        else:
            out[i:] += acc / (d - i)
            break
    mat = (v * out) @ dagger(v)
    mat = mat / np.trace(mat).real
    dims = {2: (2,), 3: (3,), 4: (2, 2), 6: (2, 3)}.get(d, (d,))
    return DensityState(matrix=mat, dims=dims)


def qubit_state_tomo(ex: float, ey: float, ez: float) -> DensityState:
    """State from Pauli expectations, physically projected if needed."""
    m = 0.5 * (
        np.eye(2, dtype=complex) + ex * PAULIS["X"] + ey * PAULIS["Y"] + ez * PAULIS["Z"]
    )
    if float(np.min(np.linalg.eigvalsh(m))) >= -1e-12:
        return DensityState(matrix=m, dims=(2,))
    return mle_project(m)


def qutrit_state_tomo(expectations) -> DensityState:
    """State from the eight Gell-Mann expectations <l_i> = 2 n_i."""
    expectations = np.asarray(expectations, dtype=float)
    if expectations.shape != (8,):
        raise DimensionMismatchError("need 8 Gell-Mann expectations")
    m = np.eye(3, dtype=complex) / 3.0
    for e, l in zip(expectations, GELL_MANN):
        m = m + 0.5 * e * l
    if float(np.min(np.linalg.eigvalsh(m))) >= -1e-12:
        return DensityState(matrix=m, dims=(3,))
    return mle_project(m)


def tomo_qubit_state(
    rho: DensityState, shots: int | None = None, confusion=None, seed: int = 0
) -> DensityState:
    """Measure X, Y, Z (exactly or with shots) and reconstruct."""
    ex, ey, ez = (
        measure_expectation(rho, PAULIS[p], shots, confusion, seed + i)
        for i, p in enumerate("XYZ")
    )
    return qubit_state_tomo(ex, ey, ez)


def tomo_qutrit_state(
    rho: DensityState, shots: int | None = None, confusion=None, seed: int = 0
) -> DensityState:
    """Measure the eight Gell-Mann observables and reconstruct."""
    exps = [
        measure_expectation(rho, l, shots, confusion, seed + i)
        for i, l in enumerate(GELL_MANN)
    ]
    return qutrit_state_tomo(exps)


# ---------------------------------------------------------------------------
# process tomography

_INPUT_KETS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": KET_PLUS,
    "+i": KET_PLUS_I,
}


def _pauli_basis(n: int) -> tuple[list[str], list[np.ndarray]]:
    labels, mats = [], []
    for combo in product("IXYZ", repeat=n):
        labels.append("".join(combo))
        m = np.array([[1.0 + 0j]])
        for ch in combo:
            m = np.kron(m, PAULIS[ch])
        mats.append(m)
    return labels, mats


def _input_states(n: int) -> list[np.ndarray]:
    kets = []
    for combo in product(("0", "1", "+", "+i"), repeat=n):
        k = np.array([1.0 + 0j])
        for ch in combo:
            k = np.kron(k, _INPUT_KETS[ch])
        kets.append(k)
    return kets


def apply_kraus(mat: np.ndarray, kraus: KrausSet) -> np.ndarray:
    return sum(a @ mat @ dagger(a) for a in kraus.operators)


def _measured_pauli_expectations(
    rho_out: np.ndarray, n: int, shots: int | None, seed: int
) -> dict[str, float]:
    """Expectations of all 4^n Pauli strings from 3^n measurement settings.

    Each setting rotates into the product eigenbasis of a tensor of X/Y/Z and
    measures bit outcomes; substrings (with identities) reuse the marginals.
    """
    d = 2**n
    state = DensityState(matrix=rho_out, dims=(2,) * n)
    out: dict[str, float] = {"I" * n: 1.0}
    basis_vecs = {
        "X": np.linalg.eigh(PAULIS["X"])[1],
        "Y": np.linalg.eigh(PAULIS["Y"])[1],
        "Z": np.linalg.eigh(PAULIS["Z"])[1],
    }
    setting_index = 0
    for setting in product("XYZ", repeat=n):
        v = np.array([[1.0 + 0j]])
        for ch in setting:
            v = np.kron(v, basis_vecs[ch])
        probs = np.einsum("ij,jk,ki->i", dagger(v), rho_out, v).real
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
        if shots is not None:
            rng = np.random.Generator(np.random.Philox(key=(seed << 32) + setting_index))
            probs = rng.multinomial(shots, probs) / shots
        # eigenvalue of outcome bitstring b on the support of a substring
        for support in product((False, True), repeat=n):
            if not any(support):
                continue
            label = "".join(ch if keep else "I" for ch, keep in zip(setting, support))
            if label in out:
                continue
            val = 0.0
            for idx, p in enumerate(probs):
                bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
                # eigh sorts ascending: index 0 is the -1 eigenvector
                sign = 1.0
                for q in range(n):
                    if support[q]:
                        sign *= 1.0 if bits[q] == 1 else -1.0
                val += sign * p
            out[label] = val
        setting_index += 1
    return out


def process_tomography(
    channel: KrausSet,
    n_wires: int,
    shots: int | None = None,
    seed: int = 0,
) -> PauliTransferMatrix:
    """Reconstruct a channel's PTM from 4^n product inputs and 3^n Pauli
    settings via linear inversion, then project onto the physical (CPTP-ish)
    set by truncating negative Choi eigenvalues and renormalizing."""
    if n_wires not in (1, 2):
        raise ConfigError("process tomography supports 1 or 2 qubit wires")
    d = 2**n_wires
    if channel.dim != d:
        raise DimensionMismatchError("channel dimension does not match wire count")
    labels, paulis = _pauli_basis(n_wires)
    inputs = _input_states(n_wires)
    # measured data: m[i][label] = Tr[P_label E(|in_i><in_i|)]
    data = []
    for i, ket in enumerate(inputs):
        rho_out = apply_kraus(np.outer(ket, ket.conj()), channel)
        data.append(
            _measured_pauli_expectations(rho_out, n_wires, shots, seed + 7919 * i)
        )
    # express each Pauli in the span of the input projectors:
    # P_k = sum_i c_{k,i} |in_i><in_i|, then Tr[P_j E(P_k)] is a data combination
    basis_mat = np.stack([np.outer(k, k.conj()).reshape(-1) for k in inputs], axis=1)
    basis_inv = np.linalg.inv(basis_mat)
    r = np.zeros((4**n_wires, 4**n_wires))
    for kcol, p_in in enumerate(paulis):
        c = basis_inv @ p_in.reshape(-1)
        for jrow, lab in enumerate(labels):
            val = sum(c[i] * data[i][lab] for i in range(len(inputs)))
            r[jrow, kcol] = float(np.real(val)) / d
    r = _project_ptm_physical(r, n_wires)
    return PauliTransferMatrix(r=r)


def _project_ptm_physical(r: np.ndarray, n: int) -> np.ndarray:
    d = 2**n
    labels, paulis = _pauli_basis(n)
    # Choi matrix from the PTM
    choi = np.zeros((d * d, d * d), dtype=complex)
    for j, pj in enumerate(paulis):
        for k, pk in enumerate(paulis):
            choi += r[j, k] * np.kron(pk.T, pj)
    choi /= d * d
    choi = 0.5 * (choi + dagger(choi))
    w, v = np.linalg.eigh(choi)
    if float(w.min()) > -1e-12:
        projected = choi
    else:
        w = np.clip(w, 0.0, None)
        projected = (v * w) @ dagger(v)
    tr = float(np.trace(projected).real)
    if tr <= 0:
        raise NumericalError("Choi projection collapsed to zero")
    projected *= d / tr
    out = np.zeros_like(r)
    for j, pj in enumerate(paulis):
        for k, pk in enumerate(paulis):
            out[j, k] = float(np.real(np.trace(np.kron(pk.T, pj).conj().T @ projected))) / d
    return out


def ptm_of_kraus(channel: KrausSet) -> PauliTransferMatrix:
    """Exact PTM of a channel given by Kraus operators (reference path)."""
    d = channel.dim
    n = int(round(math.log2(d)))
    if 2**n != d:
        raise DimensionMismatchError("PTM defined for qubit registers")
    labels, paulis = _pauli_basis(n)
    r = np.zeros((4**n, 4**n))
    for k, pk in enumerate(paulis):
        out = apply_kraus(pk, channel)
        for j, pj in enumerate(paulis):
            r[j, k] = float(np.trace(pj @ out).real) / d
    return PauliTransferMatrix(r=r)


def ptm_of_unitary(u: ComplexMatrix) -> PauliTransferMatrix:
    return ptm_of_kraus(KrausSet(operators=(np.asarray(u, dtype=complex),)))


def compose_ptm(a: PauliTransferMatrix, b: PauliTransferMatrix) -> PauliTransferMatrix:
    """Channel a after channel b."""
    return PauliTransferMatrix(r=a.r @ b.r)


def invert_ptm(a: PauliTransferMatrix) -> PauliTransferMatrix:
    return PauliTransferMatrix(r=np.linalg.inv(a.r))


def average_gate_fidelity(
    reconstructed: PauliTransferMatrix, ideal: PauliTransferMatrix
) -> float:
    """F_avg = (d F_pro + 1) / (d + 1) with F_pro = Tr[R_ideal^T R_rec] / d^2."""
    if reconstructed.r.shape != ideal.r.shape:
        raise DimensionMismatchError("PTM shapes differ")
    d2 = reconstructed.r.shape[0]
    d = int(round(math.sqrt(d2)))
    f_pro = float(np.trace(ideal.r.T @ reconstructed.r)) / d2
    f_avg = (d * f_pro + 1.0) / (d + 1.0)
    return min(1.0, max(0.0, f_avg))


def project_to_simplex(p: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    p = np.asarray(p, dtype=float)
    u = np.sort(p)[::-1]
    css = np.cumsum(u)
    rho_idx = np.nonzero(u * np.arange(1, len(p) + 1) > (css - 1.0))[0][-1]
    theta = (css[rho_idx] - 1.0) / (rho_idx + 1.0)
    return np.clip(p - theta, 0.0, None)


def mitigate_readout(counts: ShotCounts | np.ndarray, confusion: np.ndarray) -> np.ndarray:
    """Invert a row-stochastic confusion matrix on empirical frequencies.

    Solves confusion^T p_true = p_empirical (rows of the confusion matrix are
    indexed by the true outcome) and projects the result onto the simplex.
    Raises on singular matrices; the condition number gates invertibility.
    """
    confusion = np.asarray(confusion, dtype=float)
    n = confusion.shape[0]
    if isinstance(counts, ShotCounts):
        p_emp = counts.frequencies(n)
    else:
        p_emp = np.asarray(counts, dtype=float)
        p_emp = p_emp / p_emp.sum()
    cond = float(np.linalg.cond(confusion))
    if not math.isfinite(cond) or cond > 1e12:
        raise NumericalError(f"confusion matrix is singular (condition number {cond:.3e})")
    p_corr = np.linalg.solve(confusion.T, p_emp)
    return project_to_simplex(p_corr)


def reconstruction_fidelity(rho_true: DensityState, rho_rec: DensityState) -> float:
    """Fidelity proxy Tr[rho_true rho_rec] normalized for mixed states."""
    a = rho_true.matrix
    b = rho_rec.matrix
    num = float(np.trace(a @ b).real)
    den = math.sqrt(float(np.trace(a @ a).real) * float(np.trace(b @ b).real))
    return min(1.0, max(0.0, num / den)) if den > 0 else 0.0
