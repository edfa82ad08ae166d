"""Dense complex linear algebra kernel for small Hilbert spaces (dim <= 9).

All functions are pure and operate on immutable inputs; they are safe to
call concurrently.  Complex scalars are numpy complex128 (a pair of 64-bit
floats); matrices are plain ``numpy.ndarray``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, NonHermitianError

# Dense square complex matrix; the universal carrier for states, Hamiltonians,
# unitaries and Kraus operators.
ComplexMatrix = np.ndarray

# largest elementwise |m - m^dagger| a Hermitian matrix or density state may have
HERMITICITY_TOL = 1e-12


def dagger(m: ComplexMatrix) -> ComplexMatrix:
    """Conjugate transpose."""
    return m.conj().T


def hermiticity_defect(m: ComplexMatrix) -> float:
    """max |m - m^dagger| elementwise, over a stack (..., d, d) too."""
    return float(np.abs(m - np.swapaxes(m, -1, -2).conj()).max())


def kron(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Kronecker product a (x) b; the first factor indexes the slow axis.
    One broadcast product, the same bits as ``np.kron``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionMismatchError("kron expects square matrices")
    nm = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(nm, nm)


def kraus_apply(kraus: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """The operator sum sum_k A_k rho A_k^dagger of the (K, d, d) Kraus stack
    ``kraus``, on a (d, d) matrix or on each matrix of a (..., d, d) stack."""
    return sum(a @ mat @ dagger(a) for a in kraus)


def partial_trace(rho: ComplexMatrix, keep: int, dims: Sequence[int]) -> ComplexMatrix:
    """Trace out all subsystems of the raw matrix ``rho``, with subsystem
    dims ``dims``, except ``keep``."""
    mat, sub = np.asarray(rho, dtype=complex), tuple(dims)
    if len(sub) < 2:
        raise DimensionMismatchError("partial_trace needs at least two subsystems")
    if not 0 <= keep < len(sub):
        raise DimensionMismatchError(f"keep index {keep} out of range for dims {sub}")
    total = int(np.prod(sub))
    if mat.shape != (total, total):
        raise DimensionMismatchError(
            f"declared subsystem dims {sub} do not multiply to matrix dim {mat.shape[0]}"
        )
    tensor = mat.reshape(sub + sub)
    n = len(sub)
    for axis in reversed([i for i in range(n) if i != keep]):
        tensor = np.trace(tensor, axis1=axis, axis2=axis + tensor.ndim // 2)
    return tensor


def herm_eig(h: ComplexMatrix) -> tuple[np.ndarray, ComplexMatrix]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary eigenvector matrix V) with
    h = V diag(w) V^dagger.
    """
    h = np.asarray(h, dtype=complex)
    defect = hermiticity_defect(h)
    if defect > HERMITICITY_TOL:
        raise NonHermitianError(f"hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL:.1e}")
    w, v = np.linalg.eigh(h)
    return w, v


def expm_i_herm(h: ComplexMatrix) -> ComplexMatrix:
    """exp(-i h) for Hermitian h, via eigendecomposition (exactly unitary
    up to eigensolver roundoff)."""
    w, v = herm_eig(h)
    return (v * np.exp(-1j * w)) @ dagger(v)


def phase_invariant_distance(u: ComplexMatrix, v: ComplexMatrix) -> float:
    """1 - |Tr(u^dagger v)| / d, zero iff u and v agree up to a global phase."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise DimensionMismatchError(f"shape mismatch {u.shape} vs {v.shape}")
    d = u.shape[0]
    return max(0.0, 1.0 - abs(np.trace(dagger(u) @ v)) / d)
