"""Cartan (KAK) decomposition of two-qubit unitaries and Weyl-chamber
coordinates.

A two-qubit unitary factors as

    U = exp(i gamma) (k1a (x) k1b) A(c) (k2a (x) k2b),
    A(c) = exp(i/2 (c1 XX + c2 YY + c3 ZZ)),

with the locals in U(2).  Coordinates are reported in radians and
canonicalized into the cell

    0 <= |c3| <= c2 <= c1 <= pi/2,   c3 >= 0 when c1 = pi/2.

This cell is one fundamental domain of local equivalence; the full [0, pi]
tetrahedron folds onto it via (c1, c2, c3) -> (pi - c1, c2, -c3).  Landmark
points: CNOT/CPHASE(pi) at (pi/2, 0, 0), the maximally entangling
iSWAP-class point at (pi/2, pi/2, 0), SWAP at (pi/2, pi/2, pi/2).  A
steering operator with coupling J sits at (J, J, 0).

The constructive algorithm conjugates into the magic (Bell) basis, where the
local group becomes SO(4) and A(c) becomes diagonal; degenerate spectra
(e.g. c1 = c2 on the steering line) are handled by simultaneous
diagonalization of the real and imaginary parts of U^T U.

Which chamber point is canonical is decided once, by :func:`_fold`, from the
magic-basis eigenphases theta alone.  The Weyl group acts on theta by
permutations and by pi shifts of an even number of entries; the fold takes
the first such move whose coordinates land in the cell above.
:func:`kak_decompose` applies that move to the columns of its orthogonal
factors, and :func:`weyl_coordinates` folds its phases the same way.

``qsteer kak --circuit`` decomposes the circuit's unitary with
:func:`kak_decompose`.  ``qsteer kak --target`` decomposes nothing: the
steering operator's KAK is read off its steering frame in closed form by
:func:`qsteer.circuits.steering_kak`.  Both set their CNOT/CZ flags by
comparing the decomposition's c with CNOT's point, (pi/2, 0, 0), through
:func:`same_weyl_point`, the comparison :func:`locally_equivalent` makes.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NumericalError
from .linalg import ComplexMatrix, kron, phase_invariant_distance

MAGIC = (
    np.array(
        [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]], dtype=complex
    )
    / math.sqrt(2.0)
)
MAGIC_DAG = MAGIC.conj().T

# Maps magic-basis eigenphases (t1..t4) to (w, x, y, z) in A = e^{iw} exp(i(x XX + y YY + z ZZ)).
_GAMMA = np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [-1, 1, -1, 1], [1, -1, -1, 1]], dtype=float
) / 4.0
# Inverse direction: phases from (x, y, z).
_THETA_OF_XYZ = np.array(
    [[1, -1, 1], [1, 1, -1], [-1, -1, -1], [-1, 1, 1]], dtype=float
)

CNOT_GATE = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def canonical_a_matrix(c) -> ComplexMatrix:
    """A(c) = exp(i/2 (c1 XX + c2 YY + c3 ZZ)), evaluated exactly in the
    magic basis where it is diagonal."""
    xyz = np.asarray(c, dtype=float) / 2.0
    theta = _THETA_OF_XYZ @ xyz
    return MAGIC @ np.diag(np.exp(1j * theta)) @ MAGIC_DAG


class KakDecomposition(NamedTuple):
    """U = e^{i global_phase} (k1_local[0] (x) k1_local[1]) A(c) (k2_local[0] (x) k2_local[1])."""

    k1_local: tuple[ComplexMatrix, ComplexMatrix]
    k2_local: tuple[ComplexMatrix, ComplexMatrix]
    c: np.ndarray
    global_phase: float

    def reassemble(self) -> ComplexMatrix:
        left = kron(self.k1_local[0], self.k1_local[1])
        right = kron(self.k2_local[0], self.k2_local[1])
        return np.exp(1j * self.global_phase) * (left @ canonical_a_matrix(self.c) @ right)


# unitarity defect a decomposed matrix may carry, distance within which two
# Weyl points are the same, and slack of the canonical cell in :func:`_fold`
_UNITARY_TOL = 1e-10
_WEYL_TOL = 1e-8
_FOLD_TOL = 1e-12


def _check_two_qubit_unitary(u: ComplexMatrix) -> ComplexMatrix:
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 matrix, got {u.shape}")
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(4))))
    if defect > _UNITARY_TOL:
        raise DimensionMismatchError(
            f"matrix is not unitary: defect {defect:.3e} exceeds {_UNITARY_TOL:.1e}"
        )
    return u


def _diag_unitary_symmetric(m: ComplexMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a symmetric unitary with a real orthogonal eigenbasis.

    Writes m = x + i y with commuting real symmetric x, y and diagonalizes a
    generic linear combination; several mixing coefficients are tried so that
    accidental eigenvalue collisions of the combination do not spoil the
    basis.  Returns (complex eigenvalues, real orthogonal column matrix).
    """
    x, y = m.real, m.imag
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for t in (0.7390851332151607, 1.2360679774997896, 0.5477225575051661, 2.6457513110645907):
        _, p = np.linalg.eigh(x + t * y)
        rx = p.T @ x @ p
        ry = p.T @ y @ p
        off = max(
            float(np.max(np.abs(rx - np.diag(np.diag(rx))))),
            float(np.max(np.abs(ry - np.diag(np.diag(ry))))),
        )
        if best is None or off < best[0]:
            best = (off, np.diag(rx) + 1j * np.diag(ry), p)
        if off < 1e-11:
            break
    assert best is not None
    if best[0] > 1e-8:
        raise NumericalError(f"simultaneous diagonalization residual {best[0]:.3e}")
    return best[1], best[2]


def _kron_factor(m: ComplexMatrix) -> tuple[complex, ComplexMatrix, ComplexMatrix]:
    """Split m = g * (f1 (x) f2) with unit-determinant 2x2 factors: the
    reshuffled m[(a, c), (b, d)] = g f1[a, c] f2[b, d] has rank one, so its
    leading singular pair gives both factors."""
    u, s, vh = np.linalg.svd(m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4))
    f1 = u[:, 0].reshape(2, 2)
    f2 = vh[0].reshape(2, 2)
    r1 = np.sqrt(np.linalg.det(f1))
    r2 = np.sqrt(np.linalg.det(f2))
    f1, f2, g = f1 / r1, f2 / r2, s[0] * r1 * r2
    if g.real < 0:
        f1, g = -f1, -g
    if not np.allclose(m, g * kron(f1, f2), atol=1e-8):
        raise NumericalError("matrix does not factor as a Kronecker product")
    return g, f1, f2


def _su4_phases(evals: np.ndarray) -> np.ndarray:
    """Magic-basis eigenphases theta = angle(lambda) / 2 of the eigenvalues
    of U^T U for a U in SU(4), with pi added to theta[0] when sum(theta) is
    an odd multiple of pi, so that both orthogonal factors lie in SO(4)."""
    theta = np.angle(evals) / 2.0
    if round(float(np.sum(theta)) / math.pi) % 2:
        theta[0] += math.pi
    return theta


def _weyl_moves() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Weyl moves theta -> theta[perm] + pi * shift: every permutation,
    times every shift in {-1, 0, 1}^4 of an even number of entries, one per
    class modulo (1, 1, 1, 1).  Returns (perms, shifts, flips, linear,
    offset): ``flips`` negates the first column of both orthogonal factors
    under an odd permutation, and the rows of
    (theta @ linear + offset).reshape(3, -1) are every move's (c1, c2, c3)."""
    classes = {}  # s - min(s) is the same for every shift of a class
    for s in itertools.product((0, -1, 1), repeat=4):
        if s.count(0) % 2 == 0:
            classes.setdefault(tuple(x - min(s) for x in s), s)
    perms = np.repeat(list(itertools.permutations(range(4))), len(classes), axis=0)
    shifts = np.tile(np.array(list(classes.values()), dtype=float), (24, 1))
    flips = np.ones((len(perms), 4))
    flips[np.linalg.det(np.eye(4)[perms]) < 0, 0] = -1.0
    to_c = 2.0 * _GAMMA[1:]
    linear = np.zeros((4, 3, len(perms)))
    linear[perms, :, np.arange(len(perms))[:, None]] = to_c.T
    return perms, shifts, flips, linear.reshape(4, -1), (math.pi * to_c @ shifts.T).reshape(-1)


_MOVE_PERMS, _MOVE_SHIFTS, _MOVE_FLIPS, _MOVE_LINEAR, _MOVE_OFFSET = _weyl_moves()


def _fold(theta: np.ndarray) -> tuple[int, np.ndarray]:
    """The first Weyl move whose coordinates lie in the canonical cell
    0 <= |c3| <= c2 <= c1 <= pi/2 (c3 >= 0 when c1 = pi/2), as (move index, c)."""
    c = (theta @ _MOVE_LINEAR + _MOVE_OFFSET).reshape(3, -1)
    c1, c2, c3 = c
    inside = (
        (c1 <= math.pi / 2 + _FOLD_TOL)
        & (c2 <= c1 + _FOLD_TOL)
        & (np.abs(c3) <= c2 + _FOLD_TOL)
        & ((c1 < math.pi / 2 - _FOLD_TOL) | (c3 >= -_FOLD_TOL))
    )
    hits = np.flatnonzero(inside)
    if not hits.size:
        raise NumericalError(f"no Weyl move folds phases {theta} into the canonical cell")
    return int(hits[0]), c[:, hits[0]].copy()


def kak_decompose(u: ComplexMatrix) -> KakDecomposition:
    """Constructive KAK decomposition of a 4x4 unitary."""
    u = _check_two_qubit_unitary(u)
    gamma = float(np.angle(np.linalg.det(u))) / 4.0
    ub = MAGIC_DAG @ (u * np.exp(-1j * gamma)) @ MAGIC
    d, p = _diag_unitary_symmetric(ub.T @ ub)
    if np.linalg.det(p) < 0:
        p = p.copy()
        p[:, 0] = -p[:, 0]
    theta = _su4_phases(d)
    o1 = ub @ p @ np.diag(np.exp(-1j * theta))
    if float(np.max(np.abs(o1.imag))) > 1e-8:
        raise NumericalError("left orthogonal factor has a complex residue")

    # ub = o1 diag(e^{i theta}) p^T; the move permutes and signs the columns
    # of o1 and p alike, and an odd permutation flips one column of each to
    # keep both in SO(4).
    move, c = _fold(theta)
    perm, shift, flip = _MOVE_PERMS[move], _MOVE_SHIFTS[move], _MOVE_FLIPS[move]
    o1 = o1.real[:, perm] * flip * (-1.0) ** shift
    p = p[:, perm] * flip
    w = float(np.mean(theta[perm] + math.pi * shift))

    g1, a0, a1 = _kron_factor(MAGIC @ o1 @ MAGIC_DAG)
    g2, b0, b1 = _kron_factor(MAGIC @ p.T @ MAGIC_DAG)
    return KakDecomposition(
        k1_local=(a0, a1),
        k2_local=(b0, b1),
        c=c,
        global_phase=gamma + w + float(np.angle(g1 * g2)),
    )


def weyl_coordinates(u: ComplexMatrix) -> np.ndarray:
    """Canonical Weyl coordinates from the magic-basis spectrum of U^T U.

    Independent of :func:`kak_decompose`'s eigenvectors: only the
    eigenvalues are computed, then folded by the same Weyl-move search.
    """
    u = _check_two_qubit_unitary(u)
    ub = MAGIC_DAG @ u @ MAGIC
    evals = np.linalg.eigvals(ub.T @ ub) * np.exp(-0.5j * np.angle(np.linalg.det(u)))
    return _fold(_su4_phases(evals))[1]


def same_weyl_point(c, d) -> bool:
    """True iff canonical coordinates ``c`` and ``d`` agree to 1e-8."""
    return bool(np.max(np.abs(np.asarray(c) - np.asarray(d))) <= _WEYL_TOL)


def locally_equivalent(u: ComplexMatrix, v: ComplexMatrix) -> bool:
    """True iff u and v differ only by single-qubit rotations and phase."""
    return same_weyl_point(weyl_coordinates(u), weyl_coordinates(v))


def reassembly_distance(u: ComplexMatrix, dec: KakDecomposition) -> float:
    """Phase-invariant distance between u and the reassembled decomposition."""
    return phase_invariant_distance(u, dec.reassemble())
