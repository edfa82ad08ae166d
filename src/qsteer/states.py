"""Target-state parametrizations, density states, the Gell-Mann matrices,
the catalog of named targets, and fidelity.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConfigError, DimensionMismatchError
from .linalg import HERMITICITY_TOL, ComplexMatrix, hermiticity_defect

TWO_PI = 2.0 * math.pi

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": I2, "X": SX, "Y": SY, "Z": SZ}

# Standard Gell-Mann ordering: symmetric (1,4,6), antisymmetric (2,5,7),
# diagonal (3,8); Tr(l_a l_b) = 2 delta_ab.
GELL_MANN = (
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.diag([1, 1, -2]).astype(complex) / math.sqrt(3),
)


# Subsystem dims declared for a state of each supported total dimension.
_SUBSYSTEM_DIMS = {2: (2,), 3: (3,), 4: (2, 2), 6: (2, 3)}


@cache
def pauli_string_matrix(label: str) -> ComplexMatrix:
    """Tensor product of single-qubit Paulis, e.g. "XZ" -> X (x) Z.

    Built once per label; the returned array is shared and read-only.
    """
    out = np.array([[1.0 + 0j]])
    for ch in label:
        try:
            out = np.kron(out, PAULIS[ch])
        except KeyError:
            raise ConfigError(f"unknown Pauli letter {ch!r} in {label!r}") from None
    out.setflags(write=False)
    return out


def _phase(name: str, value: float) -> float:
    """A target phase: accepted on [0, 2pi], with 2pi read as 0."""
    if not 0.0 <= value <= TWO_PI:
        raise ConfigError(f"{name}={value} outside [0, 2pi]")
    return 0.0 if value == TWO_PI else value


class QubitTarget(namedtuple("QubitTarget", "theta phi")):
    """Pure qubit target cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""

    __slots__ = ()

    def __new__(cls, theta: float, phi: float):
        if not 0.0 <= theta <= math.pi:
            raise ConfigError(f"theta={theta} outside [0, pi]")
        return super().__new__(cls, theta, _phase("phi", phi))


class QutritTarget(namedtuple("QutritTarget", "xi theta phi01 phi02")):
    """Pure qutrit target parametrized by (xi, theta, phi01, phi02).

    Amplitudes: sin(xi/2)cos(theta/2), e^{i phi01} sin(xi/2)sin(theta/2),
    e^{i phi02} cos(xi/2).  Phases follow the rule of :func:`_phase`.
    """

    __slots__ = ()

    def __new__(cls, xi: float, theta: float, phi01: float, phi02: float):
        for name, v in (("xi", xi), ("theta", theta)):
            if not 0.0 <= v <= math.pi:
                raise ConfigError(f"{name}={v} outside [0, pi]")
        return super().__new__(cls, xi, theta, _phase("phi01", phi01), _phase("phi02", phi02))


def target_ket(spec: QubitTarget | QutritTarget) -> np.ndarray:
    """Unit-norm ket for a target spec, global phase fixed so the first
    nonzero amplitude is real nonnegative."""
    if isinstance(spec, QubitTarget):
        ket = np.array(
            [math.cos(spec.theta / 2), np.exp(1j * spec.phi) * math.sin(spec.theta / 2)],
            dtype=complex,
        )
    elif isinstance(spec, QutritTarget):
        ket = np.array(
            [
                math.sin(spec.xi / 2) * math.cos(spec.theta / 2),
                np.exp(1j * spec.phi01) * math.sin(spec.xi / 2) * math.sin(spec.theta / 2),
                np.exp(1j * spec.phi02) * math.cos(spec.xi / 2),
            ],
            dtype=complex,
        )
    else:
        raise ConfigError(f"unsupported target spec {type(spec).__name__}")
    for amp in ket:
        if abs(amp) > 1e-15:
            ket = ket * np.exp(-1j * np.angle(amp))
            break
    ket.setflags(write=False)
    return ket


def validate_density(mat: np.ndarray) -> None:
    """Check a (d, d) matrix or a (..., d, d) stack: finite entries, unit
    trace within 1e-10, Hermitian within HERMITICITY_TOL, no eigenvalue
    below -1e-9.

    Raises DimensionMismatchError naming the first violated condition.
    """
    if not np.isfinite(mat).all():
        raise DimensionMismatchError("density matrix has a non-finite entry")
    traces = np.trace(mat, axis1=-2, axis2=-1)
    off = np.abs(traces - 1.0) > 1e-10
    if off.any():
        bad = np.ravel(traces)[np.ravel(off)][0]
        raise DimensionMismatchError(f"trace {bad} is not 1 within 1e-10")
    if hermiticity_defect(mat) > HERMITICITY_TOL:
        raise DimensionMismatchError("density matrix is not Hermitian within 1e-12")
    if np.linalg.eigvalsh(mat).min() < -1e-9:
        raise DimensionMismatchError("density matrix has eigenvalue below -1e-9")


@dataclass(frozen=True)
class DensityState:
    """Positive semidefinite unit-trace matrix with declared subsystem dims."""

    matrix: ComplexMatrix
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        total = int(np.prod(self.dims))
        if mat.shape != (total, total):
            raise DimensionMismatchError(
                f"dims {self.dims} do not match matrix shape {mat.shape}"
            )
        validate_density(mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def fidelity(rho: ComplexMatrix, ket: np.ndarray) -> float | np.ndarray:
    """<ket| rho |ket>, clamped to [0, 1].

    A stack of matrices (..., d, d) gives an array of fidelities.
    """
    mat = np.asarray(rho, dtype=complex)
    ket = np.asarray(ket, dtype=complex)
    if mat.shape[-1] != ket.shape[0]:
        raise DimensionMismatchError(
            f"state dim {mat.shape[-1]} does not match ket dim {ket.shape[0]}"
        )
    val = (ket.conj() @ mat @ ket).real
    if mat.ndim == 2:
        return min(1.0, max(0.0, float(val)))
    return np.clip(val, 0.0, 1.0)


def random_density(dim: int, seed: int) -> DensityState:
    """Ginibre-distributed random density matrix, deterministic per seed.

    Uses the Philox counter PRNG so draws replay across platforms.
    """
    if dim not in _SUBSYSTEM_DIMS:
        raise DimensionMismatchError(f"unsupported dimension {dim}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return DensityState(matrix=m, dims=_SUBSYSTEM_DIMS[dim])


# Exact equal-superposition qutrit target (|0>+|1>+|2>)/sqrt(3); the canonical
# amplitude vector is stored and the (xi, theta) parameters are derived from it
# to avoid re-deriving 1/sqrt(3) through trigonometry in hot paths.
QUTRIT_EQUAL_KET = np.full(3, 1.0 / math.sqrt(3.0), dtype=complex)
QUTRIT_EQUAL_KET.setflags(write=False)
QUTRIT_EQUAL_TARGET = QutritTarget(
    xi=2.0 * math.atan(math.sqrt(2.0)), theta=math.pi / 2, phi01=0.0, phi02=0.0
)

# The named targets, by label: the six single-qubit stabilizer states, then
# the equal qutrit superposition.
CATALOG = {
    "0": QubitTarget(0.0, 0.0),
    "1": QubitTarget(math.pi, 0.0),
    "+": QubitTarget(math.pi / 2, 0.0),
    "-": QubitTarget(math.pi / 2, math.pi),
    "i": QubitTarget(math.pi / 2, math.pi / 2),
    "-i": QubitTarget(math.pi / 2, 3 * math.pi / 2),
    "qutrit-equal": QUTRIT_EQUAL_TARGET,
}
