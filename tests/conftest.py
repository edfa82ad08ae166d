"""Shared test helpers: independent oracles and random-object generators.

Oracles here deliberately avoid the library code paths they are used to
check (explicit index loops instead of reshapes, scipy.linalg.expm instead
of the eigendecomposition exponential, and so on).
"""

import math

import numpy as np
import pytest

from qsteer.errors import ConfigError
from qsteer.states import (
    QUTRIT_EQUAL_TARGET,
    DensityState,
    QubitTarget,
    QutritTarget,
    stabilizer_catalog,
)
from qsteer.steering import SteeringOperator, TargetSpec


def steering_grid() -> tuple[list[TargetSpec], list[TargetSpec]]:
    """(qubit specs, qutrit specs) for the closed-form cycle checks: the six
    catalog targets and theta in {0, pi} over J in linspace(-4, 4, 17), then
    200 random qubit and 200 random qutrit targets at random J in [-4, 4]
    (the qutrit list opens with the equal superposition on the J grid)."""
    rng = np.random.default_rng(2020)
    grid = [float(j) for j in np.linspace(-4.0, 4.0, 17)]
    qubits = [TargetSpec(e.target, j, e.label) for e in stabilizer_catalog() for j in grid]
    qubits += [
        TargetSpec(QubitTarget(theta, phi), j)
        for theta in (0.0, math.pi) for phi in (0.0, 1.3, 4.0) for j in grid
    ]
    qubits += [
        TargetSpec(QubitTarget(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)), rng.uniform(-4, 4))
        for _ in range(200)
    ]
    qutrits = [TargetSpec(QUTRIT_EQUAL_TARGET, j) for j in grid]
    qutrits += [
        TargetSpec(
            QutritTarget(*rng.uniform(0, math.pi, 2), *rng.uniform(0, 2 * math.pi, 2)),
            rng.uniform(-4, 4),
        )
        for _ in range(200)
    ]
    return qubits, qutrits


# circuit files that once reached `qsteer kak --circuit` as raw tracebacks
MALFORMED_CIRCUIT_TEXTS = {
    "missing_wire_line": "wires: 2;\nwire w0: dim 2;\n",
    "non_numeric_param": "wires: 2;\nwire w0: dim 2;\nwire w1: dim 2;\nrx(abc) w0;\nphase(0);\n",
    "non_finite_phase": "wires: 2;\nwire w0: dim 2;\nwire w1: dim 2;\nrx(0.1) w0;\nphase(1e400);\n",
}


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ginibre_density(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def ptrace_loop(mat: np.ndarray, dims, keep: int) -> np.ndarray:
    """Partial trace by explicit index arithmetic (oracle path)."""
    dims = tuple(dims)
    dk = dims[keep]
    out = np.zeros((dk, dk), dtype=complex)
    strides = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d
    strides = strides[::-1]

    def flat(indices):
        return sum(i * s for i, s in zip(indices, strides))

    import itertools

    other = [i for i in range(len(dims)) if i != keep]
    for a in range(dk):
        for b in range(dk):
            total = 0.0 + 0.0j
            for rest in itertools.product(*(range(dims[i]) for i in other)):
                ia = [0] * len(dims)
                ib = [0] * len(dims)
                ia[keep], ib[keep] = a, b
                for pos, val in zip(other, rest):
                    ia[pos] = ib[pos] = val
                total += mat[flat(ia), flat(ib)]
            out[a, b] = total
    return out


def channel_superoperator(kraus_ops) -> np.ndarray:
    """Row-major-vectorized superoperator: S vec(rho) = vec(sum A rho A^dag)
    with vec = reshape(-1), using vec(A X B) = (A (x) B^T) vec(X)."""
    d = kraus_ops[0].shape[0]
    s = np.zeros((d * d, d * d), dtype=complex)
    for a in kraus_ops:
        s += np.kron(a, a.conj())
    return s


def joint_step(rho: DensityState, op: SteeringOperator) -> DensityState:
    """One blind step the long way: Tr_A[U (|0><0| (x) rho) U^dag], with the
    ancilla's reset state written out and the trace taken by einsum."""
    d = op.system_dim
    anc = np.array([[1, 0], [0, 0]], dtype=complex)
    joint = op.unitary @ np.kron(anc, rho.matrix) @ op.unitary.conj().T
    return DensityState(matrix=np.einsum("aiaj->ij", joint.reshape(2, d, 2, d)), dims=rho.dims)


def analytic_plus_trajectory(s0, coupling: float, steps: int) -> np.ndarray:
    """Closed-form Bloch vector after ``steps`` averaged steps toward |+>.

    s_x(n) = 1 - cos^{2n}(J) (1 - s_x(0)), s_y(n) = cos^n(J) s_y(0),
    s_z(n) = cos^n(J) s_z(0); converges to (1, 0, 0) for 0 < J < pi.
    """
    if not 0.0 < coupling < math.pi:
        raise ConfigError(f"coupling {coupling} outside (0, pi)")
    if steps < 0:
        raise ConfigError("steps must be nonnegative")
    s0 = np.asarray(s0, dtype=float)
    c = math.cos(coupling)
    return np.array(
        [
            1.0 - c ** (2 * steps) * (1.0 - s0[0]),
            c**steps * s0[1],
            c**steps * s0[2],
        ]
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
