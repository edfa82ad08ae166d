"""Shared test helpers: independent oracles and random-object generators.

Oracles here deliberately avoid the library code paths they are used to
check (explicit index loops instead of reshapes, scipy.linalg.expm instead
of the eigendecomposition exponential, and so on).
"""

import csv
import io
import math

import numpy as np
import pytest

from qsteer import tomography
from qsteer.errors import ConfigError, DimensionMismatchError
from qsteer.geometry import _THETA_OF_XYZ, _fold, _su4_phases
from qsteer.linalg import herm_eig
from qsteer.states import (
    CATALOG,
    QUTRIT_EQUAL_TARGET,
    SX,
    SY,
    SZ,
    DensityState,
    QubitTarget,
    QutritTarget,
)
from qsteer.steering import SteeringOperator, TargetSpec

# (label, target) of the six single-qubit stabilizer states of the catalog
STABILIZERS = [(label, t) for label, t in CATALOG.items() if isinstance(t, QubitTarget)]

# Reference data of each stabilizer: its Bloch vector, and the signed
# Pauli-string pair (sign, "AB") such that the steering generator is
# (J/2) * sum(sign * sigma_A^a sigma_S^b).
STABILIZER_ROWS = {
    "0": ((0.0, 0.0, 1.0), ((-1.0, "XX"), (-1.0, "YY"))),
    "1": ((0.0, 0.0, -1.0), ((1.0, "XX"), (-1.0, "YY"))),
    "+": ((1.0, 0.0, 0.0), ((1.0, "XZ"), (-1.0, "YY"))),
    "-": ((-1.0, 0.0, 0.0), ((1.0, "XZ"), (1.0, "YY"))),
    "i": ((0.0, 1.0, 0.0), ((1.0, "YX"), (1.0, "XZ"))),
    "-i": ((0.0, -1.0, 0.0), ((-1.0, "YX"), (1.0, "XZ"))),
}


def steering_grid() -> tuple[list[TargetSpec], list[TargetSpec]]:
    """(qubit specs, qutrit specs) for the closed-form cycle checks: the six
    catalog targets and theta in {0, pi} over J in linspace(-4, 4, 17), then
    200 random qubit and 200 random qutrit targets at random J in [-4, 4]
    (the qutrit list opens with the equal superposition on the J grid)."""
    rng = np.random.default_rng(2020)
    grid = [float(j) for j in np.linspace(-4.0, 4.0, 17)]
    qubits = [TargetSpec(target, j, label) for label, target in STABILIZERS for j in grid]
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


def csv_text(header, rows) -> str:
    """The text cli.write_csv writes: csv.writer over the header and rows,
    each float cell formatted alone at 17 significant digits (oracle path)."""
    cells = ([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *cells])
    return buf.getvalue()


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


# Small helpers that only tests call.  Those built from the library's private
# pieces (the Weyl fold, the tomography sampler and reconstruction) share its
# conventions; they check how callers see those pieces, not the pieces alone.


def pure_state(ket: np.ndarray, dims: tuple[int, ...] | None = None) -> DensityState:
    """|ket><ket| as a DensityState."""
    ket = np.asarray(ket, dtype=complex)
    if dims is None:
        dims = (ket.shape[0],)
    return DensityState(matrix=np.outer(ket, ket.conj()), dims=dims)


def bloch_vector(rho: DensityState) -> np.ndarray:
    """Bloch coordinates s_k = Tr(rho sigma_k) of a single-qubit state."""
    if rho.dim != 2:
        raise DimensionMismatchError("bloch_vector needs a single-qubit state")
    m = rho.matrix
    return np.array([np.trace(m @ p).real for p in (SX, SY, SZ)])


# slack below which a fidelity drop counts as rounding, not a violation
_MONOTONE_TOL = 1e-12


def steering_inequality_holds(fidelities) -> tuple[bool, int | None]:
    """Check monotone nondecrease of the fidelity sequence.

    Returns (True, None) if f[n+1] >= f[n] - 1e-12 for all n, else
    (False, index of the first violating step).
    """
    f = list(fidelities)
    for n in range(len(f) - 1):
        if f[n + 1] < f[n] - _MONOTONE_TOL:
            return False, n
    return True, None


def cphase_gate(angle: float) -> np.ndarray:
    """diag(1, 1, 1, e^{i angle}); CPHASE(pi) is the CZ gate."""
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * angle)]).astype(complex)


def canonicalize_weyl_vector(c) -> np.ndarray:
    """Canonical representative of interaction coordinates (radians), folded
    by the library's Weyl-move search."""
    theta = _THETA_OF_XYZ @ (np.asarray(c, dtype=float) / 2.0)
    return _fold(_su4_phases(np.exp(2j * theta)))[1]


def shot_draw(rho: DensityState, observable: np.ndarray, shots: int, seed: int):
    """(ascending eigenvalues, counts) of one draw of ``observable`` on rho,
    row 0 of a keyed draw with ``seed``."""
    w, vecs = herm_eig(observable)
    probs = tomography._outcome_probs(rho.matrix[None], vecs[None], snap=True)[0]
    return w, tomography._keyed_multinomial(shots, probs, seed)[0]


def measure_expectation(
    rho: DensityState,
    observable: np.ndarray,
    shots: int | None,
    seed: int = 0,
) -> float:
    """<observable> on rho, exact when shots is None, sampled otherwise."""
    if shots is None:
        return float(np.trace(rho.matrix @ observable).real)
    w, counts = shot_draw(rho, observable, shots, seed)
    return float(np.dot(w, counts / shots))


def _from_expectations(expectations, basis: np.ndarray) -> DensityState:
    expectations = np.asarray(expectations, dtype=float)
    if expectations.shape != (len(basis),):
        raise DimensionMismatchError(f"need {len(basis)} expectations")
    d = basis.shape[-1]
    return DensityState(matrix=tomography._reconstruct(expectations[None], basis)[0], dims=(d,))


def qubit_state_tomo(ex: float, ey: float, ez: float) -> DensityState:
    """State from Pauli expectations, physically projected if needed."""
    return _from_expectations([ex, ey, ez], tomography._QUBIT_BASIS)


def qutrit_state_tomo(expectations) -> DensityState:
    """State from the eight Gell-Mann expectations <l_i> = 2 n_i."""
    return _from_expectations(expectations, tomography._QUTRIT_BASIS)


def truncate_loop(w: np.ndarray) -> np.ndarray:
    """Truncate-and-redistribute on ascending eigenvalues (..., d), one pass
    per eigenvalue column: while a row is still zeroing, eigenvalue i goes
    to 0 if it stays negative after its share acc / (d - i) of the deficit
    acc zeroed so far; the first that does not takes that share, and so do
    all above it."""
    w = np.array(w, dtype=float)
    d = w.shape[-1]
    acc = np.zeros(w.shape[:-1])
    zeroing = np.ones(w.shape[:-1], dtype=bool)  # rows whose deficit is not yet spread
    for i in range(d):
        share = acc / (d - i)
        zero = zeroing & (w[..., i] + share < 0.0)
        spread = (zeroing & ~zero)[..., None]
        w[..., i:] = np.where(spread, w[..., i:] + share[..., None], w[..., i:])
        acc = np.where(zero, acc + w[..., i], acc)
        w[..., i] = np.where(zero, 0.0, w[..., i])
        zeroing = zero
    return w


def reconstruction_fidelity(rho_true: DensityState, rho_rec: np.ndarray) -> float:
    """Fidelity proxy Tr[rho_true rho_rec] normalized for mixed states."""
    a = rho_true.matrix
    b = rho_rec
    num = float(np.trace(a @ b).real)
    den = math.sqrt(float(np.trace(a @ a).real) * float(np.trace(b @ b).real))
    return min(1.0, max(0.0, num / den)) if den > 0 else 0.0


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
