"""Steering operators: the paper's entangling generators, the closed-form
cycle unitary and its Kraus operators, and one averaged channel step.

Conventions used throughout:

* Joint spaces are ordered ancilla (x) system; the ancilla is always a qubit
  reset to |0> (the protocols mix in |1> for a reset infidelity).  With that
  convention one averaged step at theta=pi/2, phi=0, J=pi/2 maps every
  input to |+><+| exactly.
* Every cycle has one definition, U = (I (x) F) V (I (x) F^dag).  The
  steering frame F = [psi, b (, d)] of :func:`steering_frame` is a unitary
  whose columns are the target, the bright direction of its complement and,
  for a qutrit, the dark one.  V is the cycle in that frame, one matrix for
  every target of a dimension, with entries 1, cos J and -i sin J: for a
  qubit A_0 = diag(1, cos J) and A_1 = -i sin J |e_0><e_1|.  The protocol
  iterates V.  The paper's generators (:func:`build_qubit_hamiltonian`,
  :func:`build_qutrit_hamiltonian`) are kept as the reference U matches.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionMismatchError
from .linalg import ComplexMatrix, dagger, kraus_apply, kron
from .states import (
    DensityState,
    QubitTarget,
    QutritTarget,
    QUTRIT_EQUAL_KET,
    pauli_string_matrix,
    target_ket,
)


class TargetSpec(namedtuple("TargetSpec", "target coupling label")):
    """A steering task: the desired pure state plus the coupling strength J."""

    __slots__ = ()

    def __new__(cls, target: QubitTarget | QutritTarget, coupling: float,
                label: str | None = None):
        if not math.isfinite(coupling):
            raise ConfigError(f"coupling J={coupling} is not finite")
        return super().__new__(cls, target, coupling, label)

    @property
    def system_dim(self) -> int:
        return 2 if isinstance(self.target, QubitTarget) else 3


class SteeringOperator(NamedTuple):
    """One steering cycle, for a qubit ancilla reset to |0>: the cycle V in
    the steering frame F (``frame_unitary``, ``frame``) and the joint
    ancilla (x) system unitary U = (I (x) F) V (I (x) F^dag); ``target`` is
    F's first column."""

    unitary: ComplexMatrix
    system_dim: int
    coupling: float
    target: np.ndarray
    frame: ComplexMatrix
    frame_unitary: ComplexMatrix


def build_qubit_hamiltonian(theta: float, phi: float, coupling: float) -> ComplexMatrix:
    """Steering generator for a qubit target, from its Pauli operator form:

        H = (J/2) (-cos(phi)cos(theta) XX - cos(phi) YY + sin(phi) YX
                   + sin(theta) XZ - sin(phi)cos(theta) XY)

    (first letter ancilla, second system).  Equivalently, the explicit matrix
    with alpha = sin(theta), beta_pm = e^{i phi}(cos(theta) +- 1) on the
    anti-diagonal 2x2 blocks.
    """
    QubitTarget(theta, phi)  # range validation
    h = (
        -math.cos(phi) * math.cos(theta) * pauli_string_matrix("XX")
        - math.cos(phi) * pauli_string_matrix("YY")
        + math.sin(phi) * pauli_string_matrix("YX")
        + math.sin(theta) * pauli_string_matrix("XZ")
        - math.sin(phi) * math.cos(theta) * pauli_string_matrix("XY")
    )
    return (coupling / 2.0) * h


def qutrit_complement_basis(target: QutritTarget) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(psi, perp1, perp2): the target ket and an orthonormal basis of its
    orthogonal complement.

    The equal superposition uses the cube-root-phase vectors
    (1, nu, nu*)/sqrt(3) and (1, nu*, nu)/sqrt(3) with nu = exp(i 2pi/3), so
    the resulting Hamiltonian matrix is bit-exact in its 2/3 and -1/3 entries;
    other targets use Gram-Schmidt against the canonical basis.
    """
    psi = target_ket(target)
    if np.allclose(psi, QUTRIT_EQUAL_KET, atol=1e-12):
        nu = np.exp(2j * math.pi / 3)
        perp1 = np.array([1.0, nu, nu.conjugate()], dtype=complex) / math.sqrt(3.0)
        perp2 = np.array([1.0, nu.conjugate(), nu], dtype=complex) / math.sqrt(3.0)
        return QUTRIT_EQUAL_KET, perp1, perp2
    basis = [psi]
    for k in range(3):
        cand = np.zeros(3, dtype=complex)
        cand[k] = 1.0
        for b in basis:
            cand = cand - (b.conj() @ cand) * b
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            basis.append(cand / norm)
        if len(basis) == 3:
            break
    return psi, basis[1], basis[2]


def build_qutrit_hamiltonian(target: QutritTarget) -> ComplexMatrix:
    """The paper's steering generator for a qutrit target with a qubit ancilla:

        H = sigma^+ (x) (|perp1><psi| + |perp2><psi|) + h.c.

    with sigma^+ = |0><1| on the ancilla.  For the equal-superposition target
    this is exactly the 6x6 matrix with 2/3 and -1/3 entries on the
    off-diagonal blocks.  The block coupling an ancilla-ground complement
    component to the excited-ancilla target has singular value sqrt(2) for
    every target, so convergence rates are comparable across targets.

    H couples only the bright complement direction b = (perp1 + perp2)/sqrt(2);
    |0> (x) d with d = (perp1 - perp2)/sqrt(2) is a second zero mode, so
    exp(-i J H) alone conserves the population of d and cannot steer from an
    arbitrary initial state.  :func:`make_steering_operator` therefore follows
    it with the exchange of b and d.
    """
    psi, perp1, perp2 = qutrit_complement_basis(target)
    raising = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
    coupling = np.outer(perp1 + perp2, psi.conj())
    h = kron(raising, coupling)
    return h + dagger(h)


def steering_frame(target: QubitTarget | QutritTarget) -> ComplexMatrix:
    """The steering frame F, a unitary whose columns are the target ket psi,
    the bright direction b of its complement that the cycle couples to the
    ancilla and, for a qutrit, the dark direction d.

    * qubit: psi = (cos(theta/2), e^{i phi} sin(theta/2)) and
      b = (sin(theta/2), -e^{i phi} cos(theta/2)), with the same raw phase.
    * qutrit: b = (perp1 + perp2)/sqrt(2), the direction that
      :func:`build_qutrit_hamiltonian` couples, and d = (perp1 - perp2)/sqrt(2).
    """
    if isinstance(target, QubitTarget):
        cos, sin = math.cos(target.theta / 2), math.sin(target.theta / 2)
        phase = np.exp(1j * target.phi)
        columns = [[cos, phase * sin], [sin, -phase * cos]]
    elif isinstance(target, QutritTarget):
        psi, perp1, perp2 = qutrit_complement_basis(target)
        columns = [psi, (perp1 + perp2) / math.sqrt(2.0), (perp1 - perp2) / math.sqrt(2.0)]
    else:
        raise ConfigError(f"unsupported target {type(target).__name__}")
    return np.array(columns, dtype=complex).T


def make_steering_operator(spec: TargetSpec) -> SteeringOperator:
    """One steering cycle, for either system dimension, in closed form:

        U = (I (x) F) V (I (x) F^dag),

    with F = [psi, b (, d)] from :func:`steering_frame` and V the cycle in
    that frame.  V = exp(-i J G) with G = |0,e_1><1,e_0| + h.c. (G^3 = G, so
    its entries are 1, cos J and -i sin J, exactly), followed for a qutrit
    by the exchange of e_1 and e_2: the ancilla flips with amplitude sin(J)
    exactly when the system is along b, and the flip moves it onto psi.
    Out of the frame, (I (x) F) J G (I (x) F^dag) is
    build_qubit_hamiltonian(theta, phi, J) for a qubit and
    (J/sqrt(2)) build_qutrit_hamiltonian(target) for a qutrit.

    A_1 = -i sin(J) |psi><b| is rank one onto psi, so a recorded "1" heralds
    the target, and <psi| A_0 = <psi|, so blind fidelity is monotone.  For a
    qutrit, the exchange moves the dark direction into the bright one for
    the next cycle, so psi is the only fixed point for 0 < J < pi, with
    |lambda_2| = sqrt(|cos J|); at J = pi/2 every state reaches psi in two
    cycles.
    """
    frame = steering_frame(spec.target)
    d = len(frame)
    cos, sin = math.cos(spec.coupling), math.sin(spec.coupling)
    cycle = np.eye(2 * d, dtype=complex)
    cycle[1, 1] = cycle[d, d] = cos  # |0,e_1> and |1,e_0> (index d)
    cycle[1, d] = cycle[d, 1] = -1j * sin
    if d == 3:
        cycle = cycle[[0, 2, 1, 3, 5, 4]]  # then exchange e_1 and e_2
    lift = kron(np.eye(2), frame)
    return SteeringOperator(
        unitary=lift @ cycle @ dagger(lift),
        system_dim=d,
        coupling=spec.coupling,
        target=frame[:, 0],
        frame=frame,
        frame_unitary=cycle,
    )


def kraus_from_unitary(op: SteeringOperator) -> np.ndarray:
    """(2, d, d) Kraus stack A_k = <k|_A U |0>_A of the computational-basis
    U, indexed by ancilla outcome."""
    u = op.unitary.reshape(2, op.system_dim, 2, op.system_dim)
    return np.ascontiguousarray(u[:, :, 0])


def averaged_step(rho: DensityState, kraus: np.ndarray) -> DensityState:
    """One blind protocol step: rho -> sum_k A_k rho A_k^dagger, for a
    (K, d, d) Kraus stack."""
    d = kraus.shape[-1]
    if rho.dim != d:
        raise DimensionMismatchError(f"state dim {rho.dim} does not match Kraus dim {d}")
    return DensityState(matrix=kraus_apply(kraus, rho.matrix), dims=rho.dims)
