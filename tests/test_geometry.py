import math

import numpy as np
import pytest
import scipy.linalg

from qsteer.circuits import steering_kak
from qsteer.cli import _CNOT_POINT
from qsteer.errors import DimensionMismatchError
from qsteer.geometry import (
    CNOT_GATE,
    canonical_a_matrix,
    kak_decompose,
    locally_equivalent,
    reassembly_distance,
    same_weyl_point,
    weyl_coordinates,
)
from qsteer.linalg import expm_i_herm, kron, phase_invariant_distance
from qsteer.states import QubitTarget, SX, SY, SZ
from qsteer.steering import TargetSpec, build_qubit_hamiltonian, make_steering_operator

from conftest import STABILIZERS, canonicalize_weyl_vector, cphase_gate, haar_unitary

SWAP_GATE = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def a_matrix_oracle(c):
    """exp(i/2 (c1 XX + c2 YY + c3 ZZ)) via scipy (independent path)."""
    gen = c[0] * kron(SX, SX) + c[1] * kron(SY, SY) + c[2] * kron(SZ, SZ)
    return scipy.linalg.expm(0.5j * gen)


class TestCanonicalA:
    def test_matches_scipy(self, rng):
        for _ in range(25):
            c = rng.uniform(-2, 2, size=3)
            assert np.max(np.abs(canonical_a_matrix(c) - a_matrix_oracle(c))) < 1e-12


class TestKakDecompose:
    def test_identity(self):
        dec = kak_decompose(np.eye(4, dtype=complex))
        assert np.allclose(dec.c, [0, 0, 0], atol=1e-12)
        assert reassembly_distance(np.eye(4), dec) < 1e-12
        for local in (*dec.k1_local, *dec.k2_local):
            assert phase_invariant_distance(local, np.eye(2)) < 1e-9

    def test_cnot_at_half_pi(self):
        dec = kak_decompose(CNOT_GATE)
        assert np.allclose(dec.c, [math.pi / 2, 0, 0], atol=1e-9)
        assert reassembly_distance(CNOT_GATE, dec) < 1e-12

    def test_reassembly_exact_with_phase(self, rng):
        for _ in range(200):
            u = haar_unitary(4, rng)
            dec = kak_decompose(u)
            assert np.max(np.abs(dec.reassemble() - u)) < 1e-9

    def test_reassembly_bulk(self, rng):
        worst = 0.0
        for _ in range(10_000):
            u = haar_unitary(4, rng)
            dec = kak_decompose(u)
            worst = max(worst, reassembly_distance(u, dec))
        assert worst <= 1e-9

    def test_canonical_cell_constraints(self, rng):
        for _ in range(300):
            c = kak_decompose(haar_unitary(4, rng)).c
            x, y, z = c
            assert -1e-12 <= abs(z) <= y + 1e-12 <= x + 2e-12 <= math.pi / 2 + 1e-9
            if x > math.pi / 2 - 1e-9:
                assert z >= -1e-12

    def test_steering_line(self):
        for coupling in np.linspace(0.02, math.pi / 2, 25):
            u = expm_i_herm(build_qubit_hamiltonian(math.pi / 2, 0.0, coupling))
            dec = kak_decompose(u)
            assert np.max(np.abs(dec.c - [coupling, coupling, 0])) < 1e-9
            assert reassembly_distance(u, dec) < 1e-9

    def test_degenerate_gates(self, rng):
        points = [
            (math.pi / 2, math.pi / 2, 0.0),
            (0.9, 0.4, 0.4),
            (0.9, 0.4, -0.4),
            (math.pi / 2, 0.6, -0.3),
        ]
        points += [(j, j, 0.0) for j in np.linspace(-4, 4, 17)]
        gates = [SWAP_GATE, cphase_gate(math.pi), kron(SX, SX), 1j * SWAP_GATE, np.eye(4), CNOT_GATE]
        gates += [canonical_a_matrix(c) for c in points]
        for gate in gates:
            dec = kak_decompose(gate)
            assert reassembly_distance(gate, dec) < 1e-10
            dressed = kron(haar_unitary(2, rng), haar_unitary(2, rng)) @ gate @ kron(
                haar_unitary(2, rng), haar_unitary(2, rng)
            )
            dec = kak_decompose(dressed)
            assert reassembly_distance(dressed, dec) < 1e-10
            assert np.max(np.abs(dec.c - weyl_coordinates(dressed))) < 1e-9

    def test_rejects_nonunitary(self):
        with pytest.raises(DimensionMismatchError):
            kak_decompose(np.ones((4, 4)))


class TestWeylCoordinates:
    def test_swap_point(self):
        assert np.allclose(weyl_coordinates(SWAP_GATE), [math.pi / 2] * 3, atol=1e-10)

    def test_local_gates_at_origin(self, rng):
        for _ in range(25):
            u = kron(haar_unitary(2, rng), haar_unitary(2, rng))
            assert np.allclose(weyl_coordinates(u), [0, 0, 0], atol=1e-8)

    def test_steering_line_grid(self):
        for coupling in np.linspace(0.01, math.pi / 2, 50):
            for theta, phi in [(math.pi / 2, 0.0), (0.7, 2.1), (0.0, 0.0)]:
                u = expm_i_herm(build_qubit_hamiltonian(theta, phi, coupling))
                want = canonicalize_weyl_vector([coupling, coupling, 0.0])
                assert np.max(np.abs(weyl_coordinates(u) - want)) < 1e-8

    def test_cross_check_against_kak(self, rng):
        for _ in range(200):
            u = haar_unitary(4, rng)
            assert np.max(np.abs(weyl_coordinates(u) - kak_decompose(u).c)) < 1e-8

    def test_invariant_under_local_multiplication(self, rng):
        for _ in range(50):
            u = haar_unitary(4, rng)
            locals_ = kron(haar_unitary(2, rng), haar_unitary(2, rng))
            locals2 = kron(haar_unitary(2, rng), haar_unitary(2, rng))
            assert np.max(np.abs(weyl_coordinates(u) - weyl_coordinates(locals_ @ u @ locals2))) < 1e-8


class TestLocalEquivalence:
    def test_cnot_cphase_equivalent(self):
        assert locally_equivalent(CNOT_GATE, cphase_gate(math.pi))

    def test_cnot_not_equivalent_to_steering(self):
        for coupling in np.linspace(0.05, math.pi / 2, 20):
            u = expm_i_herm(build_qubit_hamiltonian(math.pi / 2, 0.0, coupling))
            assert not locally_equivalent(CNOT_GATE, u)

    def test_definition_invariance(self, rng):
        u = haar_unitary(4, rng)
        dressed = kron(haar_unitary(2, rng), haar_unitary(2, rng)) @ u @ kron(
            haar_unitary(2, rng), haar_unitary(2, rng)
        )
        assert locally_equivalent(u, dressed)

    def test_max_entanglement_point_at_half_pi(self):
        # J = pi/2 sits at the iSWAP-class vertex (pi/2, pi/2, 0)
        op = make_steering_operator(TargetSpec(QubitTarget(math.pi / 2, 0.0), math.pi / 2))
        assert np.allclose(weyl_coordinates(op.unitary), [math.pi / 2, math.pi / 2, 0], atol=1e-8)

    def test_whole_catalog_shares_the_line(self):
        coupling = 0.42
        coords = []
        for label, target in STABILIZERS:
            op = make_steering_operator(TargetSpec(target, coupling, label))
            coords.append(weyl_coordinates(op.unitary))
        for c in coords:
            assert np.max(np.abs(c - [coupling, coupling, 0.0])) < 1e-8


class TestCanonicalizeVector:
    def test_fixed_point_on_canonical_input(self):
        c = np.array([0.7, 0.7, 0.0])
        assert np.allclose(canonicalize_weyl_vector(c), c, atol=1e-14)

    def test_negatives_folded(self):
        got = canonicalize_weyl_vector([-0.3, 0.0, -0.3])
        assert np.allclose(got, [0.3, 0.3, 0.0], atol=1e-12)

    def test_matches_full_decomposition(self, rng):
        for _ in range(50):
            c = rng.uniform(-10, 10, size=3)
            u = canonical_a_matrix(c)
            assert np.max(np.abs(canonicalize_weyl_vector(c) - weyl_coordinates(u))) < 1e-8


class TestCnotPoint:
    def test_landmark_is_cnot_and_cz(self):
        for gate in (CNOT_GATE, cphase_gate(math.pi)):
            assert np.max(np.abs(weyl_coordinates(gate) - _CNOT_POINT)) <= 1e-12

    def test_flag_agrees_with_local_equivalence(self, rng):
        cases = []
        for _, target in STABILIZERS:
            for coupling in (0.0, 0.3, math.pi / 2, 2.5, -1.0):
                spec = TargetSpec(target, coupling)
                op = make_steering_operator(spec)
                cases.append((op.unitary, steering_kak(spec, op).c))
        gates = [CNOT_GATE, cphase_gate(math.pi)]
        gates += [kron(haar_unitary(2, rng), haar_unitary(2, rng)) @ CNOT_GATE
                  @ kron(haar_unitary(2, rng), haar_unitary(2, rng)) for _ in range(5)]
        gates += [haar_unitary(4, rng) for _ in range(200)]
        cases += [(u, kak_decompose(u).c) for u in gates]
        flags = []
        for u, c in cases:
            flag = same_weyl_point(c, _CNOT_POINT)
            assert flag == locally_equivalent(u, CNOT_GATE) == locally_equivalent(u, cphase_gate(math.pi))
            flags.append(flag)
        assert sum(flags) == 7  # CNOT, CZ and the dressed CNOTs
