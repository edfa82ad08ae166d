import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qsteer.errors import DimensionMismatchError, NonHermitianError
from qsteer.linalg import (
    dagger,
    expm_i_herm,
    herm_eig,
    kron,
    partial_trace,
    phase_invariant_distance,
)
from qsteer.states import DensityState, SX, SZ

from conftest import ginibre_density, haar_unitary, ptrace_loop, random_hermitian

I2 = np.eye(2, dtype=complex)
I3 = np.eye(3, dtype=complex)


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_sigma_x_sigma_z_by_hand(self):
        # expand the definition: nonzero entries (0,2)=1,(1,3)=-1,(2,0)=1,(3,1)=-1
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = expected[2, 0] = 1
        expected[1, 3] = expected[3, 1] = -1
        assert np.allclose(kron(SX, SZ), expected, atol=1e-15)

    def test_projector_one_tensor_identity(self):
        # the ancilla-"1" projector on the qubit-qutrit space
        p1 = np.zeros((2, 2), dtype=complex)
        p1[1, 1] = 1
        assert np.allclose(kron(p1, I3), np.diag([0, 0, 0, 1, 1, 1]), atol=1e-15)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            kron(np.ones((2, 3)), I2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_associative_and_bilinear(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)
        x = rng.normal()
        assert np.allclose(kron(x * a + b, c), x * kron(a, c) + kron(b, c), atol=1e-12)


class TestPartialTrace:
    def test_product_state(self):
        ket = np.zeros(4, dtype=complex)
        ket[0] = 1  # |00>
        rho = DensityState(matrix=np.outer(ket, ket.conj()), dims=(2, 2))
        out = partial_trace(rho.matrix, keep=1, dims=rho.dims)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-15)

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = DensityState(matrix=np.outer(bell, bell.conj()), dims=(2, 2))
        out = partial_trace(rho.matrix, keep=1, dims=rho.dims)
        assert np.allclose(out, I2 / 2, atol=1e-15)

    def test_matches_loop_oracle(self, rng):
        for dims in [(2, 2), (2, 3), (3, 2)]:
            d = int(np.prod(dims))
            mat = ginibre_density(d, rng)
            for keep in range(2):
                got = partial_trace(mat, keep=keep, dims=dims)
                want = ptrace_loop(mat, dims, keep)
                assert np.allclose(got, want, atol=1e-13)

    def test_kraus_duality_for_steering_unitary(self, rng):
        # Tr_A[U (|0><0| x rho) U^dag] equals the Kraus sum with A_k = <k|U|0>
        from qsteer.states import QubitTarget
        from qsteer.steering import TargetSpec, kraus_from_unitary, make_steering_operator

        op = make_steering_operator(TargetSpec(QubitTarget(np.pi / 2, 0.0), 0.7, "+"))
        kset = kraus_from_unitary(op)
        for _ in range(20):
            rho = ginibre_density(2, rng)
            anc = np.diag([1.0, 0.0]).astype(complex)
            joint = op.unitary @ kron(anc, rho) @ dagger(op.unitary)
            lhs = ptrace_loop(joint, (2, 2), 1)
            rhs = sum(a @ rho @ dagger(a) for a in kset)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_trace_preserved_and_dimension_check(self, rng):
        mat = ginibre_density(6, rng)
        out = partial_trace(mat, keep=0, dims=(2, 3))
        assert abs(np.trace(out) - np.trace(mat)) < 1e-12
        with pytest.raises(DimensionMismatchError):
            partial_trace(mat, keep=0, dims=(2, 2))

    def test_kron_then_trace_recovers_factor(self, rng):
        a = ginibre_density(2, rng)
        b = ginibre_density(3, rng)
        got = partial_trace(kron(a, b), keep=0, dims=(2, 3))
        assert np.allclose(got, a * np.trace(b), atol=1e-12)


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(expm_i_herm(np.zeros((3, 3))), I3, atol=1e-15)

    def test_pauli_exponential_identity(self):
        got = expm_i_herm((np.pi / 2) * SX)
        assert np.allclose(got, -1j * SX, atol=1e-14)

    def test_matches_scipy_oracle(self, rng):
        for n in (2, 3, 4, 6, 9):
            h = random_hermitian(n, rng)
            got = expm_i_herm(h)
            want = scipy.linalg.expm(-1j * h)
            assert np.max(np.abs(got - want)) < 1e-11

    def test_inverse_pairs(self, rng):
        for _ in range(50):
            h = random_hermitian(4, rng)
            u = expm_i_herm(h) @ expm_i_herm(-h)
            assert np.max(np.abs(u - np.eye(4))) < 1e-11

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            expm_i_herm(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_unitarity_defect(self, rng):
        for _ in range(100):
            h = random_hermitian(6, rng)
            u = expm_i_herm(h)
            assert np.max(np.abs(dagger(u) @ u - np.eye(6))) < 1e-12


class TestHermEig:
    def test_diagonal_permutation(self):
        w, v = herm_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1, 2, 3])
        assert np.allclose(np.abs(v), np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))

    def test_sigma_x_textbook(self):
        w, v = herm_eig(SX)
        assert np.allclose(w, [-1, 1])
        for col, want in zip(v.T, [np.array([1, -1]) / np.sqrt(2), np.array([1, 1]) / np.sqrt(2)]):
            # up to phase
            phase = col[np.argmax(np.abs(col))] / want[np.argmax(np.abs(col))]
            assert np.allclose(col, phase * want, atol=1e-12)

    def test_block_antidiagonal_spectrum_symmetric(self):
        # generators with zero diagonal blocks anticommute with the block
        # parity and have a +/- paired spectrum
        from qsteer.states import QUTRIT_EQUAL_TARGET
        from qsteer.steering import build_qutrit_hamiltonian

        w, _ = herm_eig(build_qutrit_hamiltonian(QUTRIT_EQUAL_TARGET))
        assert np.allclose(np.sort(w), -np.sort(-w)[::-1] * 1.0, atol=1e-12)
        assert np.allclose(w + w[::-1], 0.0, atol=1e-12)

    def test_reconstruction_residual_bulk(self, rng):
        # 10^4 random Hermitian matrices over dims 2..9
        dims = rng.integers(2, 10, size=10_000)
        worst = 0.0
        for n in dims:
            h = random_hermitian(int(n), rng)
            w, v = herm_eig(h)
            assert np.all(np.diff(w) >= -1e-12)
            res = np.max(np.abs((v * w) @ dagger(v) - h))
            unit = np.max(np.abs(dagger(v) @ v - np.eye(int(n))))
            worst = max(worst, res, unit)
        assert worst <= 1e-10


class TestPhaseInvariantDistance:
    def test_self_distance_zero(self, rng):
        u = haar_unitary(4, rng)
        assert phase_invariant_distance(u, u) < 1e-14

    def test_global_phase_invariance(self, rng):
        u = haar_unitary(4, rng)
        assert phase_invariant_distance(u, np.exp(1j * np.pi / 7) * u) < 1e-14

    def test_identity_vs_cnot(self):
        from qsteer.geometry import CNOT_GATE

        assert abs(phase_invariant_distance(np.eye(4), CNOT_GATE) - 0.5) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            phase_invariant_distance(np.eye(2), np.eye(4))
