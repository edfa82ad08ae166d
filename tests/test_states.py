import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsteer.errors import ConfigError, DimensionMismatchError
from qsteer.states import (
    CATALOG,
    DensityState,
    GELL_MANN,
    QubitTarget,
    QutritTarget,
    QUTRIT_EQUAL_KET,
    QUTRIT_EQUAL_TARGET,
    SX,
    SZ,
    fidelity,
    pauli_string_matrix,
    random_density,
    target_ket,
    validate_density,
)

from conftest import (STABILIZER_ROWS, STABILIZERS, bloch_vector, ginibre_density, pure_state,
                      qutrit_state_tomo)


class TestTargetKet:
    def test_ground_state(self):
        assert np.allclose(target_ket(QubitTarget(0.0, 0.0)), [1, 0])

    def test_plus_state(self):
        assert np.allclose(target_ket(QubitTarget(math.pi / 2, 0.0)), np.array([1, 1]) / np.sqrt(2))

    def test_qutrit_equal_superposition_parameters(self):
        ket = target_ket(QUTRIT_EQUAL_TARGET)
        assert np.allclose(ket, QUTRIT_EQUAL_KET, atol=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            QubitTarget(-0.1, 0.0)
        with pytest.raises(ConfigError):
            QubitTarget(0.1, 7.0)
        with pytest.raises(ConfigError):
            QutritTarget(4.0, 0.0, 0.0, 0.0)

    def test_qutrit_phase_interval_closed(self):
        # 2pi is accepted and canonicalized to 0
        t = QutritTarget(1.0, 1.0, 2 * math.pi, 2 * math.pi)
        assert t.phi01 == 0.0 and t.phi02 == 0.0
        # the qubit target follows the same rule
        assert QubitTarget(1.0, 2 * math.pi) == QubitTarget(1.0, 0.0)

    def test_global_phase_convention(self):
        ket = target_ket(QubitTarget(math.pi, 0.5))
        assert abs(ket[0]) < 1e-15
        assert ket[1].imag == pytest.approx(0.0, abs=1e-15)
        assert ket[1].real > 0

    @given(
        st.floats(0.0, math.pi),
        st.floats(0.0, 2 * math.pi, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_qubit_norm(self, theta, phi):
        assert abs(np.linalg.norm(target_ket(QubitTarget(theta, phi))) - 1.0) <= 1e-14

    @given(
        st.floats(0.0, math.pi),
        st.floats(0.0, math.pi),
        st.floats(0.0, 2 * math.pi),
        st.floats(0.0, 2 * math.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_qutrit_norm(self, xi, theta, p1, p2):
        assert abs(np.linalg.norm(target_ket(QutritTarget(xi, theta, p1, p2))) - 1.0) <= 1e-14


class TestBloch:
    def test_maximally_mixed(self):
        rho = DensityState(matrix=np.eye(2, dtype=complex) / 2, dims=(2,))
        assert np.allclose(bloch_vector(rho), [0, 0, 0], atol=1e-15)

    def test_plus_state(self):
        rho = pure_state(target_ket(QubitTarget(math.pi / 2, 0.0)))
        assert np.allclose(bloch_vector(rho), [1, 0, 0], atol=1e-14)

    def test_minus_i_state(self):
        rho = pure_state(target_ket(QubitTarget(math.pi / 2, 3 * math.pi / 2)))
        assert np.allclose(bloch_vector(rho), [0, -1, 0], atol=1e-14)

    def test_wrong_dimension(self):
        rho = DensityState(matrix=np.eye(3, dtype=complex) / 3, dims=(3,))
        with pytest.raises(DimensionMismatchError):
            bloch_vector(rho)


class TestGellMann:
    def test_orthonormality(self):
        for i, a in enumerate(GELL_MANN):
            assert np.allclose(a, a.conj().T)
            for j, b in enumerate(GELL_MANN):
                want = 2.0 if i == j else 0.0
                assert abs(np.trace(a @ b).real - want) < 1e-14

    def test_maximally_mixed(self):
        # the matrices are traceless, so I/3 has all-zero expectations
        rho = DensityState(matrix=np.eye(3, dtype=complex) / 3, dims=(3,))
        assert np.allclose([np.trace(rho.matrix @ l) for l in GELL_MANN], 0.0, atol=1e-15)

    def test_ground_state_coordinates(self):
        # n_i = <l_i> / 2 of |0><0|, and tomography from <l_i> = 2 n_i gives it back
        rho = pure_state(np.array([1, 0, 0], dtype=complex))
        want = np.zeros(8)
        want[2] = 0.5
        want[7] = 1 / (2 * math.sqrt(3))
        n = [0.5 * np.trace(rho.matrix @ l).real for l in GELL_MANN]
        assert np.allclose(n, want, atol=1e-14)
        back = qutrit_state_tomo(2 * want)
        assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-14


class TestPauliStringMatrix:
    def test_shared_read_only_result(self):
        a = pauli_string_matrix("XZ")
        b = pauli_string_matrix("XZ")
        assert np.array_equal(a, b)
        assert np.array_equal(a, np.kron(SX, SZ))
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 2.0
        assert np.array_equal(pauli_string_matrix("XZ"), np.kron(SX, SZ))

    def test_unknown_letter_rejected(self):
        for _ in range(2):  # a failed label is not cached
            with pytest.raises(ConfigError):
                pauli_string_matrix("XQ")


class TestStabilizerCatalog:
    def test_six_rows_with_expected_axes(self):
        assert list(CATALOG) == ["0", "1", "+", "-", "i", "-i", "qutrit-equal"]
        assert CATALOG["qutrit-equal"] is QUTRIT_EQUAL_TARGET
        assert [label for label, _ in STABILIZERS] == list(STABILIZER_ROWS)
        blochs = {label: bloch for label, (bloch, _) in STABILIZER_ROWS.items()}
        assert blochs["0"] == (0, 0, 1)
        assert blochs["+"] == (1, 0, 0)
        assert blochs["-i"] == (0, -1, 0)

    def test_bloch_matches_ket(self):
        for label, target in STABILIZERS:
            rho = pure_state(target_ket(target))
            assert np.allclose(bloch_vector(rho), STABILIZER_ROWS[label][0], atol=1e-12)

    def test_terms_match_hamiltonian_builder(self):
        from qsteer.states import pauli_string_matrix
        from qsteer.steering import build_qubit_hamiltonian

        coupling = 0.83
        for label, target in STABILIZERS:
            h_terms = (coupling / 2) * sum(
                sign * pauli_string_matrix(s) for sign, s in STABILIZER_ROWS[label][1]
            )
            h_built = build_qubit_hamiltonian(target.theta, target.phi, coupling)
            assert np.max(np.abs(h_terms - h_built)) <= 1e-12


class TestFidelity:
    def test_pure_match(self):
        ket = target_ket(QubitTarget(math.pi / 2, 0.0))
        assert fidelity(pure_state(ket).matrix, ket) == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed_half(self):
        rho = DensityState(matrix=np.eye(2, dtype=complex) / 2, dims=(2,))
        assert fidelity(rho.matrix, np.array([1, 0], dtype=complex)) == pytest.approx(0.5)

    def test_qutrit_third(self):
        rho = DensityState(matrix=np.eye(3, dtype=complex) / 3, dims=(3,))
        assert fidelity(rho.matrix, QUTRIT_EQUAL_KET) == pytest.approx(1 / 3)

    def test_dimension_mismatch(self):
        rho = DensityState(matrix=np.eye(2, dtype=complex) / 2, dims=(2,))
        with pytest.raises(DimensionMismatchError):
            fidelity(rho.matrix, QUTRIT_EQUAL_KET)


class TestRandomDensity:
    def test_deterministic_per_seed(self):
        a = random_density(4, 123)
        b = random_density(4, 123)
        assert np.array_equal(a.matrix, b.matrix)
        c = random_density(4, 124)
        assert not np.allclose(a.matrix, c.matrix)

    def test_statistics_sane(self):
        norms = []
        for seed in range(10_000):
            rho = random_density(2, seed)
            evs = np.linalg.eigvalsh(rho.matrix)
            assert evs.min() >= -1e-12
            norms.append(np.linalg.norm(bloch_vector(rho)))
        mean_norm = float(np.mean(norms))
        assert 0.0 < mean_norm < 1.0

    def test_purity_bounds(self):
        for dim in (2, 3, 4, 6):
            for seed in range(25):
                rho = random_density(dim, seed)
                purity = float(np.trace(rho.matrix @ rho.matrix).real)
                assert 1.0 / dim - 1e-12 <= purity <= 1.0 + 1e-12

    def test_unsupported_dim(self):
        with pytest.raises(DimensionMismatchError):
            random_density(5, 0)


class TestDensityState:
    def test_validation(self, rng):
        with pytest.raises(DimensionMismatchError):
            DensityState(matrix=np.eye(2, dtype=complex), dims=(2,))  # trace 2
        with pytest.raises(DimensionMismatchError):
            DensityState(matrix=np.array([[0.5, 0.5], [0.4, 0.5]]), dims=(2,))
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(DimensionMismatchError):
            DensityState(matrix=bad, dims=(2,))
        mat = ginibre_density(6, rng)
        with pytest.raises(DimensionMismatchError):
            DensityState(matrix=mat, dims=(2, 2))
        DensityState(matrix=mat, dims=(2, 3))


# One bad 2x2 matrix per DensityState check, with the message that names it.
BAD_DENSITIES = {
    "trace": (np.diag([0.5 + 1e-9, 0.5]).astype(complex), "trace"),
    "hermiticity": (np.array([[0.5, 1e-6], [0.0, 0.5]], dtype=complex), "Hermitian"),
    "eigenvalue": (np.diag([1.0 + 1e-8, -1e-8]).astype(complex), "eigenvalue"),
}


class TestValidateDensity:
    @pytest.mark.parametrize("kind", sorted(BAD_DENSITIES))
    def test_rejects_what_density_state_rejects(self, kind):
        bad, message = BAD_DENSITIES[kind]
        with pytest.raises(DimensionMismatchError, match=message):
            DensityState(matrix=bad, dims=(2,))
        with pytest.raises(DimensionMismatchError, match=message):
            validate_density(bad)

    @pytest.mark.parametrize("kind", sorted(BAD_DENSITIES))
    def test_one_bad_matrix_fails_a_stack(self, kind, rng):
        bad, message = BAD_DENSITIES[kind]
        stack = np.stack([ginibre_density(2, rng) for _ in range(6)])
        validate_density(stack)
        stack[4] = bad
        with pytest.raises(DimensionMismatchError, match=message):
            validate_density(stack)
        with pytest.raises(DimensionMismatchError, match=message):
            validate_density(stack.reshape(2, 3, 2, 2))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, value, rng):
        whole = np.full((2, 2), value, dtype=complex)
        one = np.eye(2, dtype=complex) / 2
        one[0, 1] = value
        stack = np.stack([ginibre_density(2, rng) for _ in range(6)])
        stack[4] = one
        for bad in (whole, one, stack):
            with pytest.raises(DimensionMismatchError, match="non-finite"):
                validate_density(bad)
        for bad in (whole, one):
            with pytest.raises(DimensionMismatchError, match="non-finite"):
                DensityState(matrix=bad, dims=(2,))
