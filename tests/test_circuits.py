import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsteer import steering
from qsteer.circuits import (
    CNOT,
    Circuit,
    Gate,
    PHASE,
    QUBIT_QUTRIT_CNOT,
    RX,
    RZ,
    SUBSPACE_RX12,
    SUBSPACE_RZ12,
    U3,
    emit_text,
    evaluate_circuit,
    parse_text,
    steering_kak,
    synth_kak_circuit,
    synth_qutrit_circuit,
    u3_matrix,
    zyz_angles,
)
from qsteer.circuits import rx_matrix, rz_matrix
from qsteer.errors import ConfigError
from qsteer.geometry import (
    CNOT_GATE,
    reassembly_distance,
    weyl_coordinates,
)
from qsteer.linalg import expm_i_herm, phase_invariant_distance
from qsteer.states import (
    QubitTarget,
    QutritTarget,
    QUTRIT_EQUAL_TARGET,
)
from qsteer.steering import TargetSpec, build_qubit_hamiltonian, make_steering_operator

from conftest import (MALFORMED_CIRCUIT_TEXTS, STABILIZERS, canonicalize_weyl_vector, haar_unitary,
                      steering_grid)


class TestGateValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown gate kind"):
            Circuit((2, 2), (Gate("ry", (0.1,), (0,)),))

    def test_wire_checks(self):
        bad = [
            ((2, 2), Gate(SUBSPACE_RX12, (0.1,), (0,))),  # rx12 on a qubit wire
            ((2, 3), Gate(SUBSPACE_RZ12, (0.1,), (0,))),
            ((2, 2), Gate(QUBIT_QUTRIT_CNOT, (), (0, 1))),  # cx23 on the qubit register
            ((2, 3), Gate(QUBIT_QUTRIT_CNOT, (), (1, 0))),  # reversed cx23
            ((2, 3), Gate(CNOT, (), (0, 1))),  # cx on the qutrit register
            ((2, 2), Gate(RX, (0.1,), (2,))),  # undeclared wire
            ((2, 2), Gate(RX, (0.1,), (0, 1))),  # wire count
            ((2, 2), Gate(CNOT, (), (0,))),
            ((2, 2), Gate(PHASE, (0.1,), (0,))),
        ]
        for dims, gate in bad:
            with pytest.raises(ConfigError, match="cannot act on wires"):
                Circuit(dims, (gate,))
        Circuit((2, 3), (Gate(QUBIT_QUTRIT_CNOT, (), (0, 1)),))
        Circuit((2, 2), (Gate(CNOT, (), (1, 0)),))

    def test_duplicate_wires(self):
        with pytest.raises(ConfigError, match="cannot act on wires"):
            Circuit((2, 2), (Gate(CNOT, (), (0, 0)),))

    def test_nonfinite_param(self):
        with pytest.raises(ConfigError, match="non-finite parameter"):
            Circuit((2, 2), (Gate(RX, (float("nan"),), (0,)),))
        for phase in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigError):
                Circuit((2, 2), (), phase)

    def test_param_count(self):
        for gate in (Gate(RX, (), (0,)), Gate(U3, (0.1, 0.2), (1,)), Gate(CNOT, (0.1,), (0, 1))):
            with pytest.raises(ConfigError, match="params"):
                Circuit((2, 2), (gate,))

    @pytest.mark.parametrize("dims", [(2,), (3,), (3, 2), (2, 2, 2), (), (3, 3)])
    def test_register_is_ancilla_then_system(self, dims):
        with pytest.raises(ConfigError, match="wire dims"):
            Circuit(dims, ())


class TestEvaluate:
    def test_empty_circuit(self):
        assert np.allclose(evaluate_circuit(Circuit((2, 2), ())), np.eye(4))

    def test_double_cnot_cancels(self):
        c = Circuit((2, 2), (Gate(CNOT, (), (0, 1)), Gate(CNOT, (), (0, 1))))
        assert np.allclose(evaluate_circuit(c), np.eye(4), atol=1e-14)

    def test_reversed_cnot_embedding(self):
        c = Circuit((2, 2), (Gate(CNOT, (), (1, 0)),))
        got = evaluate_circuit(c)
        want = np.eye(4)[:, [0, 3, 2, 1]]  # control on wire 1
        assert np.allclose(got, want, atol=1e-14)

    def test_qutrit_cx23_truth_table(self):
        c = Circuit((2, 3), (Gate(QUBIT_QUTRIT_CNOT, (), (0, 1)),))
        got = evaluate_circuit(c)
        # identity on the six basis states except |1,2> -> i |1,2>
        want = np.diag([1, 1, 1, 1, 1, 1j]).astype(complex)
        assert np.allclose(got, want, atol=1e-15)

    def test_subspace_rotations_do_not_touch_other_level(self):
        # the system block of the ancilla's |0> rows
        c = Circuit((2, 3), (Gate(SUBSPACE_RX12, (0.7,), (1,)),))
        got = evaluate_circuit(c)[:3, :3]
        assert got[0, 0] == 1.0 and np.allclose(got[0, 1:], 0)
        c = Circuit((2, 3), (Gate(RX, (0.7,), (1,)),))
        got = evaluate_circuit(c)[:3, :3]
        assert got[2, 2] == 1.0 and np.allclose(got[2, :2], 0)

    def test_phase_gate(self):
        c = Circuit((2, 2), (Gate(PHASE, (0.5,), ()),))
        assert np.allclose(evaluate_circuit(c), np.exp(0.5j) * np.eye(4))

    def test_matches_kron_reference_on_random_circuits(self):
        seen_kinds, seen_pairs = set(), set()
        for seed in range(200):
            c = random_circuit(np.random.default_rng(seed))
            dev = np.max(np.abs(evaluate_circuit(c) - kron_reference(c)))
            assert dev <= 1e-13, (seed, dev)
            seen_kinds |= {g.kind for g in c.gates}
            seen_pairs |= {g.wires for g in c.gates if len(g.wires) == 2}
        assert seen_kinds == {RX, RZ, U3, SUBSPACE_RX12, SUBSPACE_RZ12, CNOT, QUBIT_QUTRIT_CNOT, PHASE}
        assert seen_pairs == {(0, 1), (1, 0)}

    @pytest.mark.parametrize(
        "target, coupling, tol",
        [(QubitTarget(math.pi / 2, 0.0), 0.785, 1e-9), (QUTRIT_EQUAL_TARGET, 0.5, 1e-12)],
    )
    def test_readme_circuits(self, target, coupling, tol):
        spec = TargetSpec(target, coupling)
        synth = synth_kak_circuit if isinstance(target, QubitTarget) else synth_qutrit_circuit
        c = synth(make_steering_operator(spec))[0]
        u = evaluate_circuit(c)
        assert phase_invariant_distance(u, make_steering_operator(spec).unitary) <= tol
        assert np.max(np.abs(u - kron_reference(c))) <= 1e-13

    def test_gate_order_is_application_order(self):
        c = Circuit((2, 2), (Gate(RX, (math.pi,), (0,)), Gate(RZ, (math.pi,), (0,))))
        want = np.kron(rz_matrix(math.pi) @ rx_matrix(math.pi), np.eye(2))
        assert np.allclose(evaluate_circuit(c), want, atol=1e-14)


def kron_reference(circuit):
    """Every gate Kronecker-embedded into the full space, one full product per
    gate, with 2x2 rotations built independently of ``qsteer.circuits``."""
    dims, n = circuit.wire_dims, len(circuit.wire_dims)
    dim = math.prod(dims)
    total = np.exp(1j * circuit.global_phase) * np.eye(dim, dtype=complex)
    x, y = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])
    rx = lambda a: math.cos(a / 2) * np.eye(2) - 1j * math.sin(a / 2) * x
    ry = lambda a: math.cos(a / 2) * np.eye(2) - 1j * math.sin(a / 2) * y
    rz = lambda a: np.diag(np.exp([-0.5j * a, 0.5j * a]))
    two_wire = {CNOT: CNOT_GATE, QUBIT_QUTRIT_CNOT: np.diag([1, 1, 1, 1, 1, 1j])}
    one_wire = {RX: (rx, 0), RZ: (rz, 0), U3: (lambda t, p, l: rz(p) @ ry(t) @ rz(l), 0),
                SUBSPACE_RX12: (rx, 1), SUBSPACE_RZ12: (rz, 1)}
    for g in circuit.gates:
        if g.kind == PHASE:
            total = np.exp(1j * g.params[0]) * total
            continue
        if g.kind in two_wire:
            op = two_wire[g.kind]
        else:
            rotation, lo = one_wire[g.kind]
            op = np.eye(dims[g.wires[0]], dtype=complex)
            op[lo : lo + 2, lo : lo + 2] = rotation(*g.params)
        rest = [i for i in range(n) if i not in g.wires]
        order = [*g.wires, *rest]
        full = np.kron(op, np.eye(math.prod(dims[i] for i in rest)))
        perm = [order.index(i) for i in range(n)]
        full = full.reshape([dims[i] for i in order] * 2).transpose(perm + [p + n for p in perm])
        total = full.reshape(dim, dim) @ total
    return total


def random_circuit(rng):
    """The (2, 2) or (2, 3) register; every gate kind, cx in either wire
    order, and long one-wire runs."""
    dims = (2, int(rng.choice([2, 3])))
    n = len(dims)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    pair_gates = [Gate(CNOT, (), p) for p in pairs if dims[p[0]] == dims[p[1]] == 2]
    pair_gates += [Gate(QUBIT_QUTRIT_CNOT, (), p) for p in pairs
                   if (dims[p[0]], dims[p[1]]) == (2, 3)]

    def one_wire(w):
        kinds = [RX, RZ, U3] + ([SUBSPACE_RX12, SUBSPACE_RZ12] if dims[w] == 3 else [])
        kind = kinds[int(rng.integers(len(kinds)))]
        return Gate(kind, tuple(rng.uniform(-7, 7, 3 if kind == U3 else 1)), (w,))

    gates = []
    for _ in range(int(rng.integers(1, 6))):
        w = int(rng.integers(n))
        gates += [one_wire(w) for _ in range(int(rng.integers(0, 12)))]
        gates += [one_wire(int(rng.integers(n))) for _ in range(int(rng.integers(0, 3)))]
        if rng.random() < 0.3:
            gates.append(Gate(PHASE, (rng.uniform(-7, 7),), ()))
        if pair_gates:
            gates.append(pair_gates[int(rng.integers(len(pair_gates)))])
    return Circuit(dims, tuple(gates), float(rng.uniform(-3, 3)))


class TestAngleExtraction:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_zyz_reconstructs(self, seed):
        u = haar_unitary(2, np.random.default_rng(seed))
        theta, phi, lam, g = zyz_angles(u)
        rec = np.exp(1j * g) * u3_matrix(theta, phi, lam)
        assert np.max(np.abs(rec - u)) < 1e-11

    def test_diagonal_edge_cases(self):
        for u in (np.eye(2, dtype=complex), rz_matrix(1.3), -1j * np.diag([1, -1]).astype(complex)):
            theta, phi, lam, g = zyz_angles(u)
            assert np.max(np.abs(np.exp(1j * g) * u3_matrix(theta, phi, lam) - u)) < 1e-12


class TestKakSynthesis:
    def test_plus_target_exact(self):
        spec = TargetSpec(QubitTarget(math.pi / 2, 0.0), math.pi / 2, "+")
        c = synth_kak_circuit(make_steering_operator(spec))[0]
        u = expm_i_herm(build_qubit_hamiltonian(math.pi / 2, 0.0, math.pi / 2))
        assert phase_invariant_distance(evaluate_circuit(c), u) < 1e-9

    def test_zero_coupling_identity(self):
        c = synth_kak_circuit(make_steering_operator(TargetSpec(QubitTarget(0.4, 0.8), 0.0)))[0]
        assert phase_invariant_distance(evaluate_circuit(c), np.eye(4)) < 1e-9
        assert c.count(CNOT) == 2

    def test_catalog_grid(self):
        for label, target in STABILIZERS:
            for coupling in np.linspace(0.05, math.pi / 2, 20):
                spec = TargetSpec(target, float(coupling), label)
                c = synth_kak_circuit(make_steering_operator(spec))[0]
                u = expm_i_herm(build_qubit_hamiltonian(target.theta, target.phi, float(coupling)))
                assert phase_invariant_distance(evaluate_circuit(c), u) <= 1e-9
                assert c.count(CNOT) == 2
                single = sum(1 for g in c.gates if g.kind in (RX, RZ, U3))
                assert single <= 7

    def test_closed_form_grid(self, monkeypatch):
        # read off the operator's frame: no KAK, so no eigendecomposition
        def forbidden(*args, **kwargs):
            raise AssertionError("eigh called during qubit synthesis")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        qubits, _ = steering_grid()
        for spec in qubits:
            c = synth_kak_circuit(make_steering_operator(spec))[0]
            assert [g.kind for g in c.gates] == [U3, U3, CNOT, RX, RZ, CNOT, U3, U3]
            assert c.count(CNOT) == 2
            # the core angles are J itself, not folded into the Weyl chamber
            assert c.gates[3].params == (spec.coupling,) == c.gates[4].params
            got, want = evaluate_circuit(c), make_steering_operator(spec).unitary
            assert phase_invariant_distance(got, want) <= 1e-12
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_qutrit_target_rejected(self):
        with pytest.raises(ConfigError):
            synth_kak_circuit(make_steering_operator(TargetSpec(QUTRIT_EQUAL_TARGET, 0.4)))[0]


class TestSteeringKak:
    TARGETS = [t for _, t in STABILIZERS] + [QubitTarget(0.7, 1.9), QubitTarget(2.1, 5.4)]
    COUPLINGS = [float(j) for j in np.linspace(-2 * math.pi, 2 * math.pi, 37)] + [
        0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 2 * math.pi, 0.785, 2.5
    ]

    def test_grid_matches_weyl_coordinates(self):
        for target in self.TARGETS:
            for coupling in self.COUPLINGS:
                spec = TargetSpec(target, coupling)
                op = make_steering_operator(spec)
                u = op.unitary
                dec = steering_kak(spec, op)
                assert np.max(np.abs(dec.c - weyl_coordinates(u))) <= 1e-10, (target, coupling)
                assert reassembly_distance(u, dec) <= 1e-12
                assert np.max(np.abs(dec.reassemble() - u)) <= 1e-12  # global phase 0 included
                # one folded chamber point, SU(2) locals
                assert np.max(np.abs(canonicalize_weyl_vector(dec.c) - dec.c)) <= 1e-12
                for m in dec.k1_local + dec.k2_local:
                    assert abs(np.linalg.det(m) - 1.0) <= 1e-12

    def test_rephased_frame_keeps_su2_locals(self, monkeypatch):
        # the locals' determinant phase is taken from the frame's own V, so a
        # frame that re-phases psi and b still yields an exact decomposition
        frame = steering.steering_frame

        def rephased(target):
            return frame(target) * np.exp([0.7j, -1.3j])

        monkeypatch.setattr(steering, "steering_frame", rephased)
        for target in self.TARGETS:
            spec = TargetSpec(target, 2.5)
            op = make_steering_operator(spec)
            dec = steering_kak(spec, op)
            assert reassembly_distance(op.unitary, dec) <= 1e-12
            for m in dec.k1_local + dec.k2_local:
                assert abs(np.linalg.det(m) - 1.0) <= 1e-12

    def test_qutrit_target_rejected(self):
        with pytest.raises(ConfigError):
            spec = TargetSpec(QUTRIT_EQUAL_TARGET, 0.4)
            steering_kak(spec, make_steering_operator(spec))


class TestQutritSynthesis:
    def test_cx23_rows(self):
        c = Circuit((2, 3), (Gate(QUBIT_QUTRIT_CNOT, (), (0, 1)),))
        u = evaluate_circuit(c)
        for k in range(3):
            ket = np.zeros(6, dtype=complex)
            ket[k] = 1.0  # |0,k>
            assert np.allclose(u @ ket, ket, atol=1e-15)
        ket12 = np.zeros(6, dtype=complex)
        ket12[5] = 1.0
        assert np.allclose(u @ ket12, 1j * ket12, atol=1e-15)

    @pytest.mark.parametrize("coupling", [0.3, math.pi / 4, math.pi / 2])
    def test_equal_superposition_circuit(self, coupling):
        spec = TargetSpec(QUTRIT_EQUAL_TARGET, coupling, "qutrit-equal")
        c = synth_qutrit_circuit(make_steering_operator(spec))[0]
        want = make_steering_operator(spec).unitary
        assert phase_invariant_distance(evaluate_circuit(c), want) <= 1e-6
        assert c.count(QUBIT_QUTRIT_CNOT) > 0
        assert all(g.kind != CNOT for g in c.gates)

    def test_general_target(self):
        t = QutritTarget(1.2, 0.9, 1.0, 5.0)
        spec = TargetSpec(t, 0.8)
        c = synth_qutrit_circuit(make_steering_operator(spec))[0]
        want = make_steering_operator(spec).unitary
        assert phase_invariant_distance(evaluate_circuit(c), want) <= 1e-6

    def test_qubit_target_rejected(self):
        with pytest.raises(ConfigError):
            synth_qutrit_circuit(make_steering_operator(TargetSpec(QubitTarget(0.1, 0.1), 0.3)))[0]

    def test_closed_form_grid(self, monkeypatch):
        # read off the operator's frame: no eigendecomposition
        def forbidden(*args, **kwargs):
            raise AssertionError("eigh called during qutrit synthesis")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        _, qutrits = steering_grid()
        for spec in qutrits:
            c = synth_qutrit_circuit(make_steering_operator(spec))[0]
            kinds = [g.kind for g in c.gates]
            assert len(kinds) == 34 and kinds.count(QUBIT_QUTRIT_CNOT) == 8
            # four adjacent cx23 pairs, each a CZ on |1,2>
            at = [i for i, k in enumerate(kinds) if k == QUBIT_QUTRIT_CNOT]
            assert at[::2] == [i - 1 for i in at[1::2]]
            # the core angles are -J and J themselves, not folded
            assert [g.params for g in c.gates if g.kind == RX and g.wires == (0,)] == [
                (-spec.coupling,), (spec.coupling,)
            ]
            got, want = evaluate_circuit(c), make_steering_operator(spec).unitary
            assert phase_invariant_distance(got, want) <= 1e-12
            assert np.max(np.abs(got - want)) <= 1e-12


class TestTextFormat:
    def test_single_rx_line(self):
        c = Circuit((2, 2), (Gate(RX, (math.pi / 2,), (0,)),))
        text = emit_text(c)
        assert "rx(1.5707963267948966) w0;" in text.splitlines()

    def test_cnot_line(self):
        c = Circuit((2, 2), (Gate(CNOT, (), (0, 1)),))
        assert "cx w0, w1;" in emit_text(c).splitlines()

    def test_header_and_dims(self):
        c = Circuit((2, 3), (), 0.25)
        lines = emit_text(c).splitlines()
        assert lines[0] == "wires: 2;"
        assert lines[1] == "wire w0: dim 2;"
        assert lines[2] == "wire w1: dim 3;"
        assert lines[-1] == "phase(0.25);"

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        dims = (2, 3)
        pool = [
            lambda: Gate(RX, (rng.uniform(-7, 7),), (int(rng.integers(2)),)),
            lambda: Gate(RZ, (rng.uniform(-7, 7),), (int(rng.integers(2)),)),
            lambda: Gate(U3, tuple(rng.uniform(-7, 7, 3)), (int(rng.integers(2)),)),
            lambda: Gate(SUBSPACE_RX12, (rng.uniform(-7, 7),), (1,)),
            lambda: Gate(SUBSPACE_RZ12, (rng.uniform(-7, 7),), (1,)),
            lambda: Gate(QUBIT_QUTRIT_CNOT, (), (0, 1)),
            lambda: Gate(PHASE, (rng.uniform(-7, 7),), ()),
        ]
        gates = tuple(pool[int(rng.integers(len(pool)))]() for _ in range(int(rng.integers(0, 12))))
        c = Circuit(dims, gates, float(rng.uniform(-3, 3)))
        text = emit_text(c)
        c2 = parse_text(text)
        assert emit_text(c2) == text
        assert c2.wire_dims == c.wire_dims
        assert c2.gates == c.gates
        assert c2.global_phase == c.global_phase

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_text("")
        two_wires = "wires: 2;\nwire w0: dim 2;\nwire w1: dim 2;\n"
        with pytest.raises(ConfigError, match="unknown gate kind 'foo'"):
            parse_text(two_wires + "foo(1) w0;\nphase(0);\n")
        with pytest.raises(ConfigError, match="must end with a phase"):
            parse_text(two_wires + "rx(0.1) w0;\n")
        # a wire token is w0 or w1, and the header is written as emit_text writes it
        for line in ("cx ww0, ww1;", "rx(0.5) 1;", "rx(0.5) w01;"):
            with pytest.raises(ConfigError, match="bad number or wire"):
                parse_text(two_wires + line + "\nphase(0);\n")
        with pytest.raises(ConfigError, match="wire dims"):
            parse_text(two_wires.replace("wires: 2;", "wires:2;") + "phase(0);\n")
        for text in MALFORMED_CIRCUIT_TEXTS.values():
            with pytest.raises(ConfigError):
                parse_text(text)

    @pytest.mark.parametrize("dims", [(2,), (2, 2, 3)])
    def test_parse_rejects_other_registers(self, dims):
        text = emit_text(Circuit((2, 3), (Gate(RX, (0.1,), (0,)),))).splitlines()
        header = [f"wires: {len(dims)};"] + [f"wire w{i}: dim {d};" for i, d in enumerate(dims)]
        with pytest.raises(ConfigError, match="wire dims"):
            parse_text("\n".join(header + text[3:]) + "\n")
