"""Gate-level circuit IR, steering-circuit synthesis, evaluation, and a
QASM-like text format.

The two syntheses, :func:`synth_kak_circuit` and :func:`synth_qutrit_circuit`,
read a steering operator's circuit off its frame F = [psi, b (, d)], with no
KAK decomposition: the cycle is U = (I (x) F) V (I (x) F^dag), where
V = exp(-i J G'), G' = |0,e_1><1,e_0| + h.c., is followed for a qutrit by the
exchange of e_1 and e_2.  A qubit circuit is always a U3 pair, CNOT, RX(J)
on the ancilla and RZ(J) on the system, CNOT, and a U3 pair, with J unfolded;
a qutrit circuit is always a local block, four ``cx23`` pairs around RX(-J)
and RX(J) on the ancilla with a (12)-level RY(pi/2) and its inverse inside,
and a local block that also applies the exchange: 34 gates, 8 of them
``cx23``.  :func:`steering_kak` reads the qubit cycle's KAK decomposition off
the same qubit circuit.

A circuit acts on the register of :class:`SteeringOperator.unitary`: wire w0
is the ancilla qubit and wire w1 the system, a qubit or a qutrit, so its wire
dimensions are (2, 2) or (2, 3).  On a qutrit system the plain
``rx``/``rz``/``u3`` gates act on the {|0>, |1>} subspace and leave |2>
untouched; ``rx12``/``rz12`` act on the {|1>, |2>} subspace.  ``cx`` acts on
the qubit register in either wire order.  The qubit-qutrit entangler ``cx23``
(control w0, target w1) follows its hardware truth table: identity on every
basis state except |1>|2> -> i |1>|2>.  One table, ``_GATES``, describes each
gate kind, and :class:`Circuit` checks every gate against it and the register.

Global phase is tracked as a scalar per circuit (emitted as a trailing
``phase(g);`` line) so that phase-sensitive verification stays honest.

Text format (UTF-8, LF line endings, floats printed with 17 significant
digits), EBNF::

    circuit   = header , wiredecls , { gateline } , phaseline ;
    header    = "wires: 2;\n" ;
    wiredecls = "wire w0: dim 2;\n" , "wire w1: dim " , ( "2" | "3" ) , ";\n" ;
    gateline  = name , [ "(" , float , { ", " , float } , ")" ] ,
                [ " " , wire , [ ", " , wire ] ] , ";\n" ;
    wire      = "w0" | "w1" ;
    phaseline = "phase(" , float , ");\n" ;
    name      = "rx" | "rz" | "u3" | "cx" | "cx23" | "rx12" | "rz12" | "phase" ;
"""

from __future__ import annotations

import cmath
import math
import re
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError
from .geometry import CNOT_GATE, KakDecomposition
from .linalg import ComplexMatrix, dagger, phase_invariant_distance
from .states import QubitTarget
from .steering import SteeringOperator, TargetSpec

RX = "rx"
RZ = "rz"
U3 = "u3"
CNOT = "cx"
QUBIT_QUTRIT_CNOT = "cx23"
SUBSPACE_RX12 = "rx12"
SUBSPACE_RZ12 = "rz12"
PHASE = "phase"

CX23_GATE = np.diag([1, 1, 1, 1, 1, 1j]).astype(complex)


def rx_matrix(a: float) -> ComplexMatrix:
    c, s = math.cos(a / 2), math.sin(a / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def rz_matrix(a: float) -> ComplexMatrix:
    return np.array([[cmath.exp(-0.5j * a), 0], [0, cmath.exp(0.5j * a)]])


def u3_matrix(theta: float, phi: float, lam: float) -> ComplexMatrix:
    """U3(theta, phi, lam) = RZ(phi) RY(theta) RZ(lam)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([
        [cmath.exp(-0.5j * (phi + lam)) * c, -cmath.exp(-0.5j * (phi - lam)) * s],
        [cmath.exp(0.5j * (phi - lam)) * s, cmath.exp(0.5j * (phi + lam)) * c],
    ])


# kind -> (parameter count, action).  The action is a one-wire kind's
# (2x2 rotation, lowest level it acts on), leaving a qutrit's third level
# untouched; a two-wire kind's matrix on (dim-2 control, target); or None for
# the global phase.
_GATES = {
    RX: (1, (rx_matrix, 0)),
    RZ: (1, (rz_matrix, 0)),
    U3: (3, (u3_matrix, 0)),
    SUBSPACE_RX12: (1, (rx_matrix, 1)),
    SUBSPACE_RZ12: (1, (rz_matrix, 1)),
    CNOT: (0, CNOT_GATE),
    QUBIT_QUTRIT_CNOT: (0, CX23_GATE),
    PHASE: (1, None),
}


class Gate(NamedTuple):
    """One gate; :class:`Circuit` checks it against ``_GATES`` and the register."""

    kind: str
    params: tuple[float, ...] = ()
    wires: tuple[int, ...] = ()


class Circuit(namedtuple("Circuit", "wire_dims gates global_phase")):
    """Gates on the (ancilla, system) register ``wire_dims``, (2, 2) or (2, 3),
    in application order, and a global phase."""

    __slots__ = ()

    def __new__(cls, wire_dims: tuple[int, ...], gates: tuple[Gate, ...],
                global_phase: float = 0.0):
        dims, gates = tuple(wire_dims), tuple(gates)
        if dims not in ((2, 2), (2, 3)):
            raise ConfigError(f"wire dims must be (2, 2) or (2, 3), ancilla then system, got {dims}")
        if not math.isfinite(global_phase):
            raise ConfigError(f"non-finite global phase {global_phase}")
        for g in gates:
            if g.kind not in _GATES:
                raise ConfigError(f"unknown gate kind {g.kind!r}")
            n_params, action = _GATES[g.kind]
            if len(g.params) != n_params:
                raise ConfigError(f"{g.kind} takes {n_params} params, got {len(g.params)}")
            if not all(math.isfinite(p) for p in g.params):
                raise ConfigError(f"{g.kind} has non-finite parameter")
            if action is None:
                allowed = g.wires == ()
            elif isinstance(action, tuple):  # levels lo and lo + 1 of one wire
                allowed = g.wires in ((0,), (1,)) and dims[g.wires[0]] >= action[1] + 2
            else:  # a matrix on (dim-2 control, target)
                allowed = (g.wires in ((0, 1), (1, 0))
                           and tuple(dims[w] for w in g.wires) == (2, len(action) // 2))
            if not allowed:
                raise ConfigError(f"{g.kind} cannot act on wires {g.wires} of a {dims} register")
        return super().__new__(cls, dims, gates, global_phase)

    def count(self, kind: str) -> int:
        return sum(1 for g in self.gates if g.kind == kind)


def evaluate_circuit(circuit: Circuit) -> ComplexMatrix:
    """Unitary of the circuit: each gate in sequence order acts on the rows
    of the running unitary, which ends times the global phase.

    A one-wire gate rotates its two levels in place on a (pre, dim, rest)
    view of the rows; a two-wire gate spans the register, so it is one
    matmul; phase gates add to one scalar."""
    dims = circuit.wire_dims
    total = np.eye(math.prod(dims), dtype=complex)
    phase = circuit.global_phase
    for g in circuit.gates:
        action = _GATES[g.kind][1]
        if action is None:
            phase += g.params[0]
        elif isinstance(action, tuple):
            rotation, lo = action
            w = g.wires[0]
            rows = total.reshape(math.prod(dims[:w]), dims[w], -1)[:, lo : lo + 2]
            rows[...] = rotation(*g.params) @ rows
        elif g.wires == (1, 0):  # only cx, on the qubit register: swap its factors
            total = action.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4) @ total
        else:
            total = action @ total
    return np.exp(1j * phase) * total


def zyz_angles(u: ComplexMatrix) -> tuple[float, float, float, float]:
    """(theta, phi, lam, phase) with u = e^{i phase} U3(theta, phi, lam)."""
    u = np.asarray(u, dtype=complex)
    g = 0.5 * float(np.angle(np.linalg.det(u)))
    su = u * np.exp(-1j * g)
    theta = 2.0 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    if abs(su[1, 0]) < 1e-12:
        phi, lam = 2.0 * float(np.angle(su[1, 1])), 0.0
    elif abs(su[0, 0]) < 1e-12:
        phi, lam = 2.0 * float(np.angle(su[1, 0])), 0.0
    else:
        phi = float(np.angle(su[1, 1]) + np.angle(su[1, 0]))
        lam = float(np.angle(su[1, 1]) - np.angle(su[1, 0]))
    return theta, phi, lam, g


_SYNTH_TOL = 1e-9  # largest distance of a synthesized circuit to its unitary


def _reconcile_phase(circuit: Circuit, target: ComplexMatrix) -> tuple[Circuit, float]:
    """Set the circuit's global phase so it matches ``target`` exactly, and
    verify the phase-invariant distance meets ``_SYNTH_TOL``.  Returns the
    circuit and that distance."""
    raw = evaluate_circuit(circuit)
    dist = phase_invariant_distance(raw, target)
    if dist > _SYNTH_TOL:
        raise NumericalError(f"synthesized circuit distance {dist:.3e} exceeds {_SYNTH_TOL:.1e}")
    phase = circuit.global_phase + float(np.angle(np.trace(dagger(raw) @ target)))
    return Circuit(circuit.wire_dims, circuit.gates, phase), dist


def _u3_gate(u: ComplexMatrix, wire: int) -> Gate:
    theta, phi, lam, _ = zyz_angles(u)
    return Gate(U3, (theta, phi, lam), (wire,))


_Pair = tuple[ComplexMatrix, ComplexMatrix]


def _fixed_locals(frame: ComplexMatrix) -> tuple[_Pair, _Pair]:
    """(L, R): the (ancilla, system) local pairs after and before the core
    of the qubit circuit with frame F, with V = F[:, ::-1]^dag, whose rows
    are <b| and <psi|: L = (RX(-pi/2), V^dag RX(pi/2)) and
    R = (RX(pi/2), RX(-pi/2) V)."""
    v = dagger(frame[:, ::-1])
    return ((rx_matrix(-math.pi / 2), dagger(v) @ rx_matrix(math.pi / 2)),
            (rx_matrix(math.pi / 2), rx_matrix(-math.pi / 2) @ v))


def synth_kak_circuit(op: SteeringOperator) -> tuple[Circuit, float]:
    """The two-CNOT circuit of the qubit steering operator ``op``, with its
    phase-invariant distance to ``op.unitary``.

    V (see :func:`_fixed_locals`) turns the cycle's G = |0,b><1,psi| + h.c.
    into (XX - YY)/2 and RX(pi/2) (x) RX(-pi/2) turns that into (XX + ZZ)/2,
    whose exponential exp(-i J (XX + ZZ)/2) is the core
    CNOT . (RX(J) (x) RZ(J)) . CNOT up to a global phase.
    """
    if op.system_dim != 2:
        raise ConfigError("synth_kak_circuit handles qubit targets; use synth_qutrit_circuit")
    (l0, l1), (r0, r1) = _fixed_locals(op.frame)
    gates = (
        _u3_gate(r0, 0),
        _u3_gate(r1, 1),
        Gate(CNOT, (), (0, 1)),
        Gate(RX, (op.coupling,), (0,)),
        Gate(RZ, (op.coupling,), (1,)),
        Gate(CNOT, (), (0, 1)),
        _u3_gate(l0, 0),
        _u3_gate(l1, 1),
    )
    return _reconcile_phase(Circuit((2, 2), gates), op.unitary)


_RY_PI = np.array([[0, -1], [1, 0]], dtype=complex)  # -i Y
_RZ_PI = rz_matrix(math.pi)  # -i Z


def steering_kak(spec: TargetSpec, op: SteeringOperator) -> KakDecomposition:
    """KAK decomposition of ``op = make_steering_operator(spec)``, read off
    ``op.frame`` and the circuit of :func:`synth_kak_circuit` with no
    eigensolver.

    With K = RX(pi/2) (x) RY(pi) RX(pi/2), the core of that circuit is
    K A(J, J, 0) K^dag up to a phase, so U = (L K) A(J, J, 0) (K^dag R)
    with (L, R) from :func:`_fixed_locals`, once the system locals are scaled
    into SU(2).  J is reduced mod 2 pi into [-pi, pi] and folded onto
    [0, pi/2] by A(J, J, 0) = (Z (x) I) A(-J, -J, 0) (Z (x) I) and
    A(J, J, 0) = (I (x) Z) A(pi - J, pi - J, 0) (Z (x) I).  No step adds a
    phase, so the global phase is 0.
    """
    if not isinstance(spec.target, QubitTarget):
        raise ConfigError("steering_kak handles qubit targets")
    (l0, l1), (r0, r1) = _fixed_locals(op.frame)
    half = rx_matrix(math.pi / 2)
    # root**2 = det L1 = det V^dag, which is e^{i phi} for the qubit frame;
    # the branch follows phi, so the locals move continuously with the target
    turn = cmath.exp(0.5j * spec.target.phi)
    root = turn * cmath.sqrt((l1[0, 0] * l1[1, 1] - l1[0, 1] * l1[1, 0]) / turn**2)
    k1a, k1b = l0 @ half, l1 @ _RY_PI @ half / root
    k2a, k2b = dagger(half) @ r0, dagger(half) @ _RY_PI.T @ r1 * root
    j = math.remainder(spec.coupling, 2 * math.pi)
    # each fold puts -i Z on the left and i Z on the right: no phase
    if j < 0:
        j, k1a, k2a = -j, k1a @ _RZ_PI, _RZ_PI.conj() @ k2a
    if j > math.pi / 2:
        j, k1b, k2a = math.pi - j, k1b @ _RZ_PI, _RZ_PI.conj() @ k2a
    return KakDecomposition((k1a, k1b), (k2a, k2b), np.array([j, j, 0.0]), 0.0)


# ---------------------------------------------------------------------------
# qubit-qutrit synthesis


def _level_gates(u: ComplexMatrix, upper: bool, wire: int) -> list[Gate]:
    """Gates for the SU(2) block ``u`` on levels (0, 1) of a dim-3 ``wire``,
    or on levels (1, 2) if ``upper``.  The (1, 2) form uses
    RZ(phi) RY(theta) RZ(lam) = RZ(phi + pi/2) RX(theta) RZ(lam - pi/2)."""
    theta, phi, lam, _ = zyz_angles(u)
    if not upper:
        return [Gate(U3, (theta, phi, lam), (wire,))]
    return [
        Gate(SUBSPACE_RZ12, (lam - math.pi / 2,), (wire,)),
        Gate(SUBSPACE_RX12, (theta,), (wire,)),
        Gate(SUBSPACE_RZ12, (phi + math.pi / 2,), (wire,)),
    ]


def _givens_rotation(a: complex, b: complex) -> ComplexMatrix:
    """SU(2) matrix u with u @ (a, b) = (r, 0), r >= 0."""
    n = math.hypot(abs(a), abs(b))
    if n < 1e-300 or abs(b) < 1e-15 * max(1.0, abs(a)):
        return np.eye(2, dtype=complex)
    return np.array([[a.conjugate(), b.conjugate()], [-b, a]], dtype=complex) / n


def _local_qutrit_gates(w3: ComplexMatrix, wire: int) -> list[Gate]:
    """Gate sequence implementing an arbitrary 3x3 unitary on one qutrit wire
    via a Givens chain of (01) and (12) subspace rotations."""
    m = np.asarray(w3, dtype=complex).copy()
    rotations: list[tuple[bool, ComplexMatrix]] = []

    def apply(upper: bool, lo: int, r0: int, r1: int) -> None:
        g = _givens_rotation(m[r0, lo], m[r1, lo])
        m[[r0, r1], :] = g @ m[[r0, r1], :]
        rotations.append((upper, g))

    apply(True, 0, 1, 2)  # zero m[2,0]
    apply(False, 0, 0, 1)  # zero m[1,0]
    apply(True, 1, 1, 2)  # zero m[2,1]
    if float(np.max(np.abs(m - np.diag(np.diag(m))))) > 1e-10:
        raise NumericalError("Givens reduction left off-diagonal residue")
    delta = np.angle(np.diag(m))
    gm = float(np.mean(delta))
    a = 2.0 * (gm - delta[0])
    b = 2.0 * (delta[2] - gm)
    gates: list[Gate] = [
        Gate(RZ, (a,), (wire,)),
        Gate(SUBSPACE_RZ12, (b,), (wire,)),
    ]
    for upper, g in reversed(rotations):
        gates.extend(_level_gates(dagger(g), upper, wire))
    return gates


# RY(pi/2) on levels (1, 2): V Z V^dag = X there
_V12 = np.array([[1, -1], [1, 1]], dtype=complex) / math.sqrt(2.0)
_V3 = np.eye(3, dtype=complex)
_V3[1:, 1:] = _V12


def synth_qutrit_circuit(op: SteeringOperator) -> tuple[Circuit, float]:
    """The qubit-qutrit circuit of the qutrit steering operator ``op``, with
    its phase-invariant distance to ``op.unitary``.

    With F = [psi, b, d] the frame, W = F[:, [2, 0, 1]]^dag (rows <d|, <psi|,
    <b|) turns the cycle's G = |0,b><1,psi| + h.c. into G' = |0,2><1,1| + h.c.
    CZ = cx23 cx23 puts -1 on |1,2>, so C = V CZ V^dag is X on levels (1, 2)
    controlled by the ancilla and C G' C = X (x) |2><2|, whose exponential
    exp(-i J X (x) |2><2|) is RX(J) CZ RX(-J) CZ on the ancilla.  In
    application order: V^dag W, CZ, V, CZ, RX(-J), CZ, RX(J), V^dag, CZ, and
    F[:, [1, 0, 2]] V, which undoes W and exchanges b and d, with J unfolded.
    """
    if op.system_dim != 3:
        raise ConfigError("synth_qutrit_circuit handles qutrit targets; use synth_kak_circuit")
    cz = [Gate(QUBIT_QUTRIT_CNOT, (), (0, 1))] * 2
    j = op.coupling
    gates = (
        _local_qutrit_gates(dagger(op.frame[:, [2, 0, 1]] @ _V3), 1)
        + cz + _level_gates(_V12, True, 1)
        + cz + [Gate(RX, (-j,), (0,))]
        + cz + [Gate(RX, (j,), (0,))]
        + _level_gates(dagger(_V12), True, 1) + cz
        + _local_qutrit_gates(op.frame[:, [1, 0, 2]] @ _V3, 1)
    )
    return _reconcile_phase(Circuit((2, 3), tuple(gates)), op.unitary)


# ---------------------------------------------------------------------------
# text format


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# the three header lines of each register, and the wire tokens
_HEADERS = {("wires: 2;", "wire w0: dim 2;", f"wire w1: dim {d};"): (2, d) for d in (2, 3)}
_WIRES = {"w0": 0, "w1": 1}
_GATE_RE = re.compile(r"^([a-z][a-z0-9]*)(?:\(([^)]*)\))?(?:\s+([w\d,\s]+))?;$")


def emit_text(circuit: Circuit) -> str:
    """Deterministic line-per-gate text form; ends with the global phase."""
    lines = [*next(h for h, dims in _HEADERS.items() if dims == circuit.wire_dims)]
    for g in circuit.gates:
        params = f"({', '.join(_fmt(p) for p in g.params)})" if g.params else ""
        wires = " " + ", ".join(f"w{w}" for w in g.wires) if g.wires else ""
        lines.append(f"{g.kind}{params}{wires};")
    lines.append(f"phase({_fmt(circuit.global_phase)});")
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> Circuit:
    """Inverse of :func:`emit_text`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    dims = _HEADERS.get(tuple(lines[:3]))
    if dims is None:
        raise ConfigError("circuit text must declare the wire dims (2, 2) or (2, 3), ancilla "
                          f"then system, in three header lines; got {lines[:3]!r}")
    gates: list[Gate] = []
    global_phase = 0.0
    body = lines[3:]
    for idx, ln in enumerate(body):
        gm = _GATE_RE.match(ln.strip())
        if not gm:
            raise ConfigError(f"bad gate line {ln!r}")
        kind = gm.group(1)
        try:
            params = tuple(float(p) for p in gm.group(2).split(",")) if gm.group(2) else ()
            wires = tuple(_WIRES[w.strip()] for w in gm.group(3).split(",")) if gm.group(3) else ()
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad number or wire in gate line {ln!r}") from exc
        if kind == PHASE and idx == len(body) - 1:
            if len(params) != 1 or wires:
                raise ConfigError(f"bad phase line {ln!r}")
            global_phase = params[0]
        else:
            gates.append(Gate(kind, params, wires))
    if not body or not body[-1].strip().startswith("phase("):
        raise ConfigError("circuit text must end with a phase(...) line")
    return Circuit(dims, tuple(gates), global_phase)
