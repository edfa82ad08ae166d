"""Measurement-induced steering simulator.

Prepare qubit and qutrit states by repeatedly entangling the system with a
measured-and-reset ancilla qubit: build the steering operator from the target
state, run blind (averaged) or non-blind (readout-conditioned) protocols,
decompose the operator geometrically and into gate circuits, and reconstruct
states and processes with simulated tomography.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DimensionMismatchError,
    NonHermitianError,
    NumericalError,
    QsteerError,
)
from .linalg import (
    ComplexMatrix,
    expm_i_herm,
    herm_eig,
    kron,
    partial_trace,
    phase_invariant_distance,
)
from .states import (
    DensityState,
    GELL_MANN,
    QubitTarget,
    QutritTarget,
    QUTRIT_EQUAL_KET,
    QUTRIT_EQUAL_LABEL,
    QUTRIT_EQUAL_TARGET,
    StabilizerEntry,
    bloch_vector,
    fidelity,
    pure_state,
    random_density,
    stabilizer_catalog,
    target_ket,
)
from .steering import (
    KrausSet,
    SteeringOperator,
    TargetSpec,
    averaged_step,
    build_qubit_hamiltonian,
    build_qutrit_hamiltonian,
    kraus_from_unitary,
    make_steering_operator,
    steering_inequality_holds,
)
from .protocol import (
    NoiseConfig,
    RepetitionStats,
    RunRecord,
    TrajectoryBatch,
    channel_spectrum,
    repetition_law,
    repetition_stats,
    run_blind,
    run_nonblind,
    run_nonblind_batch,
    sweep,
)
from .geometry import (
    KakDecomposition,
    canonicalize_weyl_vector,
    kak_decompose,
    locally_equivalent,
    weyl_coordinates,
)
from .circuits import (
    Circuit,
    Gate,
    emit_text,
    evaluate_circuit,
    parse_text,
    steering_kak,
    synth_kak_circuit,
    synth_qutrit_circuit,
)
from .tomography import (
    PauliTransferMatrix,
    average_gate_fidelity,
    mle_project,
    process_tomography,
    ptm_of_kraus,
    ptm_of_unitary,
    qubit_state_tomo,
    qutrit_state_tomo,
    tomo_qubit_state,
    tomo_qutrit_state,
)
