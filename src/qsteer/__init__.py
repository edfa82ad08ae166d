"""Measurement-induced steering simulator.

Prepare qubit and qutrit states by repeatedly entangling the system with a
measured-and-reset ancilla qubit: build the steering operator from the target
state, run blind (averaged) or non-blind (readout-conditioned) protocols,
decompose the operator geometrically and into gate circuits, and reconstruct
states and processes with simulated tomography.

Every public name lives in one submodule and is imported from there, for
example ``from qsteer.steering import make_steering_operator``.
"""

__version__ = "0.1.0"
