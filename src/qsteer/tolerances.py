"""Central numerical tolerances used across the library."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    hermiticity: float = 1e-12
    unitarity: float = 1e-12


TOL = Tolerances()
