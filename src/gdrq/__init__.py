"""Dipole response of closed-shell nuclei on a simulated quantum register.

Shell-window Hamiltonians and dipole operators are mapped to qubits, applied
through LCU circuits, and read out with SWAP tests under shot noise; the
measured poles are dressed by a separable residual interaction into GDR
photo-absorption cross sections, next to an equivalent classical baseline.
"""

__version__ = "0.1.0"

from .encoding import BasisWindow, NucleusConfig, OccupationTable, fill_occupations, hbar_omega
from .errors import GdrqError
from .experiment import (
    MadSeries,
    QuantumPlan,
    RunRecord,
    collect_runs,
    run_classical,
    run_quantum,
)
from .pauli import PauliSum, PauliTerm
from .response import ResponseSpectrum, Transition, TransitionSet
from .statevector import RngStream, StateVector, init_basis_state

__all__ = [
    "__version__",
    "BasisWindow",
    "GdrqError",
    "MadSeries",
    "NucleusConfig",
    "OccupationTable",
    "PauliSum",
    "PauliTerm",
    "QuantumPlan",
    "ResponseSpectrum",
    "RngStream",
    "RunRecord",
    "StateVector",
    "Transition",
    "TransitionSet",
    "collect_runs",
    "fill_occupations",
    "hbar_omega",
    "init_basis_state",
    "run_classical",
    "run_quantum",
]
