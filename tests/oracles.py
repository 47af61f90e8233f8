"""Reference readings of a single simulated state, for the tests to compare against.

measure_probability sums the outcome's half of |amp|^2 the plain way, with no
batch axis; post_select and the SWAP test's p0 must give its bits.
"""

import numpy as np

from gdrq.errors import ValidationError
from gdrq.statevector import StateVector


def measure_probability(state: StateVector, qubit: int, outcome: int) -> float:
    """Probability that the given qubit of a single state reads `outcome` (0 or 1)."""
    if not 0 <= qubit < state.nqubits:
        raise ValidationError(f"qubit {qubit} out of range for {state.nqubits} qubits")
    if outcome not in (0, 1):
        raise ValidationError(f"outcome must be 0 or 1, got {outcome}")
    arr = np.abs(state.amplitudes.reshape([2] * state.nqubits)) ** 2
    return float(np.take(arr, outcome, axis=state.nqubits - 1 - qubit).sum())
