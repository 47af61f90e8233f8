"""Reference readings and circuits of simulated states, for the tests to compare against.

measure_probability sums the outcome's half of |amp|^2 the plain way, with no
batch axis; post_select and the SWAP test's p0 must give its bits.

lcu_gates and swap_weights_gates run the LCU and SWAP-test circuits gate by
gate through the general statevector gates (tensor, apply_unitary,
apply_multiplexed, post_select, outcome_weights); LcuCircuit.apply and
_swap_weights, which lay their registers out directly, must give their bits.
"""

import numpy as np

from gdrq.algorithms import _HADAMARD, LcuCircuit
from gdrq.errors import ValidationError
from gdrq.statevector import (
    StateVector,
    apply_multiplexed,
    apply_unitary,
    init_basis_state,
    outcome_weights,
    post_select,
)


def measure_probability(state: StateVector, qubit: int, outcome: int) -> float:
    """Probability that the given qubit of a single state reads `outcome` (0 or 1)."""
    if not 0 <= qubit < state.nqubits:
        raise ValidationError(f"qubit {qubit} out of range for {state.nqubits} qubits")
    if outcome not in (0, 1):
        raise ValidationError(f"outcome must be 0 or 1, got {outcome}")
    arr = np.abs(state.amplitudes.reshape([2] * state.nqubits)) ** 2
    return float(np.take(arr, outcome, axis=state.nqubits - 1 - qubit).sum())


def lcu_gates(circuit: LcuCircuit, psi: StateVector):
    """(state, product of post-selection probabilities) of the circuit on psi:
    ancillas joined above the system, prepare, select, prepare, then each
    ancilla post-selected on |0>, the top one first."""
    n, na = psi.nqubits, circuit.n_ancillas
    full = psi.tensor(init_basis_state(na, "0" * na))
    ancillas = list(range(n, n + na))
    full = apply_unitary(full, circuit.prepare, ancillas)
    full = apply_multiplexed(full, circuit.selected, ancillas, list(range(n)))
    full = apply_unitary(full, circuit.prepare, ancillas)
    total = 1.0
    for anc in reversed(ancillas):
        full, prob = post_select(full, anc, 0)
        total *= prob
    return full, total


def swap_weights_gates(n: int, psi_rows: np.ndarray, phi_rows: np.ndarray) -> np.ndarray:
    """The ancilla's two outcome weights after the SWAP-test circuit of each
    row pair: Hadamard, the controlled-SWAP ladder as a transpose of the
    ancilla's |1> half, Hadamard."""
    anc = 2 * n
    full = StateVector(n, psi_rows).tensor(StateVector(n, phi_rows))
    full = full.tensor(init_basis_state(1, "0"))
    full = apply_unitary(full, _HADAMARD, [anc])
    # axes (row, ancilla, phi register, psi register)
    halves = full.amplitudes.reshape(-1, 2, 2**n, 2**n)
    laddered = np.stack([halves[:, 0], halves[:, 1].transpose(0, 2, 1)], axis=1)
    full = StateVector(2 * n + 1, laddered.reshape(len(laddered), -1))
    return outcome_weights(apply_unitary(full, _HADAMARD, [anc]), [anc])
