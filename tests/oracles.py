"""Reference readings and circuits of simulated states, for the tests to compare against.

measure_probability sums the outcome's half of |amp|^2 the plain way, with no
batch axis; post_select and the SWAP test's p0 must give its bits.

lcu_gates and swap_weights_gates run the LCU and SWAP-test circuits gate by
gate through the general statevector gates (tensor, apply_unitary,
apply_multiplexed, post_select, outcome_weights); LcuCircuit.apply and
_swap_weights, which lay their registers out directly, must give their bits.
The LCU select goes through them as the dense stack that select_stack
scatters from the circuit's table, checked by the dense Gram check.

closed_form_plan gives every number of a quantum plan from the occupation
table and the operator terms alone, with no circuit, state or gate: an LCU of
op = sum c_t P_t on |x> succeeds with probability ||op|x>||^2 / lambda^2,
lambda = sum |c_t|, and a SWAP test of its image against |y> reads
p0 = (1 + |<y|op|x>|^2 / ||op|x>||^2) / 2.
"""

from collections import defaultdict
from typing import NamedTuple

import numpy as np

from gdrq.algorithms import _HADAMARD, LcuCircuit
from gdrq.encoding import (
    NucleusConfig,
    build_dipole,
    build_hamiltonian,
    fill_occupations,
    hbar_omega,
    oscillator_length,
)
from gdrq.errors import ValidationError
from gdrq.pauli import PauliSum
from gdrq.statevector import (
    StateVector,
    Unitaries,
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


def select_stack(circuit: LcuCircuit) -> np.ndarray:
    """The circuit's select as a dense (k, 2^n, 2^n) stack: block i holds
    entries[i, c] in row rows[i, c] of column c."""
    k, dim = circuit.rows.shape
    blocks = np.zeros((k, dim, dim), dtype=complex)
    blocks[np.arange(k)[:, None], circuit.rows, np.arange(dim)] = circuit.entries
    return blocks


def lcu_gates(circuit: LcuCircuit, psi: StateVector):
    """(state, product of post-selection probabilities) of the circuit on psi:
    ancillas joined above the system, prepare, the Gram-checked select stack,
    prepare, then each ancilla post-selected on |0>, the top one first."""
    n, na = psi.nqubits, circuit.n_ancillas
    full = psi.tensor(init_basis_state(na, "0" * na))
    ancillas = list(range(n, n + na))
    full = apply_unitary(full, circuit.prepare, ancillas)
    full = apply_multiplexed(full, Unitaries(select_stack(circuit)), ancillas, list(range(n)))
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


class ClosedOverlap(NamedTuple):
    """An LCU application to |x> followed by a SWAP test against |y>, in closed
    form: lambda, the success probability, p0 and the amplitude <y|op|x>."""

    lam: float
    p_success: float
    p0: float
    amplitude: complex


class ClosedSpecies(NamedTuple):
    """The transition of one species: its reference and excited energies, each
    tested against its own configuration, and its strength, the dipole image
    of the reference tested against the excited configuration."""

    spawn_index: int
    reference: ClosedOverlap
    excited: ClosedOverlap
    strength: ClosedOverlap


def _image(op: PauliSum, bits: tuple[int, ...]) -> dict[tuple[int, ...], complex]:
    """op|x> of a basis configuration, bit q of which is qubit q, by configuration.

    X|b> = |1-b>, Y|b> = i(-1)^b |1-b> and Z|b> = (-1)^b |b>.
    """
    image: dict[tuple[int, ...], complex] = defaultdict(complex)
    for term in op.terms:
        out, amplitude = list(bits), term.weight
        for q, axis in enumerate(term.axes):
            if axis in "YZ" and bits[q]:
                amplitude = -amplitude
            if axis == "Y":
                amplitude *= 1j
            if axis in "XY":
                out[q] ^= 1
        image[tuple(out)] += amplitude
    return image


def _closed_overlap(op: PauliSum, bits: tuple[int, ...], target: tuple[int, ...]) -> ClosedOverlap:
    image = _image(op, bits)
    lam = sum(abs(term.coefficient) for term in op.terms)
    norm2 = sum(abs(amplitude) ** 2 for amplitude in image.values())
    amplitude = image.get(target, 0j)
    return ClosedOverlap(lam, norm2 / lam**2, (1 + abs(amplitude) ** 2 / norm2) / 2, amplitude)


def closed_form_plan(config: NucleusConfig) -> list[ClosedSpecies]:
    """Every species with some but not all window shells full, in species
    order: its reference holds the full shells, and its excited configuration
    moves the top full shell's particle one shell up.  The energies are those
    of the identity-stripped Hamiltonian, which is diagonal, so each p_success
    is (<x|H'|x> / lambda)^2 and each p0 is 1; the strength is that of the
    dipole over the oscillator length."""
    basis = config.basis
    n = basis.nqubits
    occupations = fill_occupations(config)
    hz = build_hamiltonian(basis, hbar_omega(config.A)).without_identity()
    length = oscillator_length(config.A)
    plan = []
    for index, name in enumerate(("proton", "neutron")):
        occ = occupations.occupations(name)
        full = sum(occ[shell] == 1.0 for shell in basis.shells())
        if not 0 < full < n:
            continue
        reference = (1,) * full + (0,) * (n - full)
        excited = (1,) * (full - 1) + (0, 1) + (0,) * (n - full - 1)
        dipole = build_dipole(basis, config, name) * (1.0 / length)
        plan.append(
            ClosedSpecies(
                index,
                _closed_overlap(hz, reference, reference),
                _closed_overlap(hz, excited, excited),
                _closed_overlap(dipole, reference, excited),
            )
        )
    return plan
