"""Term-by-term references for the window operators.

The package emits its window operators as columns, from the closed forms of
their number and hop operators.  Here are those closed forms as PauliTerm
objects (number_operator, hop_operator), the window operators summed from them
term by term and merged by PauliSum (term_hamiltonian, term_dipole), and the
Jordan-Wigner ladder operators, with the Z string on every lower qubit, that
the tests compose the closed forms from and check the fermionic algebra on.
"""

import math

from gdrq import pauli as pl
from gdrq.encoding import effective_charge, oscillator_length, shell_capacity
from gdrq.errors import ValidationError


def _chain_axes(nqubits: int, mode: int, op_axis: str) -> str:
    return "".join(
        "Z" if k < mode else (op_axis if k == mode else "I") for k in range(nqubits)
    )


def jw_creation(mode: int, nqubits: int) -> pl.PauliSum:
    """Fermionic a^dag on the given mode: (X - iY)/2 with a Z string below."""
    if not 0 <= mode < nqubits:
        raise ValidationError(f"mode {mode} out of range for {nqubits} qubits")
    return pl.PauliSum(
        nqubits,
        (
            pl.PauliTerm(0.5, _chain_axes(nqubits, mode, "X")),
            pl.PauliTerm(-0.5, _chain_axes(nqubits, mode, "Y"), 1j),
        ),
    )


def jw_annihilation(mode: int, nqubits: int) -> pl.PauliSum:
    """Fermionic a on the given mode: (X + iY)/2 with a Z string below."""
    if not 0 <= mode < nqubits:
        raise ValidationError(f"mode {mode} out of range for {nqubits} qubits")
    return pl.PauliSum(
        nqubits,
        (
            pl.PauliTerm(0.5, _chain_axes(nqubits, mode, "X")),
            pl.PauliTerm(0.5, _chain_axes(nqubits, mode, "Y"), 1j),
        ),
    )


def _axes(nqubits: int, letters: dict[int, str]) -> str:
    return "".join(letters.get(k, "I") for k in range(nqubits))


def number_operator(mode: int, nqubits: int, factor: float) -> tuple[pl.PauliTerm, ...]:
    """Terms of factor * a^dag_q a_q in closed form: the Z strings cancel, leaving (I - Z_q)/2."""
    if not 0 <= mode < nqubits:
        raise ValidationError(f"mode {mode} out of range for {nqubits} qubits")
    return (
        pl.PauliTerm(0.5 * factor, _axes(nqubits, {})),
        pl.PauliTerm(-0.5 * factor, _axes(nqubits, {mode: "Z"})),
    )


def hop_operator(mode: int, nqubits: int, factor: float) -> tuple[pl.PauliTerm, ...]:
    """Terms of factor * (a^dag_{q+1} a_q + a^dag_q a_{q+1}) in closed form.

    That is factor * (X_q X_{q+1} + Y_q Y_{q+1})/2: the strings below q cancel,
    and the imaginary X_q Y_{q+1} and Y_q X_{q+1} parts of the two orderings
    cancel each other.
    """
    if not 0 <= mode < nqubits - 1:
        raise ValidationError(f"hop from mode {mode} out of range for {nqubits} qubits")
    return tuple(
        pl.PauliTerm(0.5 * factor, _axes(nqubits, {mode: letter, mode + 1: letter}))
        for letter in "XY"
    )


def term_hamiltonian(basis, homega: float) -> pl.PauliSum:
    """The window Hamiltonian as every shell's number-operator terms, merged."""
    n = basis.nqubits
    terms = []
    for q, shell in enumerate(basis.shells()):
        terms += number_operator(q, n, (shell + 1.5) * homega)
    return pl.PauliSum(n, tuple(terms))


def term_dipole(basis, config, species: str) -> pl.PauliSum:
    """One species' dipole as every hop's terms, merged."""
    charge = effective_charge(config, species)
    n = basis.nqubits
    b = oscillator_length(config.A)
    terms = []
    for q, shell in enumerate(list(basis.shells())[:-1]):
        amplitude = charge * math.sqrt(shell_capacity(shell)) * math.sqrt((shell + 1) / 2.0) * b
        terms += hop_operator(q, n, amplitude)
    return pl.PauliSum(n, tuple(terms))
