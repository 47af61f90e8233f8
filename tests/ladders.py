"""Jordan-Wigner ladder operators: the reference for the closed-form operators.

The package builds its number and hop operators in closed form; these ladder
operators, with the Z string on every lower qubit, are what the tests compose
those forms from and check the fermionic algebra on.
"""

from gdrq import pauli as pl
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
