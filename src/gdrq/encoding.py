"""Oscillator-shell encodings of the dipole problem.

One qubit per major oscillator shell N inside a chosen window; qubit q of the
window [n_min, n_max] is shell N = n_min + q.  An occupied shell is |1>, so a
Z eigenvalue of -1 marks occupation.  Ladder operators follow the standard
fermionic chain ordering (Z string on lower qubits); for the nearest-neighbor
hops used here the strings cancel and everything stays 2-local.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pauli as pl
from .constants import HBARC_MEV_FM, NUCLEON_MASS_MEV, OSC_COEFF_MEV
from .errors import CapacityError, ValidationError


def hbar_omega(a: int) -> float:
    """Oscillator spacing 41 * A^(-1/3) MeV."""
    if a < 1:
        raise ValidationError("mass number must be >= 1")
    return OSC_COEFF_MEV * float(a) ** (-1.0 / 3.0)


def oscillator_length(a: int) -> float:
    """Oscillator length b = hbar*c / sqrt(M c^2 * hbar*omega) in fm."""
    return HBARC_MEV_FM / math.sqrt(NUCLEON_MASS_MEV * hbar_omega(a))


def shell_capacity(n: int) -> int:
    """Nucleons of one species that fit in major shell N: (N+1)(N+2)."""
    if n < 0:
        raise ValidationError("shell index must be >= 0")
    return (n + 1) * (n + 2)


@dataclass(frozen=True)
class BasisWindow:
    """Contiguous range of major shells [n_min, n_max], one qubit per shell."""

    n_min: int
    n_max: int

    def __post_init__(self) -> None:
        if self.n_min < 0 or self.n_max < self.n_min:
            raise ValidationError(f"bad shell window [{self.n_min}, {self.n_max}]")

    @classmethod
    def parse(cls, text: str) -> "BasisWindow":
        """Parse "a-b" into a window, e.g. "3-6"."""
        parts = text.strip().split("-")
        if len(parts) != 2:
            raise ValidationError(f"window must look like 'a-b', got {text!r}")
        try:
            lo, hi = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValidationError(f"window bounds must be integers, got {text!r}") from exc
        return cls(lo, hi)

    @property
    def nqubits(self) -> int:
        return self.n_max - self.n_min + 1

    def shells(self) -> range:
        return range(self.n_min, self.n_max + 1)

    @property
    def label(self) -> str:
        return f"{self.n_min}-{self.n_max}"


@dataclass(frozen=True)
class NucleusConfig:
    """Nucleus, interaction strength, and run settings for one experiment."""

    A: int
    Z: int
    kappa: float
    basis: BasisWindow
    gamma_spread: float = 2.0
    shots: int = 8000
    runs: int = 100
    grid_min: float = 5.0
    grid_max: float = 30.0
    grid_step: float = 0.1
    calibration: float = 1.0

    def __post_init__(self) -> None:
        for name in ("gamma_spread", "grid_min", "grid_max", "grid_step", "calibration"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.Z < 1 or self.A <= self.Z:
            raise ValidationError(f"need Z >= 1 and A > Z, got A={self.A}, Z={self.Z}")
        if not 0.0 <= self.kappa <= 2.0:
            raise ValidationError(f"kappa must lie in [0, 2], got {self.kappa}")
        if self.gamma_spread <= 0:
            raise ValidationError("gamma_spread must be positive")
        if self.shots < 1 or self.runs < 1:
            raise ValidationError("shots and runs must be >= 1")
        if self.grid_step <= 0 or self.grid_min >= self.grid_max:
            raise ValidationError("energy grid needs grid_min < grid_max and grid_step > 0")
        if self.calibration <= 0:
            raise ValidationError("calibration must be positive")

    @property
    def n_neutrons(self) -> int:
        return self.A - self.Z

    def energy_grid(self) -> np.ndarray:
        """Uniform energy grid [grid_min, grid_max] in MeV (endpoint included)."""
        count = int(round((self.grid_max - self.grid_min) / self.grid_step)) + 1
        return self.grid_min + self.grid_step * np.arange(count)


@dataclass(frozen=True)
class OccupationTable:
    """Fractional occupation n_N per shell and species, shells 0..n_max."""

    protons: tuple[float, ...]
    neutrons: tuple[float, ...]

    def occupations(self, species: str) -> tuple[float, ...]:
        if species == "proton":
            return self.protons
        if species == "neutron":
            return self.neutrons
        raise ValidationError(f"species must be 'proton' or 'neutron', got {species!r}")


def _fill(count: int, n_max: int) -> tuple[float, ...]:
    remaining = count
    occ = []
    for shell in range(n_max + 1):
        cap = shell_capacity(shell)
        placed = min(cap, remaining)
        occ.append(placed / cap)
        remaining -= placed
    if remaining > 0:
        raise CapacityError(f"{count} particles exceed the capacity of shells 0..{n_max}")
    return tuple(occ)


def fill_occupations(config: NucleusConfig) -> OccupationTable:
    """Fill shells bottom-up for both species; partial top shells get n_N < 1."""
    n_max = config.basis.n_max
    return OccupationTable(_fill(config.Z, n_max), _fill(config.n_neutrons, n_max))


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


def build_hamiltonian(basis: BasisWindow, homega: float) -> pl.PauliSum:
    """Window Hamiltonian sum_N (N + 3/2) hbar*omega a^dag_N a_N.

    Composed from the ladder operators, which contracts each number operator
    to (I - Z)/2; all coefficients are exact binary fractions of hbar*omega.
    """
    if homega <= 0:
        raise ValidationError("hbar*omega must be positive")
    n = basis.nqubits
    total = pl.PauliSum(n)
    for q, shell in enumerate(basis.shells()):
        number_op = pl.multiply_sums(jw_creation(q, n), jw_annihilation(q, n))
        total = pl.add(total, number_op * ((shell + 1.5) * homega))
    return total


def build_dipole(basis: BasisWindow, config: NucleusConfig, species: str) -> pl.PauliSum:
    """Dipole operator of one species on the window, in fm.

    Adjacent shells are coupled with the collective hop amplitude of the
    species: effective charge (-N/A for protons, +Z/A for neutrons) times
    sqrt((N+1)(N+2)) for the shell degeneracy times the radial element
    b*sqrt((N+1)/2), so one hop carries the summed strength of the shell.
    """
    if species == "proton":
        charge = -config.n_neutrons / config.A
    elif species == "neutron":
        charge = config.Z / config.A
    else:
        raise ValidationError(f"species must be 'proton' or 'neutron', got {species!r}")
    n = basis.nqubits
    b = oscillator_length(config.A)
    total = pl.PauliSum(n)
    for q, shell in enumerate(list(basis.shells())[:-1]):
        hop = pl.add(
            pl.multiply_sums(jw_creation(q + 1, n), jw_annihilation(q, n)),
            pl.multiply_sums(jw_creation(q, n), jw_annihilation(q + 1, n)),
        )
        amplitude = charge * math.sqrt(shell_capacity(shell)) * math.sqrt((shell + 1) / 2.0) * b
        total = pl.add(total, hop * amplitude)
    return total
