"""Oscillator-shell encodings of the dipole problem.

One qubit per major oscillator shell N inside a chosen window; qubit q of the
window [n_min, n_max] is shell N = n_min + q.  An occupied shell is |1>, so a
Z eigenvalue of -1 marks occupation.  Ladder operators follow the standard
fermionic chain ordering (Z string on lower qubits); for the number operators
and nearest-neighbor hops used here the strings cancel, so the window
operators are emitted straight from their closed 1- and 2-local forms as the
columns of a Pauli sum (masks and coefficients, see pauli.PauliSum), already
in canonical order.  The tests keep the ladder operators, and the same forms
term by term, as the oracles those columns are compared against.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import pauli as pl
from .constants import HBARC_MEV_FM, NUCLEON_MASS_MEV, OSC_COEFF_MEV
from .errors import CapacityError, ValidationError
from .statevector import non_negative_int

# largest energy grid a config may ask for; the shipped configs use 251 points
MAX_GRID_POINTS = 100_000
# largest shot count: the C long that numpy's binomial and multinomial take
MAX_SHOTS = 2**63 - 1
# largest run count: an ensemble holds every run's record at once, about 15 KB
# each, so the cap keeps one to about 1.5 GB
MAX_RUNS = 100_000
# highest shell a window may reach: filling shells takes time and memory linear
# in n_max, and the shipped studies stop at 12
MAX_SHELL = 100


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
        n_min = non_negative_int(self.n_min, "n_min")
        if non_negative_int(self.n_max, "n_max") < n_min:
            raise ValidationError(f"bad shell window [{self.n_min}, {self.n_max}]")
        if self.n_max > MAX_SHELL:
            raise ValidationError(f"n_max must be at most {MAX_SHELL}, got {self.n_max}")

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


# the float fields of a config, and the types a value of one may have (a bool is not one)
_REAL_FIELDS = ("kappa", "gamma_spread", "grid_min", "grid_max", "grid_step", "calibration")
_REAL_TYPES = (int, float, np.integer, np.floating)


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
        for name in ("A", "Z", "shots", "runs"):
            non_negative_int(getattr(self, name), name)
        if not isinstance(self.basis, BasisWindow):
            raise ValidationError(f"basis must be a BasisWindow, got {self.basis!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, _REAL_TYPES):
                raise ValidationError(f"{name} must be a real number, got {value!r}")
            # kappa has its own range check below
            if name != "kappa" and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.Z < 1 or self.A <= self.Z:
            raise ValidationError(f"need Z >= 1 and A > Z, got A={self.A}, Z={self.Z}")
        if not 0.0 <= self.kappa <= 2.0:
            raise ValidationError(f"kappa must lie in [0, 2], got {self.kappa}")
        if self.gamma_spread <= 0:
            raise ValidationError("gamma_spread must be positive")
        if self.shots < 1 or self.runs < 1:
            raise ValidationError("shots and runs must be >= 1")
        if self.shots > MAX_SHOTS:
            raise ValidationError(f"shots must be at most {MAX_SHOTS}, got {self.shots}")
        if self.runs > MAX_RUNS:
            raise ValidationError(f"runs must be at most {MAX_RUNS}, got {self.runs}")
        if self.grid_step <= 0 or self.grid_min >= self.grid_max:
            raise ValidationError("energy grid needs grid_min < grid_max and grid_step > 0")
        # energy_grid holds floor(intervals) + 1 points; comparing the float ratio
        # refuses an overflowing span here rather than in math.floor()
        intervals = self._grid_intervals()
        if not intervals < MAX_GRID_POINTS:
            raise ValidationError(f"energy grid of {intervals + 1:.6g} points exceeds {MAX_GRID_POINTS}")
        if self.calibration <= 0:
            raise ValidationError("calibration must be positive")

    @property
    def n_neutrons(self) -> int:
        return self.A - self.Z

    def _grid_intervals(self) -> float:
        """Steps that fit in the span, plus slack for the rounding error of the ratio."""
        return (self.grid_max - self.grid_min) / self.grid_step + 1e-9

    def energy_grid(self) -> np.ndarray:
        """Uniform energy grid in MeV from grid_min up to grid_max, never past it.

        grid_max itself is the last point when grid_step divides the span.
        """
        count = math.floor(self._grid_intervals()) + 1
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


def build_hamiltonian(basis: BasisWindow, homega: float) -> pl.PauliSum:
    """Window Hamiltonian sum_N (N + 3/2) hbar*omega a^dag_N a_N, as columns.

    Each number operator is (I - Z_q)/2, so the sum is one identity term, the
    halves added up left to right in shell order, then -half * Z_q for each
    qubit: canonical order, every coefficient an exact binary fraction of
    (N + 3/2) hbar*omega.
    """
    if homega <= 0:
        raise ValidationError("hbar*omega must be positive")
    halves = [0.5 * ((shell + 1.5) * homega) for shell in basis.shells()]
    identity = functools.reduce(operator.add, halves, 0.0)
    n = basis.nqubits
    zmasks = [0, *(1 << q for q in range(n))]
    return pl.PauliSum.from_canonical(n, [0] * (n + 1), zmasks, [identity, *(-h for h in halves)])


def effective_charge(config: NucleusConfig, species: str) -> float:
    """E1 effective charge of one species: -N/A for protons, +Z/A for neutrons."""
    if species == "proton":
        return -config.n_neutrons / config.A
    if species == "neutron":
        return config.Z / config.A
    raise ValidationError(f"species must be 'proton' or 'neutron', got {species!r}")


def build_dipole(basis: BasisWindow, config: NucleusConfig, species: str) -> pl.PauliSum:
    """Dipole operator of one species on the window, in fm, as columns.

    Adjacent shells are coupled with the collective hop amplitude of the
    species: its effective charge (see effective_charge) times
    sqrt((N+1)(N+2)) for the shell degeneracy times the radial element
    b*sqrt((N+1)/2), so one hop carries the summed strength of the shell.
    A hop of amplitude t between qubits q and q+1 is
    t * (X_q X_{q+1} + Y_q Y_{q+1})/2: the Z strings of its ladder operators
    cancel below q, and so do the imaginary X_q Y_{q+1} and Y_q X_{q+1} parts
    of its two orderings.  Its XX then its YY term, hop by hop, is canonical
    order.
    """
    charge = effective_charge(config, species)
    b = oscillator_length(config.A)
    flips, zmasks, halves = [], [], []
    for q, shell in enumerate(basis.shells()[:-1]):
        amplitude = charge * math.sqrt(shell_capacity(shell)) * math.sqrt((shell + 1) / 2.0) * b
        # X_q X_{q+1} then Y_q Y_{q+1}: both flip the pair, and Y reads its signs too
        pair = 3 << q
        flips += [pair, pair]
        zmasks += [0, pair]
        halves += [0.5 * amplitude] * 2
    return pl.PauliSum.from_canonical(basis.nqubits, flips, zmasks, halves)
