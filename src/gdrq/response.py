"""Linear response of the dipole field and photo-absorption cross sections.

Transition lists carry signed pole weights: every physical excitation at +dE
contributes an antiresonant mirror at -dE with weight -1, which keeps the
response an odd function of energy and the dressed strength distribution
consistent between the classical and measured routes.  The nucleus is a
spherical oscillator, so the three Cartesian dipole components respond alike:
one channel is computed and the cross section counts it three times.

Spectra are (rows, grid) batches, computed elementwise so each row keeps the
bits of its own spectrum; a single one is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .constants import E2_MEV_FM, FM2_TO_MB, HBARC_MEV_FM, NUCLEON_MASS_MEV
from .encoding import (
    NucleusConfig,
    OccupationTable,
    effective_charge,
    hbar_omega,
    shell_capacity,
)
from .errors import DegenerateSpectrumError, PoleCrossingError, ValidationError


@dataclass(frozen=True)
class Transition:
    """One response pole: energy in MeV, strength in fm^2, signed weight."""

    energy: float
    strength: float
    weight: float = 1.0
    # the one dipole channel; bench/workloads.py still filters on t.alpha == 1
    alpha: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if self.strength < 0:
            raise ValidationError(f"strength must be >= 0, got {self.strength}")
        if not -1.0 <= self.weight <= 1.0:
            raise ValidationError(f"weight must lie in [-1, 1], got {self.weight}")


@dataclass(frozen=True)
class TransitionSet:
    """Deterministically ordered collection of transitions."""

    entries: tuple[Transition, ...]


def coupling(config: NucleusConfig) -> float:
    """Separable dipole coupling in MeV/fm^2.

    kappa_c = kappa * (3A / (N Z)) * M c^2 * (hbar*omega / hbar*c)^2.
    """
    scale = 3.0 * config.A / (config.n_neutrons * config.Z) * NUCLEON_MASS_MEV
    w = hbar_omega(config.A)
    return config.kappa * scale * (w / HBARC_MEV_FM) ** 2


def classical_transitions(config: NucleusConfig, occupations: OccupationTable) -> TransitionSet:
    """Independent-particle dipole poles between adjacent shells in the window.

    Each ordered shell pair (from, to) with occupation difference n_from - n_to
    contributes a pole at (N_to - N_from) * hbar*omega with that signed
    weight; the strength is the summed single-particle one of the lower shell,
    e_s^2 * g * b^2 * (N_< + 1)/2 with degeneracy g = (N_<+1)(N_<+2).
    """
    basis = config.basis
    omega = hbar_omega(config.A)
    b2 = HBARC_MEV_FM**2 / (NUCLEON_MASS_MEV * omega)
    entries = []
    for species in ("proton", "neutron"):
        charge = effective_charge(config, species)
        occ = occupations.occupations(species)
        for lower in range(basis.n_min, basis.n_max):
            g = shell_capacity(lower)
            strength = charge**2 * g * b2 * (lower + 1) / 2.0
            for src, dst in ((lower, lower + 1), (lower + 1, lower)):
                weight = occ[src] - occ[dst]
                if weight == 0.0:
                    continue
                entries.append(
                    Transition(energy=(dst - src) * omega, strength=strength, weight=weight)
                )
    return TransitionSet(tuple(entries))


def bare_response(
    transitions: TransitionSet, grid: np.ndarray, gamma_spread: float
) -> np.ndarray:
    """Free response R0(E) = sum_i S_i w_i / (E - dE_i + i Gamma) on the grid."""
    if gamma_spread <= 0:
        raise ValidationError("gamma_spread must be positive")
    return pole_rows(*_pole_row(transitions), grid, gamma_spread)[0]


def _pole_row(transitions: TransitionSet) -> tuple[np.ndarray, np.ndarray]:
    """The (1, poles) energies and signed strengths of a pole list (see pole_rows)."""
    poles = np.array(
        [(t.energy, t.strength, t.weight) for t in transitions.entries], dtype=float
    ).reshape(1, -1, 3)
    return poles[..., 0], poles[..., 1] * poles[..., 2]


def pole_rows(
    energies: np.ndarray, weighted: np.ndarray, grid: np.ndarray, gamma_spread: float
) -> np.ndarray:
    """R0 of (rows, poles) pole energies and signed strengths (strength times
    weight) on the grid.

    The poles are added in column order, each as one division over rows x grid,
    so every row holds the bits of its own list's sum, and every point those
    of any other grid that holds it.
    """
    grid = np.asarray(grid, dtype=float)
    out = np.zeros((len(energies), grid.size), dtype=complex)
    for j in range(weighted.shape[1]):
        out += weighted[:, j, None] / (grid - energies[:, j, None] + 1j * gamma_spread)
    return out


def dress_response(r0: np.ndarray, kappa_c: float, grid: np.ndarray) -> np.ndarray:
    """RPA-dressed response R = R0 / (1 - kappa_c R0) of a batch of rows; a
    vanishing denominator is reported in the first row that has one."""
    r0 = np.asarray(r0, dtype=complex)
    denom = 1.0 - kappa_c * r0
    small = np.abs(denom) <= 1e-10
    if small.any():
        col = np.argwhere(small)[0, -1]
        raise PoleCrossingError(f"dressing denominator vanishes at E = {grid[col]:.4f} MeV")
    return r0 / denom


def cross_section(grid: np.ndarray, r_dressed: np.ndarray) -> np.ndarray:
    """Photo-absorption sigma(E) in mb from a batch of dressed response rows.

    sigma = 4 pi (e^2 / hbar c) * E * 3 (-Im R) * 10, the factor 3 for the
    three Cartesian dipole components.
    """
    grid = np.asarray(grid, dtype=float)
    r_dressed = np.asarray(r_dressed, dtype=complex)
    if r_dressed.shape[-1:] != grid.shape:
        raise ValidationError("r_dressed rows must have the length of the grid")
    strength = -3.0 * r_dressed.imag
    return 4.0 * math.pi * (E2_MEV_FM / HBARC_MEV_FM) * grid * strength * FM2_TO_MB


def _parabola_vertex(
    x1: float, y1: float, x2: float, y2: float, x3: float, y3: float
) -> tuple[float, float]:
    """Vertex of the parabola through three points; falls back to the middle one."""
    slope21 = (y2 - y1) / (x2 - x1)
    slope32 = (y3 - y2) / (x3 - x2)
    curve = (slope32 - slope21) / (x3 - x1)
    if curve >= 0:
        return x2, y2
    xv = 0.5 * (x1 + x2 - slope21 / curve)
    yv = y1 + slope21 * (xv - x1) + curve * (xv - x1) * (xv - x2)
    return xv, yv


def find_peak(grid: np.ndarray, values: np.ndarray) -> tuple[float, float, float]:
    """Peak position, height, and FWHM of a sampled curve.

    The discrete maximum (first one on ties, so the lowest energy wins) is
    refined by the parabola through its neighbors; the width interpolates the
    half-height crossings linearly.  A maximum on the grid boundary or a
    half-height never crossed raises a degenerate-spectrum error.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.shape != values.shape or grid.ndim != 1 or grid.size < 3:
        raise ValidationError("need matching 1-d arrays with at least 3 points")
    i = int(np.argmax(values))
    if i == 0 or i == grid.size - 1:
        raise DegenerateSpectrumError(f"maximum sits on the grid boundary (E = {grid[i]:.4f})")
    e0, height = _parabola_vertex(
        grid[i - 1], values[i - 1], grid[i], values[i], grid[i + 1], values[i + 1]
    )
    half = height / 2.0
    left = None
    for j in range(i - 1, -1, -1):
        if values[j] < half:
            frac = (half - values[j]) / (values[j + 1] - values[j])
            left = grid[j] + frac * (grid[j + 1] - grid[j])
            break
    right = None
    for j in range(i + 1, grid.size):
        if values[j] < half:
            frac = (half - values[j - 1]) / (values[j] - values[j - 1])
            right = grid[j - 1] + frac * (grid[j] - grid[j - 1])
            break
    if left is None or right is None:
        raise DegenerateSpectrumError("half height is not crossed inside the grid")
    return float(e0), float(height), float(right - left)


@dataclass(frozen=True)
class ResponseSpectrum:
    """Grid, bare and dressed responses of the one channel, cross sections, and peak summary."""

    energies: np.ndarray
    r0: np.ndarray
    r_dressed: np.ndarray
    sigma_raw: np.ndarray
    sigma: np.ndarray
    peak_energy: float
    peak_height: float
    width_fwhm: float


def spectrum_rows(grid: np.ndarray, *batch: np.ndarray) -> tuple[ResponseSpectrum, ...]:
    """One ResponseSpectrum per row of the (rows, grid) batch r0, r_dressed,
    sigma_raw, sigma, with find_peak of its sigma.  The grid and the batch are
    made read-only and the spectra hold row views of them, so callers can
    share them."""
    for array in (grid, *batch):
        array.flags.writeable = False
    return tuple(ResponseSpectrum(grid, *rows, *find_peak(grid, rows[-1])) for rows in zip(*batch))


def assemble_spectrum(config: NucleusConfig, transitions: TransitionSet) -> ResponseSpectrum:
    """Full response pipeline: bare poles -> dressing -> calibrated cross
    section, as a batch of one (see response_rows)."""
    grid = config.energy_grid()
    (spectrum,) = spectrum_rows(grid, *response_rows(config, grid, *_pole_row(transitions)))
    return spectrum


def response_rows(
    config: NucleusConfig, grid: np.ndarray, energies: np.ndarray, weighted: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (rows, grid) r0, r_dressed, sigma_raw and sigma of pole rows (see
    pole_rows) on the config's energy grid, or on any part of it.

    Bare response, dressing, cross section and calibration each run once over
    rows x grid, elementwise, so every point holds the bits it has in its own
    row's spectrum on the whole grid.
    """
    r0 = pole_rows(energies, weighted, grid, config.gamma_spread)
    r_dressed = dress_response(r0, coupling(config), grid)
    sigma_raw = cross_section(grid, r_dressed)
    return r0, r_dressed, sigma_raw, config.calibration * sigma_raw
