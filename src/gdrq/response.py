"""Linear response of the dipole field and photo-absorption cross sections.

Transition lists carry signed pole weights: every physical excitation at +dE
contributes an antiresonant mirror at -dE with weight -1, which keeps the
response an odd function of energy and the dressed strength distribution
consistent between the classical and measured routes.  The Cartesian dipole
components alpha = 1, 2, 3 are tracked separately so a deformed shape can
split them; for a spherical nucleus the three channels are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import E2_MEV_FM, FM2_TO_MB, HBARC_MEV_FM, NUCLEON_MASS_MEV
from .encoding import (
    NucleusConfig,
    OccupationTable,
    hbar_omega,
    shell_capacity,
)
from .errors import DegenerateSpectrumError, PoleCrossingError, ValidationError

R0_FM_PER_A13 = 1.2  # nuclear radius parameter r0 in fm
_ALPHAS = (1, 2, 3)
_Y20_NORM = math.sqrt(5.0 / (16.0 * math.pi))
# 8-point Gauss-Legendre rule in cos(theta) and Y20 at its nodes, for the volume quadrature
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_Y20 = _Y20_NORM * (3.0 * _GL_NODES**2 - 1.0)


@dataclass(frozen=True)
class Transition:
    """One response pole: energy in MeV, strength in fm^2, signed weight."""

    energy: float
    strength: float
    weight: float = 1.0
    alpha: int = 1

    def __post_init__(self) -> None:
        if self.strength < 0:
            raise ValidationError(f"strength must be >= 0, got {self.strength}")
        if not -1.0 <= self.weight <= 1.0:
            raise ValidationError(f"weight must lie in [-1, 1], got {self.weight}")
        if self.alpha not in _ALPHAS:
            raise ValidationError(f"alpha must be 1, 2 or 3, got {self.alpha}")


@dataclass(frozen=True)
class TransitionSet:
    """Deterministically ordered collection of transitions."""

    entries: tuple[Transition, ...]

    def for_alpha(self, alpha: int) -> tuple[Transition, ...]:
        if alpha not in _ALPHAS:
            raise ValidationError(f"alpha must be 1, 2 or 3, got {alpha}")
        return tuple(t for t in self.entries if t.alpha == alpha)

    def total_strength(self, alpha: int = 1) -> float:
        """Net strength (weight-signed) in one Cartesian channel."""
        return sum(t.strength * t.weight for t in self.for_alpha(alpha))


@dataclass(frozen=True)
class ShapeParams:
    """Spheroidal shape: volume factor, semi-axes, and split frequencies."""

    volume_factor: float
    semi_axes_fm: tuple[float, float, float]
    omega_alpha_mev: tuple[float, float, float]


def shape_frequencies(a: int, beta2: float) -> ShapeParams:
    """Axial-quadrupole surface R(theta) = C R0 (1 + beta2 Y20(theta)).

    C restores the enclosed volume (exact Gauss-Legendre quadrature of the
    degree-6 integrand); each Cartesian frequency scales inversely with the
    semi-axis and the triple is renormalized so its geometric mean equals the
    spherical hbar*omega.
    """
    if not abs(beta2) <= 0.5:
        raise ValidationError("beta2 must lie in [-0.5, 0.5]")
    homega = hbar_omega(a)
    r0 = R0_FM_PER_A13 * float(a) ** (1.0 / 3.0)
    mean_r3 = float(((1.0 + beta2 * _GL_Y20) ** 3 * _GL_WEIGHTS).sum()) / 2.0
    volume_factor = mean_r3 ** (-1.0 / 3.0)
    # semi-axes: x and y at theta = pi/2 (Y20 = -norm), z at theta = 0 (Y20 = 2*norm)
    y20_axes = (-_Y20_NORM, -_Y20_NORM, 2.0 * _Y20_NORM)
    radii = tuple(volume_factor * (1.0 + beta2 * y) for y in y20_axes)
    if min(radii) <= 0:
        raise ValidationError("deformation collapses a semi-axis")
    inverse = tuple(1.0 / r for r in radii)
    geo_mean = math.prod(inverse) ** (1.0 / 3.0)
    omegas = tuple(homega * iv / geo_mean for iv in inverse)
    return ShapeParams(
        volume_factor=volume_factor,
        semi_axes_fm=tuple(r0 * r for r in radii),
        omega_alpha_mev=omegas,
    )


def kappa_alpha(kappa: float, config: NucleusConfig, shape: ShapeParams) -> np.ndarray:
    """Separable dipole couplings kappa_alpha in MeV/fm^2, one per Cartesian axis.

    kappa_alpha = kappa * (3A / (N Z)) * M c^2 * (hbar*omega_alpha / hbar*c)^2.
    """
    if kappa < 0:
        raise ValidationError("kappa must be >= 0")
    scale = 3.0 * config.A / (config.n_neutrons * config.Z) * NUCLEON_MASS_MEV
    return np.array(
        [kappa * scale * (w / HBARC_MEV_FM) ** 2 for w in shape.omega_alpha_mev]
    )


def classical_transitions(config: NucleusConfig, occupations: OccupationTable) -> TransitionSet:
    """Independent-particle dipole poles between adjacent shells in the window.

    Each ordered shell pair (from, to) with occupation difference n_from - n_to
    contributes a pole at (N_to - N_from) * hbar*omega_alpha with that signed
    weight; the strength is the summed single-particle one of the lower shell,
    e_s^2 * g * b_alpha^2 * (N_< + 1)/2 with degeneracy g = (N_<+1)(N_<+2).
    """
    basis = config.basis
    shape = shape_frequencies(config.A, config.beta2)
    entries = []
    charges = (
        ("proton", -config.n_neutrons / config.A, occupations.protons),
        ("neutron", config.Z / config.A, occupations.neutrons),
    )
    for alpha in _ALPHAS:
        omega = shape.omega_alpha_mev[alpha - 1]
        b2 = HBARC_MEV_FM**2 / (NUCLEON_MASS_MEV * omega)
        for _species, charge, occ in charges:
            for lower in range(basis.n_min, basis.n_max):
                g = shell_capacity(lower)
                strength = charge**2 * g * b2 * (lower + 1) / 2.0
                for src, dst in ((lower, lower + 1), (lower + 1, lower)):
                    weight = occ[src] - occ[dst]
                    if weight == 0.0:
                        continue
                    entries.append(
                        Transition(
                            energy=(dst - src) * omega,
                            strength=strength,
                            weight=weight,
                            alpha=alpha,
                        )
                    )
    return TransitionSet(tuple(entries))


def quantum_transitions(measured: list[tuple[float, float]]) -> TransitionSet:
    """Poles from measured (energy, strength) pairs, replicated over alpha.

    Measured excitations are isotropic (the quantum pipeline is spherical), so
    each pair lands in all three Cartesian channels; the antiresonant mirror
    at -energy with weight -1 completes the response.
    """
    entries = []
    for alpha in _ALPHAS:
        for energy, strength in measured:
            if energy <= 0:
                raise ValidationError(f"measured transition energies must be > 0, got {energy}")
            if strength < 0:
                raise ValidationError(f"measured strengths must be >= 0, got {strength}")
            entries.append(Transition(energy=energy, strength=strength, weight=1.0, alpha=alpha))
            entries.append(Transition(energy=-energy, strength=strength, weight=-1.0, alpha=alpha))
    return TransitionSet(tuple(entries))


def bare_response(
    transitions: TransitionSet, grid: np.ndarray, gamma_spread: float
) -> np.ndarray:
    """Free response R0_alpha(E) = sum_i S_i w_i / (E - dE_i + i Gamma), shape (3, G)."""
    if gamma_spread <= 0:
        raise ValidationError("gamma_spread must be positive")
    grid = np.asarray(grid, dtype=float)
    out = np.zeros((3, grid.size), dtype=complex)
    for t in transitions.entries:
        out[t.alpha - 1] += t.strength * t.weight / (grid - t.energy + 1j * gamma_spread)
    return out


def dress_response(r0: np.ndarray, kappas: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """RPA-dressed response R = R0 / (1 - kappa_alpha R0), channel by channel."""
    r0 = np.asarray(r0, dtype=complex)
    kappas = np.asarray(kappas, dtype=float)
    if r0.ndim != 2 or r0.shape[0] != 3 or kappas.shape != (3,):
        raise ValidationError("expected r0 of shape (3, G) and three couplings")
    denom = 1.0 - kappas[:, None] * r0
    small = np.abs(denom) <= 1e-10
    if small.any():
        _, col = np.argwhere(small)[0]
        raise PoleCrossingError(f"dressing denominator vanishes at E = {grid[col]:.4f} MeV")
    return r0 / denom


def cross_section(grid: np.ndarray, r_dressed: np.ndarray) -> np.ndarray:
    """Photo-absorption sigma(E) in mb from the dressed response.

    sigma = 4 pi (e^2 / hbar c) * E * sum_alpha (-Im R_alpha) * 10.
    """
    grid = np.asarray(grid, dtype=float)
    r_dressed = np.asarray(r_dressed, dtype=complex)
    if r_dressed.shape != (3, grid.size):
        raise ValidationError("r_dressed must have shape (3, len(grid))")
    strength = -r_dressed.imag.sum(axis=0)
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
    """Grid, bare and dressed responses, cross sections, and peak summary."""

    energies: np.ndarray
    r0: np.ndarray
    r_dressed: np.ndarray
    sigma_raw: np.ndarray
    sigma: np.ndarray
    peak_energy: float
    peak_height: float
    width_fwhm: float


def assemble_spectrum(config: NucleusConfig, transitions: TransitionSet) -> ResponseSpectrum:
    """Full response pipeline: bare poles -> dressing -> calibrated cross section."""
    grid = config.energy_grid()
    shape = shape_frequencies(config.A, config.beta2)
    kappas = kappa_alpha(config.kappa, config, shape)
    r0 = bare_response(transitions, grid, config.gamma_spread)
    r_dressed = dress_response(r0, kappas, grid)
    sigma_raw = cross_section(grid, r_dressed)
    sigma = config.calibration * sigma_raw
    e0, height, width = find_peak(grid, sigma)
    return ResponseSpectrum(
        energies=grid,
        r0=r0,
        r_dressed=r_dressed,
        sigma_raw=sigma_raw,
        sigma=sigma,
        peak_energy=e0,
        peak_height=height,
        width_fwhm=width,
    )
