"""Independent reference model of the gdrq physics, from formulas alone.

Uses numpy and the standard library only and never imports gdrq, so the
benchmark can check the program against numbers it did not compute itself.

Model: both species fill harmonic-oscillator major shells N bottom-up, each
holding (N+1)(N+2) nucleons, over as many shells as the nucleus needs (the
window only restricts which transitions are active).  A shell window [lo, hi]
then gives

* exact poles (the quantum pipeline in exact mode): one per species, for the
  adjacent upward hop out of the top full shell F when F and F+1 both lie in
  the window, at dE = hbar*omega = 41 A^-1/3 MeV with strength
  e_s^2 (F+1)(F+2) (F+1)/2 b^2, e_s = -N/A for protons and Z/A for neutrons;
* classical poles: every adjacent shell pair of the window, in both
  directions, weighted by the occupation difference.

Poles are dressed by the separable interaction R = R0 / (1 - kappa_a R0) and
turned into the photo-absorption cross section, whose discrete maximum is
refined by a parabola; the width interpolates the half-height crossings.
"""

from __future__ import annotations

import math

import numpy as np

HBARC = 197.327  # MeV fm
NUCLEON_MASS = 938.919  # MeV
E2 = 1.44  # MeV fm
OSC = 41.0  # MeV
FM2_TO_MB = 10.0


def hbar_omega(a: int) -> float:
    return OSC * a ** (-1.0 / 3.0)


def b_squared(a: int) -> float:
    """Square of the oscillator length in fm^2."""
    return HBARC**2 / (NUCLEON_MASS * hbar_omega(a))


def capacity(shell: int) -> int:
    return (shell + 1) * (shell + 2)


def occupations(count: int) -> list[float]:
    """Fractional occupation per shell, filled bottom-up until all are placed."""
    occ = []
    shell = 0
    while count > 0:
        placed = min(capacity(shell), count)
        occ.append(placed / capacity(shell))
        count -= placed
        shell += 1
    return occ


def _species(a: int, z: int) -> tuple[tuple[float, list[float]], ...]:
    """(effective charge, occupations) for protons, then neutrons."""
    n = a - z
    return ((-n / a, occupations(z)), (z / a, occupations(n)))


def _occ(occ: list[float], shell: int) -> float:
    return occ[shell] if shell < len(occ) else 0.0


def _hop_strength(a: int, charge: float, lower: int) -> float:
    return charge**2 * capacity(lower) * (lower + 1) / 2.0 * b_squared(a)


def exact_poles(a: int, z: int, lo: int, hi: int) -> list[tuple[float, float]]:
    """(energy MeV, strength fm^2) of each species' hop out of its top full shell."""
    poles = []
    for charge, occ in _species(a, z):
        top = -1
        while top + 1 < len(occ) and occ[top + 1] == 1.0:
            top += 1
        if top >= 0 and lo <= top and top + 1 <= hi:
            poles.append((hbar_omega(a), _hop_strength(a, charge, top)))
    return poles


def classical_poles(a: int, z: int, lo: int, hi: int) -> list[tuple[float, float, float]]:
    """(energy, strength, signed weight) of the occupation-weighted window poles."""
    homega = hbar_omega(a)
    poles = []
    for charge, occ in _species(a, z):
        for lower in range(lo, hi):
            strength = _hop_strength(a, charge, lower)
            up = _occ(occ, lower) - _occ(occ, lower + 1)
            if up != 0.0:
                poles.append((homega, strength, up))
                poles.append((-homega, strength, -up))
    return poles


def mirrored(poles: list[tuple[float, float]]) -> list[tuple[float, float, float]]:
    """Measured poles plus their antiresonant mirrors at -E with weight -1."""
    out = []
    for energy, strength in poles:
        out.append((energy, strength, 1.0))
        out.append((-energy, strength, -1.0))
    return out


def grid(e_min: float, e_max: float, step: float) -> np.ndarray:
    count = int(round((e_max - e_min) / step)) + 1
    return e_min + step * np.arange(count)


def cross_section(
    a: int,
    z: int,
    poles: list[tuple[float, float, float]],
    kappa: float,
    gamma: float,
    energies: np.ndarray,
    calibration: float,
) -> np.ndarray:
    """sigma(E) in mb of a spherical nucleus: three identical dipole channels."""
    r0 = np.zeros(energies.size, dtype=complex)
    for energy, strength, weight in poles:
        r0 += strength * weight / (energies - energy + 1j * gamma)
    kappa_a = kappa * 3.0 * a / ((a - z) * z) * NUCLEON_MASS * (hbar_omega(a) / HBARC) ** 2
    dressed = r0 / (1.0 - kappa_a * r0)
    return calibration * 4.0 * math.pi * (E2 / HBARC) * energies * (-3.0 * dressed.imag) * FM2_TO_MB


def peak(energies: np.ndarray, sigma: np.ndarray) -> tuple[float, float, float]:
    """(peak energy, height, FWHM) from the parabola-refined discrete maximum."""
    i = int(np.argmax(sigma))
    if not 0 < i < sigma.size - 1:
        raise ValueError("maximum on the grid boundary")
    (x1, x2, x3), (y1, y2, y3) = energies[i - 1 : i + 2], sigma[i - 1 : i + 2]
    s21 = (y2 - y1) / (x2 - x1)
    s32 = (y3 - y2) / (x3 - x2)
    curve = (s32 - s21) / (x3 - x1)
    if curve >= 0:
        e0, height = x2, y2
    else:
        e0 = 0.5 * (x1 + x2 - s21 / curve)
        height = y1 + s21 * (e0 - x1) + curve * (e0 - x1) * (e0 - x2)
    half = height / 2.0
    below = np.flatnonzero(sigma < half)
    left_j = below[below < i]
    right_j = below[below > i]
    if left_j.size == 0 or right_j.size == 0:
        raise ValueError("half height not crossed inside the grid")
    j = left_j[-1]
    left = energies[j] + (half - sigma[j]) / (sigma[j + 1] - sigma[j]) * (energies[j + 1] - energies[j])
    j = right_j[0]
    right = energies[j - 1] + (half - sigma[j - 1]) / (sigma[j] - sigma[j - 1]) * (
        energies[j] - energies[j - 1]
    )
    return float(e0), float(height), float(right - left)


# Published figures the model must reproduce: (what, value, absolute tolerance).
# Configs: 120Sn kappa 0.5, calibration 0.1751; 208Pb kappa 0.85, calibration
# 0.2378; grid 5-30 MeV step 0.1, gamma 2 MeV; classical at kappa 0.4.
PUBLISHED = (
    ("120Sn 3-6 proton pole energy", 8.312, 5e-4),
    ("120Sn 3-6 proton pole strength", 67.91, 5e-3),
    ("120Sn 3-6 neutron pole energy", 8.312, 5e-4),
    ("120Sn 3-6 neutron pole strength", 64.96, 5e-3),
    ("120Sn exact peak", 16.198, 5e-4),
    ("208Pb exact peak", 16.837, 5e-4),
    ("120Sn classical 0-10 peak", 15.719, 5e-4),
    ("208Pb classical 0-10 peak", 13.399, 5e-4),
)


def published_values() -> tuple[float, ...]:
    """The model's values for each PUBLISHED entry, in order."""
    energies = grid(5.0, 30.0, 0.1)
    sn_poles = exact_poles(120, 50, 3, 6)
    values = [v for pole in sn_poles for v in pole]
    for a, z, kappa, cal in ((120, 50, 0.5, 0.1751), (208, 82, 0.85, 0.2378)):
        poles = mirrored(exact_poles(a, z, 3, 6))
        values.append(peak(energies, cross_section(a, z, poles, kappa, 2.0, energies, cal))[0])
    for a, z, cal in ((120, 50, 0.1751), (208, 82, 0.2378)):
        poles = classical_poles(a, z, 0, 10)
        values.append(peak(energies, cross_section(a, z, poles, 0.4, 2.0, energies, cal))[0])
    return tuple(values)


def check_published() -> list[str]:
    """Mismatches between the model and the published figures (empty if none)."""
    return [
        f"reference {what}: {got:.4f}, published {want}"
        for (what, want, tol), got in zip(PUBLISHED, published_values())
        if abs(got - want) > tol
    ]
