"""Unit tests of the spherical dipole channel: poles, dressing, cross section, peak.

Transitions carry an energy, a strength and a signed weight; the bare and
dressed responses are (rows, grid) batches on the energy grid, a single one a
batch of one, and the cross section counts the one channel for all three
Cartesian components.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gdrq.response
from gdrq.constants import E2_MEV_FM, FM2_TO_MB, HBARC_MEV_FM, NUCLEON_MASS_MEV
from gdrq.encoding import BasisWindow, NucleusConfig, fill_occupations, hbar_omega
from gdrq.errors import DegenerateSpectrumError, PoleCrossingError, ValidationError
from gdrq.response import (
    Transition,
    TransitionSet,
    assemble_spectrum,
    bare_response,
    classical_transitions,
    cross_section,
    coupling,
    dress_response,
    find_peak,
    response_rows,
    spectrum_rows,
)
from oracles import mirrored


class TestTransition:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Transition(energy=10.0, strength=-1.0)
        with pytest.raises(ValidationError):
            Transition(energy=10.0, strength=1.0, weight=1.5)
        # the channel is fixed: no constructor argument, and it cannot be set
        with pytest.raises(TypeError):
            Transition(energy=10.0, strength=1.0, weight=1.0, alpha=2)
        t = Transition(energy=10.0, strength=1.0)
        assert t.alpha == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.alpha = 2


class TestKappaAlpha:
    """The separable coupling of the one dipole channel."""

    def test_formula(self):
        config = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6))
        expected = (
            0.5
            * 3.0
            * 120
            / (70 * 50)
            * NUCLEON_MASS_MEV
            * (hbar_omega(120) / HBARC_MEV_FM) ** 2
        )
        assert coupling(config) == pytest.approx(expected, rel=1e-15)

    def test_negative_rejected(self):
        # the coupling reads kappa from the config, which refuses a negative one
        with pytest.raises(ValidationError):
            NucleusConfig(A=120, Z=50, kappa=-0.1, basis=BasisWindow(3, 6))


class TestClassicalTransitions:
    def test_sn120_window_3_4_hand_count(self):
        config = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 4))
        occ = fill_occupations(config)
        ts = classical_transitions(config, occ)
        # neutrons fill shells 3 and 4 completely: no neutron pole survives;
        # protons leave shell 4 at 1/3, so one +omega and one -omega proton pole
        assert len(ts.entries) == 2
        omega = hbar_omega(120)
        b2 = HBARC_MEV_FM**2 / (NUCLEON_MASS_MEV * omega)
        expected_strength = (70 / 120) ** 2 * 20 * b2 * (3 + 1) / 2.0
        up = [t for t in ts.entries if t.energy > 0]
        down = [t for t in ts.entries if t.energy < 0]
        assert len(up) == 1 and len(down) == 1
        assert up[0].energy == pytest.approx(omega)
        assert up[0].strength == pytest.approx(expected_strength)
        assert up[0].weight == pytest.approx(1.0 - 10.0 / 30.0)
        assert down[0].weight == pytest.approx(-(1.0 - 10.0 / 30.0))


class TestBareResponse:
    def test_single_pole_analytic(self):
        grid = np.linspace(0.0, 20.0, 201)
        ts = TransitionSet((Transition(10.0, 2.5, 1.0),))
        r0 = bare_response(ts, grid, 1.5)
        expected = 2.5 / (grid - 10.0 + 1.5j)
        assert r0.shape == grid.shape
        assert np.allclose(r0, expected)

    def test_antiresonant_pair_is_hermitian_in_energy(self):
        grid = np.linspace(-15.0, 15.0, 301)
        ts = mirrored([(8.0, 3.0)])
        r0 = bare_response(ts, grid, 2.0)
        # R(-E) = conj(R(E)): real part even, imaginary part odd
        assert np.allclose(r0[::-1], np.conj(r0), atol=1e-12)

    def test_gamma_validated(self):
        ts = TransitionSet((Transition(10.0, 2.5),))
        with pytest.raises(ValidationError):
            bare_response(ts, np.linspace(0, 1, 5), 0.0)


class TestDressResponse:
    def test_zero_coupling_is_identity(self):
        grid = np.linspace(5.0, 25.0, 101)
        ts = mirrored([(10.0, 4.0)])
        r0 = bare_response(ts, grid, 2.0)
        assert np.allclose(dress_response(r0, 0.0, grid), r0)

    def test_dressing_formula(self):
        grid = np.linspace(5.0, 25.0, 101)
        ts = mirrored([(10.0, 4.0)])
        r0 = bare_response(ts, grid, 2.0)
        for kappa_c in (0.1, 0.2, 0.3):
            dressed = dress_response(r0, kappa_c, grid)
            assert np.allclose(dressed, r0 / (1.0 - kappa_c * r0))

    def test_pole_crossing_detected(self):
        r0 = np.array([1.0, 2.0, 1.0, 1.0], dtype=complex)
        with pytest.raises(PoleCrossingError, match="E = 1.0000"):
            dress_response(r0, 0.5, grid=np.arange(4.0))

    def test_pole_crossing_reported_in_first_crossing_row(self):
        r0 = np.ones((3, 4), dtype=complex)
        r0[1, 2] = 2.0
        r0[2, 0] = 2.0
        with pytest.raises(PoleCrossingError, match="E = 2.0000") as info:
            dress_response(r0, 0.5, grid=np.arange(4.0))
        assert "\n" not in str(info.value)


class TestCrossSection:
    def test_formula_single_point(self):
        grid = np.array([5.0, 10.0, 15.0])
        r = np.zeros(3, dtype=complex)
        r[1] = -1j  # -Im R = 1 at E = 10, counted once per Cartesian component
        sigma = cross_section(grid, r)
        expected = 4.0 * math.pi * (E2_MEV_FM / HBARC_MEV_FM) * 10.0 * 3.0 * FM2_TO_MB
        assert sigma[1] == pytest.approx(expected)
        assert sigma[0] == 0.0

    def test_shape_validated(self):
        with pytest.raises(ValidationError):
            cross_section(np.arange(5.0), np.zeros(4, dtype=complex))
        with pytest.raises(ValidationError):
            cross_section(np.arange(5.0), np.zeros((3, 4), dtype=complex))


def lorentzian(grid: np.ndarray, e0: float, gamma: float, height: float) -> np.ndarray:
    return height / (1.0 + ((grid - e0) / (gamma / 2.0)) ** 2)


class TestFindPeak:
    @given(
        st.floats(min_value=10.0, max_value=20.0, allow_nan=False),
        st.floats(min_value=2.0, max_value=6.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_recovers_lorentzian_parameters(self, e0, gamma):
        grid = np.arange(5.0, 30.0 + 1e-9, 0.1)
        e_peak, height, width = find_peak(grid, lorentzian(grid, e0, gamma, 100.0))
        assert e_peak == pytest.approx(e0, abs=0.02)
        assert height == pytest.approx(100.0, rel=0.01)
        assert width == pytest.approx(gamma, rel=0.02)

    def test_boundary_maximum_rejected(self):
        grid = np.arange(5.0, 10.0, 0.5)
        values = grid.copy()  # monotone: maximum at the right edge
        with pytest.raises(DegenerateSpectrumError):
            find_peak(grid, values)

    def test_uncrossed_half_height_rejected(self):
        grid = np.arange(10.0, 20.0, 0.5)
        values = lorentzian(grid, 15.0, 40.0, 10.0)  # far wider than the grid
        with pytest.raises(DegenerateSpectrumError):
            find_peak(grid, values)

    def test_first_maximum_wins_ties(self):
        grid = np.arange(0.0, 7.0, 1.0)
        values = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        e0, _, _ = find_peak(grid, values)
        assert e0 < 2.0

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            find_peak(np.arange(2.0), np.arange(2.0))
        with pytest.raises(ValidationError):
            find_peak(np.arange(5.0), np.arange(4.0))


class TestAssembleSpectrum:
    def test_classical_sn120_golden(self):
        config = NucleusConfig(A=120, Z=50, kappa=0.4, basis=BasisWindow(0, 10))
        ts = classical_transitions(config, fill_occupations(config))
        spectrum = assemble_spectrum(config, ts)
        assert spectrum.peak_energy == pytest.approx(15.719114979103464, abs=1e-9)
        assert spectrum.width_fwhm == pytest.approx(4.0012100680137035, abs=1e-9)
        assert spectrum.peak_height == pytest.approx(1745.7043431443353, rel=1e-9)

    def test_calibration_scales_sigma_only(self):
        base = NucleusConfig(A=120, Z=50, kappa=0.4, basis=BasisWindow(0, 10))
        scaled = NucleusConfig(
            A=120, Z=50, kappa=0.4, basis=BasisWindow(0, 10), calibration=0.5
        )
        ts = classical_transitions(base, fill_occupations(base))
        sa = assemble_spectrum(base, ts)
        sb = assemble_spectrum(scaled, ts)
        assert np.allclose(sb.sigma, 0.5 * sa.sigma)
        assert np.allclose(sb.sigma_raw, sa.sigma_raw)
        assert sb.peak_energy == pytest.approx(sa.peak_energy)


SN = NucleusConfig(A=120, Z=50, kappa=0.4, basis=BasisWindow(0, 10))


def measured_sets(rows: int, seed: int) -> list[TransitionSet]:
    """Equally long pole lists that scatter around the giant resonance."""
    rng = np.random.default_rng(seed)
    return [
        mirrored(list(zip(rng.uniform(8.0, 20.0, 3), rng.uniform(1.0, 40.0, 3))))
        for _ in range(rows)
    ]


def batch(sets: list[TransitionSet]) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, poles) energies and signed strengths of equally long pole lists."""
    energies = np.array([[t.energy for t in ts.entries] for ts in sets])
    weighted = np.array([[t.strength * t.weight for t in ts.entries] for ts in sets])
    return energies, weighted


def bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


class TestSpectrumBatch:
    """Dressing, cross section and calibration run once over (rows, grid)."""

    def test_batch_rows_equal_single_row_calls(self):
        grid = SN.energy_grid()
        kappa_c = coupling(SN)
        r0 = np.array([bare_response(ts, grid, SN.gamma_spread) for ts in measured_sets(7, seed=3)])
        dressed = dress_response(r0, kappa_c, grid)
        sigma = cross_section(grid, dressed)
        assert dressed.shape == sigma.shape == (7, grid.size)
        for k in range(7):
            assert bits(dressed[k]) == bits(dress_response(r0[k], kappa_c, grid))
            assert bits(sigma[k]) == bits(cross_section(grid, dressed[k]))

    def test_dressing_runs_once_per_batch(self, monkeypatch):
        calls = []
        original = gdrq.response.dress_response
        monkeypatch.setattr(
            gdrq.response,
            "dress_response",
            lambda r0, *args: calls.append(np.shape(r0)) or original(r0, *args),
        )
        grid = SN.energy_grid()
        response_rows(SN, grid, *batch(measured_sets(6, seed=6)))
        assert calls == [(6, grid.size)]

    def test_rows_are_read_only_views_of_the_batch(self):
        grid = SN.energy_grid()
        spectra = spectrum_rows(grid, *response_rows(SN, grid, *batch(measured_sets(3, seed=7))))
        for field in ("r0", "r_dressed", "sigma_raw", "sigma"):
            rows = [getattr(s, field) for s in spectra]
            assert all(row.base is rows[0].base for row in rows)
            with pytest.raises(ValueError, match="read-only"):
                rows[1][0] = 1.0
