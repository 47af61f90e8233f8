"""Unit tests for transition bookkeeping, dressing, and peak extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    dress_response,
    find_peak,
    kappa_alpha,
    quantum_transitions,
    shape_frequencies,
)


class TestTransition:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Transition(energy=10.0, strength=-1.0)
        with pytest.raises(ValidationError):
            Transition(energy=10.0, strength=1.0, weight=1.5)
        with pytest.raises(ValidationError):
            Transition(energy=10.0, strength=1.0, alpha=4)

    def test_set_filters_by_alpha_and_sums_signed_strength(self):
        ts = TransitionSet(
            (
                Transition(8.0, 2.0, 1.0, 1),
                Transition(-8.0, 2.0, -1.0, 1),
                Transition(8.0, 3.0, 1.0, 2),
            )
        )
        assert len(ts.for_alpha(1)) == 2
        assert ts.total_strength(1) == pytest.approx(0.0)
        assert ts.total_strength(2) == pytest.approx(3.0)
        with pytest.raises(ValidationError):
            ts.for_alpha(0)


class TestShapeFrequencies:
    def test_spherical_limit(self):
        shape = shape_frequencies(120, 0.0)
        assert shape.volume_factor == pytest.approx(1.0)
        for w in shape.omega_alpha_mev:
            assert w == pytest.approx(hbar_omega(120))
        r0 = 1.2 * 120 ** (1.0 / 3.0)
        for axis in shape.semi_axes_fm:
            assert axis == pytest.approx(r0)

    def test_prolate_splits_z_down(self):
        shape = shape_frequencies(120, 0.3)
        wx, wy, wz = shape.omega_alpha_mev
        assert wx == pytest.approx(wy)
        # longer z axis oscillates slower
        assert wz < wx
        assert shape.semi_axes_fm[2] > shape.semi_axes_fm[0]

    @given(st.floats(min_value=-0.45, max_value=0.45, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_geometric_mean_is_preserved(self, beta2):
        shape = shape_frequencies(120, beta2)
        geo = math.prod(shape.omega_alpha_mev) ** (1.0 / 3.0)
        assert geo == pytest.approx(hbar_omega(120), rel=1e-12)

    def test_range_validated(self):
        with pytest.raises(ValidationError):
            shape_frequencies(120, 0.6)


class TestKappaAlpha:
    def test_formula(self):
        config = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6))
        shape = shape_frequencies(120, 0.0)
        kappas = kappa_alpha(0.5, config, shape)
        expected = (
            0.5
            * 3.0
            * 120
            / (70 * 50)
            * NUCLEON_MASS_MEV
            * (hbar_omega(120) / HBARC_MEV_FM) ** 2
        )
        assert np.allclose(kappas, expected)

    def test_negative_rejected(self):
        config = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6))
        with pytest.raises(ValidationError):
            kappa_alpha(-0.1, config, shape_frequencies(120, 0.0))


class TestClassicalTransitions:
    def test_sn120_window_3_4_hand_count(self):
        config = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 4))
        occ = fill_occupations(config)
        ts = classical_transitions(config, occ)
        # neutrons fill shells 3 and 4 completely: no neutron pole survives;
        # protons leave shell 4 at 1/3, so each alpha carries one +omega and
        # one -omega proton pole
        assert len(ts.entries) == 6
        omega = hbar_omega(120)
        b2 = HBARC_MEV_FM**2 / (NUCLEON_MASS_MEV * omega)
        expected_strength = (70 / 120) ** 2 * 20 * b2 * (3 + 1) / 2.0
        up = [t for t in ts.for_alpha(1) if t.energy > 0]
        down = [t for t in ts.for_alpha(1) if t.energy < 0]
        assert len(up) == 1 and len(down) == 1
        assert up[0].energy == pytest.approx(omega)
        assert up[0].strength == pytest.approx(expected_strength)
        assert up[0].weight == pytest.approx(1.0 - 10.0 / 30.0)
        assert down[0].weight == pytest.approx(-(1.0 - 10.0 / 30.0))

    def test_deformation_splits_energies(self):
        config = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 4), beta2=0.25)
        ts = classical_transitions(config, fill_occupations(config))
        up = {a: [t.energy for t in ts.for_alpha(a) if t.energy > 0] for a in (1, 2, 3)}
        assert up[1][0] == pytest.approx(up[2][0])
        assert up[3][0] < up[1][0]


class TestQuantumTransitions:
    def test_mirrors_all_alphas(self):
        ts = quantum_transitions([(8.0, 3.0)])
        assert len(ts.entries) == 6
        for alpha in (1, 2, 3):
            pair = ts.for_alpha(alpha)
            assert {t.energy for t in pair} == {8.0, -8.0}
            assert {t.weight for t in pair} == {1.0, -1.0}

    def test_validation(self):
        with pytest.raises(ValidationError):
            quantum_transitions([(-1.0, 3.0)])
        with pytest.raises(ValidationError):
            quantum_transitions([(8.0, -3.0)])


class TestBareResponse:
    def test_single_pole_analytic(self):
        grid = np.linspace(0.0, 20.0, 201)
        ts = TransitionSet((Transition(10.0, 2.5, 1.0, 1),))
        r0 = bare_response(ts, grid, 1.5)
        expected = 2.5 / (grid - 10.0 + 1.5j)
        assert np.allclose(r0[0], expected)
        assert np.allclose(r0[1], 0.0)
        assert np.allclose(r0[2], 0.0)

    def test_antiresonant_pair_is_hermitian_in_energy(self):
        grid = np.linspace(-15.0, 15.0, 301)
        ts = quantum_transitions([(8.0, 3.0)])
        r0 = bare_response(ts, grid, 2.0)[0]
        # R(-E) = conj(R(E)): real part even, imaginary part odd
        assert np.allclose(r0[::-1], np.conj(r0), atol=1e-12)

    def test_gamma_validated(self):
        ts = TransitionSet((Transition(10.0, 2.5),))
        with pytest.raises(ValidationError):
            bare_response(ts, np.linspace(0, 1, 5), 0.0)


class TestDressResponse:
    def test_zero_coupling_is_identity(self):
        grid = np.linspace(5.0, 25.0, 101)
        ts = quantum_transitions([(10.0, 4.0)])
        r0 = bare_response(ts, grid, 2.0)
        assert np.allclose(dress_response(r0, np.zeros(3), grid), r0)

    def test_dressing_formula(self):
        grid = np.linspace(5.0, 25.0, 101)
        ts = quantum_transitions([(10.0, 4.0)])
        r0 = bare_response(ts, grid, 2.0)
        kappas = np.array([0.1, 0.2, 0.3])
        dressed = dress_response(r0, kappas, grid)
        for a in range(3):
            assert np.allclose(dressed[a], r0[a] / (1.0 - kappas[a] * r0[a]))

    def test_pole_crossing_detected(self):
        r0 = np.full((3, 4), 2.0 + 0.0j)
        with pytest.raises(PoleCrossingError):
            dress_response(r0, np.array([0.5, 0.5, 0.5]), grid=np.arange(4.0))

    def test_shape_validated(self):
        with pytest.raises(ValidationError):
            dress_response(np.zeros((2, 4), dtype=complex), np.zeros(3), np.arange(4.0))


class TestCrossSection:
    def test_formula_single_point(self):
        grid = np.array([5.0, 10.0, 15.0])
        r = np.zeros((3, 3), dtype=complex)
        r[0, 1] = -1j  # -Im R = 1 at E = 10 in channel 1
        sigma = cross_section(grid, r)
        expected = 4.0 * math.pi * (E2_MEV_FM / HBARC_MEV_FM) * 10.0 * 1.0 * FM2_TO_MB
        assert sigma[1] == pytest.approx(expected)
        assert sigma[0] == 0.0

    def test_shape_validated(self):
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
