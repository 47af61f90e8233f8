"""Unit tests for shell windows, occupations, and qubit encodings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdrq import pauli as pl
from gdrq.encoding import (
    BasisWindow,
    NucleusConfig,
    build_dipole,
    build_hamiltonian,
    fill_occupations,
    hbar_omega,
    jw_annihilation,
    jw_creation,
    oscillator_length,
    shell_capacity,
)
from gdrq.constants import HBARC_MEV_FM, NUCLEON_MASS_MEV
from gdrq.errors import CapacityError, ValidationError


class TestOscillator:
    def test_hbar_omega_reference_values(self):
        assert hbar_omega(120) == pytest.approx(8.312342727283648)
        assert hbar_omega(208) == pytest.approx(6.919840407086428)
        assert hbar_omega(1) == pytest.approx(41.0)
        with pytest.raises(ValidationError):
            hbar_omega(0)

    def test_oscillator_length_defines_b_squared(self):
        b = oscillator_length(120)
        assert b**2 == pytest.approx(HBARC_MEV_FM**2 / (NUCLEON_MASS_MEV * hbar_omega(120)))

    def test_shell_capacities(self):
        assert [shell_capacity(n) for n in range(5)] == [2, 6, 12, 20, 30]
        with pytest.raises(ValidationError):
            shell_capacity(-1)


class TestBasisWindow:
    def test_parse_and_label_round_trip(self):
        w = BasisWindow.parse("3-6")
        assert (w.n_min, w.n_max) == (3, 6)
        assert w.label == "3-6"
        assert w.nqubits == 4
        assert list(w.shells()) == [3, 4, 5, 6]

    def test_parse_validation(self):
        for bad in ("3", "a-b", "3-6-9", "6-3", "-1-2"):
            with pytest.raises(ValidationError):
                BasisWindow.parse(bad)

    def test_bounds_validation(self):
        with pytest.raises(ValidationError):
            BasisWindow(-1, 2)
        with pytest.raises(ValidationError):
            BasisWindow(4, 3)

    @given(st.integers(0, 9), st.integers(0, 9))
    def test_parse_round_trips_all_valid_windows(self, lo, span):
        w = BasisWindow(lo, lo + span)
        assert BasisWindow.parse(w.label) == w


class TestNucleusConfig:
    def test_defaults(self):
        c = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6))
        assert c.n_neutrons == 70
        assert c.shots == 8000 and c.runs == 100
        assert c.gamma_spread == 2.0 and c.calibration == 1.0

    def test_validation_matrix(self):
        good = dict(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6))
        with pytest.raises(ValidationError):
            NucleusConfig(**{**good, "Z": 0})
        with pytest.raises(ValidationError):
            NucleusConfig(**{**good, "A": 50})
        with pytest.raises(ValidationError):
            NucleusConfig(**{**good, "kappa": 2.5})
        with pytest.raises(ValidationError):
            NucleusConfig(**{**good, "gamma_spread": 0.0})
        with pytest.raises(ValidationError):
            NucleusConfig(**{**good, "shots": 0})
        with pytest.raises(ValidationError):
            NucleusConfig(**{**good, "runs": 0})
        with pytest.raises(ValidationError):
            NucleusConfig(**{**good, "grid_min": 30.0})
        with pytest.raises(ValidationError):
            NucleusConfig(**{**good, "calibration": 0.0})
        for field in ("gamma_spread", "grid_min", "grid_max", "grid_step", "calibration"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValidationError, match=f"{field} must be finite"):
                    NucleusConfig(**{**good, field: bad})

    def test_energy_grid_includes_both_endpoints(self):
        c = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6))
        grid = c.energy_grid()
        assert grid[0] == pytest.approx(5.0)
        assert grid[-1] == pytest.approx(30.0)
        assert grid.size == 251
        assert np.allclose(np.diff(grid), 0.1)


def last_occupied(occ):
    """Index of the highest shell that holds any particle (the Fermi level)."""
    return max(shell for shell, n in enumerate(occ) if n > 0)


class TestOccupations:
    def test_sn120_shell_filling(self):
        c = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(0, 6))
        occ = fill_occupations(c)
        # protons: 2 + 6 + 12 + 20 = 40 fill shells 0..3, 10 of 30 in shell 4
        assert occ.protons[:4] == (1.0, 1.0, 1.0, 1.0)
        assert occ.protons[4] == pytest.approx(10.0 / 30.0)
        assert occ.protons[5] == 0.0
        # neutrons: 70 = 2 + 6 + 12 + 20 + 30 exactly
        assert occ.neutrons[:5] == (1.0, 1.0, 1.0, 1.0, 1.0)
        assert occ.neutrons[5] == 0.0

    def test_pb208_fermi_levels(self):
        c = NucleusConfig(A=208, Z=82, kappa=0.5, basis=BasisWindow(0, 6))
        occ = fill_occupations(c)
        # 82 protons: shells 0-4 hold 70, so 12 land in shell 5.
        # 126 neutrons: shells 0-5 hold 112, so 14 spill into shell 6.
        assert last_occupied(occ.protons) == 5
        assert last_occupied(occ.neutrons) == 6

    def test_species_accessors(self):
        c = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(0, 6))
        occ = fill_occupations(c)
        assert occ.occupations("proton") == occ.protons
        assert occ.occupations("neutron") == occ.neutrons
        with pytest.raises(ValidationError):
            occ.occupations("electron")

    def test_capacity_error_when_window_too_small(self):
        c = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(0, 2))
        with pytest.raises(CapacityError):
            fill_occupations(c)

    @given(st.integers(1, 100))
    def test_particle_number_is_conserved(self, z):
        c = NucleusConfig(A=2 * z + 8, Z=z, kappa=0.5, basis=BasisWindow(0, 8))
        occ = fill_occupations(c)
        protons = sum(f * shell_capacity(n) for n, f in enumerate(occ.protons))
        neutrons = sum(f * shell_capacity(n) for n, f in enumerate(occ.neutrons))
        assert protons == pytest.approx(z)
        assert neutrons == pytest.approx(z + 8)


class TestJordanWigner:
    def test_ladder_axes_golden(self):
        adag = jw_creation(1, 3)
        assert [t.axes for t in adag.terms] == ["ZXI", "ZYI"]
        assert adag.terms[0].weight == pytest.approx(0.5)
        assert adag.terms[1].weight == pytest.approx(-0.5j)
        a = jw_annihilation(1, 3)
        assert a.terms[1].weight == pytest.approx(0.5j)

    def test_mode_range_validated(self):
        with pytest.raises(ValidationError):
            jw_creation(3, 3)
        with pytest.raises(ValidationError):
            jw_annihilation(-1, 3)

    @given(st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_canonical_anticommutators(self, i, j):
        n = 4
        ai = pl.dense_matrix(jw_annihilation(i, n))
        adj = pl.dense_matrix(jw_creation(j, n))
        anti = ai @ adj + adj @ ai
        expected = np.eye(2**n) if i == j else np.zeros((2**n, 2**n))
        assert np.max(np.abs(anti - expected)) < 1e-14

    @given(st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_annihilators_anticommute(self, i, j):
        n = 4
        ai = pl.dense_matrix(jw_annihilation(i, n))
        aj = pl.dense_matrix(jw_annihilation(j, n))
        assert np.max(np.abs(ai @ aj + aj @ ai)) < 1e-14

    def test_nilpotency(self):
        for mode in range(3):
            sq = pl.multiply_sums(jw_creation(mode, 3), jw_creation(mode, 3))
            assert len(sq) == 0


class TestHamiltonian:
    def test_window_0_3_render_golden(self):
        h4 = build_hamiltonian(BasisWindow(0, 3), 1.0)
        assert h4.render() == "6.000*I - 0.750*Z0 - 1.250*Z1 - 1.750*Z2 - 2.250*Z3"

    def test_window_0_4_coefficients_exact(self):
        h5 = build_hamiltonian(BasisWindow(0, 4), 1.0)
        assert h5.identity_coefficient() == 8.75
        assert tuple(t.coefficient for t in h5.without_identity().terms) == (
            -0.75,
            -1.25,
            -1.75,
            -2.25,
            -2.75,
        )

    def test_shifted_window_identity(self):
        # window 3-6: identity = sum (N + 1.5)/2 = (4.5 + 5.5 + 6.5 + 7.5)/2 = 12
        h = build_hamiltonian(BasisWindow(3, 6), 1.0)
        assert h.identity_coefficient() == 12.0

    def test_diagonal_matches_occupation_energy(self):
        homega = 2.0
        h = pl.dense_matrix(build_hamiltonian(BasisWindow(1, 3), homega))
        assert np.allclose(h, np.diag(np.diag(h)))
        for index in range(8):
            energy = sum(
                (shell + 1.5) * homega
                for q, shell in enumerate(range(1, 4))
                if (index >> q) & 1
            )
            assert h[index, index].real == pytest.approx(energy)

    def test_homega_validated(self):
        with pytest.raises(ValidationError):
            build_hamiltonian(BasisWindow(0, 2), 0.0)


class TestDipole:
    def test_terms_are_adjacent_two_local(self):
        c = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6))
        d = build_dipole(c.basis, c, "proton")
        for term in d.terms:
            lo, hi = term.support
            assert hi - lo == 1
            assert set(term.axes[lo : hi + 1]) <= {"X", "Y"}

    def test_species_amplitudes_carry_charge_and_degeneracy(self):
        c = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 4))
        b = oscillator_length(120)
        radial = np.sqrt((3 + 1) / 2.0) * b
        dp = pl.dense_matrix(build_dipole(c.basis, c, "proton"))
        assert dp[0b01, 0b10].real == pytest.approx(
            -70 / 120 * np.sqrt(shell_capacity(3)) * radial
        )
        dn = pl.dense_matrix(build_dipole(c.basis, c, "neutron"))
        assert dn[0b01, 0b10].real == pytest.approx(
            50 / 120 * np.sqrt(shell_capacity(3)) * radial
        )
        for dense in (dp, dn):
            assert np.max(np.abs(dense - dense.conj().T)) < 1e-14

    def test_unknown_species_rejected(self):
        c = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6))
        with pytest.raises(ValidationError):
            build_dipole(c.basis, c, "electron")
