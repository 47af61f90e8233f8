"""Unit tests for shell windows, occupations, and qubit encodings."""

import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdrq import pauli as pl
from gdrq.encoding import (
    MAX_GRID_POINTS,
    MAX_RUNS,
    MAX_SHELL,
    MAX_SHOTS,
    BasisWindow,
    NucleusConfig,
    build_dipole,
    build_hamiltonian,
    effective_charge,
    fill_occupations,
    hbar_omega,
    oscillator_length,
    shell_capacity,
)
from gdrq.cli import load_config
from gdrq.constants import HBARC_MEV_FM, NUCLEON_MASS_MEV
from gdrq.errors import CapacityError, ValidationError
from ladders import (
    hop_operator,
    jw_annihilation,
    jw_creation,
    number_operator,
    term_dipole,
    term_hamiltonian,
)
from test_golden import CONFIGS, exact_windows


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
        assert BasisWindow(0, MAX_SHELL).n_max == MAX_SHELL == 100

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ((3.5, 6), "n_min must be a non-negative integer, got 3.5"),
            ((3, 6.0), "n_max must be a non-negative integer, got 6.0"),
            ((True, 6), "n_min must be a non-negative integer, got True"),
            ((-1.5, 6), "n_min must be a non-negative integer, got -1.5"),
            ((6, 3.5), "n_max must be a non-negative integer, got 3.5"),
            ((3, 2.5), "n_max must be a non-negative integer, got 2.5"),
            (("1", 3), "n_min must be a non-negative integer, got '1'"),
            ((1, "3"), "n_max must be a non-negative integer, got '3'"),
            ((-1, 2), "n_min must be a non-negative integer, got -1"),
            ((4, 3), "bad shell window [4, 3]"),
            ((0, MAX_SHELL + 1), f"n_max must be at most {MAX_SHELL}, got {MAX_SHELL + 1}"),
            ((999999995, 999999999), f"n_max must be at most {MAX_SHELL}, got 999999999"),
        ],
    )
    def test_bounds_are_integers(self, bounds, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            BasisWindow(*bounds)

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
        with pytest.raises(ValidationError, match="points exceeds"):
            NucleusConfig(**{**good, "grid_step": 1e-15})
        with pytest.raises(ValidationError, match="inf points exceeds"):
            NucleusConfig(**{**good, "grid_min": -1e308, "grid_max": 1e308})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("runs", 2.5, "runs must be a non-negative integer, got 2.5"),
            ("shots", 100.5, "shots must be a non-negative integer, got 100.5"),
            ("shots", 8000.0, "shots must be a non-negative integer, got 8000.0"),
            ("Z", True, "Z must be a non-negative integer, got True"),
            ("A", np.float64(120.0), "A must be a non-negative integer, got np.float64(120.0)"),
            ("runs", np.bool_(True), "runs must be a non-negative integer, got np.True_"),
            ("shots", -5, "shots must be a non-negative integer, got -5"),
            ("shots", MAX_SHOTS + 1, f"shots must be at most {MAX_SHOTS}, got {MAX_SHOTS + 1}"),
            ("runs", MAX_RUNS + 1, f"runs must be at most {MAX_RUNS}, got {MAX_RUNS + 1}"),
        ],
    )
    def test_integer_fields_are_integers_in_range(self, field, value, message):
        good = dict(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            NucleusConfig(**{**good, field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("basis", "3-6", "basis must be a BasisWindow, got '3-6'"),
            ("basis", (3, 6), "basis must be a BasisWindow, got (3, 6)"),
            ("kappa", "0.5", "kappa must be a real number, got '0.5'"),
            ("kappa", True, "kappa must be a real number, got True"),
            ("gamma_spread", "2", "gamma_spread must be a real number, got '2'"),
            ("grid_step", None, "grid_step must be a real number, got None"),
            ("calibration", 1j, "calibration must be a real number, got 1j"),
        ],
    )
    def test_window_and_float_fields_have_their_types(self, field, value, message):
        """Python callers can pass what a config file cannot; each such value is
        one line, not a TypeError or a failure later on."""
        good = dict(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            NucleusConfig(**{**good, field: value})

    def test_numpy_and_integer_reals_are_accepted(self):
        c = NucleusConfig(
            A=120, Z=50, kappa=np.float32(0.5), basis=BasisWindow(3, 6), gamma_spread=2
        )
        assert c.kappa == 0.5 and c.gamma_spread == 2
        assert NucleusConfig(A=120, Z=50, kappa=np.int64(1), basis=BasisWindow(3, 6)).kappa == 1

    def test_largest_shot_count_is_accepted(self):
        c = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6), shots=MAX_SHOTS)
        assert c.shots == 2**63 - 1
        assert replace(c, runs=MAX_RUNS).runs == 100_000
        assert NucleusConfig(A=np.int64(120), Z=50, kappa=0.5, basis=BasisWindow(3, 6)).A == 120

    def test_grid_point_bound_is_inclusive(self):
        good = dict(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6), grid_min=0.0, grid_step=1.0)
        largest = NucleusConfig(**good, grid_max=MAX_GRID_POINTS - 1.0)
        assert largest.energy_grid().size == MAX_GRID_POINTS
        with pytest.raises(ValidationError, match=f"{MAX_GRID_POINTS + 1} points"):
            NucleusConfig(**good, grid_max=float(MAX_GRID_POINTS))

    def test_energy_grid_includes_both_endpoints(self):
        c = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6))
        grid = c.energy_grid()
        assert grid[0] == pytest.approx(5.0)
        assert grid[-1] == pytest.approx(30.0)
        assert grid.size == 251
        assert np.allclose(np.diff(grid), 0.1)

    def test_energy_grid_stops_before_max_when_step_does_not_divide_span(self):
        c = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6), grid_step=0.6)
        grid = c.energy_grid()
        assert grid.size == 42
        assert grid[-1] == pytest.approx(29.6)
        assert grid[-1] <= c.grid_max


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

    def test_effective_charge(self):
        c = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6))
        assert effective_charge(c, "proton") == -70 / 120
        assert effective_charge(c, "neutron") == 50 / 120
        with pytest.raises(ValidationError, match="^species must be 'proton' or 'neutron', got 'electron'$"):
            effective_charge(c, "electron")


def term_bits(op):
    """Each term's axes, coefficient bits and phase: equal only if bit-identical."""
    return [(t.axes, struct.pack("<d", t.coefficient), t.phase) for t in op.terms]


def ladder_number(q, n):
    return pl.multiply_sums(jw_creation(q, n), jw_annihilation(q, n))


def ladder_hop(q, n):
    up = pl.multiply_sums(jw_creation(q + 1, n), jw_annihilation(q, n))
    down = pl.multiply_sums(jw_creation(q, n), jw_annihilation(q + 1, n))
    return pl.PauliSum(n, up.terms + down.terms)


def ladder_hamiltonian(basis, homega):
    """The window Hamiltonian composed from ladder products, one shell at a time."""
    total = pl.PauliSum(basis.nqubits)
    for q, shell in enumerate(basis.shells()):
        scaled = ladder_number(q, basis.nqubits) * ((shell + 1.5) * homega)
        total = pl.PauliSum(basis.nqubits, total.terms + scaled.terms)
    return total


def ladder_dipole(config, species):
    """One species' dipole composed from ladder products, one hop at a time."""
    basis = config.basis
    charge = -config.n_neutrons / config.A if species == "proton" else config.Z / config.A
    b = oscillator_length(config.A)
    total = pl.PauliSum(basis.nqubits)
    for q, shell in enumerate(list(basis.shells())[:-1]):
        amplitude = charge * math.sqrt(shell_capacity(shell)) * math.sqrt((shell + 1) / 2.0) * b
        scaled = ladder_hop(q, basis.nqubits) * amplitude
        total = pl.PauliSum(basis.nqubits, total.terms + scaled.terms)
    return total


NUCLEI = {"sn120": (120, 50), "pb208": (208, 82)}
WINDOWS = [(nucleus, label) for nucleus, labels in sorted(exact_windows().items()) for label in labels]


class TestClosedForms:
    """The closed-form number and hop operators are the ladder products, bit for bit."""

    @pytest.mark.parametrize("nucleus, label", WINDOWS)
    def test_equal_ladder_products_on_exact_scan_windows(self, nucleus, label):
        a, z = NUCLEI[nucleus]
        basis = BasisWindow.parse(label)
        config = NucleusConfig(A=a, Z=z, kappa=0.5, basis=basis)
        n = basis.nqubits
        for q in range(n):
            closed = pl.PauliSum(n, number_operator(q, n, 1.0))
            assert term_bits(closed) == term_bits(ladder_number(q, n))
        for q in range(n - 1):
            assert term_bits(pl.PauliSum(n, hop_operator(q, n, 1.0))) == term_bits(ladder_hop(q, n))
        homega = hbar_omega(a)
        assert term_bits(build_hamiltonian(basis, homega)) == term_bits(
            ladder_hamiltonian(basis, homega)
        )
        for species in ("proton", "neutron"):
            assert term_bits(build_dipole(basis, config, species)) == term_bits(
                ladder_dipole(config, species)
            )

    def test_mode_range_validated(self):
        with pytest.raises(ValidationError):
            number_operator(3, 3, 1.0)
        with pytest.raises(ValidationError):
            hop_operator(2, 3, 1.0)
        with pytest.raises(ValidationError):
            hop_operator(-1, 3, 1.0)


# every window from 0-1 to 0-12, then every 2-5 shell window from n_min 0-7
COLUMN_WINDOWS = [f"0-{hi}" for hi in range(1, 13)] + [
    f"{lo}-{lo + shells - 1}" for shells in range(2, 6) for lo in range(8)
]


class TestColumns:
    """The window operators, emitted as columns, equal the merge of their
    closed-form terms (see ladders), bit for bit."""

    @pytest.mark.parametrize("nucleus", ["sn120", "pb208"])
    def test_equal_the_merged_terms(self, nucleus):
        config = load_config(CONFIGS / f"{nucleus}.cfg")
        homega = hbar_omega(config.A)
        for label in COLUMN_WINDOWS:
            basis = BasisWindow.parse(label)
            window = replace(config, basis=basis)
            pairs = [(build_hamiltonian(basis, homega), term_hamiltonian(basis, homega))]
            pairs += [
                (build_dipole(basis, window, species), term_dipole(basis, window, species))
                for species in ("proton", "neutron")
            ]
            for columns, terms in pairs:
                assert term_bits(columns) == term_bits(terms), label
                assert columns == terms, label
