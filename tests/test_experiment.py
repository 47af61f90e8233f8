"""Unit tests for the experiment protocols and their CSV artifacts."""

import statistics
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gdrq.algorithms
import gdrq.encoding
import gdrq.statevector
from gdrq.cli import load_config
from gdrq.encoding import BasisWindow, NucleusConfig, fill_occupations
from gdrq.errors import SchemaError, ValidationError
from gdrq.experiment import (
    QuantumPlan,
    bundled_experiment,
    basis_study,
    collect_runs,
    compare_with_experiment,
    derive_run_seed,
    load_experimental_csv,
    mad,
    mad_series,
    median_spectrum,
    run_classical,
    run_quantum,
    write_basis_csv,
    write_runs_csv,
    write_spectrum_csv,
)
from gdrq.response import ResponseSpectrum, bare_response, classical_transitions, cross_section

SN_CLASSICAL = NucleusConfig(A=120, Z=50, kappa=0.4, basis=BasisWindow(0, 10))
PB_CLASSICAL = NucleusConfig(A=208, Z=82, kappa=0.4, basis=BasisWindow(0, 10))
SN_QUANTUM = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6))
HE4_QUANTUM = NucleusConfig(A=4, Z=2, kappa=0.3, basis=BasisWindow(0, 1), grid_max=60.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestMad:
    def test_hand_values(self):
        assert mad([1.0, 2.0, 3.0, 4.0, 100.0]) == pytest.approx(1.0)
        assert mad([5.0]) == 0.0
        assert mad([2.0, 2.0, 2.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mad([])


class TestRunClassical:
    def test_sn120_golden(self):
        spectrum = run_classical(SN_CLASSICAL)
        assert spectrum.peak_energy == pytest.approx(15.719114979103464, abs=1e-9)
        assert spectrum.width_fwhm == pytest.approx(4.0012100680137035, abs=1e-9)

    def test_pb208_peaks_below_sn120(self):
        pb = run_classical(PB_CLASSICAL)
        assert pb.peak_energy == pytest.approx(13.399132783022148, abs=1e-9)
        assert pb.peak_energy < run_classical(SN_CLASSICAL).peak_energy

    def test_inactive_window_rejected(self):
        config = NucleusConfig(A=120, Z=50, kappa=0.4, basis=BasisWindow(5, 5))
        with pytest.raises(ValidationError):
            run_classical(config)


class TestRunQuantum:
    def test_exact_mode_sn120_golden(self):
        record = run_quantum(SN_QUANTUM, 1, mode="exact")
        assert record.peak_energy == pytest.approx(16.198032176618415, abs=1e-9)
        # both species hop at exactly one oscillator spacing
        up = [t for t in record.transitions.entries if t.energy > 0]
        assert len(up) == 2
        for t in up:
            assert t.energy == pytest.approx(8.312342727283648, abs=1e-9)

    def test_exact_mode_matches_classical_on_shared_window(self):
        record = run_quantum(HE4_QUANTUM, 1, mode="exact")
        grid = HE4_QUANTUM.energy_grid()
        quantum_r0 = bare_response(record.transitions, grid, HE4_QUANTUM.gamma_spread)
        classical_r0 = bare_response(
            classical_transitions(HE4_QUANTUM, fill_occupations(HE4_QUANTUM)),
            grid,
            HE4_QUANTUM.gamma_spread,
        )
        assert np.max(np.abs(quantum_r0 - classical_r0)) < 1e-12

    def test_sampled_mode_is_seed_deterministic(self):
        a = run_quantum(SN_QUANTUM, 42)
        b = run_quantum(SN_QUANTUM, 42)
        assert a.peak_energy == b.peak_energy
        assert np.array_equal(a.spectrum.sigma, b.spectrum.sigma)
        c = run_quantum(SN_QUANTUM, 43)
        assert c.peak_energy != a.peak_energy

    def test_sampled_mode_scatters_around_exact(self):
        exact = run_quantum(SN_QUANTUM, 1, mode="exact").peak_energy
        sampled = run_quantum(SN_QUANTUM, 7).peak_energy
        assert abs(sampled - exact) < 3.0

    def test_window_size_limits(self):
        with pytest.raises(ValidationError):
            run_quantum(
                NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 3)), 1
            )
        with pytest.raises(ValidationError):
            run_quantum(
                NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(0, 6)), 1
            )

    def test_deformed_shape_rejected(self):
        # the nucleus is a spherical oscillator: a deformation cannot be configured
        with pytest.raises(TypeError, match="beta2"):
            NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6), beta2=0.2)


class TestCollectRuns:
    def test_records_are_ordered_and_seeded(self):
        records = collect_runs(SN_QUANTUM, 5, runs=4)
        assert [r.run_index for r in records] == [0, 1, 2, 3]
        assert [r.seed for r in records] == [derive_run_seed(5, i) for i in range(4)]
        assert len({r.seed for r in records}) == 4

    def test_derive_run_seed_is_deterministic(self):
        assert derive_run_seed(5, 0) == derive_run_seed(5, 0)
        assert derive_run_seed(5, 0) != derive_run_seed(5, 1)
        assert derive_run_seed(5, 0) != derive_run_seed(6, 0)
        assert 0 <= derive_run_seed(5, 0) < 2**64

    def test_runs_validated(self):
        with pytest.raises(ValidationError):
            collect_runs(SN_QUANTUM, 5, runs=0)

    @pytest.mark.parametrize("mode", ["sampled", "exact"])
    def test_each_record_equals_its_single_run(self, mode):
        records = collect_runs(SN_QUANTUM, 5, runs=4, mode=mode)
        for i, record in enumerate(records):
            single = run_quantum(SN_QUANTUM, derive_run_seed(5, i), i, mode)
            assert_same_record(record, single)


def assert_same_record(a, b):
    assert (a.run_index, a.seed, a.transitions) == (b.run_index, b.seed, b.transitions)
    assert (a.peak_energy, a.width_fwhm) == (b.peak_energy, b.width_fwhm)
    for field in ("energies", "r0", "r_dressed", "sigma_raw", "sigma"):
        assert np.array_equal(getattr(a.spectrum, field), getattr(b.spectrum, field))


def count_calls(monkeypatch, targets):
    """Count calls to module-level functions, wherever gdrq modules refer to them."""
    counts = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("gdrq")]
    for owner, attr in targets:
        original = getattr(owner, attr)

        def counted(*args, _name=attr, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return counts


class TestQuantumPlan:
    def test_circuit_work_is_done_once_per_config(self, monkeypatch):
        counts = count_calls(
            monkeypatch,
            [
                (gdrq.encoding, "build_hamiltonian"),
                (gdrq.encoding, "build_dipole"),
                (gdrq.algorithms, "lcu_apply"),
                (gdrq.statevector, "apply_unitary"),
            ],
        )
        collect_runs(SN_QUANTUM, 5, runs=1)
        one_run = dict(counts)
        counts.clear()
        collect_runs(SN_QUANTUM, 5, runs=10)
        assert dict(counts) == one_run
        assert one_run["build_hamiltonian"] == 1
        assert one_run["build_dipole"] == 2
        assert one_run["apply_unitary"] > 0

    def test_bad_mode_and_seed_rejected(self):
        plan = QuantumPlan.build(SN_QUANTUM)
        with pytest.raises(ValidationError):
            plan.run(1, mode="bogus")
        with pytest.raises(ValidationError):
            plan.run(-1)


class TestMedianSpectrum:
    def test_pointwise_median_of_runs(self):
        records = collect_runs(SN_QUANTUM, 5, runs=3)
        spectrum = median_spectrum(records)
        stack = np.stack([r.spectrum.sigma for r in records])
        assert np.allclose(spectrum.sigma, np.median(stack, axis=0))
        assert spectrum.energies is records[0].spectrum.energies

    def test_single_run_passthrough(self):
        records = collect_runs(SN_QUANTUM, 5, runs=1)
        spectrum = median_spectrum(records)
        assert np.allclose(spectrum.sigma, records[0].spectrum.sigma)
        assert spectrum.peak_energy == pytest.approx(records[0].peak_energy)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            median_spectrum([])


class TestMadSeries:
    def test_cumulative_statistics_match_stdlib(self):
        records = collect_runs(SN_QUANTUM, 5, runs=6)
        series = mad_series(records)
        e0s = [r.peak_energy for r in records]
        assert series.m == (2, 3, 4, 5, 6)
        for k, m in enumerate(series.m):
            head = e0s[:m]
            center = statistics.median(head)
            assert series.e0_median[k] == pytest.approx(center)
            assert series.delta_e0[k] == pytest.approx(
                statistics.median(abs(v - center) for v in head)
            )

    def test_needs_two_runs(self):
        records = collect_runs(SN_QUANTUM, 5, runs=1)
        with pytest.raises(ValidationError):
            mad_series(records)


class TestBasisStudy:
    def test_wide_windows_agree_small_windows_shift(self):
        windows = [BasisWindow.parse(w) for w in ("0-10", "2-8", "3-6", "4-6", "4-5")]
        rows = basis_study(SN_CLASSICAL, windows)
        assert [r.label for r in rows] == ["0-10", "2-8", "3-6", "4-6", "4-5"]
        e0 = {r.label: r.peak_energy for r in rows}
        assert e0["2-8"] == pytest.approx(e0["0-10"], abs=1e-12)
        assert e0["3-6"] == pytest.approx(e0["0-10"], abs=1e-12)
        assert abs(e0["4-5"] - e0["0-10"]) > 1.0

    def test_empty_window_list_rejected(self):
        with pytest.raises(ValidationError):
            basis_study(SN_CLASSICAL, [])


def trapezoid_sum(values: np.ndarray) -> float:
    """Trapezoid-rule integral over a uniform grid, in units of the step."""
    return float(values.sum() - 0.5 * (values[0] + values[-1]))


class TestTrkSumRule:
    """The separable residual interaction keeps the energy-weighted sum rule.

    So the dressed cross section integrates to the bare one.  The grid is
    widened to 0-400 MeV: on the shipped 5-30 MeV grid the Lorentzian tails
    it cuts off leave ratios of 1.009-1.064.
    """

    @pytest.mark.parametrize("nucleus", ["sn120", "pb208"])
    @pytest.mark.parametrize("path", ["classical 0-10", "classical", "quantum exact"])
    def test_dressing_conserves_integrated_cross_section(self, nucleus, path):
        config = replace(
            load_config(CONFIGS / f"{nucleus}.cfg"), grid_min=0.0, grid_max=400.0, grid_step=0.01
        )
        if path == "classical 0-10":
            spectrum = run_classical(replace(config, kappa=0.4, basis=BasisWindow(0, 10)))
        elif path == "classical":
            spectrum = run_classical(config)
        else:
            spectrum = run_quantum(config, 1, mode="exact").spectrum
        # on a uniform grid the step cancels from the ratio of the two integrals
        dressed = trapezoid_sum(spectrum.sigma_raw)
        bare = trapezoid_sum(cross_section(spectrum.energies, spectrum.r0))
        assert abs(dressed / bare - 1.0) < 1e-4


class TestExperimentalData:
    def test_bundled_curves_peak_at_published_energies(self):
        sn = bundled_experiment("sn120")
        assert sn.energies[0] < 15.4 < sn.energies[-1]
        assert sn.sigma[np.argmax(sn.sigma)] > 200.0
        assert abs(sn.energies[np.argmax(sn.sigma)] - 15.4) < 0.2
        pb = bundled_experiment("pb208")
        assert abs(pb.energies[np.argmax(pb.sigma)] - 13.43) < 0.2
        assert "gamma" in sn.source

    def test_unknown_nucleus_rejected(self):
        with pytest.raises(ValidationError):
            bundled_experiment("ca40")

    def test_loader_round_trip(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(
            "# made up curve\nenergy_mev,sigma_mb\n10,1.5\n11,2.5\n12,1.0\n"
        )
        spec = load_experimental_csv(path)
        assert spec.source == "made up curve"
        assert np.allclose(spec.energies, [10.0, 11.0, 12.0])
        assert np.allclose(spec.sigma, [1.5, 2.5, 1.0])

    @pytest.mark.parametrize(
        "body",
        [
            "energy,sigma\n10,1\n11,2\n12,3\n",  # wrong header
            "energy_mev,sigma_mb\n10,1\n11,2\n",  # too few rows
            "energy_mev,sigma_mb\n10,1\n11,2,9\n12,3\n",  # wrong column count
            "energy_mev,sigma_mb\n10,1\n11,abc\n12,3\n",  # non-numeric
            "energy_mev,sigma_mb\n10,1\n10,2\n12,3\n",  # not increasing
            "energy_mev,sigma_mb\n10,1\n11,-2\n12,3\n",  # negative sigma
            "",  # no header at all
        ],
    )
    def test_loader_schema_errors(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(SchemaError):
            load_experimental_csv(path)


class TestCompareWithExperiment:
    def test_report_fields(self):
        spectrum = run_classical(SN_CLASSICAL)
        report = compare_with_experiment(spectrum, bundled_experiment("sn120"))
        assert report.model_peak == pytest.approx(spectrum.peak_energy)
        assert abs(report.experiment_peak - 15.4) < 0.1
        assert report.peak_offset == pytest.approx(
            report.model_peak - report.experiment_peak
        )
        assert report.height_ratio > 0
        assert report.energies.shape == report.model_sigma.shape

    def test_disjoint_ranges_rejected(self):
        fake = ResponseSpectrum(
            energies=np.linspace(100.0, 110.0, 11),
            r0=np.zeros(11, dtype=complex),
            r_dressed=np.zeros(11, dtype=complex),
            sigma_raw=np.zeros(11),
            sigma=np.zeros(11),
            peak_energy=105.0,
            peak_height=1.0,
            width_fwhm=2.0,
        )
        with pytest.raises(ValidationError):
            compare_with_experiment(fake, bundled_experiment("sn120"))


class TestCsvWriters:
    def test_spectrum_csv_header_and_formatting(self, tmp_path):
        spectrum = run_classical(SN_CLASSICAL)
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(path, spectrum)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "energy_mev,im_r0_1,im_r0_2,im_r0_3,im_r_1,im_r_2,im_r_3,"
            "sigma_raw_mb,sigma_mb"
        )
        assert len(lines) == 1 + spectrum.energies.size
        assert lines[1].startswith("5,")

    def test_rewrites_are_byte_identical(self, tmp_path):
        spectrum = run_classical(SN_CLASSICAL)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_spectrum_csv(a, spectrum)
        write_spectrum_csv(b, spectrum)
        assert a.read_bytes() == b.read_bytes()

    def test_runs_csv_rows(self, tmp_path):
        records = collect_runs(SN_QUANTUM, 5, runs=2)
        path = tmp_path / "runs.csv"
        write_runs_csv(path, records)
        lines = path.read_text().splitlines()
        assert lines[0] == "run_index,seed,e0_mev"
        assert lines[1].split(",")[0] == "0"
        assert lines[1].split(",")[1] == str(derive_run_seed(5, 0))

    def test_basis_csv_rows(self, tmp_path):
        rows = basis_study(SN_CLASSICAL, [BasisWindow(0, 10), BasisWindow(4, 5)])
        path = tmp_path / "basis.csv"
        write_basis_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "label,n_min,n_max,e0_mev,width_mev"
        assert lines[1].startswith("0-10,0,10,")
