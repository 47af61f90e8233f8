"""Unit tests for the experiment protocols and their CSV artifacts."""

import itertools
import re
import statistics
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gdrq.algorithms
import gdrq.encoding
import gdrq.experiment
import gdrq.pauli
import gdrq.statevector
from gdrq.algorithms import LcuCircuit
from gdrq.cli import load_config
from gdrq.encoding import (
    MAX_RUNS,
    BasisWindow,
    NucleusConfig,
    build_dipole,
    build_hamiltonian,
    fill_occupations,
    hbar_omega,
    oscillator_length,
)
from gdrq.errors import SchemaError, ValidationError
from gdrq.experiment import (
    BUNDLED_NUCLEI,
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
from gdrq.response import (
    ResponseSpectrum,
    bare_response,
    classical_transitions,
    cross_section,
    find_peak,
)
from gdrq.statevector import RngStream

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
        message = f"runs must be at most {MAX_RUNS}, got {MAX_RUNS + 1}"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            collect_runs(SN_QUANTUM, 5, runs=MAX_RUNS + 1)

    def test_each_record_equals_its_single_run(self):
        records = collect_runs(SN_QUANTUM, 5, runs=4)
        for i, record in enumerate(records):
            single = run_quantum(SN_QUANTUM, derive_run_seed(5, i), i)
            assert_same_record(record, single)

    def test_peak_summary_is_read_from_the_spectrum(self):
        record = run_quantum(SN_QUANTUM, 1, mode="exact")
        assert record.peak_energy is record.spectrum.peak_energy
        assert record.width_fwhm is record.spectrum.width_fwhm
        with pytest.raises(AttributeError):
            record.peak_energy = 0.0
        with pytest.raises(TypeError, match="peak_energy"):
            replace(record, peak_energy=0.0)


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
        """One Hamiltonian circuit per plan and one dipole circuit per species.  Each
        circuit builds and checks three Unitaries: the prepare unitary, its adjoint
        and one stack of all selected blocks, each block built once; more runs add
        no circuit work and apply the same gates."""
        basis = SN_QUANTUM.basis
        hz = build_hamiltonian(basis, hbar_omega(SN_QUANTUM.A)).without_identity()
        dipoles = [
            build_dipole(basis, SN_QUANTUM, name) * (1.0 / oscillator_length(SN_QUANTUM.A))
            for name in ("proton", "neutron")
        ]
        counts = count_calls(
            monkeypatch,
            [
                (gdrq.encoding, "build_hamiltonian"),
                (gdrq.encoding, "build_dipole"),
                (gdrq.algorithms, "lcu_apply"),
                (gdrq.statevector, "apply_unitary"),
                (gdrq.statevector, "apply_multiplexed"),
            ],
        )
        work = {"circuits": [], "unitaries": [], "matrices": 0}
        init = LcuCircuit.__init__
        build = gdrq.statevector.Unitaries.__init__
        matrix = gdrq.pauli.PauliTerm.matrix

        def counted_matrix(term):
            work["matrices"] += 1
            return matrix(term)

        monkeypatch.setattr(
            LcuCircuit, "__init__", lambda c, op: work["circuits"].append(op) or init(c, op)
        )
        monkeypatch.setattr(
            gdrq.statevector.Unitaries,
            "__init__",
            lambda u, blocks: work["unitaries"].append(np.shape(blocks)) or build(u, blocks),
        )
        monkeypatch.setattr(gdrq.pauli.PauliTerm, "matrix", counted_matrix)
        collect_runs(SN_QUANTUM, 5, runs=1)
        one_run = {**counts, **work}
        counts.clear()
        work.update(circuits=[], unitaries=[], matrices=0)
        collect_runs(SN_QUANTUM, 5, runs=10)
        assert {**counts, **work} == one_run
        # an LCU application is prepare, select, unprepare; its SWAP test two Hadamards
        gates = counts.pop("apply_unitary"), counts.pop("apply_multiplexed")
        assert gates[0] == 4 * gates[1] > 0
        assert counts == {"build_hamiltonian": 1, "build_dipole": 2}
        assert work["circuits"] == [hz, *dipoles]
        expected = []
        for op in work["circuits"]:
            prepare = 2 ** max(1, (len(op) - 1).bit_length())
            expected += [(1, prepare, prepare)] * 2 + [(len(op), 2**op.nqubits, 2**op.nqubits)]
        assert work["unitaries"] == expected
        assert work["matrices"] == sum(len(op) for op in work["circuits"])

    def test_bad_mode_and_seed_rejected(self):
        plan = QuantumPlan.build(SN_QUANTUM)
        with pytest.raises(ValidationError):
            plan.run(1, mode="bogus")
        with pytest.raises(ValidationError):
            plan.run(-1)


def count_seed_sequences(monkeypatch):
    """Spawn keys of every np.random.SeedSequence built from now on."""
    built = []
    original = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(kwargs.get("spawn_key", ()))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    return built


def generators(species: RngStream):
    """The generator of every child of one species' stream, in measurement order."""
    return (species.child(k).generator for k in itertools.count())


def stream_by_stream(plan, seed):
    """The poles at `seed` with every measurement generator from its own RngStream."""
    root = RngStream(seed)
    return plan._measure([generators(root.child(sp.spawn_index)) for sp in plan.species])


# few shots make energy redraws common: seed 3 redraws five times in its first species
REDRAWING = replace(SN_QUANTUM, shots=20)


class TestBatchedStreams:
    def test_collect_runs_builds_no_seed_sequence(self, monkeypatch):
        built = count_seed_sequences(monkeypatch)
        records = collect_runs(SN_QUANTUM, 5, runs=4)
        assert built == []
        assert [r.seed for r in records] == [
            int(np.random.SeedSequence(5, spawn_key=(i,)).generate_state(1, np.uint64)[0])
            for i in range(4)
        ]

    def test_exact_run_hashes_nothing(self, monkeypatch):
        built = count_seed_sequences(monkeypatch)
        counts = count_calls(monkeypatch, [(gdrq.statevector, "seed_states")])
        run_quantum(SN_QUANTUM, 1, mode="exact")
        assert built == [] and counts["seed_states"] == 0
        run_quantum(SN_QUANTUM, 1)
        assert built == [] and counts["seed_states"] == 1

    @pytest.mark.parametrize(
        "config, seed", [(SN_QUANTUM, 5), (SN_QUANTUM, 2**64 + 1), (HE4_QUANTUM, 0)]
    )
    def test_batch_equals_one_rng_stream_per_measurement(self, config, seed):
        plan = QuantumPlan.build(config)
        assert plan.transitions([seed]) == [stream_by_stream(plan, seed)]

    def test_streams_past_the_planned_ones_are_hashed_alike(self, monkeypatch):
        plan = QuantumPlan.build(REDRAWING)
        counts = count_calls(monkeypatch, [(gdrq.statevector, "seed_states")])
        (transitions,) = plan.transitions([3])
        # one pass for the planned streams, one row for each stream past them
        assert counts["seed_states"] == 1 + 5
        assert transitions == stream_by_stream(plan, 3)

    def test_run_seeds_follow_numpy_seed_sequence(self):
        for master in (0, 5, 2**32, 2**64 + 3, 2**130):
            records = collect_runs(SN_QUANTUM, master, runs=3)
            for i, record in enumerate(records):
                expected = np.random.SeedSequence(master, spawn_key=(i,))
                word = int(expected.generate_state(1, np.uint64)[0])
                assert record.seed == derive_run_seed(master, i) == word

    def test_records_are_a_prefix_of_a_longer_ensemble(self):
        short = collect_runs(SN_QUANTUM, 11, runs=7)
        long = collect_runs(SN_QUANTUM, 11, runs=20)
        for a, b in zip(short, long[:7], strict=True):
            assert_same_record(a, b)


class TestSeedAndRunValidation:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: collect_runs(SN_QUANTUM, -1),
            lambda: collect_runs(SN_QUANTUM, 1.5),
            lambda: collect_runs(SN_QUANTUM, True),
            lambda: collect_runs(SN_QUANTUM, 5, runs=2.7),
            lambda: collect_runs(SN_QUANTUM, 5, runs=True),
            lambda: collect_runs(SN_QUANTUM, 5, runs=-3),
            lambda: QuantumPlan.build(SN_QUANTUM).run(1.5),
            lambda: QuantumPlan.build(SN_QUANTUM).run(True, mode="exact"),
            lambda: run_quantum(SN_QUANTUM, -2, mode="exact"),
            lambda: derive_run_seed(-1, 0),
            lambda: derive_run_seed(5, 0.5),
            lambda: QuantumPlan.build(SN_QUANTUM).run(1, run_index=-2.5, mode="exact"),
            lambda: QuantumPlan.build(SN_QUANTUM).run(1, run_index=1.5),
            lambda: run_quantum(SN_QUANTUM, 1, run_index=-1, mode="exact"),
            lambda: run_quantum(SN_QUANTUM, 1, run_index=True),
        ],
        ids=[
            "master-negative",
            "master-float",
            "master-bool",
            "runs-float",
            "runs-bool",
            "runs-negative",
            "plan-seed-float",
            "plan-exact-seed-bool",
            "run-quantum-exact-negative",
            "derive-master-negative",
            "derive-index-float",
            "plan-run-index-negative-float",
            "plan-run-index-float",
            "run-quantum-run-index-negative",
            "run-quantum-run-index-bool",
        ],
    )
    def test_non_integer_or_negative_refused_in_one_line(self, call):
        with pytest.raises(ValidationError, match="must be a non-negative integer") as info:
            call()
        assert "\n" not in str(info.value)


class TestEnsembleMemo:
    """collect_runs keeps its last ensemble, keyed by (config, master seed, run count)."""

    def test_repeated_call_returns_the_same_records(self):
        records = collect_runs(SN_QUANTUM, 5, runs=3)
        assert collect_runs(SN_QUANTUM, 5, runs=3) is records
        assert collect_runs(SN_QUANTUM, np.int64(5), runs=np.int64(3)) is records

    @pytest.mark.parametrize(
        "config, seed, runs",
        [
            (SN_QUANTUM, 6, 3),
            (SN_QUANTUM, 5, 4),
            (replace(SN_QUANTUM, kappa=0.6), 5, 3),
            (replace(SN_QUANTUM, shots=4000), 5, 3),
        ],
        ids=["seed", "runs", "kappa", "shots"],
    )
    def test_a_changed_key_misses(self, config, seed, runs):
        first = collect_runs(SN_QUANTUM, 5, runs=3)
        records = collect_runs(config, seed, runs=runs)
        assert records is not first
        gdrq.experiment._ensemble.cache_clear()
        for a, b in zip(records, collect_runs(config, seed, runs=runs), strict=True):
            assert_same_record(a, b)

    def test_only_the_last_ensemble_is_kept(self):
        first = collect_runs(SN_QUANTUM, 5, runs=2)
        collect_runs(SN_QUANTUM, 6, runs=2)
        again = collect_runs(SN_QUANTUM, 5, runs=2)
        assert again is not first
        assert collect_runs(SN_QUANTUM, 5, runs=2) is again
        assert gdrq.experiment._ensemble.cache_info().currsize == 1

    @pytest.mark.parametrize(
        "seed, runs", [(True, 2), (1.0, 2), (1, True)], ids=["seed-bool", "seed-float", "runs-bool"]
    )
    def test_a_kept_ensemble_does_not_answer_an_invalid_call(self, seed, runs):
        collect_runs(SN_QUANTUM, 1, runs=2)
        with pytest.raises(ValidationError, match="must be a non-negative integer") as info:
            collect_runs(SN_QUANTUM, seed, runs=runs)
        assert "\n" not in str(info.value)


SPECTRUM_ARRAYS = ("energies", "r0", "r_dressed", "sigma_raw", "sigma")


class TestReadOnlySpectra:
    @pytest.mark.parametrize(
        "spectrum",
        [
            lambda: collect_runs(SN_QUANTUM, 5, runs=2)[1].spectrum,
            lambda: run_quantum(SN_QUANTUM, 5, mode="exact").spectrum,
            lambda: run_classical(SN_CLASSICAL),
            lambda: median_spectrum(collect_runs(SN_QUANTUM, 5, runs=3)),
        ],
        ids=["collect-runs", "exact-run", "classical", "median"],
    )
    @pytest.mark.parametrize("field", SPECTRUM_ARRAYS)
    def test_arrays_refuse_writes(self, spectrum, field):
        array = getattr(spectrum(), field)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


class TestMedianSpectrum:
    def test_pointwise_median_of_runs(self):
        records = collect_runs(SN_QUANTUM, 5, runs=3)
        spectrum = median_spectrum(records)
        stack = np.stack([r.spectrum.sigma for r in records])
        assert np.allclose(spectrum.sigma, np.median(stack, axis=0))
        assert spectrum.energies is records[0].spectrum.energies

    def test_median_is_a_batch_of_one_like_any_spectrum(self, monkeypatch):
        records = collect_runs(SN_QUANTUM, 5, runs=4)
        batches = []
        original = gdrq.experiment.spectrum_rows

        def counted(grid, *batch):
            batches.append([np.shape(array) for array in batch])
            return original(grid, *batch)

        monkeypatch.setattr(gdrq.experiment, "spectrum_rows", counted)
        spectrum = median_spectrum(records)
        assert batches == [[(1, spectrum.energies.size)] * 4]
        assert (spectrum.peak_energy, spectrum.peak_height, spectrum.width_fwhm) == find_peak(
            spectrum.energies, spectrum.sigma
        )

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
        with pytest.raises(ValidationError) as info:
            bundled_experiment("ca40")
        assert str(info.value) == "no bundled data for 'ca40'; options: ['pb208', 'sn120']"

    def test_every_bundled_nucleus_has_its_curve(self):
        for name in BUNDLED_NUCLEI.values():
            assert len(bundled_experiment(name.upper()).energies) >= 3

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_cell_refused(self, tmp_path, column, value):
        cells = ["12", "3"]
        cells[column] = value
        path = tmp_path / "bad.csv"
        path.write_text(f"energy_mev,sigma_mb\n10,1\n11,2\n{','.join(cells)}\n13,4\n")
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}:4: non-finite cell$"):
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

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    @example(-0.0)
    @example(5e-324)
    @example(sys.float_info.max)
    def test_percent_template_matches_format(self, value):
        assert "%.9g" % value == format(value, ".9g")

    def test_spectrum_cells_are_nine_significant_digits(self, tmp_path):
        values = np.array([5.0, -0.0, 5e-324, np.inf, -np.inf, np.nan, 1 / 3, 1e300])
        r0, r_dressed = np.zeros((2, values.size), dtype=complex)
        r0.imag, r_dressed.imag = values[::-1], values * 2
        spectrum = ResponseSpectrum(
            energies=values,
            r0=r0,
            r_dressed=r_dressed,
            sigma_raw=values / 7,
            sigma=values[::-1],
            peak_energy=0.0,
            peak_height=0.0,
            width_fwhm=0.0,
        )
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(path, spectrum)
        columns = zip(
            spectrum.energies, spectrum.r0.imag, spectrum.r_dressed.imag,
            spectrum.sigma_raw, spectrum.sigma,
        )
        expected = [
            ",".join(format(float(v), ".9g") for v in (e, a, a, a, b, b, b, raw, sigma))
            for e, a, b, raw, sigma in columns
        ]
        assert path.read_text().splitlines()[1:] == expected

    def test_basis_csv_rows(self, tmp_path):
        rows = basis_study(SN_CLASSICAL, [BasisWindow(0, 10), BasisWindow(4, 5)])
        path = tmp_path / "basis.csv"
        write_basis_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "label,n_min,n_max,e0_mev,width_mev"
        assert lines[1].startswith("0-10,0,10,")
