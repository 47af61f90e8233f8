"""Unit tests for the experiment protocols and their CSV artifacts."""

import copy
import math
import operator
import pickle
import re
import statistics
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gdrq.algorithms
import gdrq.cli
import gdrq.encoding
import gdrq.experiment
import gdrq.pauli
import gdrq.statevector
from gdrq.algorithms import MAX_ATTEMPTS, LcuCircuit, LcuOverlap, SwapStatistics
from gdrq.cli import load_config
from gdrq.encoding import (
    MAX_RUNS,
    BasisWindow,
    NucleusConfig,
    OccupationTable,
    build_dipole,
    build_hamiltonian,
    fill_occupations,
    hbar_omega,
    oscillator_length,
)
from gdrq.errors import (
    CapacityError,
    DegenerateSpectrumError,
    GdrqError,
    SchemaError,
    ValidationError,
)
from gdrq.experiment import (
    BUNDLED_NUCLEI,
    Ensemble,
    ExperimentalSpectrum,
    QuantumPlan,
    RunRecord,
    bundled_experiment,
    basis_study,
    collect_runs,
    compare_with_experiment,
    derive_run_seed,
    load_experimental_csv,
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
    TransitionSet,
    bare_response,
    classical_transitions,
    cross_section,
    find_peak,
)
from gdrq.statevector import RngStream
from oracles import closed_form_plan, mirrored
from test_golden import plan_windows

SN_CLASSICAL = NucleusConfig(A=120, Z=50, kappa=0.4, basis=BasisWindow(0, 10))
PB_CLASSICAL = NucleusConfig(A=208, Z=82, kappa=0.4, basis=BasisWindow(0, 10))
SN_QUANTUM = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6))
HE4_QUANTUM = NucleusConfig(A=4, Z=2, kappa=0.3, basis=BasisWindow(0, 1), grid_max=60.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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

    def test_each_pole_is_followed_by_its_mirror(self):
        # one pole and its antiresonant mirror per species stand for all three components
        poles = run_quantum(SN_QUANTUM, 7).transitions.entries
        assert len(poles) == 4
        for pole, mirror in zip(poles[::2], poles[1::2]):
            assert (pole.weight, mirror.weight) == (1.0, -1.0)
            assert pole.energy > 0 and mirror.energy == -pole.energy
            assert mirror.strength == pole.strength

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

    @pytest.mark.parametrize("name", ["sn120", "pb208"])
    def test_each_record_equals_its_single_run(self, name):
        config = load_config(CONFIGS / f"{name}.cfg")
        records = collect_runs(config, 5, runs=4)
        for i, record in enumerate(records):
            single = run_quantum(config, derive_run_seed(5, i), i)
            assert_same_record(record, single)

    @pytest.mark.parametrize(
        "boundary, expected",
        [((1.0, 60.0), "E = 5.0000"), ((60.0, 1.0), "E = 30.0000")],
        ids=["left-row-first", "right-row-first"],
    )
    def test_first_boundary_run_of_a_block_raises_its_own_error(
        self, monkeypatch, boundary, expected
    ):
        """Runs 1 and 2 of a block measure every excitation, of 40 fm^2, far
        below or above the grid, which puts sigma's maximum on an edge: the
        peaks are found run by run, so the first of them raises."""
        measure = QuantumPlan._measure

        def measured(plan, shots, seeds, exact=False):
            rows = measure(plan, shots, seeds, exact)
            rows[1:3] = [[(e, 40.0)] * len(plan.species) for e in boundary]
            return rows

        monkeypatch.setattr(QuantumPlan, "_measure", measured)
        gdrq.experiment._ensemble.cache_clear()
        with pytest.raises(DegenerateSpectrumError, match=expected) as info:
            collect_runs(SN_QUANTUM, 5, runs=4)
        assert "\n" not in str(info.value)

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
        """One Hamiltonian circuit per plan and one dipole circuit per species, each
        built with one checked Unitaries, the prepare reflection, which also
        unprepares and is checked on its first column, and one check of its
        select entries' moduli, a (terms, 2^n) array read with the operator's
        one table; nothing gets the dense Gram check, and no dense select stack
        is made.  The Hamiltonian circuit runs once, over a batch of every
        configuration; each dipole circuit once, on its species' reference; and
        every SWAP test in one batch.  The plan is kept, so a later ensemble of
        the config, at more runs, does no circuit work at all.  Circuits are
        counted, not gates: each lays out its own register."""
        basis = SN_QUANTUM.basis
        hz = build_hamiltonian(basis, hbar_omega(SN_QUANTUM.A)).without_identity()
        dipoles = [
            build_dipole(basis, SN_QUANTUM, name) * (1.0 / oscillator_length(SN_QUANTUM.A))
            for name in ("proton", "neutron")
        ]
        species = len(QuantumPlan.build(SN_QUANTUM).species)
        assert species == 2
        counts = count_calls(
            monkeypatch,
            [
                (gdrq.encoding, "build_hamiltonian"),
                (gdrq.encoding, "build_dipole"),
                (gdrq.algorithms, "lcu_apply"),
            ],
        )
        lists = ("circuits", "applied", "swaps", "unitaries", "moduli", "grams", "tables")
        work = {**{name: [] for name in lists}, "matrices": 0}
        init, apply = LcuCircuit.__init__, LcuCircuit.apply
        swap_statistics = gdrq.experiment.swap_statistics
        build = gdrq.statevector.Unitaries.__init__
        check_moduli = gdrq.algorithms.check_unit_moduli
        reflection = gdrq.statevector.Unitaries.reflection
        compile_table = gdrq.pauli.permutation_table
        matrix = gdrq.pauli.PauliTerm.matrix

        def counted_matrix(term):
            work["matrices"] += 1
            return matrix(term)

        def counted_reflection(column):
            stack = reflection(column)
            work["unitaries"].append(stack.blocks.shape)
            return stack

        monkeypatch.setattr(
            gdrq.pauli,
            "permutation_table",
            lambda op: work["tables"].append(op) or compile_table(op),
        )
        monkeypatch.setattr(
            LcuCircuit, "__init__", lambda c, op: work["circuits"].append(op) or init(c, op)
        )
        monkeypatch.setattr(
            LcuCircuit,
            "apply",
            lambda c, psi: work["applied"].append((c.op, psi.amplitudes.shape)) or apply(c, psi),
        )
        monkeypatch.setattr(
            gdrq.experiment,
            "swap_statistics",
            lambda psi, phi: work["swaps"].append(psi.amplitudes.shape)
            or swap_statistics(psi, phi),
        )
        monkeypatch.setattr(
            gdrq.statevector.Unitaries,
            "__init__",
            lambda u, blocks: work["grams"].append(np.shape(blocks)) or build(u, blocks),
        )
        monkeypatch.setattr(
            gdrq.algorithms,
            "check_unit_moduli",
            lambda entries: work["moduli"].append(entries.shape) or check_moduli(entries),
        )
        monkeypatch.setattr(
            gdrq.statevector.Unitaries, "reflection", staticmethod(counted_reflection)
        )
        monkeypatch.setattr(gdrq.pauli.PauliTerm, "matrix", counted_matrix)
        collect_runs(SN_QUANTUM, 5, runs=1)
        dim = 2**basis.nqubits
        configurations = 2 * species
        assert work["applied"] == [(hz, (configurations, dim)), *((op, (dim,)) for op in dipoles)]
        # every energy pair and every strength pair
        assert work["swaps"] == [(configurations + species, dim)]
        assert counts == {"build_hamiltonian": 1, "build_dipole": 2}
        assert work["circuits"] == [hz, *dipoles]
        prepares = [2 ** max(1, (len(op) - 1).bit_length()) for op in work["circuits"]]
        assert work["unitaries"] == [(1, dim, dim) for dim in prepares]
        assert work["moduli"] == [(len(op), 2**op.nqubits) for op in work["circuits"]]
        assert work["grams"] == []
        # each circuit operator compiles one table, which pauli.apply and the
        # select share; no dense term matrix is built
        assert work["tables"] == work["circuits"]
        assert work["matrices"] == 0
        counts.clear()
        idle = {**{name: [] for name in lists}, "matrices": 0}
        work.update(idle)
        collect_runs(SN_QUANTUM, 5, runs=10)
        assert sum(counts.values()) == 0
        assert work == idle

    def test_a_build_makes_no_pauli_term(self, monkeypatch):
        """The window operators are columns from their closed forms to the LCU
        circuits: building a plan of either nucleus makes no PauliTerm."""
        made = []
        post_init = gdrq.pauli.PauliTerm.__post_init__
        monkeypatch.setattr(
            gdrq.pauli.PauliTerm, "__post_init__", lambda t: made.append(t.axes) or post_init(t)
        )
        for config in (SN_QUANTUM, replace(PB_CLASSICAL, basis=BasisWindow(4, 7))):
            QuantumPlan.build(config)
        assert made == []
        # the spy sees a term that is made
        gdrq.pauli.PauliTerm(1.0, "XZ")
        assert made == ["XZ"]

    def test_bad_mode_and_seed_rejected(self):
        with pytest.raises(ValidationError):
            run_quantum(SN_QUANTUM, 1, mode="bogus")
        with pytest.raises(ValidationError):
            run_quantum(SN_QUANTUM, -1)


def nuclei():
    """(A, Z) with 2 <= A <= 398 and 1 <= Z < A."""
    return st.integers(2, 398).flatmap(lambda a: st.tuples(st.just(a), st.integers(1, a - 1)))


def exact_poles(plan, shots):
    """The poles of an exact run, without dressing them into a spectrum."""
    (measured,) = plan._measure(shots, [0], exact=True)
    return mirrored(measured.tolist()).entries


class TestOneTransitionPerSpecies:
    """Shells fill bottom-up, so a species' full window shells are the window's
    first ones, and the dipole reaches one configuration from them: the top
    full shell's particle one shell up.  A plan holds that one transition for
    each species whose window is neither all full nor all empty."""

    @settings(max_examples=200, deadline=None)
    @given(nuclei(), st.integers(0, 8), st.integers(2, 5))
    @example((120, 50), 3, 4)
    @example((208, 82), 3, 4)
    @example((4, 2), 2, 2)
    @example((208, 82), 0, 2)
    def test_full_shells_lead_and_each_partial_species_has_one_transition(
        self, nucleus, n_min, shells
    ):
        a, z = nucleus
        config = NucleusConfig(A=a, Z=z, kappa=0.5, basis=BasisWindow(n_min, n_min + shells - 1))
        try:
            occupations = fill_occupations(config)
        except CapacityError:
            with pytest.raises(CapacityError):
                QuantumPlan.build(config)
            return
        partial = []
        for index, name in enumerate(("proton", "neutron")):
            occ = occupations.occupations(name)
            full = [occ[shell] == 1.0 for shell in config.basis.shells()]
            count = sum(full)
            assert full == [True] * count + [False] * (shells - count)
            if 0 < count < shells:
                partial.append(index)
        if not partial:
            with pytest.raises(ValidationError, match="no dipole-active pair"):
                QuantumPlan.build(config)
            return
        plan = QuantumPlan.build(config)
        assert [sp.spawn_index for sp in plan.species] == partial
        # one pole and its mirror per species, one shell (hbar*omega) up
        poles = exact_poles(plan, config.shots)
        assert len(poles) == 2 * len(partial)
        for pole in poles:
            assert pole.energy * pole.weight == pytest.approx(hbar_omega(a), rel=1e-9)


def full_shells_only(occupations: OccupationTable) -> OccupationTable:
    """The occupation table with every partly filled shell set to empty."""
    protons, neutrons = (
        tuple(float(n == 1.0) for n in occ) for occ in (occupations.protons, occupations.neutrons)
    )
    return OccupationTable(protons, neutrons)


class TestExactQuantumEqualsClassicalOnFullShells:
    """Exact quantum poles are the classical ones of the occupations with every
    partly filled shell emptied, since a plan counts only full shells.  Poles
    are paired by (weight, strength): the two paths' energies agree to ~1e-14
    only, so sorting on energy first would mix up the species."""

    WINDOWS = [BasisWindow(lo, lo + shells - 1) for shells in range(2, 6) for lo in range(8)]

    @pytest.mark.parametrize("name, compared", [("sn120", 14), ("pb208", 10)])
    def test_shipped_config_on_every_small_window(self, name, compared):
        shipped = load_config(CONFIGS / f"{name}.cfg")
        assert shipped.basis in self.WINDOWS
        seen = 0
        for window in self.WINDOWS:
            config = replace(shipped, basis=window)
            try:
                occupations = fill_occupations(config)
            except CapacityError:
                continue
            classical = classical_transitions(config, full_shells_only(occupations)).entries
            try:
                quantum = run_quantum(config, 1, mode="exact").transitions.entries
            except ValidationError as exc:
                assert "no dipole-active pair" in str(exc) and classical == ()
                continue
            seen += 1
            key = operator.attrgetter("weight", "strength")
            assert len(quantum) == len(classical)
            for q, c in zip(sorted(quantum, key=key), sorted(classical, key=key)):
                assert q.weight == c.weight
                assert q.energy == pytest.approx(c.energy, rel=1e-9)
                assert q.strength == pytest.approx(c.strength, rel=1e-9)
        assert seen == compared


def stream_by_stream(plan, seed, shots, exact=False):
    """The poles at `seed`, measured step by step with the plan's LcuOverlaps:
    measurement k of species s draws on its own RngStream(seed, (s, k)), and
    the strength's SWAP shots are always drawn.  Exact, every step reads its
    analytic value instead."""
    root, b = RngStream(seed), plan.length
    measured = []
    for sp in plan.species:
        stream = root.child(sp.spawn_index)
        draw = (lambda k: None) if exact else (lambda k: stream.child(k).generator)
        e_ref = sp.reference.sign * sp.reference.statistics.energy(shots, draw(0))
        for k in range(1, MAX_ATTEMPTS + 1):
            delta = sp.excited.sign * sp.excited.statistics.energy(shots, draw(k)) - e_ref
            if delta > 1e-9:
                break
        strength = sp.strength
        if exact:
            p_hat, overlap = strength.p_success, strength.swap.estimate(shots).clamped
        else:
            # stream k + 1 is the strength's post-selection replay, which is not drawn
            k0 = strength.swap.zero_count(shots, draw(k + 2))
            p_hat = draw(k + 3).binomial(shots, strength.p_success) / shots
            overlap = min(max(2.0 * k0 / shots - 1.0, 0.0), 1.0)
        measured.append((delta, strength.lam**2 * p_hat * overlap * b**2))
    return mirrored(measured)


def measured_poles(plan, shots, seed):
    """The poles run_quantum takes from `plan` at `seed`, before it dresses
    them into a spectrum, which a low-shot run may have no peak in."""
    return gdrq.experiment._transition_set(plan._measure(shots, [seed])[0])


def with_uncertain_swaps(plan):
    """The plan with every strength's SWAP outcome made uncertain: 90 % of
    its shots read |0>."""
    swap = SwapStatistics(0.95, np.array([0.9, 0.1]))
    return replace(
        plan,
        species=tuple(
            replace(sp, strength=LcuOverlap(sp.strength.lam, sp.strength.p_success, swap))
            for sp in plan.species
        ),
    )


# few shots make energy redraws common: seed 3 redraws five times in its first species
REDRAWING = replace(SN_QUANTUM, shots=20)


class TestBatchedStreams:
    def test_collect_runs_builds_no_seed_sequence(self, seed_sequences):
        records = collect_runs(SN_QUANTUM, 5, runs=4)
        assert seed_sequences == []
        assert [r.seed for r in records] == [
            int(np.random.SeedSequence(5, spawn_key=(i,)).generate_state(1, np.uint64)[0])
            for i in range(4)
        ]

    def test_exact_run_hashes_nothing(self, monkeypatch, seed_sequences):
        counts = count_calls(monkeypatch, [(gdrq.statevector, "seed_states")])
        run_quantum(SN_QUANTUM, 1, mode="exact")
        assert seed_sequences == [] and counts["seed_states"] == 0
        run_quantum(SN_QUANTUM, 1)
        assert seed_sequences == [] and counts["seed_states"] == 1

    @pytest.mark.parametrize(
        "config, seed", [(SN_QUANTUM, 5), (SN_QUANTUM, 2**64 + 1), (HE4_QUANTUM, 0)]
    )
    def test_batch_equals_one_rng_stream_per_measurement(self, config, seed):
        plan = QuantumPlan.build(config)
        assert run_quantum(config, seed).transitions == stream_by_stream(plan, seed, config.shots)
        exact = run_quantum(config, seed, mode="exact").transitions
        assert exact == stream_by_stream(plan, seed, config.shots, exact=True)

    def test_streams_past_the_planned_ones_are_hashed_alike(self, monkeypatch):
        plan = QuantumPlan.build(REDRAWING)
        counts = count_calls(monkeypatch, [(gdrq.statevector, "seed_states")])
        transitions = run_quantum(REDRAWING, 3).transitions
        # one pass for the planned streams, one row for each drawn stream past
        # them: five energy redraws take streams 2-6, and of the strength's
        # streams 7-9 neither the replay's nor the SWAP shots' is drawn, their
        # outcome being certain: rows for streams 5, 6 and 9
        assert counts["seed_states"] == 1 + 3
        assert transitions == stream_by_stream(plan, 3, REDRAWING.shots)

    def test_a_run_draws_no_strength_replay(self, monkeypatch):
        """A run with no energy redraw replays only the post-selections of its
        4 energies, and builds the generators of the two energies and of the
        strength's success rate per species, 6 in all: the strength's SWAP
        outcome is certain on the shipped windows (marginal[0] == 1.0), so
        its shots, binomial(shots, 1.0) == shots, are not drawn.  The streams
        of the strength's replay and SWAP shots keep their addresses (see
        test_batch_equals_one_rng_stream_per_measurement)."""
        counts = count_calls(
            monkeypatch,
            [(gdrq.statevector, "seeded_generator"), (gdrq.algorithms, "replay_post_selection")],
        )
        run_quantum(SN_QUANTUM, 1)
        assert counts == {"seeded_generator": 6, "replay_post_selection": 4}

    @pytest.mark.parametrize("config", [SN_QUANTUM, REDRAWING, HE4_QUANTUM])
    def test_an_uncertain_swap_outcome_is_drawn(self, monkeypatch, config):
        """With an uncertain SWAP outcome, the strength draws its shots on
        their own stream, 8 generators in a run with no redraw, and the poles
        are those of one RngStream per measurement."""
        plan = with_uncertain_swaps(QuantumPlan.build(config))
        counts = count_calls(monkeypatch, [(gdrq.statevector, "seeded_generator")])
        # at 8000 shots, seed 1 redraws no energy
        measured_poles(plan, 8000, 1)
        assert counts["seeded_generator"] == 4 * len(plan.species)
        # at 20 shots, seed 3 redraws energies; some other seeds run out of attempts
        for seed in (1, 3, 5):
            expected = stream_by_stream(plan, seed, config.shots)
            assert measured_poles(plan, config.shots, seed) == expected
        # the SWAP shots reach the poles
        certain = measured_poles(QuantumPlan.build(config), config.shots, 1)
        assert measured_poles(plan, config.shots, 1) != certain

    def test_replay_limits_are_kept_in_the_plan(self, monkeypatch):
        """A plan fixes each replay's budget and block when it is built; its
        runs only draw."""
        plan = QuantumPlan.build(SN_QUANTUM)
        counts = count_calls(monkeypatch, [(gdrq.algorithms, "replay_limits")])
        plan._measure(SN_QUANTUM.shots, [1, 2, 3])
        assert counts["replay_limits"] == 0
        overlaps = [
            overlap
            for sp in plan.species
            for overlap in (sp.reference.statistics, sp.excited.statistics, sp.strength)
        ]
        for overlap in overlaps:
            assert overlap.limits == gdrq.algorithms.replay_limits(overlap.p_success)
        assert counts["replay_limits"] == len(overlaps) == 6

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
        for a, b in zip(short, [long[i] for i in range(7)], strict=True):
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
            lambda: run_quantum(SN_QUANTUM, 1.5),
            lambda: run_quantum(SN_QUANTUM, True, mode="exact"),
            lambda: run_quantum(SN_QUANTUM, -2, mode="exact"),
            lambda: derive_run_seed(-1, 0),
            lambda: derive_run_seed(5, 0.5),
            lambda: run_quantum(SN_QUANTUM, 1, run_index=-2.5, mode="exact"),
            lambda: run_quantum(SN_QUANTUM, 1, run_index=1.5),
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
            "run-quantum-seed-float",
            "run-quantum-exact-seed-bool",
            "run-quantum-exact-negative",
            "derive-master-negative",
            "derive-index-float",
            "run-quantum-run-index-negative-float",
            "run-quantum-run-index-float",
            "run-quantum-run-index-negative",
            "run-quantum-run-index-bool",
        ],
    )
    def test_non_integer_or_negative_refused_in_one_line(self, call):
        with pytest.raises(ValidationError, match="must be a non-negative integer") as info:
            call()
        assert "\n" not in str(info.value)


class TestEnsembleMemo:
    """collect_runs keeps its last ensemble, keyed by (config, master seed); a run count
    given to it is part of the config."""

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


def count_builds(monkeypatch):
    """The config of every QuantumPlan.build call from now on."""
    built = []
    build = QuantumPlan.build
    monkeypatch.setattr(
        QuantumPlan, "build", staticmethod(lambda config: built.append(config) or build(config))
    )
    return built


def plan_config(config):
    """The config a kept plan of `config` is built from: its nucleus and window."""
    return NucleusConfig(A=config.A, Z=config.Z, kappa=0.0, basis=config.basis)


def record_bits(record):
    """The IEEE bits of a record's poles and cross section, as uint64 words."""
    poles = [(t.energy, t.strength, t.weight) for t in record.transitions.entries]
    return np.array(poles).view(np.uint64), record.spectrum.sigma.view(np.uint64)


def plan_marginals(plan):
    """Every ancilla distribution a plan keeps."""
    for sp in plan.species:
        yield sp.reference.statistics.swap.marginal
        yield sp.excited.statistics.swap.marginal
        yield sp.strength.swap.marginal


class TestPlanMemo:
    """Every run and ensemble of one nucleus on one window shares one kept plan,
    whatever its seed, mode, run or shot count, kappa, spread, grid or
    calibration; a changed nucleus or window builds its own."""

    def test_an_ensemble_at_a_new_master_seed_builds_no_plan(self, monkeypatch):
        built = count_builds(monkeypatch)
        collect_runs(SN_QUANTUM, 5, runs=3)
        warm = collect_runs(SN_QUANTUM, 6, runs=7)
        assert built == [plan_config(SN_QUANTUM)]
        gdrq.experiment._ensemble.cache_clear()
        gdrq.experiment._kept_plan.cache_clear()
        cold = collect_runs(SN_QUANTUM, 6, runs=7)
        assert len(built) == 2
        for a, b in zip(warm, cold, strict=True):
            for x, y in zip(record_bits(a), record_bits(b), strict=True):
                assert np.array_equal(x, y)

    def test_an_exact_run_after_an_ensemble_builds_nothing(self, monkeypatch):
        built = count_builds(monkeypatch)
        collect_runs(SN_QUANTUM, 5, runs=3)
        record = run_quantum(SN_QUANTUM, 9, mode="exact")
        assert len(built) == 1
        gdrq.experiment._kept_plan.cache_clear()
        fresh = run_quantum(SN_QUANTUM, 9, mode="exact")
        assert len(built) == 2
        for x, y in zip(record_bits(record), record_bits(fresh), strict=True):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize(
        "changed",
        [
            replace(SN_QUANTUM, kappa=0.6),
            replace(SN_QUANTUM, gamma_spread=3.0),
            replace(SN_QUANTUM, grid_min=8.0, grid_max=25.0, grid_step=0.05),
            replace(SN_QUANTUM, calibration=0.2),
            replace(SN_QUANTUM, shots=4000),
        ],
        ids=["kappa", "spread", "grid", "calibration", "shots"],
    )
    def test_a_changed_run_setting_shares_the_plan(self, monkeypatch, changed):
        """The shared plan's runs take the shot count and the dressing of
        their own config: each comes out bit for bit as from a plan of its own."""
        built = count_builds(monkeypatch)
        base = run_quantum(SN_QUANTUM, 3)
        shared = [run_quantum(changed, 3, mode=mode) for mode in ("exact", "sampled")]
        ensemble = collect_runs(changed, 2, runs=2)
        assert built == [plan_config(SN_QUANTUM)]
        # the changed setting reaches the run
        assert not all(map(np.array_equal, record_bits(base), record_bits(shared[1])))
        gdrq.experiment._ensemble.cache_clear()
        gdrq.experiment._kept_plan.cache_clear()
        own = [run_quantum(changed, 3, mode=mode) for mode in ("exact", "sampled")]
        for a, b in zip([*shared, *ensemble], [*own, *collect_runs(changed, 2, runs=2)]):
            assert a.spectrum.energies.size == changed.energy_grid().size
            for x, y in zip(record_bits(a), record_bits(b), strict=True):
                assert np.array_equal(x, y)
        assert len(built) == 2

    @pytest.mark.parametrize(
        "changed",
        [replace(SN_QUANTUM, basis=BasisWindow(2, 5)), replace(SN_QUANTUM, A=122)],
        ids=["window", "nucleus"],
    )
    def test_a_changed_nucleus_or_window_builds_its_own_plan(self, monkeypatch, changed):
        built = count_builds(monkeypatch)
        run_quantum(SN_QUANTUM, 1, mode="exact")
        run_quantum(changed, 1, mode="exact")
        collect_runs(changed, 2, runs=2)
        assert built == [plan_config(config) for config in (SN_QUANTUM, changed)]

    def test_the_memo_stays_within_its_bound(self):
        bound = gdrq.experiment.PLAN_MEMO_SIZE
        kept = gdrq.experiment._kept_plan.cache_info
        assert kept().maxsize == bound
        windows = ("3-4", "4-5", "2-4", "3-5", "4-6")
        assert len(windows) == bound + 3
        for k, label in enumerate(windows):
            run_quantum(replace(SN_QUANTUM, basis=BasisWindow.parse(label)), 1, mode="exact")
            assert kept().currsize == min(k + 1, bound)

    def test_a_kept_plan_cannot_be_written(self):
        collect_runs(SN_QUANTUM, 5, runs=2)
        plan = gdrq.experiment._plan(SN_QUANTUM)
        marginals = list(plan_marginals(plan))
        assert len(marginals) == 3 * len(plan.species) == 6
        for marginal in marginals:
            with pytest.raises(ValueError, match="read-only"):
                marginal[0] = 1.0
            with pytest.raises(ValueError):
                marginal.flags.writeable = True


def assert_closed_form(overlap, closed):
    """lambda, p_success and SWAP p0 of a plan's LcuOverlap against the closed form."""
    got = (overlap.lam, overlap.p_success, overlap.swap.p0)
    assert got == pytest.approx(closed[:3], rel=1e-13, abs=0)


class TestPlanInClosedForm:
    """The plan's numbers against tests/oracles.closed_form_plan, which reads
    them off the occupations and the operator terms and shares no circuit,
    state or gate with the plan."""

    def test_every_buildable_digest_window_matches(self):
        built = 0
        for nucleus, windows in plan_windows().items():
            shipped = load_config(CONFIGS / f"{nucleus}.cfg")
            for label in windows:
                config = replace(shipped, basis=BasisWindow.parse(label))
                try:
                    plan = QuantumPlan.build(config)
                except GdrqError:
                    continue
                built += 1
                closed = closed_form_plan(config)
                assert [sp.spawn_index for sp in plan.species] == [c.spawn_index for c in closed]
                for sp, c in zip(plan.species, closed):
                    for energy, want in ((sp.reference, c.reference), (sp.excited, c.excited)):
                        assert energy.sign == math.copysign(1.0, want.amplitude.real)
                        assert_closed_form(energy.statistics, want)
                    assert_closed_form(sp.strength, c.strength)
        assert built == 45

    @pytest.mark.parametrize("nucleus", ["sn120", "pb208"])
    def test_shipped_marginals_put_all_weight_on_zero(self, nucleus):
        plan = QuantumPlan.build(load_config(CONFIGS / f"{nucleus}.cfg"))
        marginals = list(plan_marginals(plan))
        assert len(marginals) == 3 * len(plan.species)
        for marginal in marginals:
            assert marginal[0] == 1.0


def binomial_cdf(n: int, p: float) -> np.ndarray:
    """P(K <= k) for k = 0..n of K ~ Binomial(n, p), summed from log-gamma pmfs."""
    log_pmf = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
        for k in range(n + 1)
    ]
    return np.cumsum(np.exp(log_pmf))


def chi_square_statistic(counts: list[int], n: int, p: float, bins: int) -> float:
    """Pearson's statistic of draws `counts` against Binomial(n, p), over `bins`
    bins of nearly equal probability cut at the law's quantiles j / bins; it
    has bins - 1 degrees of freedom."""
    cdf = binomial_cdf(n, p)
    edges = np.searchsorted(cdf, np.arange(1, bins) / bins)
    assert np.all(np.diff(edges) > 0), "a bin holds no value of k"
    expected = len(counts) * np.diff(cdf[edges], prepend=0.0, append=1.0)
    # bin j holds k in (edges[j - 1], edges[j]]
    observed = np.bincount(np.searchsorted(edges, counts), minlength=bins)
    return float(((observed - expected) ** 2 / expected).sum())


def chi_square_survival(statistic: float, freedom: int) -> float:
    """P(X >= statistic) for X ~ chi-square with an even number of degrees of
    freedom: exp(-x/2) * sum_{j < freedom/2} (x/2)^j / j!."""
    assert freedom % 2 == 0
    half, term, total = statistic / 2, 1.0, 0.0
    for j in range(freedom // 2):
        term = term * half / j if j else 1.0
        total += term
    return math.exp(-half) * total


class RecordedBinomials:
    """A generator that records the count of each binomial draw at one of
    the success rates of `hits` (rate -> (closed form, counts))."""

    def __init__(self, generator, hits):
        self.generator, self.hits = generator, hits

    def __getattr__(self, name):
        return getattr(self.generator, name)

    def binomial(self, n, p):
        k = self.generator.binomial(n, p)
        if p in self.hits:
            self.hits[p][1].append(k)
        return k


class TestSampledLaw:
    """The exact law of a sampled energy (see oracles.closed_form_plan).  On the
    shipped configs every SWAP overlap is exactly 1, so an energy measured at N
    shots is sign * lambda * sqrt(k / N), k being the post-selection hits of its
    success-rate estimate, and k ~ Binomial(N, p_success).  Unlike the digests,
    this holds under any draw order that draws the right law, and fails on a
    wrong one."""

    RUNS = 2000
    BINS = 11
    # a correct sampler fails the test with this probability; the seeds are
    # fixed, so the test always passes or always fails
    FALSE_ALARM = 1e-3

    @pytest.fixture(scope="class")
    def measured_hits(self):
        """Per shipped config: the shot count and, for each energy measurement,
        its closed-form overlap and its hits over RUNS sampled runs of the
        ensemble at master seed 77."""
        measured = {}
        for nucleus in ("sn120", "pb208"):
            config = load_config(CONFIGS / f"{nucleus}.cfg")
            plan = QuantumPlan.build(config)
            closed = closed_form_plan(config)
            energies = [
                (energy, want)
                for sp, c in zip(plan.species, closed)
                for energy, want in ((sp.reference, c.reference), (sp.excited, c.excited))
            ]
            # every energy's draws are told apart by their success rate
            hits = {energy.statistics.p_success: (want, []) for energy, want in energies}
            strengths = {sp.strength.p_success for sp in plan.species}
            assert len(hits) == len(energies) and not strengths & hits.keys()
            seeded = gdrq.experiment.seeded_generator

            def recorded(row):
                return RecordedBinomials(seeded(row), hits)

            seeds = gdrq.experiment._run_seeds(77, np.arange(self.RUNS))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(gdrq.experiment, "seeded_generator", recorded)
                poles = plan._measure(config.shots, seeds)
            # the gap of a transition is hbar*omega, tens of standard deviations
            # at 8000 shots: no excited energy is redrawn, so each list holds
            # one unconditioned draw per run
            assert [len(found) for _, found in hits.values()] == [self.RUNS] * len(hits)
            # on the closed-form overlap of 1, an energy is sign * lambda * sqrt(k / N)
            for s, sp in enumerate(plan.species):
                pair = [
                    (*hits[e.statistics.p_success], e.statistics.lam)
                    for e in (sp.reference, sp.excited)
                ]
                for run in range(self.RUNS):
                    e_ref, e_exc = (
                        math.copysign(lam, want.amplitude.real) * math.sqrt(k[run] / config.shots)
                        for want, k, lam in pair
                    )
                    assert poles[run, s, 0] == e_exc - e_ref
            measured[nucleus] = config.shots, list(hits.values())
        return measured

    def test_energies_are_binomial_hits(self, measured_hits):
        statistic, freedom = 0.0, 0
        for shots, measured in measured_hits.values():
            for want, found in measured:
                statistic += chi_square_statistic(found, shots, want.p_success, self.BINS)
                freedom += self.BINS - 1
        assert freedom == 80
        assert chi_square_survival(statistic, freedom) > self.FALSE_ALARM, statistic

    def test_a_wrong_law_fails(self, measured_hits):
        """The same hits against success rates off by 1 % fail the test by far."""
        statistic = sum(
            chi_square_statistic(found, shots, 1.01 * want.p_success, self.BINS)
            for shots, measured in measured_hits.values()
            for want, found in measured
        )
        assert chi_square_survival(statistic, 80) < self.FALSE_ALARM**4

    def test_survival_function(self):
        """exp(-x/2) at two degrees of freedom; 1 at zero; the 99.9th percentile
        of chi-square with ten degrees of freedom, 29.588."""
        assert chi_square_survival(3.0, 2) == pytest.approx(math.exp(-1.5))
        assert chi_square_survival(0.0, 10) == 1.0
        assert chi_square_survival(29.588, 10) == pytest.approx(1e-3, rel=1e-3)


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


def bits(values) -> np.ndarray:
    """The IEEE bits of a float or complex array, as uint64 words."""
    return np.ascontiguousarray(values).view(np.uint64)


def column_medians(records):
    """The median spectrum's columns as np.median gives them column by column:
    each part of a complex column on its own, joined as real + 1j * imag."""

    def median(rows):
        return np.median(np.stack(rows), axis=0)

    spectra = [r.spectrum for r in records]
    out = {}
    for column in ("r0", "r_dressed"):
        values = [getattr(s, column) for s in spectra]
        out[column] = median([v.real for v in values]) + 1j * median([v.imag for v in values])
    for column in ("sigma_raw", "sigma"):
        out[column] = median([getattr(s, column) for s in spectra])
    return out


# values a median must carry bit for bit: both zeros, ties and NaN
SPECIAL = np.array([0.0, -0.0, 1.0, 1.0, -1.0, 2.5, np.nan])


def stacked_median(records):
    """The median spectrum of the records' spectra, taken as an ensemble
    takes its own (see Ensemble.median)."""
    columns = ("r0", "r_dressed", "sigma_raw", "sigma")
    rows = (np.array([getattr(r.spectrum, column) for r in records]) for column in columns)
    medians = gdrq.experiment._medians(*rows)
    return gdrq.experiment._median_spectrum(records[0].spectrum.energies, medians)


def constructed_runs(rng, runs, grid_size=9):
    """Runs whose columns are drawn from SPECIAL, on one grid; sigma keeps one
    interior peak (its median must have one) and draws only zeros and ties."""
    grid = np.linspace(10.0, 18.0, grid_size)
    peak = np.concatenate([np.arange(grid_size // 2 + 1), np.arange(grid_size // 2)[::-1]])

    def draw():
        return rng.choice(SPECIAL, grid_size)

    records = []
    for _ in range(runs):
        sigma = peak * rng.choice([1.0, 2.0]) + rng.choice([0.0, -0.0], grid_size)
        sigma[[0, -1]] = rng.choice([0.0, -0.0], 2)
        columns = (draw() + 1j * draw(), draw() + 1j * draw(), draw(), sigma)
        spectrum = ResponseSpectrum(grid, *columns, 0.0, 0.0, 0.0)
        records.append(RunRecord(0, 0, TransitionSet(()), spectrum))
    return records


class TestMedianSpectrum:
    @pytest.mark.parametrize("runs", [1, 2, 3, 20])
    def test_pointwise_median_of_runs(self, runs):
        """Every column, bit for bit, is np.median of that column alone."""
        records = collect_runs(SN_QUANTUM, 5, runs=runs)
        spectrum = median_spectrum(records)
        for column, expected in column_medians(records).items():
            assert np.array_equal(bits(getattr(spectrum, column)), bits(expected)), column
        assert np.array_equal(bits(spectrum.energies), bits(SN_QUANTUM.energy_grid()))

    @pytest.mark.parametrize("runs", [1, 2, 3, 4, 5, 20])
    def test_zeros_ties_and_nan_keep_their_bits(self, runs):
        rng = np.random.default_rng(runs)
        for _ in range(25):
            records = constructed_runs(rng, runs)
            spectrum = stacked_median(records)
            for column, expected in column_medians(records).items():
                assert np.array_equal(bits(getattr(spectrum, column)), bits(expected)), column

    @pytest.mark.parametrize("runs", [1, 2, 3, 100, 175])
    def test_medians_keep_the_bits_of_np_median(self, runs):
        """_medians takes numpy's median steps without calling np.median, and
        gives its bits over the stacked columns: with ties, on a column of
        mixed +-0.0 and on one holding a NaN.  175 runs are more than one
        block of the shipped grid's spectra."""
        rng = np.random.default_rng(runs)
        shape = (runs, 7)
        r0, r_dressed = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
        sigma_raw, sigma = rng.normal(size=shape), rng.choice([1.0, 2.0, 3.0], shape)
        sigma_raw[:, 0] = [0.0, -0.0] * (runs // 2) + [-0.0] * (runs % 2)
        sigma[rng.integers(runs), 1] = np.nan
        parts = [r0.real, r0.imag, r_dressed.real, r_dressed.imag, sigma_raw, sigma]
        expected = np.median(np.stack(parts, axis=1), axis=0)
        assert np.isnan(expected[5, 1])
        medians = gdrq.experiment._medians(r0, r_dressed, sigma_raw, sigma)
        assert np.array_equal(bits(medians), bits(expected))

    def test_constructed_runs_hold_every_special_value(self):
        records = constructed_runs(np.random.default_rng(3), 20)
        values = np.concatenate([r.spectrum.r0.real for r in records])
        assert np.isnan(values).any()
        assert np.signbit(values[values == 0]).any() and not np.signbit(values[values == 0]).all()

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


def response_row_shapes(monkeypatch):
    """The (runs, grid points) of every response_rows call of collect_runs from now on."""
    shapes = []
    rows = gdrq.experiment.response_rows

    def counted(config, grid, energies, weighted):
        shapes.append((len(energies), np.size(grid)))
        return rows(config, grid, energies, weighted)

    monkeypatch.setattr(gdrq.experiment, "response_rows", counted)
    return shapes


ENSEMBLE_COLUMNS = ("seeds", "measured", "peak_energies")


class TestEnsembleColumns:
    """collect_runs keeps each run's seed, draw and peak as columns; its
    spectra are assembled in blocks of runs only to find the peaks.  The
    median columns of a one-block ensemble are taken from that block; a
    larger ensemble takes them a block of grid columns at a time, when its
    median is first read."""

    def test_a_shipped_ensemble_is_assembled_once(self, monkeypatch):
        shapes = response_row_shapes(monkeypatch)
        ensemble = collect_runs(load_config(CONFIGS / "sn120.cfg"), 5)
        assert isinstance(ensemble, Ensemble) and len(ensemble) == 100
        assert ensemble.measured.shape == (100, 2, 2)
        assert ensemble.medians.shape == (6, 251)
        median_spectrum(ensemble)
        assert shapes == [(100, 251)]

    @pytest.mark.parametrize("block_runs, width", [(3, 75), (7, 175)])
    def test_blocks_keep_every_bit(self, monkeypatch, block_runs, width):
        """Ten runs in blocks of 3 or 7, the median in passes of 75 or 175 of
        the 251 grid columns, neither of which divides the grid, hold the
        bits of the ensemble assembled in one block.  The passes run only
        when the median is read, so mad_series needs none."""
        whole = collect_runs(SN_QUANTUM, 5, runs=10)
        grid = SN_QUANTUM.energy_grid().size
        assert grid == 251
        gdrq.experiment._ensemble.cache_clear()
        monkeypatch.setattr(gdrq.experiment, "_ENSEMBLE_BLOCK_BYTES", block_runs * 48 * grid)
        shapes = response_row_shapes(monkeypatch)
        blocked = collect_runs(SN_QUANTUM, 5, runs=10)
        assert mad_series(blocked) == mad_series(whole)
        first, last = 10 // block_runs, 10 % block_runs
        assert shapes == [*[(block_runs, grid)] * first, (last, grid)]
        assert blocked.medians is None
        median = median_spectrum(blocked)
        passes, rest = divmod(grid, width)
        assert shapes[first + 1 :] == [*[(10, width)] * passes, (10, rest)]
        assert median_spectrum(blocked) is median
        assert len(shapes) == first + 1 + passes + 1
        for name in ENSEMBLE_COLUMNS:
            assert np.array_equal(bits(getattr(blocked, name)), bits(getattr(whole, name))), name
        for column, expected in column_medians(whole).items():
            assert np.array_equal(bits(getattr(median, column)), bits(expected)), column
        for column in SPECTRUM_ARRAYS:
            assert np.array_equal(bits(getattr(median, column)), bits(getattr(whole.median, column)))
        for a, b in zip(blocked, whole, strict=True):
            assert_same_record(a, b)

    def test_memory_grows_by_the_columns_only(self):
        """Traced peak of collect_runs and mad_series: 200 and 4000 runs differ
        by under 2 KB a run (a run's spectrum alone is 12 KB)."""
        collect_runs(SN_QUANTUM, 5, runs=2)

        def peak(runs):
            gdrq.experiment._ensemble.cache_clear()
            tracemalloc.start()
            try:
                mad_series(collect_runs(SN_QUANTUM, 5, runs=runs))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(200), peak(4000)
        assert large - small < 2048 * (4000 - 200), (small, large)

    def test_an_ensemble_holds_a_seed_a_draw_and_a_peak_a_run(self):
        """48 bytes a run on two species: its seed, its (species, 2) energies
        and strengths and its peak energy.  No column holds a run index, a
        mirror pole, a weight, a peak height, a width or the grid."""
        ensemble = collect_runs(SN_QUANTUM, 5, runs=200)
        assert ensemble.medians is None  # more runs than one block
        assert ensemble.measured.shape == (200, 2, 2)
        held = [getattr(ensemble, f.name) for f in fields(ensemble)]
        assert sum(a.nbytes for a in held if isinstance(a, np.ndarray)) == 200 * 48

    def test_runs_are_views_of_the_columns(self):
        ensemble = collect_runs(SN_QUANTUM, 5, runs=4)
        run = ensemble[-1]
        assert isinstance(run, RunRecord)
        assert (run.run_index, run.seed) == (3, int(ensemble.seeds[3]))
        assert run.peak_energy == ensemble.peak_energies[3] == run.spectrum.peak_energy
        assert run.transitions.entries[0].energy == ensemble.measured[3, 0, 0]
        assert run.transitions.entries[0].strength == ensemble.measured[3, 0, 1]
        assert_same_record(run, run_quantum(SN_QUANTUM, run.seed, 3))
        with pytest.raises(IndexError):
            ensemble[4]
        with pytest.raises(AttributeError):
            run.seed = 0
        for name in (*ENSEMBLE_COLUMNS, "medians"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(ensemble, name)[0] = 0

    def test_a_view_replaced_or_copied_is_a_plain_record(self):
        ensemble = collect_runs(SN_QUANTUM, 5, runs=3)
        spectrum = ensemble[0].spectrum
        replaced = replace(ensemble[1], spectrum=spectrum)
        assert type(replaced) is RunRecord
        assert (replaced.run_index, replaced.seed) == (1, int(ensemble.seeds[1]))
        assert replaced.transitions == ensemble[1].transitions
        assert replaced.spectrum is spectrum and replaced.peak_energy == ensemble.peak_energies[0]
        for copied in (copy.copy(ensemble[2]), pickle.loads(pickle.dumps(ensemble[2]))):
            assert type(copied) is RunRecord
            assert_same_record(copied, ensemble[2])

    def test_columns_give_what_records_that_hold_their_spectra_give(self):
        """mad_series of an ensemble and the runs.csv rows the CLI reads off
        its columns are those of the run_quantum records of its seeds, and
        its median is that of the records' spectra."""
        ensemble = collect_runs(SN_QUANTUM, 5, runs=6)
        records = [run_quantum(SN_QUANTUM, derive_run_seed(5, i), i) for i in range(6)]
        assert mad_series(ensemble) == mad_series(peaks([r.peak_energy for r in records]))
        rows = [(r.run_index, r.seed, r.peak_energy) for r in records]
        assert list(gdrq.cli._run_rows(ensemble)) == rows
        median = median_spectrum(ensemble)
        assert median is median_spectrum(ensemble) is ensemble.median
        for column, expected in column_medians(records).items():
            assert np.array_equal(bits(getattr(median, column)), bits(expected)), column


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

    def test_hand_values(self):
        series = mad_series(peaks([1.0, 2.0, 3.0, 4.0, 100.0]))
        assert series.e0_median == (1.5, 2.0, 2.5, 3.0)
        assert series.delta_e0 == (0.5, 1.0, 1.0, 1.0)
        assert mad_series(peaks([2.0, 2.0, 2.0])).delta_e0 == (0.0, 0.0)

    @given(
        st.lists(
            st.one_of(
                st.integers(0, 6).map(lambda i: 15.0 + i / 4),
                st.floats(10.0, 20.0),
            ),
            min_size=2,
            max_size=45,
        )
    )
    @example([15.5] * 20)
    @example([15.0, 15.5] * 10 + [16.0])
    @example([16.0, 15.0, 15.0, 17.0, 16.0, 15.0, 16.0, 17.0, 17.0, 15.0])
    @settings(max_examples=200, deadline=None)
    def test_bits_of_the_prefix_definition(self, values):
        """Every entry, at odd and even m and with ties, is bit for bit
        statistics.median of the first m peaks and of their deviations."""
        series = mad_series(peaks(values))
        expected_medians, expected_deviations = [], []
        for m in range(2, len(values) + 1):
            head = values[:m]
            center = statistics.median(head)
            expected_medians.append(center)
            expected_deviations.append(statistics.median(abs(v - center) for v in head))
        assert series.m == tuple(range(2, len(values) + 1))
        assert list(map(float.hex, series.e0_median)) == list(map(float.hex, expected_medians))
        assert list(map(float.hex, series.delta_e0)) == list(map(float.hex, expected_deviations))


class TestShotNoiseScaling:
    """The run-to-run spread of the peak is shot noise: its MAD falls like shots^-1/2."""

    SHOTS = (2000, 8000, 32_000, 128_000, 512_000)

    @pytest.mark.parametrize("nucleus", ["sn120", "pb208"])
    def test_e0_mad_halves_per_fourfold_shots(self, nucleus):
        """Bands from master seeds 1-30 at 200 runs: each 4x step divided the MAD
        by 1.55-2.54, and the geometric mean over the four steps by 1.91-2.11."""
        config = load_config(CONFIGS / f"{nucleus}.cfg")
        mads = [
            mad_series(collect_runs(replace(config, shots=shots), 77, runs=200)).delta_e0[-1]
            for shots in self.SHOTS
        ]
        steps = [wide / narrow for wide, narrow in zip(mads, mads[1:])]
        overall = (mads[0] / mads[-1]) ** (1 / len(steps))
        detail = f"MAD {mads} at shots {self.SHOTS}"
        assert all(1.4 <= step <= 2.8 for step in steps), detail
        assert 1.8 <= overall <= 2.2, detail


def peaks(values):
    """A stand-in for an ensemble: mad_series reads only its peak energies."""
    return SimpleNamespace(peak_energies=np.array(values, dtype=float))


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

    def test_bundled_curve_is_parsed_once_and_read_only(self, monkeypatch):
        parsed = []
        load = gdrq.experiment.load_experimental_csv
        monkeypatch.setattr(
            gdrq.experiment, "load_experimental_csv", lambda path: parsed.append(path) or load(path)
        )
        gdrq.experiment._bundled_curve.cache_clear()
        first = bundled_experiment("pb208")
        assert bundled_experiment("pb208") is first
        assert bundled_experiment("PB208") is first
        assert len(parsed) == 1
        for array in (first.energies, first.sigma):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

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

    def test_points_outside_the_model_grid_are_dropped(self):
        spectrum = run_classical(SN_CLASSICAL)
        energies = np.array([2.0, 10.0, 15.0, 20.0, 40.0])
        report = compare_with_experiment(
            spectrum, ExperimentalSpectrum(energies, np.array([1.0, 4.0, 9.0, 4.0, 1.0]), "wide")
        )
        np.testing.assert_array_equal(report.energies, [10.0, 15.0, 20.0])
        np.testing.assert_array_equal(report.experiment_sigma, [4.0, 9.0, 4.0])
        np.testing.assert_array_equal(
            report.model_sigma, np.interp(report.energies, spectrum.energies, spectrum.sigma)
        )
        assert report.experiment_peak == 15.0


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
        seed = derive_run_seed(5, 0)
        path = tmp_path / "runs.csv"
        write_runs_csv(path, [(0, seed, 15.25), (1, 2**64 - 1, 1 / 3)])
        lines = path.read_text().splitlines()
        assert lines == ["run_index,seed,e0_mev", f"0,{seed},15.25", "1,18446744073709551615,0.333333333"]

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
