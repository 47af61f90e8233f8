"""Experiment protocols: classical baseline, sampled quantum runs, studies.

The quantum pipeline works species by species.  Its full window shells (the
window's first ones, since shells fill bottom-up) form the reference bitstring,
and the dipole lifts the top full shell's particle one shell up: one transition
per species with some but not all window shells full.  Its energy comes from
LCU energy estimates of the identity-stripped Hamiltonian (much better
post-selection odds than the raw one) on both configurations, its strength
from the LCU success rate times a SWAP-test overlap with the excited one.

A QuantumPlan builds the operators and simulates every circuit of a config
once; a run then only draws the classically random steps (the energies'
post-selection replays, shot counts, success-rate estimates) from
spawn-keyed streams of its seed.  Runs are therefore reproducible bit for
bit, and independent of how many runs share a plan or in which order they
are drawn.  Everything a run's draws need that no seed changes (each
replay's budget and block size included) is fixed in the plan, and a block
of runs is drawn straight into arrays of excitation energies and strengths,
so a run pays for its draws and little else.

An ensemble (collect_runs) is its columns: each run's seed, poles and peak;
no run's spectrum is kept.  It hashes its runs' seeds and streams and draws
them a bounded block of runs at a time, then assembles the spectra of a
block of runs at once only to find their peaks.  Its runs are RunRecord
views that rebuild their spectrum from their poles when read; a single run
is a batch of one, and so is the median spectrum, whose six real columns
are stacked to take np.median's steps without numpy.ma (see _medians).  An
ensemble of one block takes those medians while its spectra exist; a larger
one rebuilds its spectra for them, a block of grid columns at a time, only
when its median is read.  Memory then grows with the run count by the
columns alone.

Three things are kept per process.  Plans are memoised by nucleus and window,
all that their circuits read, at most PLAN_MEMO_SIZE of them, least recently
used out first: every run and ensemble of one nucleus on one window, whatever
its seed, run or shot count, kappa, spread, grid or calibration, reuses one
plan, whose arrays are read-only.  A plan holds no config: its caller passes
the shot count and dresses the poles.  Beside the plans, collect_runs keeps
its last ensemble, and each bundled experimental curve is parsed once (see
bundled_experiment).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable, Iterable, Sequence

import numpy as np

from .algorithms import (
    MAX_ATTEMPTS,
    LcuCircuit,
    LcuOverlap,
    SwapStatistics,
    swap_statistics,
)
from .encoding import (
    BasisWindow,
    NucleusConfig,
    build_dipole,
    build_hamiltonian,
    fill_occupations,
    hbar_omega,
    oscillator_length,
)
from .errors import PreparationError, SchemaError, ValidationError
from .response import (
    ResponseSpectrum,
    Transition,
    TransitionSet,
    assemble_spectrum,
    classical_transitions,
    find_peak,
    quantum_transitions,
    response_rows,
    spectrum_rows,
)
from .statevector import (
    STREAM_WORDS,
    StateVector,
    non_negative_int,
    seed_states,
    seeded_generator,
)

_SPECIES = ("proton", "neutron")
_FULL_TOL = 1e-12
_MIN_GAP_MEV = 1e-9
# plans kept per process: one per nucleus of the shipped protocol.  A plan
# holds a few hundred numbers and no circuit, but one kept for a config that
# never comes back (a scan) is dead weight.  A scan that cycles through more
# than two windows therefore builds each plan anew; the exact-scan benchmark
# does, and times exactly those cold builds, which a larger memo would hide
PLAN_MEMO_SIZE = 2
# streams a sampled run has per species when no energy is redrawn, in draw
# order: the reference energy, the excited energy, then the strength's
# post-selection replay, SWAP shots and success rate.  Nothing reads the
# replay's attempt count, so it is not drawn, nor are SWAP shots of certain
# outcome, but their streams keep their addresses and every other its own
_PLANNED_STREAMS = 5
# bytes of spectra an ensemble assembles at once: a block of its runs on the
# whole grid, or every run on a block of grid columns.  A run's point holds
# r0 and r_dressed (complex), sigma_raw and sigma, _POINT_BYTES in all; the
# temporaries of the assembly and the median's stack come on top, about as
# much again each.  The 100 runs of a shipped config on its 251 points fit
# one block, so they are assembled once
_ENSEMBLE_BLOCK_BYTES = 2**21
_POINT_BYTES = 48
# the signs of a measured excitation's pole and its mirror
_MIRROR = np.array([1.0, -1.0])


@dataclass(frozen=True)
class RunRecord:
    """One quantum run: measured poles and the assembled spectrum."""

    run_index: int
    seed: int
    transitions: TransitionSet
    spectrum: ResponseSpectrum

    @property
    def peak_energy(self) -> float:
        return self.spectrum.peak_energy

    @property
    def width_fwhm(self) -> float:
        return self.spectrum.width_fwhm


@dataclass(frozen=True, eq=False)
class Ensemble(Sequence[RunRecord]):
    """The runs of one collect_runs call as columns, one row per run.

    Each run's index and seed, its poles ((runs, poles) energies, strengths
    and signed weights) and the peak energy, height and FWHM of its spectrum
    are kept; the spectra are not.  Indexing and iteration give RunRecord
    views of the columns, made on access, whose spectrum is rebuilt from
    their poles when read (see _EnsembleRun).  `medians` holds the six real
    median columns of the runs' spectra (see _medians) when they were
    assembled in one block, else None.  `median` is the median spectrum,
    made when first read: from `medians`, or, for a larger ensemble, from
    spectra rebuilt from the poles a block of grid columns at a time.  Every
    array is read-only.
    """

    config: NucleusConfig
    grid: np.ndarray
    run_indices: np.ndarray
    seeds: np.ndarray
    energies: np.ndarray
    strengths: np.ndarray
    weights: np.ndarray
    peak_energies: np.ndarray
    peak_heights: np.ndarray
    widths: np.ndarray
    medians: np.ndarray | None

    def __len__(self) -> int:
        return len(self.seeds)

    def __getitem__(self, index):
        picked = range(len(self))[index]
        if isinstance(picked, range):
            return tuple(_EnsembleRun.view(self, i) for i in picked)
        return _EnsembleRun.view(self, picked)

    def __iter__(self):
        return (_EnsembleRun.view(self, i) for i in range(len(self)))

    @functools.cached_property
    def median(self) -> ResponseSpectrum:
        medians = self.medians
        if medians is None:
            medians = np.empty((6, self.grid.size))
            width = max(1, _ENSEMBLE_BLOCK_BYTES // (_POINT_BYTES * len(self)))
            weighted = self.strengths * self.weights
            for lo in range(0, self.grid.size, width):
                part = slice(lo, lo + width)
                rows = response_rows(self.config, self.grid[part], self.energies, weighted)
                medians[:, part] = _medians(*rows)
        return _median_spectrum(self.grid, medians)


class _EnsembleRun(RunRecord):
    """Run `index` of an ensemble, read off its columns.

    Its poles become a TransitionSet, and its spectrum is rebuilt from them as
    a batch of one, when first read.  Every stage of the assembly works point
    by point (see response_rows), so the spectrum has the bits its run had in
    the ensemble's block.  Built from a RunRecord's fields, as
    dataclasses.replace builds it, or copied, it is a plain RunRecord.
    """

    def __new__(cls, **fields) -> RunRecord:
        return RunRecord(**fields)

    def __reduce__(self):
        # a copy or a pickle of a view is a plain RunRecord of its fields
        return RunRecord, (self.run_index, self.seed, self.transitions, self.spectrum)

    @classmethod
    def view(cls, ensemble: Ensemble, index: int) -> "_EnsembleRun":
        run = object.__new__(cls)
        object.__setattr__(run, "_ensemble", ensemble)
        object.__setattr__(run, "_index", index)
        return run

    @property
    def run_index(self) -> int:
        return int(self._ensemble.run_indices[self._index])

    @property
    def seed(self) -> int:
        return int(self._ensemble.seeds[self._index])

    @property
    def peak_energy(self) -> float:
        return float(self._ensemble.peak_energies[self._index])

    @property
    def width_fwhm(self) -> float:
        return float(self._ensemble.widths[self._index])

    @functools.cached_property
    def transitions(self) -> TransitionSet:
        ensemble, i = self._ensemble, self._index
        columns = (ensemble.energies[i], ensemble.strengths[i], ensemble.weights[i])
        return TransitionSet(tuple(map(Transition, *(c.tolist() for c in columns))))

    @functools.cached_property
    def spectrum(self) -> ResponseSpectrum:
        ensemble, row = self._ensemble, slice(self._index, self._index + 1)
        weighted = ensemble.strengths[row] * ensemble.weights[row]
        rows = response_rows(ensemble.config, ensemble.grid, ensemble.energies[row], weighted)
        (spectrum,) = spectrum_rows(ensemble.grid, *rows)
        return spectrum


@dataclass(frozen=True)
class MadSeries:
    """Cumulative median and median-absolute-deviation of peak energies."""

    m: tuple[int, ...]
    e0_median: tuple[float, ...]
    delta_e0: tuple[float, ...]


@dataclass(frozen=True)
class BasisRow:
    """Classical peak summary for one shell window."""

    label: str
    n_min: int
    n_max: int
    peak_energy: float
    width_fwhm: float


@dataclass(frozen=True)
class ExperimentalSpectrum:
    """Measured photo-absorption curve with its provenance text."""

    energies: np.ndarray
    sigma: np.ndarray
    source: str


@dataclass(frozen=True)
class ComparisonReport:
    """Model vs experiment on the experimental points inside the model grid."""

    peak_offset: float
    height_ratio: float
    model_peak: float
    experiment_peak: float
    energies: np.ndarray
    model_sigma: np.ndarray
    experiment_sigma: np.ndarray


def run_classical(config: NucleusConfig) -> ResponseSpectrum:
    """Independent-particle poles from shell occupations, dressed and calibrated."""
    occupations = fill_occupations(config)
    transitions = classical_transitions(config, occupations)
    if not transitions.entries:
        raise ValidationError(f"window {config.basis.label} holds no dipole-active pair")
    return assemble_spectrum(config, transitions)


def _full_shells(window: BasisWindow, occ: Sequence[float]) -> int:
    """Completely filled window shells; shells fill bottom-up, so the window's first."""
    return sum(occ[shell] >= 1.0 - _FULL_TOL for shell in window.shells())


def _basis_rows(nqubits: int, configurations: Sequence[Sequence[int]]) -> np.ndarray:
    """Amplitude rows of basis configurations; bit q of a configuration is qubit q."""
    index = [sum(bit << q for q, bit in enumerate(bits)) for bits in configurations]
    return np.eye(2**nqubits, dtype=complex)[index]


def _shifted_sign(bits: Sequence[int], window: BasisWindow, homega: float, offset: float) -> float:
    """Sign of <H - offset*I> on a basis configuration (known analytically)."""
    energy = homega * sum(
        shell + 1.5 for shell, b in zip(window.shells(), bits) if b
    )
    return -1.0 if energy < offset else 1.0


def _run_seeds(master_seed: int, run_indices: Sequence[int]) -> np.ndarray:
    """Seeds of the given runs, word 0 of each
    SeedSequence(master_seed, spawn_key=(i,)).generate_state(1, np.uint64)."""
    master_seed = non_negative_int(master_seed, "master seed")
    return seed_states(master_seed, np.reshape(run_indices, (-1, 1)), 1)[:, 0]


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Per-run seed from the master seed (spawn-key derivation, order free)."""
    return int(_run_seeds(master_seed, [run_index])[0])


@dataclass(frozen=True)
class _Energy:
    """Energy measurement of one basis configuration.

    The LCU and SWAP statistics give |<H - offset>|; its sign is known
    analytically.
    """

    sign: float
    statistics: LcuOverlap


@dataclass(frozen=True)
class _SpeciesPlan:
    """The one dipole transition of a species: its reference and excited
    energies and its strength; spawn_index keys its RNG."""

    spawn_index: int
    reference: _Energy
    excited: _Energy
    strength: LcuOverlap


def _generator(seed: int, rows: np.ndarray | None, spawn_index: int, k: int):
    """Measurement generator k of one species in one run: None in an exact
    run (rows None), else one drawing what RngStream(seed, (spawn_index, k))
    draws.  A planned one starts from its precomputed row of `rows`; one past
    them, drawn only after an energy redraw, hashes its own."""
    if rows is None:
        return None
    if k < len(rows):
        return seeded_generator(rows[k])
    return seeded_generator(seed_states(seed, [(spawn_index, k)], STREAM_WORDS)[0])


@dataclass(frozen=True)
class QuantumPlan:
    """The seed-free half of a quantum run, built once per nucleus and window.

    Building validates the window, constructs the operators and simulates
    every LCU and SWAP-test circuit, as batches: the Hamiltonian circuit once
    over every configuration, each dipole circuit once, and every SWAP test in
    one pass.  A run only replays the random draws.  `length` is the
    oscillator length b (fm) that scales the strengths.
    """

    length: float
    species: tuple[_SpeciesPlan, ...]

    @classmethod
    def build(cls, config: NucleusConfig) -> "QuantumPlan":
        basis = config.basis
        if basis.nqubits < 2:
            raise ValidationError("quantum window needs at least two shells")
        if basis.nqubits > 5:
            raise ValidationError("quantum window capped at five shells")
        occupations = fill_occupations(config)
        homega = hbar_omega(config.A)
        b = oscillator_length(config.A)
        hamiltonian = build_hamiltonian(basis, homega)
        offset = hamiltonian.identity_coefficient()
        # one circuit of the shifted Hamiltonian serves every configuration of both species
        hz = LcuCircuit(hamiltonian.without_identity())
        # each species with a transition: its index, its dipole circuit and its two
        # configurations, the reference and the one with its top particle moved up
        n = basis.nqubits
        active = []
        for sp_index, name in enumerate(_SPECIES):
            full = _full_shells(basis, occupations.occupations(name))
            if 0 < full < n:
                reference = [1] * full + [0] * (n - full)
                excited = [1] * (full - 1) + [0, 1] + [0] * (n - full - 1)
                dipole = LcuCircuit(build_dipole(basis, config, name) * (1.0 / b))
                active.append((sp_index, dipole, (reference, excited)))
        if not active:
            raise ValidationError(f"window {basis.label} holds no dipole-active pair")
        configurations = [bits for *_, pair in active for bits in pair]
        rows = _basis_rows(n, configurations)
        # every energy in one LCU pass, and each dipole on its species' reference
        energies = hz.apply(StateVector(n, rows))
        dipoles = [
            dipole.apply(StateVector(n, ref)) for (_, dipole, _), ref in zip(active, rows[::2])
        ]
        # every SWAP test in one call: each configuration with its energy
        # image, then each dipole image with its excited configuration
        psi = [*rows, *(lcu.state.amplitudes for lcu in dipoles)]
        phi = [*energies.state.amplitudes, *rows[1::2]]
        swaps = swap_statistics(StateVector(n, np.array(psi)), StateVector(n, np.array(phi)))
        # a kept plan serves later runs, so their draws must not be writable
        swaps.marginal.setflags(write=False)
        overlaps = [SwapStatistics(p0, m) for p0, m in zip(swaps.p0.tolist(), swaps.marginal)]
        p_energy = energies.success_probability.tolist()
        energy = [
            _Energy(_shifted_sign(bits, basis, homega, offset), LcuOverlap(hz.lam, p, swap))
            for bits, p, swap in zip(configurations, p_energy, overlaps)
        ]
        species = []
        for k, ((sp_index, *_), lcu) in enumerate(zip(active, dipoles)):
            strength = LcuOverlap(lcu.lam, float(lcu.success_probability), overlaps[len(rows) + k])
            species.append(_SpeciesPlan(sp_index, energy[2 * k], energy[2 * k + 1], strength))
        return cls(length=b, species=tuple(species))

    @functools.cached_property
    def _draws(self) -> tuple:
        """Per species, what its measurements read, in tuples made once: its
        spawn index, each energy's sign and LcuOverlap, and the strength's
        lambda squared, p_success, SWAP p0 and first ancilla marginal."""
        draws = []
        for sp in self.species:
            ref, exc, swap = sp.reference, sp.excited, sp.strength.swap
            strength = (sp.strength.lam**2, sp.strength.p_success, swap.p0, float(swap.marginal[0]))
            energies = (ref.sign, ref.statistics, exc.sign, exc.statistics)
            draws.append((sp.spawn_index, *energies, strength))
        return tuple(draws)

    def _measure(self, shots: int, seeds: Sequence[int], exact: bool = False) -> np.ndarray:
        """The (runs, species, 2) excitation energy and strength that the
        quantum experiment at each seed measures per species, at `shots` shots
        per measurement; an exact run draws nothing and reads analytic values.

        Per species: measure the reference and the excited energy (redrawing
        the excited one while the excitation energy comes out non-positive),
        then estimate the transition strength from the dipole LCU success rate
        and a SWAP overlap.  Measurement k of species s at seed x draws from
        the stream RngStream(x, (s, k)), k counting the steps in draw order.
        The seed sequences of every planned stream of the batch are hashed in
        one seed_states pass, and a run starts each generator only when it
        draws from it (see _generator).
        """
        if exact:
            states = [[None] * len(self.species)] * len(seeds)
        else:
            keys = [(spawn, k) for spawn, *_ in self._draws for k in range(_PLANNED_STREAMS)]
            runs = len(seeds)
            states = seed_states(np.repeat(seeds, len(keys)), np.tile(keys, (runs, 1)), STREAM_WORDS)
            states = states.reshape(runs, len(self.species), _PLANNED_STREAMS, STREAM_WORDS)
        b2 = self.length**2
        measured = []
        for seed, run in zip(seeds, states):
            for (spawn, s_ref, ref, s_exc, exc, strength), rows in zip(self._draws, run):
                e_ref = s_ref * ref.energy(shots, _generator(seed, rows, spawn, 0))
                for k in range(1, MAX_ATTEMPTS + 1):
                    delta = s_exc * exc.energy(shots, _generator(seed, rows, spawn, k)) - e_ref
                    if delta > _MIN_GAP_MEV:
                        break
                else:
                    raise PreparationError("could not resolve a positive excitation energy")
                lam2, p, p0, m0 = strength
                if rows is None:
                    p_hat, raw = p, 2.0 * p0 - 1.0
                else:
                    # stream k + 1 is the strength's post-selection replay, which
                    # is not drawn; its SWAP shots on stream k + 2 are drawn only
                    # if their outcome is uncertain, binomial(shots, 1.0) being shots
                    swap = None if m0 == 1.0 else _generator(seed, rows, spawn, k + 2)
                    k0 = shots if swap is None else swap.binomial(shots, m0)
                    hits = _generator(seed, rows, spawn, k + 3).binomial(shots, p)
                    p_hat, raw = hits / shots, 2.0 * k0 / shots - 1.0
                measured += (delta, lam2 * p_hat * min(max(raw, 0.0), 1.0) * b2)
        return np.array(measured).reshape(len(seeds), len(self.species), 2)

    def transitions(self, seeds: Sequence[int], shots: int) -> list[TransitionSet]:
        """The poles that sampled experiments at the given seeds measure, at
        `shots` shots per measurement (see _measure)."""
        return [quantum_transitions(run) for run in self._measure(shots, seeds).tolist()]


def run_quantum(
    config: NucleusConfig,
    seed: int,
    run_index: int = 0,
    mode: str = "sampled",
) -> RunRecord:
    """One full quantum experiment at a given seed on the kept plan (see
    _plan): the measured poles, dressed exactly like the classical ones.  An
    "exact" run reads the analytic values and draws nothing."""
    if mode not in ("exact", "sampled"):
        raise ValidationError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    seed = non_negative_int(seed, "seed")
    run_index = non_negative_int(run_index, "run index")
    (measured,) = _plan(config)._measure(config.shots, [seed], exact=mode == "exact")
    transitions = quantum_transitions(measured.tolist())
    return RunRecord(
        run_index=run_index,
        seed=seed,
        transitions=transitions,
        spectrum=assemble_spectrum(config, transitions),
    )


def _plan(config: NucleusConfig) -> QuantumPlan:
    """The kept plan of a config's nucleus and window, built on first use."""
    return _kept_plan(config.A, config.Z, config.basis)


@functools.lru_cache(maxsize=PLAN_MEMO_SIZE)
def _kept_plan(a: int, z: int, basis: BasisWindow) -> QuantumPlan:
    # kappa is a required config field, but no plan reads it
    return QuantumPlan.build(NucleusConfig(A=a, Z=z, kappa=0.0, basis=basis))


def collect_runs(
    config: NucleusConfig,
    master_seed: int,
    runs: int | None = None,
) -> Ensemble:
    """Independent repeats of one plan with seeds derived from the master seed.

    `runs` overrides config.runs and is checked as the config checks it.
    The runs come from the kept plan of the config, so an ensemble at a new
    master seed or run count simulates no circuit again.  Every run's poles
    are drawn first; then the spectra are assembled, block by block, only to
    find each run's peak, and dropped.  Each run equals run_quantum at its own
    seed.  An ensemble that fits one block (_ENSEMBLE_BLOCK_BYTES) takes its
    median columns from that block's spectra; a larger one rebuilds every
    run's spectrum a block of grid columns at a time for them, when its
    median is first read.  So the memory of an ensemble grows with its run
    count only by its columns.  The last ensemble is kept: asking again for
    the same (config, master seed) returns the same Ensemble.
    """
    if runs is not None:
        config = replace(config, runs=runs)
    return _ensemble(config, non_negative_int(master_seed, "master seed"))


# The key is validated first: lru_cache takes True and 1.0 for the key 1.
@functools.lru_cache(maxsize=1)
def _ensemble(config: NucleusConfig, master_seed: int) -> Ensemble:
    runs = config.runs
    grid = config.energy_grid()
    step = max(1, _ENSEMBLE_BLOCK_BYTES // (_POINT_BYTES * grid.size))
    blocks = [slice(lo, lo + step) for lo in range(0, runs, step)]
    plan = _plan(config)
    indices = np.arange(runs)
    seeds = np.empty(runs, dtype=np.uint64)
    # each species' pole and its mirror (see quantum_transitions)
    poles = np.empty((3, runs, len(plan.species), 2))
    for block in blocks:
        seeds[block] = _run_seeds(master_seed, indices[block])
        measured = plan._measure(config.shots, seeds[block])
        poles[0, block] = measured[..., :1] * _MIRROR
        poles[1, block] = measured[..., 1:]
    poles[2] = _MIRROR
    poles = poles.reshape(3, runs, -1)
    energies, strengths, weights = poles
    weighted = strengths * weights
    peaks = np.empty((runs, 3))
    medians = None
    for block in blocks:
        rows = response_rows(config, grid, energies[block], weighted[block])
        peaks[block] = [find_peak(grid, sigma) for sigma in rows[-1]]
        if len(blocks) == 1:
            # the spectra exist now; a larger ensemble rebuilds them if asked
            medians = _medians(*rows)
            medians.setflags(write=False)
        del rows  # before the next block's spectra take their place
    for array in (grid, indices, seeds, poles, peaks):
        array.setflags(write=False)
    return Ensemble(config, grid, indices, seeds, *poles, *peaks.T, medians)


def _medians(
    r0: np.ndarray, r_dressed: np.ndarray, sigma_raw: np.ndarray, sigma: np.ndarray
) -> np.ndarray:
    """The (6, points) pointwise medians over the runs of (runs, points)
    response rows: of each part of r0 and of r_dressed, sigma_raw and sigma.

    They are stacked into one (runs, 6, points) array and take numpy's
    median steps (np.median's _median), which work column by column, so each
    point gets the bits np.median of its own column gets: one partition at
    the middle index or indices and the last one, the mean of the middle,
    and the last entry, which a NaN sorts to, wherever that is NaN.  Unlike
    np.median, this never imports numpy.ma.
    """
    stack = np.stack([r0.real, r0.imag, r_dressed.real, r_dressed.imag, sigma_raw, sigma], axis=1)
    half = len(stack) // 2
    middle = [half] if len(stack) % 2 else [half - 1, half]
    stack.partition([*middle, -1], axis=0)
    medians = np.mean(stack[middle[0] : half + 1], axis=0)
    np.copyto(medians, stack[-1], where=np.isnan(stack[-1]))
    return medians


def _median_spectrum(grid: np.ndarray, medians: np.ndarray) -> ResponseSpectrum:
    """The spectrum of the columns _medians gives, peak re-found: a batch of one."""
    r0, r_dressed = (medians[i : i + 1] + 1j * medians[i + 1 : i + 2] for i in (0, 2))
    (spectrum,) = spectrum_rows(grid, r0, r_dressed, medians[4:5], medians[5:6])
    return spectrum


def median_spectrum(records: Sequence[RunRecord]) -> ResponseSpectrum:
    """Pointwise median of every response column across runs, peak re-found.

    An ensemble's is the one it keeps (see Ensemble).  Other records are
    stacked from their spectra, which must share one energy grid, and take
    the same medians (see _medians).
    """
    if isinstance(records, Ensemble):
        return records.median
    if not records:
        raise ValidationError("median spectrum needs at least one run")
    grid = records[0].spectrum.energies
    for record in records:
        energies = record.spectrum.energies
        if energies is not grid and not np.array_equal(energies, grid):
            raise ValidationError("median spectrum needs runs on one energy grid")
    spectra = [record.spectrum for record in records]
    columns = ("r0", "r_dressed", "sigma_raw", "sigma")
    rows = (np.array([getattr(s, column) for s in spectra]) for column in columns)
    return _median_spectrum(grid, _medians(*rows))


def check_mad_runs(runs: int) -> None:
    """A MAD series starts at m = 2, so it needs at least two runs."""
    if runs < 2:
        raise ValidationError("need at least two runs for a MAD series")


def _middle(count: int, ranked: Callable[[int], float]) -> float:
    """statistics.median of `count` values, given the k-th smallest as ranked(k)."""
    half = count // 2
    if count % 2:
        return ranked(half)
    return (ranked(half - 1) + ranked(half)) / 2


def _ranked_deviation(ordered: list[float], center: float, k: int) -> float:
    """The k-th smallest |v - center| over the sorted values, 0-based.

    Below the center the deviations grow leftwards and from it on rightwards,
    so the k + 1 smallest are the i nearest on the left and the k + 1 - i
    nearest on the right, with i found by bisection.  Each deviation is
    computed as abs(v - center) would be: rounding is sign-symmetric.
    """
    split = bisect.bisect_left(ordered, center)
    lo, hi = max(0, k + 1 - (len(ordered) - split)), min(k + 1, split)
    while lo < hi:
        i = (lo + hi) // 2
        if center - ordered[split - 1 - i] < ordered[split + k - i] - center:
            lo = i + 1
        else:
            hi = i
    left = center - ordered[split - lo] if lo else -math.inf
    right = ordered[split + k - lo] - center if lo <= k else -math.inf
    return max(left, right)


def mad_series(records: Sequence[RunRecord]) -> MadSeries:
    """Cumulative statistics of peak energies over the first m runs, m >= 2.

    Each entry is bit for bit statistics.median of the first m peaks and of
    their absolute deviations from it.  The peaks seen so far are kept
    sorted, so no prefix is sorted again.
    """
    check_mad_runs(len(records))
    ordered: list[float] = []
    ms, medians, deviations = [], [], []
    for m, record in enumerate(records, start=1):
        bisect.insort(ordered, record.peak_energy)
        if m < 2:
            continue
        center = _middle(m, ordered.__getitem__)
        ms.append(m)
        medians.append(center)
        deviations.append(_middle(m, lambda k: _ranked_deviation(ordered, center, k)))
    return MadSeries(tuple(ms), tuple(medians), tuple(deviations))


def basis_study(config: NucleusConfig, windows: Sequence[BasisWindow]) -> tuple[BasisRow, ...]:
    """Classical peak position and width for each candidate shell window."""
    if not windows:
        raise ValidationError("basis study needs at least one window")
    rows = []
    for window in windows:
        spectrum = run_classical(replace(config, basis=window))
        rows.append(
            BasisRow(
                label=window.label,
                n_min=window.n_min,
                n_max=window.n_max,
                peak_energy=spectrum.peak_energy,
                width_fwhm=spectrum.width_fwhm,
            )
        )
    return tuple(rows)


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; bytes that do not decode are a SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_experimental_csv(path) -> ExperimentalSpectrum:
    """Read an energy_mev,sigma_mb table; '#' lines hold the provenance."""
    comments: list[str] = []
    rows: list[tuple[float, float]] = []
    header_seen = False
    for line_no, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line.lstrip("#").strip())
            continue
        if not header_seen:
            if line != "energy_mev,sigma_mb":
                raise SchemaError(f"{path}: expected header 'energy_mev,sigma_mb', got {line!r}")
            header_seen = True
            continue
        cells = line.split(",")
        if len(cells) != 2:
            raise SchemaError(f"{path}:{line_no}: expected 2 columns, got {len(cells)}")
        try:
            row = (float(cells[0]), float(cells[1]))
        except ValueError as exc:
            raise SchemaError(f"{path}:{line_no}: non-numeric cell") from exc
        if not np.isfinite(row).all():
            raise SchemaError(f"{path}:{line_no}: non-finite cell")
        rows.append(row)
    if not header_seen:
        raise SchemaError(f"{path}: missing header line")
    if len(rows) < 3:
        raise SchemaError(f"{path}: need at least 3 data rows, got {len(rows)}")
    energies = np.array([r[0] for r in rows])
    sigma = np.array([r[1] for r in rows])
    if not (np.diff(energies) > 0).all():
        raise SchemaError(f"{path}: energies must be strictly increasing")
    if (sigma < 0).any():
        raise SchemaError(f"{path}: cross sections must be >= 0")
    return ExperimentalSpectrum(energies=energies, sigma=sigma, source="; ".join(comments))


# (A, Z) -> name of the nuclei whose curve ships as data/{name}_photoabsorption.csv
BUNDLED_NUCLEI = {(120, 50): "sn120", (208, 82): "pb208"}


def bundled_experiment(nucleus: str) -> ExperimentalSpectrum:
    """Packaged photo-absorption reference curve for 'sn120' or 'pb208'.

    Each curve is parsed on first use and kept for the process; its arrays
    are read-only.
    """
    key = nucleus.lower()
    names = sorted(BUNDLED_NUCLEI.values())
    if key not in names:
        raise ValidationError(f"no bundled data for {nucleus!r}; options: {names}")
    return _bundled_curve(key)


# The key is validated first, so at most one curve per bundled nucleus is kept.
@functools.cache
def _bundled_curve(name: str) -> ExperimentalSpectrum:
    source = resources.files("gdrq").joinpath("data", f"{name}_photoabsorption.csv")
    with resources.as_file(source) as path:
        curve = load_experimental_csv(path)
    curve.energies.setflags(write=False)
    curve.sigma.setflags(write=False)
    return curve


def compare_with_experiment(
    spectrum: ResponseSpectrum, experiment: ExperimentalSpectrum
) -> ComparisonReport:
    """Peak offset and height ratio against the experimental peak, and both
    curves on the experimental points inside the model grid: the model is not
    extrapolated past its ends."""
    lo, hi = float(spectrum.energies[0]), float(spectrum.energies[-1])
    inside = (experiment.energies >= lo) & (experiment.energies <= hi)
    if not inside.any():
        raise ValidationError(f"no experimental energy inside the model grid [{lo:g}, {hi:g}] MeV")
    exp_e0, exp_height, _ = find_peak(experiment.energies, experiment.sigma)
    energies = experiment.energies[inside]
    return ComparisonReport(
        peak_offset=spectrum.peak_energy - exp_e0,
        height_ratio=spectrum.peak_height / exp_height,
        model_peak=spectrum.peak_energy,
        experiment_peak=exp_e0,
        energies=energies,
        model_sigma=np.interp(energies, spectrum.energies, spectrum.sigma),
        experiment_sigma=experiment.sigma[inside],
    )


def _write_rows(path, header: Sequence[str], row_format: str, rows: Iterable[tuple]) -> None:
    """The header, then `row_format % row` per row; cells need no CSV quoting
    (floats are %.9g, labels n-m)."""
    line = row_format + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join(line % row for row in rows))


def write_spectrum_csv(path, spectrum: ResponseSpectrum) -> None:
    """One row per grid energy; the three Cartesian columns of Im R0 and of Im R
    hold the same spherical channel and are kept for the file format."""
    header = [
        "energy_mev",
        "im_r0_1",
        "im_r0_2",
        "im_r0_3",
        "im_r_1",
        "im_r_2",
        "im_r_3",
        "sigma_raw_mb",
        "sigma_mb",
    ]
    columns = (
        spectrum.energies,
        spectrum.r0.imag,
        spectrum.r_dressed.imag,
        spectrum.sigma_raw,
        spectrum.sigma,
    )
    # each distinct cell is formatted once, then repeated
    cells = zip(*(["%.9g" % value for value in column.tolist()] for column in columns))
    rows = (
        (e, im_r0, im_r0, im_r0, im_r, im_r, im_r, raw, sigma)
        for e, im_r0, im_r, raw, sigma in cells
    )
    _write_rows(path, header, ",".join(["%s"] * 9), rows)


def write_runs_csv(path, records: Sequence[RunRecord]) -> None:
    _write_rows(
        path,
        ["run_index", "seed", "e0_mev"],
        "%d,%d,%.9g",
        ((r.run_index, r.seed, r.peak_energy) for r in records),
    )


def write_mad_csv(path, series: MadSeries) -> None:
    _write_rows(
        path,
        ["m", "e0_median_mev", "delta_e0_mev"],
        "%d,%.9g,%.9g",
        zip(series.m, series.e0_median, series.delta_e0),
    )


def write_basis_csv(path, rows: Sequence[BasisRow]) -> None:
    _write_rows(
        path,
        ["label", "n_min", "n_max", "e0_mev", "width_mev"],
        "%s,%d,%d,%.9g,%.9g",
        ((r.label, r.n_min, r.n_max, r.peak_energy, r.width_fwhm) for r in rows),
    )


def write_comparison_csv(path, report: ComparisonReport) -> None:
    _write_rows(
        path,
        ["energy_mev", "sigma_model_mb", "sigma_experiment_mb"],
        "%.9g,%.9g,%.9g",
        zip(
            report.energies.tolist(),
            report.model_sigma.tolist(),
            report.experiment_sigma.tolist(),
        ),
    )
