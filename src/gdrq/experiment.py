"""Experiment protocols: classical baseline, sampled quantum runs, studies.

The quantum pipeline works species by species.  Its full window shells (the
window's first ones, since shells fill bottom-up) form the reference bitstring,
and the dipole lifts the top full shell's particle one shell up: one transition
per species with some but not all window shells full.  Its energy comes from
LCU energy estimates of the identity-stripped Hamiltonian (much better
post-selection odds than the raw one) on both configurations, its strength
from the LCU success rate times a SWAP-test overlap with the excited one.

A QuantumPlan builds the operators and simulates every circuit of a config
once; a run then only draws the classically random steps (post-selection
replays, shot counts, success-rate estimates) from spawn-keyed streams of its
seed.  Runs are therefore reproducible bit for bit, and independent of how
many runs share a plan or in which order they are drawn; an ensemble hashes
the seed sequences of all its runs' streams in one pass and assembles the
spectra of all its runs in one batch.  A single run is a batch of one, and so
is the median spectrum of an ensemble, whose six real columns take one
stacked median.  Everything a run's draws need that no seed changes (each
replay's budget and block size included) is fixed in the plan, so a run
pays for its draws and little else.

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
import itertools
import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .algorithms import (
    FACTOR_STREAMS,
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
    TransitionSet,
    assemble_spectra,
    assemble_spectrum,
    classical_transitions,
    find_peak,
    quantum_transitions,
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
# streams a sampled run draws per species when no energy is redrawn: the
# reference energy, the excited energy and the strength factors
_PLANNED_STREAMS = 2 + FACTOR_STREAMS


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

    def measure(self, shots: int, rng: np.random.Generator | None) -> float:
        return self.sign * self.statistics.energy(shots, rng)


@dataclass(frozen=True)
class _SpeciesPlan:
    """The one dipole transition of a species: its reference and excited
    energies and its strength; spawn_index keys its RNG."""

    spawn_index: int
    reference: _Energy
    excited: _Energy
    strength: LcuOverlap


def _species_streams(
    seed: int, states: np.ndarray, spawn_index: int
) -> Iterator[np.random.Generator]:
    """Measurement generators of one species in one run, in draw order.

    Generator k draws what RngStream(seed, (spawn_index, k)) draws.  The
    planned ones start from their precomputed `states` rows; one past them,
    drawn only after an energy redraw, hashes its own row.
    """
    planned = [seeded_generator(row) for row in states]
    further = (
        seeded_generator(seed_states(seed, [(spawn_index, k)], STREAM_WORDS)[0])
        for k in itertools.count(len(states))
    )
    return itertools.chain(planned, further)


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

    def _measure(
        self, shots: int, streams: Sequence[Iterator[np.random.Generator | None]]
    ) -> TransitionSet:
        """The poles one quantum experiment measures.

        Per species: measure the reference and the excited energy (redrawing
        the excited one while the excitation energy comes out non-positive),
        then estimate the transition strength from the dipole LCU success rate
        and a SWAP overlap.  Every measurement step draws from the next item
        of its species' streams; an item None reads the analytic value
        instead.
        """
        b = self.length
        measured: list[tuple[float, float]] = []
        for sp, streams in zip(self.species, streams):
            e_ref = sp.reference.measure(shots, next(streams))
            for _attempt in range(MAX_ATTEMPTS):
                delta = sp.excited.measure(shots, next(streams)) - e_ref
                if delta > _MIN_GAP_MEV:
                    break
            else:
                raise PreparationError("could not resolve a positive excitation energy")
            p_hat, overlap = sp.strength.factors(shots, next(streams), next(streams), next(streams))
            measured.append((delta, sp.strength.lam**2 * p_hat * overlap * b**2))
        return quantum_transitions(measured)

    def transitions(self, seeds: Sequence[int], shots: int) -> list[TransitionSet]:
        """The poles that sampled experiments at the given seeds measure, at
        `shots` shots per measurement.

        Measurement k of species s at seed x draws from the stream
        RngStream(x, (s, k)).  The seed sequences of every planned stream of
        the batch are hashed in one seed_states pass, and each run starts its
        generators only when it is drawn.
        """
        keys = [(sp.spawn_index, k) for sp in self.species for k in range(_PLANNED_STREAMS)]
        runs = len(seeds)
        states = seed_states(np.repeat(seeds, len(keys)), np.tile(keys, (runs, 1)), STREAM_WORDS)
        states = states.reshape(runs, len(self.species), _PLANNED_STREAMS, STREAM_WORDS)
        return [
            self._measure(
                shots,
                [
                    _species_streams(seed, rows, sp.spawn_index)
                    for sp, rows in zip(self.species, states[run])
                ]
            )
            for run, seed in enumerate(seeds)
        ]


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
    plan = _plan(config)
    if mode == "exact":
        transitions = plan._measure(config.shots, [itertools.repeat(None)] * len(plan.species))
    else:
        (transitions,) = plan.transitions([seed], config.shots)
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
) -> tuple[RunRecord, ...]:
    """Independent repeats of one plan with seeds derived from the master seed.

    `runs` overrides config.runs and is checked as the config checks it.
    Every run's poles are drawn first, their streams hashed in one pass; their
    spectra are then assembled as one batch, each record equal to run_quantum
    at its own seed.  The runs come from the kept plan of the config, so an
    ensemble at a new master seed or run count simulates no circuit again.
    The last ensemble is kept too: asking again for the same (config, master
    seed) returns the same records, whose arrays are read-only.
    """
    if runs is not None:
        config = replace(config, runs=runs)
    return _ensemble(config, non_negative_int(master_seed, "master seed"))


# The key is validated first: lru_cache takes True and 1.0 for the key 1.
@functools.lru_cache(maxsize=1)
def _ensemble(config: NucleusConfig, master_seed: int) -> tuple[RunRecord, ...]:
    seeds = _run_seeds(master_seed, np.arange(config.runs))
    poles = _plan(config).transitions(seeds, config.shots)
    spectra = assemble_spectra(config, poles)
    return tuple(
        RunRecord(run_index=index, seed=int(seed), transitions=transitions, spectrum=spectrum)
        for index, (seed, transitions, spectrum) in enumerate(zip(seeds, poles, spectra))
    )


def median_spectrum(records: Sequence[RunRecord]) -> ResponseSpectrum:
    """Pointwise median of every response column across runs, peak re-found.

    The six real columns (each part of r0 and of r_dressed, sigma_raw and
    sigma) of every run are stacked into one (runs, 6, grid) array and take
    one np.median over the runs; each point gets the bits a median of its own
    column gets.  The runs must share one energy grid.
    """
    if not records:
        raise ValidationError("median spectrum needs at least one run")
    grid = records[0].spectrum.energies
    for record in records:
        energies = record.spectrum.energies
        if energies is not grid and not np.array_equal(energies, grid):
            raise ValidationError("median spectrum needs runs on one energy grid")
    parts = [
        (s.r0.real, s.r0.imag, s.r_dressed.real, s.r_dressed.imag, s.sigma_raw, s.sigma)
        for s in (record.spectrum for record in records)
    ]
    median = np.median(np.array(parts), axis=0, overwrite_input=True)
    r0, r_dressed = (median[i : i + 1] + 1j * median[i + 1 : i + 2] for i in (0, 2))
    (spectrum,) = spectrum_rows(grid, r0, r_dressed, median[4:5], median[5:6])
    return spectrum


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
    columns = zip(
        spectrum.energies.tolist(),
        spectrum.r0.imag.tolist(),
        spectrum.r_dressed.imag.tolist(),
        spectrum.sigma_raw.tolist(),
        spectrum.sigma.tolist(),
    )
    rows = (
        (e, im_r0, im_r0, im_r0, im_r, im_r, im_r, raw, sigma)
        for e, im_r0, im_r, raw, sigma in columns
    )
    _write_rows(path, header, ",".join(["%.9g"] * 9), rows)


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
