"""Experiment protocols: classical baseline, sampled quantum runs, studies.

The quantum pipeline works species by species.  Fully occupied shells of the
window form the reference bitstring; the dipole moves the collective top-shell
particle to an adjacent empty shell.  Excitation energies come from LCU energy
estimates of the identity-stripped Hamiltonian (much better post-selection
odds than the raw one), strengths from the LCU success rate times a SWAP-test
overlap with the target configuration.

A QuantumPlan builds the operators and simulates every circuit of a config
once; a run then only draws the classically random steps (post-selection
replays, shot counts, success-rate estimates) from spawn-keyed streams of its
seed.  Runs are therefore reproducible bit for bit, and independent of how
many runs share a plan or in which order they are drawn; an ensemble hashes
the seed sequences of all its runs' streams in one pass and assembles the
spectra of all its runs in one batch.  A single run is a batch of one, and so
is the median spectrum of an ensemble.
"""

from __future__ import annotations

import functools
import itertools
import statistics
from dataclasses import dataclass, replace
from importlib import resources
from typing import Iterable, Iterator, Sequence

import numpy as np

from .algorithms import (
    FACTOR_STREAMS,
    MAX_ATTEMPTS,
    LcuCircuit,
    LcuOverlap,
    swap_statistics,
)
from .encoding import (
    BasisWindow,
    NucleusConfig,
    build_dipole,
    build_hamiltonian,
    check_max_runs,
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
    init_basis_state,
    non_negative_int,
    seed_states,
    seeded_generator,
)

_SPECIES = ("proton", "neutron")
_FULL_TOL = 1e-12
_MIN_GAP_MEV = 1e-9


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
    """Model vs experiment on the experimental grid."""

    peak_offset: float
    height_ratio: float
    model_peak: float
    experiment_peak: float
    energies: np.ndarray
    model_sigma: np.ndarray
    experiment_sigma: np.ndarray


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation from the median."""
    values = list(values)
    if not values:
        raise ValidationError("mad needs at least one value")
    center = statistics.median(values)
    return statistics.median(abs(v - center) for v in values)


def run_classical(config: NucleusConfig) -> ResponseSpectrum:
    """Independent-particle poles from shell occupations, dressed and calibrated."""
    occupations = fill_occupations(config)
    transitions = classical_transitions(config, occupations)
    if not transitions.entries:
        raise ValidationError(f"window {config.basis.label} holds no dipole-active pair")
    return assemble_spectrum(config, transitions)


def _core_bits(window: BasisWindow, occ: Sequence[float]) -> list[int]:
    """1 for window shells that are completely filled, 0 otherwise."""
    return [1 if occ[shell] >= 1.0 - _FULL_TOL else 0 for shell in window.shells()]


def _hops(bits: Sequence[int]) -> list[tuple[int, int]]:
    """Adjacent (from_qubit, to_qubit) moves from an occupied to an empty shell."""
    moves = []
    for q, filled in enumerate(bits):
        if not filled:
            continue
        for t in (q - 1, q + 1):
            if 0 <= t < len(bits) and not bits[t]:
                moves.append((q, t))
    moves.sort()
    return moves


def _bitstring(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in reversed(bits))


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
class _Hop:
    """One dipole-reachable configuration: its energy and the transition statistics."""

    energy: _Energy
    strength: LcuOverlap


@dataclass(frozen=True)
class _SpeciesPlan:
    """Reference energy of one species and its hops; spawn_index keys its RNG."""

    spawn_index: int
    energy: _Energy
    hops: tuple[_Hop, ...]

    @property
    def planned_streams(self) -> int:
        """Streams a sampled run draws for the species when no energy is redrawn:
        the reference energy, then per hop its energy and the strength factors."""
        return 1 + len(self.hops) * (1 + FACTOR_STREAMS)


def _species_streams(
    seed: int, states: np.ndarray, spawn_index: int
) -> Iterator[np.random.Generator]:
    """Measurement generators of one species in one run, in draw order.

    Generator k draws what RngStream(seed, (spawn_index, k)) draws.  The
    planned ones start from their precomputed `states` rows; one past them,
    drawn only after an energy redraw, hashes its own row.
    """
    planned = map(seeded_generator, states)
    further = (
        seeded_generator(seed_states(seed, [(spawn_index, k)], STREAM_WORDS)[0])
        for k in itertools.count(len(states))
    )
    return itertools.chain(planned, further)


@dataclass(frozen=True)
class QuantumPlan:
    """The seed-free half of a quantum run, built once per config.

    Building validates the config, constructs the operators and simulates
    every LCU and SWAP-test circuit; `run` only replays the random draws.
    `length` is the oscillator length b (fm) that scales the strengths.
    """

    config: NucleusConfig
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

        def configuration(bits: Sequence[int]) -> tuple[StateVector, _Energy]:
            state = init_basis_state(basis.nqubits, _bitstring(bits))
            sign = _shifted_sign(bits, basis, homega, offset)
            return state, _Energy(sign, hz.energy_statistics(state))

        species = []
        for sp_index, name in enumerate(_SPECIES):
            bits = _core_bits(basis, occupations.occupations(name))
            moves = _hops(bits)
            if not moves:
                continue
            ref, ref_energy = configuration(bits)
            dipole = build_dipole(basis, config, name) * (1.0 / b)
            lcu = LcuCircuit(dipole).apply(ref)
            hops = []
            for q_from, q_to in moves:
                ex_bits = list(bits)
                ex_bits[q_from], ex_bits[q_to] = 0, 1
                ex_state, ex_energy = configuration(ex_bits)
                swap = swap_statistics(lcu.state, ex_state)
                hops.append(_Hop(ex_energy, LcuOverlap(lcu.lam, lcu.success_probability, swap)))
            species.append(_SpeciesPlan(sp_index, ref_energy, tuple(hops)))
        if not species:
            raise ValidationError(f"window {basis.label} holds no dipole-active pair")
        return cls(config=config, length=b, species=tuple(species))

    def _measure(self, streams: Sequence[Iterator[np.random.Generator | None]]) -> TransitionSet:
        """The poles one quantum experiment measures.

        Per species: measure the reference energy and the energy of every
        dipole-reachable configuration (redrawing a measurement whose
        excitation energy comes out non-positive), then estimate each
        transition strength from the dipole LCU success rate and a SWAP
        overlap.  Every measurement step draws from the next item of its
        species' streams; an item None reads the analytic value instead.
        """
        shots = self.config.shots
        b = self.length
        measured: list[tuple[float, float]] = []
        for sp, streams in zip(self.species, streams):
            e_ref = sp.energy.measure(shots, next(streams))
            for hop in sp.hops:
                for _attempt in range(MAX_ATTEMPTS):
                    delta = hop.energy.measure(shots, next(streams)) - e_ref
                    if delta > _MIN_GAP_MEV:
                        break
                else:
                    raise PreparationError("could not resolve a positive excitation energy")
                p_hat, overlap = hop.strength.factors(shots, streams)
                measured.append((delta, hop.strength.lam**2 * p_hat * overlap.clamped * b**2))
        return quantum_transitions(measured)

    def transitions(self, seeds: Sequence[int]) -> list[TransitionSet]:
        """The poles that sampled experiments at the given seeds measure.

        Measurement k of species s at seed x draws from the stream
        RngStream(x, (s, k)).  The seed sequences of every planned stream of
        the batch are hashed in one seed_states pass, and each run starts its
        generators only when it is drawn.
        """
        counts = [sp.planned_streams for sp in self.species]
        keys = [(sp.spawn_index, k) for sp, n in zip(self.species, counts) for k in range(n)]
        runs = len(seeds)
        states = seed_states(np.repeat(seeds, len(keys)), np.tile(keys, (runs, 1)), STREAM_WORDS)
        states = states.reshape(runs, len(keys), STREAM_WORDS)
        by_species = np.split(states, np.cumsum(counts)[:-1], axis=1)
        return [
            self._measure(
                [
                    _species_streams(seed, rows[run], sp.spawn_index)
                    for sp, rows in zip(self.species, by_species)
                ]
            )
            for run, seed in enumerate(seeds)
        ]

    def run(self, seed: int, run_index: int = 0, mode: str = "sampled") -> RunRecord:
        """One full quantum experiment at a given seed: the measured poles
        (see `transitions`), dressed exactly like the classical ones.  An
        "exact" run reads the analytic values and draws nothing."""
        if mode not in ("exact", "sampled"):
            raise ValidationError(f"mode must be 'exact' or 'sampled', got {mode!r}")
        seed = non_negative_int(seed, "seed")
        run_index = non_negative_int(run_index, "run index")
        if mode == "exact":
            transitions = self._measure([itertools.repeat(None)] * len(self.species))
        else:
            (transitions,) = self.transitions([seed])
        return RunRecord(
            run_index=run_index,
            seed=seed,
            transitions=transitions,
            spectrum=assemble_spectrum(self.config, transitions),
        )


def run_quantum(
    config: NucleusConfig,
    seed: int,
    run_index: int = 0,
    mode: str = "sampled",
) -> RunRecord:
    """One full quantum experiment at a given seed (see QuantumPlan.run)."""
    return QuantumPlan.build(config).run(seed, run_index, mode)


def collect_runs(
    config: NucleusConfig,
    master_seed: int,
    runs: int | None = None,
) -> tuple[RunRecord, ...]:
    """Independent repeats of one plan with seeds derived from the master seed.

    Every run's poles are drawn first, their streams hashed in one pass; their
    spectra are then assembled as one batch, each record equal to plan.run at
    its own seed.  The last ensemble is kept: asking again for the same
    (config, master seed, run count) returns the same records, whose arrays
    are read-only.
    """
    n_runs = non_negative_int(config.runs if runs is None else runs, "runs")
    if n_runs < 1:
        raise ValidationError("runs must be >= 1")
    check_max_runs(n_runs)
    return _ensemble(config, non_negative_int(master_seed, "master seed"), n_runs)


# The key is validated first: lru_cache takes True and 1.0 for the key 1.
@functools.lru_cache(maxsize=1)
def _ensemble(config: NucleusConfig, master_seed: int, n_runs: int) -> tuple[RunRecord, ...]:
    seeds = _run_seeds(master_seed, np.arange(n_runs))
    plan = QuantumPlan.build(config)
    poles = plan.transitions(seeds)
    spectra = assemble_spectra(config, poles)
    return tuple(
        RunRecord(run_index=index, seed=int(seed), transitions=transitions, spectrum=spectrum)
        for index, (seed, transitions, spectrum) in enumerate(zip(seeds, poles, spectra))
    )


def _median(rows: list[np.ndarray]) -> np.ndarray:
    """Pointwise median over rows, a batch of one; complex takes each part's."""
    if np.iscomplexobj(rows[0]):
        return _median([row.real for row in rows]) + 1j * _median([row.imag for row in rows])
    return np.median(rows, axis=0, keepdims=True)


def median_spectrum(records: Sequence[RunRecord]) -> ResponseSpectrum:
    """Pointwise median of every response column across runs, peak re-found."""
    if not records:
        raise ValidationError("median spectrum needs at least one run")
    columns = (
        _median([getattr(r.spectrum, column) for r in records])
        for column in ("r0", "r_dressed", "sigma_raw", "sigma")
    )
    (spectrum,) = spectrum_rows(records[0].spectrum.energies, *columns)
    return spectrum


def check_mad_runs(runs: int) -> None:
    """A MAD series starts at m = 2, so it needs at least two runs."""
    if runs < 2:
        raise ValidationError("need at least two runs for a MAD series")


def mad_series(records: Sequence[RunRecord]) -> MadSeries:
    """Cumulative statistics of peak energies over the first m runs, m >= 2."""
    check_mad_runs(len(records))
    e0s = [r.peak_energy for r in records]
    ms, medians, deviations = [], [], []
    for m in range(2, len(e0s) + 1):
        head = e0s[:m]
        ms.append(m)
        medians.append(statistics.median(head))
        deviations.append(mad(head))
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
    """Packaged photo-absorption reference curve for 'sn120' or 'pb208'."""
    key = nucleus.lower()
    names = sorted(BUNDLED_NUCLEI.values())
    if key not in names:
        raise ValidationError(f"no bundled data for {nucleus!r}; options: {names}")
    source = resources.files("gdrq").joinpath("data", f"{key}_photoabsorption.csv")
    with resources.as_file(source) as path:
        return load_experimental_csv(path)


def compare_with_experiment(
    spectrum: ResponseSpectrum, experiment: ExperimentalSpectrum
) -> ComparisonReport:
    """Peak offset and height ratio, with both curves on the experimental grid."""
    lo = max(float(spectrum.energies[0]), float(experiment.energies[0]))
    hi = min(float(spectrum.energies[-1]), float(experiment.energies[-1]))
    if lo >= hi:
        raise ValidationError("model and experimental energy ranges do not overlap")
    exp_e0, exp_height, _ = find_peak(experiment.energies, experiment.sigma)
    model_sigma = np.interp(experiment.energies, spectrum.energies, spectrum.sigma)
    return ComparisonReport(
        peak_offset=spectrum.peak_energy - exp_e0,
        height_ratio=spectrum.peak_height / exp_height,
        model_peak=spectrum.peak_energy,
        experiment_peak=exp_e0,
        energies=experiment.energies,
        model_sigma=model_sigma,
        experiment_sigma=experiment.sigma,
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
