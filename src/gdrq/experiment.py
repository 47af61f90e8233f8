"""Experiment protocols: classical baseline, sampled quantum runs, studies.

The quantum pipeline works species by species.  Fully occupied shells of the
window form the reference bitstring; the dipole moves the collective top-shell
particle to an adjacent empty shell.  Excitation energies come from LCU energy
estimates of the identity-stripped Hamiltonian (much better post-selection
odds than the raw one), strengths from the LCU success rate times a SWAP-test
overlap with the target configuration.

A QuantumPlan builds the operators and simulates every circuit of a config
once; a run then only draws the classically random steps (post-selection
replays, shot counts, success-rate estimates) from spawn-keyed RngStream
children of its seed.  Runs are therefore reproducible bit for bit, and
independent of how many runs share a plan or in which order they are drawn.
"""

from __future__ import annotations

import csv
import itertools
import statistics
from dataclasses import dataclass, replace
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from .algorithms import (
    MAX_ATTEMPTS,
    LcuOverlap,
    check_mode,
    energy_statistics,
    lcu_apply,
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
    assemble_spectrum,
    classical_transitions,
    find_peak,
    quantum_transitions,
)
from .statevector import RngStream, StateVector, init_basis_state

_SPECIES = ("proton", "neutron")
_FULL_TOL = 1e-12
_MIN_GAP_MEV = 1e-9


@dataclass(frozen=True)
class RunRecord:
    """One quantum run: measured poles, assembled spectrum, peak summary."""

    run_index: int
    seed: int
    transitions: TransitionSet
    spectrum: ResponseSpectrum
    peak_energy: float
    width_fwhm: float


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


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Per-run seed from the master seed (spawn-key derivation, order free)."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(run_index),))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class _Energy:
    """Energy measurement of one basis configuration.

    The LCU and SWAP statistics give |<H - offset>|; its sign is known
    analytically.
    """

    sign: float
    statistics: LcuOverlap

    def measure(self, shots: int, mode: str, rng: RngStream | None) -> float:
        return self.sign * self.statistics.energy(shots, mode, rng)


@dataclass(frozen=True)
class _Hop:
    """One dipole-reachable configuration: its energy and the transition statistics."""

    excited: StateVector
    energy: _Energy
    strength: LcuOverlap


@dataclass(frozen=True)
class _SpeciesPlan:
    """Reference configuration of one species and its hops; spawn_index keys its RNG."""

    spawn_index: int
    reference: StateVector
    energy: _Energy
    hops: tuple[_Hop, ...]


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
        hz = hamiltonian.without_identity()

        def configuration(bits: Sequence[int]) -> tuple[StateVector, _Energy]:
            state = init_basis_state(basis.nqubits, _bitstring(bits))
            sign = _shifted_sign(bits, basis, homega, offset)
            return state, _Energy(sign, energy_statistics(hz, state))

        species = []
        for sp_index, name in enumerate(_SPECIES):
            bits = _core_bits(basis, occupations.occupations(name))
            moves = _hops(bits)
            if not moves:
                continue
            ref, ref_energy = configuration(bits)
            dipole = build_dipole(basis, config, name) * (1.0 / b)
            lcu = lcu_apply(dipole, ref)
            hops = []
            for q_from, q_to in moves:
                ex_bits = list(bits)
                ex_bits[q_from], ex_bits[q_to] = 0, 1
                ex_state, ex_energy = configuration(ex_bits)
                swap = swap_statistics(lcu.state, ex_state)
                hops.append(
                    _Hop(ex_state, ex_energy, LcuOverlap(lcu.lam, lcu.success_probability, swap))
                )
            species.append(_SpeciesPlan(sp_index, ref, ref_energy, tuple(hops)))
        if not species:
            raise ValidationError(f"window {basis.label} holds no dipole-active pair")
        return cls(config=config, length=b, species=tuple(species))

    def run(self, seed: int, run_index: int = 0, mode: str = "sampled") -> RunRecord:
        """One full quantum experiment at a given seed.

        Per species: measure the reference energy and the energy of every
        dipole-reachable configuration (redrawing a measurement whose
        excitation energy comes out non-positive), then estimate each
        transition strength from the dipole LCU success rate and a SWAP
        overlap.  In sampled mode every measurement step draws from the next
        child of the species stream; the measured poles are dressed exactly
        like the classical ones.
        """
        rng = RngStream(seed)
        check_mode(mode, rng)
        shots = self.config.shots
        b = self.length
        measured: list[tuple[float, float]] = []
        for sp in self.species:
            if mode == "sampled":
                streams = map(rng.child(sp.spawn_index).child, itertools.count())
            else:
                streams = itertools.repeat(None)
            e_ref = sp.energy.measure(shots, mode, next(streams))
            for hop in sp.hops:
                for _attempt in range(MAX_ATTEMPTS):
                    delta = hop.energy.measure(shots, mode, next(streams)) - e_ref
                    if delta > _MIN_GAP_MEV:
                        break
                else:
                    raise PreparationError("could not resolve a positive excitation energy")
                p_hat, overlap = hop.strength.factors(shots, mode, streams)
                measured.append((delta, hop.strength.lam**2 * p_hat * overlap.clamped * b**2))
        transitions = quantum_transitions(measured)
        spectrum = assemble_spectrum(self.config, transitions)
        return RunRecord(
            run_index=run_index,
            seed=int(seed),
            transitions=transitions,
            spectrum=spectrum,
            peak_energy=spectrum.peak_energy,
            width_fwhm=spectrum.width_fwhm,
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
    mode: str = "sampled",
) -> tuple[RunRecord, ...]:
    """Independent repeats of one plan with seeds derived from the master seed."""
    n_runs = config.runs if runs is None else int(runs)
    if n_runs < 1:
        raise ValidationError("runs must be >= 1")
    plan = QuantumPlan.build(config)
    return tuple(
        plan.run(derive_run_seed(master_seed, index), run_index=index, mode=mode)
        for index in range(n_runs)
    )


def median_spectrum(records: Sequence[RunRecord]) -> ResponseSpectrum:
    """Pointwise median of every response column across runs, peak re-found."""
    if not records:
        raise ValidationError("median spectrum needs at least one run")
    energies = records[0].spectrum.energies
    r0 = np.median([r.spectrum.r0.real for r in records], axis=0) + 1j * np.median(
        [r.spectrum.r0.imag for r in records], axis=0
    )
    r_dressed = np.median([r.spectrum.r_dressed.real for r in records], axis=0) + 1j * np.median(
        [r.spectrum.r_dressed.imag for r in records], axis=0
    )
    sigma_raw = np.median([r.spectrum.sigma_raw for r in records], axis=0)
    sigma = np.median([r.spectrum.sigma for r in records], axis=0)
    e0, height, width = find_peak(energies, sigma)
    return ResponseSpectrum(
        energies=energies,
        r0=r0,
        r_dressed=r_dressed,
        sigma_raw=sigma_raw,
        sigma=sigma,
        peak_energy=e0,
        peak_height=height,
        width_fwhm=width,
    )


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


def load_experimental_csv(path) -> ExperimentalSpectrum:
    """Read an energy_mev,sigma_mb table; '#' lines hold the provenance."""
    comments: list[str] = []
    rows: list[tuple[float, float]] = []
    header_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
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
                rows.append((float(cells[0]), float(cells[1])))
            except ValueError as exc:
                raise SchemaError(f"{path}:{line_no}: non-numeric cell") from exc
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


_BUNDLED = {
    "sn120": "sn120_photoabsorption.csv",
    "pb208": "pb208_photoabsorption.csv",
}


def bundled_experiment(nucleus: str) -> ExperimentalSpectrum:
    """Packaged photo-absorption reference curve for 'sn120' or 'pb208'."""
    key = nucleus.lower()
    if key not in _BUNDLED:
        raise ValidationError(f"no bundled data for {nucleus!r}; options: {sorted(_BUNDLED)}")
    source = resources.files("gdrq").joinpath("data", _BUNDLED[key])
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


def _cell(value) -> str:
    """CSV cell: floats at 9 significant digits, everything else verbatim."""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _write_rows(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


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
    rows = (
        [float(e), *[float(im_r0)] * 3, *[float(im_r)] * 3, float(raw), float(sigma)]
        for e, im_r0, im_r, raw, sigma in zip(
            spectrum.energies,
            spectrum.r0.imag,
            spectrum.r_dressed.imag,
            spectrum.sigma_raw,
            spectrum.sigma,
        )
    )
    _write_rows(path, header, rows)


def write_runs_csv(path, records: Sequence[RunRecord]) -> None:
    _write_rows(
        path,
        ["run_index", "seed", "e0_mev"],
        ([r.run_index, r.seed, float(r.peak_energy)] for r in records),
    )


def write_mad_csv(path, series: MadSeries) -> None:
    _write_rows(
        path,
        ["m", "e0_median_mev", "delta_e0_mev"],
        (
            [m, float(med), float(dev)]
            for m, med, dev in zip(series.m, series.e0_median, series.delta_e0)
        ),
    )


def write_basis_csv(path, rows: Sequence[BasisRow]) -> None:
    _write_rows(
        path,
        ["label", "n_min", "n_max", "e0_mev", "width_mev"],
        ([r.label, r.n_min, r.n_max, float(r.peak_energy), float(r.width_fwhm)] for r in rows),
    )


def write_comparison_csv(path, report: ComparisonReport) -> None:
    _write_rows(
        path,
        ["energy_mev", "sigma_model_mb", "sigma_experiment_mb"],
        (
            [float(report.energies[i]), float(report.model_sigma[i]), float(report.experiment_sigma[i])]
            for i in range(len(report.energies))
        ),
    )
