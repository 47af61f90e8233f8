"""The four benchmark workloads, their inputs and their output checks.

A workload runs in rounds.  Round k draws its inputs from (benchmark seed,
workload, k) only, so the program receives configs and seeds and nothing
else, and every round attempts the same operations: the share of expected
failures is the same in every run.  Calls into gdrq go through `clock`, which
adds up the time spent inside the program and splits it into chunks of equal
make-up; checks run outside it.  Calls are looked up on the gdrq modules at
call time, so a tracer that patches those modules sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from functools import lru_cache

import numpy as np

import reference as ref

NUCLEI = (("sn120", 120, 50), ("pb208", 208, 82))
OUT_DIR = ".bench_out"
# z-score of the shot-noise tolerance on ensemble medians; the standard error
# comes from each ensemble's own MAD
ENSEMBLE_Z = 8.0
# runs per collect_runs call in `ensemble`: a round makes config.runs of them
# per nucleus, in calls short enough to time many per run
CHUNK_RUNS = 20


class LeftOut(Exception):
    """The round hit a fault that strikes only on some seeds; it is not counted."""


class Clock:
    """Sums the wall and process CPU time spent inside calls made through it.

    `mark(items, kind)` closes a chunk: the items completed since the last
    mark and the time they took inside gdrq.  The kind names what a chunk
    holds (a nucleus, where a round has both), so that rates are compared
    only between chunks of like work.
    """

    def __init__(self):
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self.chunks: list[tuple[str, int, float]] = []
        self._marked = 0.0

    def __call__(self, fn, *args, **kwargs):
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start
            self.cpu_seconds += time.process_time() - cpu

    def add(self, other: "Clock") -> None:
        self.seconds += other.seconds
        self.cpu_seconds += other.cpu_seconds

    def mark(self, items: int, kind: str = "") -> None:
        self.chunks.append((kind, items, self.seconds - self._marked))
        self._marked = self.seconds


def derive_seed(*path: int) -> int:
    """Non-negative 32-bit seed addressed by a path of integers."""
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0])


def read_config_values(path: str) -> dict[str, str]:
    """key = value pairs of a config file, read apart from gdrq."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            key, sep, value = raw.split("#", 1)[0].partition("=")
            if sep:
                values[key.strip()] = value.strip()
    return values


@lru_cache(maxsize=None)
def exact_poles(a: int, z: int, lo: int, hi: int) -> tuple:
    return tuple(ref.exact_poles(a, z, lo, hi))


def poles_of(config) -> tuple:
    return exact_poles(config.A, config.Z, config.basis.n_min, config.basis.n_max)


def _budget_fault(text: str) -> bool:
    return "post-selection failed" in text


def _close(got, want, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1e-300)


def _sigma_close(got: np.ndarray, want: np.ndarray, rtol: float) -> bool:
    return got.shape == want.shape and float(np.max(np.abs(got - want))) <= rtol * float(
        np.max(np.abs(want))
    )


class Workload:
    name = ""
    tag = 0  # keeps the input streams of the workloads apart
    trace_rounds = 2

    def __init__(self, gdrq, seed: int):
        self.g = gdrq
        self.seed = seed
        self.problems: list[str] = []

    def problem(self, text: str) -> None:
        self.problems.append(f"{self.name}: {text}")

    def rng(self, k: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.tag, k])

    def config(self, a, z, window, **fields):
        enc = self.g.encoding
        return enc.NucleusConfig(A=a, Z=z, basis=enc.BasisWindow.parse(window), **fields)

    def first_item(self) -> None:
        raise NotImplementedError

    def round_size(self) -> int:
        """Items every round attempts."""
        raise NotImplementedError

    def round(self, k: int, clock: Clock) -> tuple[int, int]:
        """Run round k; return (attempted, failed) items."""
        raise NotImplementedError

    def final_checks(self) -> None:
        """Checks that call gdrq again; run once, untimed and untraced."""


class Ensemble(Workload):
    """collect_runs on the shipped configs, then median_spectrum and mad_series."""

    name = "ensemble"
    tag = 1

    def __init__(self, gdrq, seed):
        super().__init__(gdrq, seed)
        self.nuclei = []
        for j, (nucleus, a, z) in enumerate(NUCLEI):
            config = gdrq.cli.load_config(os.path.join("configs", f"{nucleus}.cfg"))
            energies = ref.grid(config.grid_min, config.grid_max, config.grid_step)
            lo, hi = config.basis.n_min, config.basis.n_max
            sigma = ref.cross_section(
                a, z, ref.mirrored(exact_poles(a, z, lo, hi)), config.kappa,
                config.gamma_spread, energies, config.calibration,
            )
            self.nuclei.append((j, nucleus, config, ref.peak(energies, sigma)[0], ref.hbar_omega(a)))

    def collect(self, path, j, clock, runs):
        """collect_runs at the first master seed under `path` that the
        post-selection budget fault spares; the time of the others is not counted."""
        config = self.nuclei[j][2]
        for attempt in range(100):
            master = derive_seed(self.seed, self.tag, *path, attempt)
            trial = Clock()
            try:
                records = trial(self.g.experiment.collect_runs, config, master, runs=runs)
            except self.g.errors.PreparationError as exc:
                if not _budget_fault(str(exc)):
                    raise
                print(f"bench: left out {self.nuclei[j][1]} master seed {master}: {exc}", file=sys.stderr)
                continue
            clock.add(trial)
            return records
        raise RuntimeError("100 master seeds in a row hit the post-selection budget fault")

    def first_item(self):
        self.collect((0, 0, 0), 0, Clock(), runs=1)

    def round_size(self):
        return sum(config.runs for _, _, config, _, _ in self.nuclei)

    def round(self, k, clock):
        ex = self.g.experiment
        attempted = 0
        for j, nucleus, config, exact_peak, homega in self.nuclei:
            pooled = []
            for c in range(config.runs // CHUNK_RUNS):
                records = self.collect((k, j, c), j, clock, CHUNK_RUNS)
                spectrum = clock(ex.median_spectrum, records)
                series = clock(ex.mad_series, records)
                clock.mark(len(records), nucleus)
                self.check_ensemble(nucleus, config, records, spectrum, series)
                pooled += records
            attempted += len(pooled)
            self.check_pooled(nucleus, pooled, exact_peak, homega)
        return attempted, 0

    def check_ensemble(self, nucleus, config, records, spectrum, series):
        lo, hi = config.grid_min, config.grid_max
        if len(records) != CHUNK_RUNS:
            self.problem(f"{nucleus}: {len(records)} runs, asked for {CHUNK_RUNS}")
        peaks = [r.peak_energy for r in records]
        if not all(math.isfinite(p) and lo < p < hi for p in peaks):
            self.problem(f"{nucleus}: a run's peak is not finite or leaves the grid")
        if any(t.strength < 0 for r in records for t in r.transitions.entries):
            self.problem(f"{nucleus}: negative strength")
        if not (math.isfinite(spectrum.peak_energy) and lo < spectrum.peak_energy < hi):
            self.problem(f"{nucleus}: median spectrum peak {spectrum.peak_energy} leaves the grid")
        med = statistics.median(peaks)
        mad = statistics.median(abs(p - med) for p in peaks)
        if (
            series.m != tuple(range(2, len(peaks) + 1))
            or series.e0_median[-1] != med
            or not _close(series.delta_e0[-1], mad, 1e-12)
        ):
            self.problem(f"{nucleus}: MAD series does not end at the ensemble median and MAD")

    def check_pooled(self, nucleus, records, exact_peak, homega):
        """Medians of the round's runs of one nucleus against the exact reference."""
        peaks = [r.peak_energy for r in records]
        poles = [t.energy for r in records for t in r.transitions.entries if t.weight > 0 and t.alpha == 1]
        for what, values, centre in (("peak", peaks, exact_peak), ("pole energy", poles, homega)):
            med = statistics.median(values)
            mad = statistics.median(abs(v - med) for v in values)
            # median standard error of a normal sample: 1.2533 sigma / sqrt(n), sigma = 1.4826 MAD
            tol = ENSEMBLE_Z * 1.2533 * 1.4826 * mad / math.sqrt(len(values))
            if not abs(med - centre) <= tol:
                self.problem(
                    f"{nucleus}: median {what} {med:.4f} MeV is {med - centre:+.4f} from the "
                    f"reference {centre:.4f} (tolerance {tol:.4f})"
                )


# Windows on which the present program succeeds in exact mode: 3, 4 and 5 shells.
EXACT_WINDOWS = {
    "sn120": ("2-4", "3-5", "4-6", "1-4", "2-5", "3-6", "4-7", "0-4", "1-5", "2-6", "3-7", "4-8"),
    "pb208": ("4-6", "5-7", "3-6", "4-7", "5-8", "2-6", "3-7", "4-8", "5-9"),
}
CALIBRATION = {"sn120": 0.1751, "pb208": 0.2378}


class ExactScan(Workload):
    """run_quantum(mode="exact") over distinct configs."""

    name = "exact-scan"
    tag = 2
    trace_rounds = 8

    def items(self, k):
        """(nucleus, a, z, config, run seed) of round k: kappa and spread from the seed."""
        rng = self.rng(k)
        out = []
        for nucleus, a, z in NUCLEI:
            for window in EXACT_WINDOWS[nucleus]:
                kappa = float(rng.uniform(0.3, 0.9))
                gamma = float(rng.uniform(1.5, 3.0))
                run_seed = int(rng.integers(2**31))
                config = self.config(
                    a, z, window, kappa=kappa, gamma_spread=gamma, calibration=CALIBRATION[nucleus]
                )
                out.append((nucleus, a, z, config, run_seed))
        return out

    def first_item(self):
        _, _, _, config, run_seed = self.items(0)[0]
        self.g.experiment.run_quantum(config, run_seed, mode="exact")

    def round_size(self):
        return sum(len(w) for w in EXACT_WINDOWS.values())

    def round(self, k, clock):
        items = self.items(k)
        for nucleus, a, z, config, run_seed in items:
            record = clock(self.g.experiment.run_quantum, config, run_seed, mode="exact")
            self.check(nucleus, a, z, config, record)
        clock.mark(len(items))
        return len(items), 0

    def check(self, nucleus, a, z, config, record):
        label = f"{nucleus} {config.basis.label}"
        want = sorted(poles_of(config), key=lambda p: p[1])
        got = sorted(
            ((t.energy, t.strength) for t in record.transitions.entries if t.alpha == 1 and t.weight > 0),
            key=lambda p: p[1],
        )
        if len(got) != len(want) or not all(
            _close(g, w, 1e-9) for gp, wp in zip(got, want) for g, w in zip(gp, wp)
        ):
            self.problem(f"{label}: poles {got} differ from the reference {want}")
            return
        energies = ref.grid(config.grid_min, config.grid_max, config.grid_step)
        sigma = ref.cross_section(
            a, z, ref.mirrored(want), config.kappa, config.gamma_spread, energies, config.calibration
        )
        e0, _, width = ref.peak(energies, sigma)
        if not (
            _sigma_close(record.spectrum.sigma, sigma, 1e-9)
            and _close(record.peak_energy, e0, 1e-9)
            and _close(record.width_fwhm, width, 1e-9)
        ):
            self.problem(
                f"{label}: sigma(E), peak or width differ from the reference (peak/width "
                f"{record.peak_energy:.6f}/{record.width_fwhm:.6f} MeV, reference {e0:.6f}/{width:.6f})"
            )

    def final_checks(self):
        """Exact mode does not depend on the seed: rerun a few items at another seed."""
        run = self.g.experiment.run_quantum
        for nucleus, _, _, config, run_seed in self.items(0)[::5]:
            first = run(config, run_seed, mode="exact")
            again = run(config, run_seed + 1, mode="exact")
            if first.transitions != again.transitions or not np.array_equal(
                first.spectrum.sigma, again.spectrum.sigma
            ):
                self.problem(f"{nucleus} {config.basis.label}: exact record depends on the seed")


TABLE = ("0-10", "2-8", "3-6", "4-6", "4-5")
SWEEP = ("0-12", "1-12") + TABLE + ("3-5", "2-4")
# The 208Pb windows that hit the shell-capacity fault of encoding.fill_occupations,
# with the message each raises.  They run at fixed inputs.
CAPACITY_FAULTS = {
    "4-5": "126 particles exceed the capacity of shells 0..5",
    "3-5": "126 particles exceed the capacity of shells 0..5",
    "2-4": "82 particles exceed the capacity of shells 0..4",
}
GRID_STEPS = (0.1, 0.05, 0.02, 0.01)


class ClassicalSweep(Workload):
    """run_classical and basis_study over a window sweep, both nuclei."""

    name = "classical-sweep"
    tag = 3
    trace_rounds = 60

    def drawn(self, rng):
        return {
            "kappa": float(rng.uniform(0.2, 0.6)),
            "gamma_spread": float(rng.uniform(1.5, 3.0)),
            "grid_step": float(GRID_STEPS[rng.integers(len(GRID_STEPS))]),
        }

    def items(self, k):
        """(nucleus, a, z, windows, fields, is_study) of round k."""
        rng = self.rng(k)
        fixed = {"kappa": 0.4, "gamma_spread": 2.0, "grid_step": 0.1}
        out = []
        for nucleus, a, z in NUCLEI:
            calibration = {"calibration": CALIBRATION[nucleus]}
            for window in SWEEP:
                faulty = nucleus == "pb208" and window in CAPACITY_FAULTS
                fields = fixed if faulty else self.drawn(rng)
                out.append((nucleus, a, z, (window,), {**fields, **calibration}, False))
            fields = fixed if nucleus == "pb208" else self.drawn(rng)
            out.append((nucleus, a, z, TABLE, {**fields, **calibration}, True))
        return out

    def first_item(self):
        nucleus, a, z, windows, fields, _ = self.items(0)[0]
        self.g.experiment.run_classical(self.config(a, z, windows[0], **fields))

    def round_size(self):
        return len(NUCLEI) * (len(SWEEP) + len(TABLE))

    def round(self, k, clock):
        ex = self.g.experiment
        attempted = failed = 0
        for nucleus, a, z, windows, fields, is_study in self.items(k):
            attempted += len(windows)
            config = self.config(a, z, windows[0], **fields)
            try:
                if is_study:
                    enc = self.g.encoding
                    rows = clock(ex.basis_study, config, [enc.BasisWindow.parse(w) for w in windows])
                    results = [(row.peak_energy, row.width_fwhm, None) for row in rows]
                else:
                    spectrum = clock(ex.run_classical, config)
                    results = [(spectrum.peak_energy, spectrum.width_fwhm, spectrum.sigma)]
            except self.g.errors.CapacityError as exc:
                failed += len(windows)
                self.check_fault(nucleus, windows, str(exc))
                continue
            self.check(nucleus, a, z, windows, fields, results)
        clock.mark(attempted - failed)
        return attempted, failed

    def check_fault(self, nucleus, windows, message):
        faulty = [w for w in windows if nucleus == "pb208" and w in CAPACITY_FAULTS]
        if not faulty or CAPACITY_FAULTS[faulty[0]] != message:
            self.problem(f"{nucleus} {','.join(windows)}: unexpected CapacityError {message!r}")

    def check(self, nucleus, a, z, windows, fields, results):
        cal = fields["calibration"]
        energies = ref.grid(5.0, 30.0, fields["grid_step"])
        if any(nucleus == "pb208" and w in CAPACITY_FAULTS for w in windows):
            self.problem(f"{nucleus} {','.join(windows)}: the capacity fault did not show")
        for window, (e0, width, sigma) in zip(windows, results):
            lo, hi = (int(x) for x in window.split("-"))
            want = ref.cross_section(
                a, z, ref.classical_poles(a, z, lo, hi), fields["kappa"], fields["gamma_spread"],
                energies, cal,
            )
            want_e0, _, want_width = ref.peak(energies, want)
            if sigma is not None and not _sigma_close(sigma, want, 1e-9):
                self.problem(f"{nucleus} {window}: sigma(E) differs from the reference")
            if not (_close(e0, want_e0, 1e-9) and _close(width, want_width, 1e-9)):
                self.problem(
                    f"{nucleus} {window}: peak {e0:.6f}/{width:.6f} MeV, "
                    f"reference {want_e0:.6f}/{want_width:.6f}"
                )


PROTOCOL_RUNS = 10
SPECTRUM_HEADER = [
    "energy_mev", "im_r0_1", "im_r0_2", "im_r0_3", "im_r_1", "im_r_2", "im_r_3",
    "sigma_raw_mb", "sigma_mb",
]
RUNS_HEADER = ["run_index", "seed", "e0_mev"]


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _bundled(nucleus):
    """(energy, sigma) rows of the experimental data bundled with gdrq."""
    path = os.path.join("src", "gdrq", "data", f"{nucleus}_photoabsorption.csv")
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    return np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])


class Protocol(Workload):
    """The step list of scripts/reproduce_all.py through gdrq.cli.main."""

    name = "protocol"
    tag = 4
    trace_rounds = 2

    def __init__(self, gdrq, seed):
        super().__init__(gdrq, seed)
        self.configs = {n: os.path.join("configs", f"{n}.cfg") for n, _, _ in NUCLEI}
        self.bundled = {n: _bundled(n) for n, _, _ in NUCLEI}

    def steps(self, k, out):
        """(nucleus, step, argv, expected exit code) mirroring reproduce_all.py."""
        seed = str(derive_seed(self.seed, self.tag, k))
        runs = ["--runs", str(PROTOCOL_RUNS)]
        steps = []
        for nucleus, _, _ in NUCLEI:
            cfg = ["--config", self.configs[nucleus]]
            steps += [
                (nucleus, "classical", ["classical", *cfg, "--kappa", "0.4", "--basis", "0-10"], 0),
                (nucleus, "basis_study", ["basis-study", *cfg, "--kappa", "0.4"], 1 if nucleus == "pb208" else 0),
                (nucleus, "quantum", ["quantum", *cfg, "--seed", seed, *runs], 0),
                (nucleus, "error_study", ["error-study", *cfg, "--seed", seed, *runs], 0),
                (nucleus, "comparison", ["compare", *cfg, "--mode", "quantum", "--seed", seed, *runs], 0),
            ]
        return [(n, s, argv + ["--out", os.path.join(out, n, s)], code) for n, s, argv, code in steps]

    def run_step(self, argv, clock):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = clock(self.g.cli.main, argv)
        return code, err.getvalue()

    def first_item(self):
        os.makedirs(OUT_DIR, exist_ok=True)
        out = tempfile.mkdtemp(dir=OUT_DIR)
        try:
            self.run_step(self.steps(0, out)[0][2], Clock())
        finally:
            shutil.rmtree(out)

    def round_size(self):
        return len(NUCLEI) * 5

    def round(self, k, clock):
        os.makedirs(OUT_DIR, exist_ok=True)
        out = tempfile.mkdtemp(dir=OUT_DIR)
        try:
            failed = done = 0
            steps = self.steps(k, out)
            for nucleus, step, argv, expected in steps:
                code, err = self.run_step(argv, clock)
                if code != 0 and _budget_fault(err):
                    raise LeftOut(f"{nucleus} {step}: {err.strip()}")
                if code != expected:
                    self.problem(f"{nucleus} {step}: exit {code}, expected {expected}: {err.strip()}")
                if code != 0:
                    failed += 1
                    if nucleus == "pb208" and step == "basis_study" and CAPACITY_FAULTS["4-5"] not in err:
                        self.problem(f"pb208 basis study failed for another reason: {err.strip()}")
                else:
                    done += 1
                if step == "comparison":  # a nucleus's last step closes its chunk
                    clock.mark(done, nucleus)
                    done = 0
            for nucleus, _, _ in NUCLEI:
                self.check(nucleus, os.path.join(out, nucleus))
            return len(steps), failed
        finally:
            shutil.rmtree(out)

    def expect(self, path, header, rows):
        """The data rows of a CSV with the given header and row count, else None."""
        if not os.path.exists(path):
            self.problem(f"{path} missing")
            return None
        got_header, body = _read_csv(path)
        if got_header != header or len(body) != rows:
            self.problem(f"{path}: header {got_header} and {len(body)} rows, expected {header} and {rows}")
            return None
        return body

    def check(self, nucleus, base):
        values = read_config_values(self.configs[nucleus])
        a, z = int(values["A"]), int(values["Z"])
        energies = ref.grid(float(values["grid_min"]), float(values["grid_max"]), float(values["grid_step"]))
        spectrum = self.expect(os.path.join(base, "classical", "spectrum.csv"), SPECTRUM_HEADER, energies.size)
        if spectrum is not None:
            want = ref.cross_section(
                a, z, ref.classical_poles(a, z, 0, 10), 0.4, float(values["gamma_spread"]),
                energies, float(values["calibration"]),
            )
            if not _sigma_close(np.array([float(row[-1]) for row in spectrum]), want, 1e-8):
                self.problem(f"{nucleus} classical spectrum.csv differs from the reference")
        if nucleus == "sn120":
            rows = self.expect(
                os.path.join(base, "basis_study", "basis_study.csv"),
                ["label", "n_min", "n_max", "e0_mev", "width_mev"], len(TABLE),
            )
            if rows is not None and [r[0] for r in rows] != list(TABLE):
                self.problem(f"{nucleus} basis_study.csv windows {[r[0] for r in rows]}")
        runs_q = os.path.join(base, "quantum", "runs.csv")
        runs_e = os.path.join(base, "error_study", "runs.csv")
        self.expect(runs_q, RUNS_HEADER, PROTOCOL_RUNS)
        self.expect(os.path.join(base, "quantum", "spectrum.csv"), SPECTRUM_HEADER, energies.size)
        self.expect(runs_e, RUNS_HEADER, PROTOCOL_RUNS)
        self.expect(
            os.path.join(base, "error_study", "mad_series.csv"),
            ["m", "e0_median_mev", "delta_e0_mev"], PROTOCOL_RUNS - 1,
        )
        if os.path.exists(runs_q) and os.path.exists(runs_e):
            with open(runs_q, "rb") as fq, open(runs_e, "rb") as fe:
                if fq.read() != fe.read():
                    self.problem(f"{nucleus}: quantum and error-study runs.csv differ at one seed")
        data = self.bundled[nucleus]
        comparison = self.expect(
            os.path.join(base, "comparison", "comparison.csv"),
            ["energy_mev", "sigma_model_mb", "sigma_experiment_mb"], len(data),
        )
        if comparison is not None and not np.allclose(
            np.array(comparison, dtype=float)[:, [0, 2]], data, rtol=1e-8, atol=0
        ):
            self.problem(f"{nucleus} comparison.csv experiment column differs from the bundled data")


WORKLOADS = {w.name: w for w in (Ensemble, ExactScan, ClassicalSweep, Protocol)}
