"""Command line interface: config parsing, pipeline dispatch, CSV output.

Subcommands: classical, quantum, basis-study, error-study, compare, selftest.
Each takes only the flags it reads, a sampling flag that the chosen mode does
not read is refused, and the parsed argparse namespace, which carries the
subcommand's handler, is the command that handler runs. `main` loads the
config once and passes it to the handler, which only computes: it returns its
summary lines and its outputs as (file name, writer, value). `main` alone
makes --out, writes each file, prints the summary and one `wrote <path>` per
file. Configs are flat `key = value` text files whose keys,
types and required entries are the fields of `NucleusConfig`.
Exit codes: 0 success, 1 runtime or I/O failure, 2 usage.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import typing
from collections.abc import Iterator
from dataclasses import MISSING, fields, replace

from . import __version__
from .encoding import BasisWindow, NucleusConfig, build_hamiltonian
from .errors import GdrqError, SchemaError, ValidationError
from .experiment import (
    BUNDLED_NUCLEI,
    basis_study,
    bundled_experiment,
    check_mad_runs,
    collect_runs,
    compare_with_experiment,
    load_experimental_csv,
    mad_series,
    median_spectrum,
    read_lines,
    run_classical,
    run_quantum,
    write_basis_csv,
    write_comparison_csv,
    write_mad_csv,
    write_runs_csv,
    write_spectrum_csv,
)


def _window(text: str) -> BasisWindow:
    """argparse type for one shell window: a malformed one is a usage error."""
    try:
        return BasisWindow.parse(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _seed(text: str) -> int:
    """argparse type for the master seed: a negative one is a usage error."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _windows(text: str) -> tuple[BasisWindow, ...]:
    """argparse type for a non-empty comma-separated list of shell windows."""
    windows = tuple(_window(token) for token in text.split(",") if token.strip())
    if not windows:
        raise argparse.ArgumentTypeError(f"expected at least one shell window, got {text!r}")
    return windows


TABLE_WINDOWS = _windows("0-10,2-8,3-6,4-6,4-5")

# config value parser per NucleusConfig field type
_PARSE_AS = {int: int, float: float, BasisWindow: BasisWindow.parse}
_SCHEMA = {key: _PARSE_AS[kind] for key, kind in typing.get_type_hints(NucleusConfig).items()}


def load_config(path) -> NucleusConfig:
    """Parse a flat key = value config file ('#' starts a comment)."""
    values: dict = {}
    for line_no, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key or not val:
            raise SchemaError(f"{path}:{line_no}: expected 'key = value', got {raw.rstrip()!r}")
        if key not in _SCHEMA:
            raise SchemaError(f"{path}:{line_no}: unknown key {key!r}")
        if key in values:
            raise SchemaError(f"{path}:{line_no}: duplicate key {key!r}")
        try:
            values[key] = _SCHEMA[key](val)
        except GdrqError:
            raise
        except ValueError as exc:
            raise SchemaError(f"{path}:{line_no}: bad value for {key}: {val!r}") from exc
    required = (f.name for f in fields(NucleusConfig) if f.default is MISSING)
    missing = [key for key in required if key not in values]
    if missing:
        raise SchemaError(f"{path}: missing required key(s): {', '.join(missing)}")
    return NucleusConfig(**values)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line on stderr, exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _config_flags(p: argparse.ArgumentParser, handler, window: bool = True) -> None:
    """The handler of a subcommand, its config file, the overrides that every
    subcommand reads, and --out."""
    p.set_defaults(handler=handler)
    p.add_argument("--config", required=True, help="path to a key = value config file")
    p.add_argument("--kappa", type=float, help="override the residual strength")
    p.add_argument("--gamma-spread", type=float, help="override the Lorentzian spread (MeV)")
    if window:
        p.add_argument("--basis", type=_window, help="override the shell window, e.g. 3-6")
    p.add_argument("--out", default="out", help="output directory (default ./out)")


DEFAULT_SEED = 1


def _sampling_flags(p: argparse.ArgumentParser, exact: bool = True) -> None:
    """The master seed and the sampling overrides of the quantum pipeline.

    --seed parses to None when absent, so that a mode that reads no seed can
    tell it was not given; main then sets DEFAULT_SEED.
    """
    p.add_argument("--seed", type=_seed, help=f"master seed (default {DEFAULT_SEED})")
    p.add_argument("--shots", type=int, help="override shots per measurement")
    p.add_argument("--runs", type=int, help="override the number of independent runs")
    if exact:
        p.add_argument("--exact", action="store_true", help="analytic probabilities, no sampling")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="gdrq",
        description="Dipole response of closed-shell nuclei on a simulated quantum register.",
    )
    parser.add_argument("--version", action="version", version=f"gdrq {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    _config_flags(
        sub.add_parser("classical", help="deterministic linear-response baseline"), _cmd_classical
    )
    p_quantum = sub.add_parser("quantum", help="sampled quantum pipeline, median over runs")
    _config_flags(p_quantum, _cmd_quantum)
    _sampling_flags(p_quantum)
    p_basis = sub.add_parser("basis-study", help="classical peak/width per shell window")
    _config_flags(p_basis, _cmd_basis_study, window=False)
    p_basis.add_argument(
        "--bases",
        type=_windows,
        default=TABLE_WINDOWS,
        help=f"comma-separated windows (default {','.join(w.label for w in TABLE_WINDOWS)})",
    )
    p_error = sub.add_parser("error-study", help="MAD of the peak energy versus run count")
    _config_flags(p_error, _cmd_error_study)
    _sampling_flags(p_error, exact=False)
    p_cmp = sub.add_parser("compare", help="model spectrum against experimental data")
    _config_flags(p_cmp, _cmd_compare)
    _sampling_flags(p_cmp)
    p_cmp.add_argument("--experiment", help="experimental CSV (default: bundled for the nucleus)")
    p_cmp.add_argument(
        "--mode",
        choices=("classical", "quantum"),
        default="classical",
        help="which pipeline to compare (default classical)",
    )
    sub.add_parser("selftest", help="fast invariant checks against golden values")
    return parser


class _UsageError(Exception):
    """A command-line value the config rejects: reported like a parser error."""


def _check_sampling_flags(args: argparse.Namespace) -> None:
    """Refuse sampling flags that the chosen mode does not read, then default the seed.

    `compare --mode classical` reads none of --seed --shots --runs --exact; an
    exact run reads no --shots or --runs, and `compare --exact` no --seed
    either (`quantum --exact` writes the seed into runs.csv).
    """
    if not hasattr(args, "seed"):
        return
    unread, reason = (), ""
    if args.subcommand == "compare" and args.mode == "classical":
        unread, reason = ("seed", "shots", "runs", "exact"), "--mode classical"
    elif getattr(args, "exact", False):
        unread = ("seed", "shots", "runs") if args.subcommand == "compare" else ("shots", "runs")
        reason = "--exact"
    given = [
        f"--{name}"
        for name in unread
        if (value := getattr(args, name)) is not None and value is not False
    ]
    if given:
        raise _UsageError(
            f"gdrq {args.subcommand}: error: {' '.join(given)} not read with {reason}"
        )
    if args.seed is None:
        args.seed = DEFAULT_SEED


def _configure(args: argparse.Namespace) -> NucleusConfig:
    """Load the config file and apply the command-line overrides.

    A bad value in the file is a runtime error (exit 1); an override that the
    config checks reject, or error-study's --runs below two, is a usage error
    (exit 2).
    """
    config = load_config(args.config)
    overrides = {
        key: value
        for key in ("shots", "runs", "kappa", "gamma_spread", "basis")
        if (value := getattr(args, key, None)) is not None
    }
    try:
        config = replace(config, **overrides)
        if args.subcommand == "error-study" and "runs" in overrides:
            check_mad_runs(config.runs)
    except ValidationError as exc:
        raise _UsageError(f"gdrq {args.subcommand}: error: {exc}") from exc
    return config


def _quantum_runs(config: NucleusConfig, args: argparse.Namespace):
    """The runs.csv rows of a quantum command and the spectrum it reports: an
    exact run's own, or the median of a sampled ensemble."""
    if args.exact:
        run = run_quantum(config, args.seed, mode="exact")
        return [(run.run_index, run.seed, run.peak_energy)], run.spectrum
    ensemble = collect_runs(config, args.seed)
    return _run_rows(ensemble), median_spectrum(ensemble)


def _run_rows(ensemble) -> Iterator[tuple[int, int, float]]:
    """An ensemble's (run_index, seed, e0) rows, read off its columns as written."""
    return zip(range(len(ensemble)), map(int, ensemble.seeds), map(float, ensemble.peak_energies))


# A handler lists its outputs in write order. Each writer is named inside the
# handler body, so it is looked up when the handler runs and a rebound module
# global (a tracer's wrapper) is the one used.


def _cmd_classical(args: argparse.Namespace, config: NucleusConfig):
    spectrum = run_classical(config)
    summary = (
        f"classical A={config.A} Z={config.Z} window {config.basis.label}: "
        f"E0 = {spectrum.peak_energy:.4f} MeV, FWHM = {spectrum.width_fwhm:.4f} MeV"
    )
    return [summary], [("spectrum.csv", write_spectrum_csv, spectrum)]


def _cmd_quantum(args: argparse.Namespace, config: NucleusConfig):
    rows, spectrum = _quantum_runs(config, args)
    label = "exact run" if args.exact else f"median of {config.runs} runs"
    summary = (
        f"quantum A={config.A} Z={config.Z} window {config.basis.label} ({label}): "
        f"E0 = {spectrum.peak_energy:.4f} MeV, FWHM = {spectrum.width_fwhm:.4f} MeV"
    )
    return [summary], [
        ("runs.csv", write_runs_csv, rows),
        ("spectrum.csv", write_spectrum_csv, spectrum),
    ]


def _cmd_basis_study(args: argparse.Namespace, config: NucleusConfig):
    rows = basis_study(config, args.bases)
    summary = [
        f"window {row.label}: E0 = {row.peak_energy:.4f} MeV, FWHM = {row.width_fwhm:.4f} MeV"
        for row in rows
    ]
    return summary, [("basis_study.csv", write_basis_csv, rows)]


def _cmd_error_study(args: argparse.Namespace, config: NucleusConfig):
    ensemble = collect_runs(config, args.seed)
    series = mad_series(ensemble)
    summary = (
        f"error study over {len(ensemble)} runs: median E0 = {series.e0_median[-1]:.4f} MeV, "
        f"MAD = {series.delta_e0[-1]:.4f} MeV"
    )
    return [summary], [
        ("runs.csv", write_runs_csv, _run_rows(ensemble)),
        ("mad_series.csv", write_mad_csv, series),
    ]


def _cmd_compare(args: argparse.Namespace, config: NucleusConfig):
    if args.mode == "quantum":
        _, spectrum = _quantum_runs(config, args)
    else:
        spectrum = run_classical(config)
    if args.experiment is not None:
        experiment = load_experimental_csv(args.experiment)
    else:
        key = BUNDLED_NUCLEI.get((config.A, config.Z))
        if key is None:
            raise SchemaError(
                f"no bundled experimental data for A={config.A}, Z={config.Z}; pass --experiment"
            )
        experiment = bundled_experiment(key)
    report = compare_with_experiment(spectrum, experiment)
    summary = (
        f"{args.mode} model E0 = {report.model_peak:.4f} MeV vs experiment {report.experiment_peak:.4f} MeV: "
        f"offset = {report.peak_offset:+.4f} MeV, height ratio = {report.height_ratio:.4f}"
    )
    return [summary], [("comparison.csv", write_comparison_csv, report)]


SELFTEST_GOLDENS = {
    "h4_render": "6.000*I - 0.750*Z0 - 1.250*Z1 - 1.750*Z2 - 2.250*Z3",
    "h5_identity": 8.75,
    "h5_z_coefficients": (-0.75, -1.25, -1.75, -2.25, -2.75),
    "sn120_classical_window": (14.0, 17.0),
    # largest exact quantum vs classical gap: peak and FWHM in MeV, sigma per peak height
    "exact_vs_classical_mev": 1e-9,
}


def _check_h4_golden() -> str:
    rendered = build_hamiltonian(BasisWindow(0, 3), 1.0).render()
    if rendered != SELFTEST_GOLDENS["h4_render"]:
        raise AssertionError(f"got {rendered!r}")
    return rendered


def _check_h5_golden() -> str:
    h5 = build_hamiltonian(BasisWindow(0, 4), 1.0)
    if h5.identity_coefficient() != SELFTEST_GOLDENS["h5_identity"]:
        raise AssertionError(f"identity coefficient {h5.identity_coefficient()}")
    z_coeffs = tuple(t.coefficient for t in h5.without_identity().terms)
    if z_coeffs != SELFTEST_GOLDENS["h5_z_coefficients"]:
        raise AssertionError(f"Z coefficients {z_coeffs}")
    return "window 0-4 coefficients exact"


def _check_sn120_classical() -> str:
    config = NucleusConfig(A=120, Z=50, kappa=0.4, basis=BasisWindow(0, 10))
    spectrum = run_classical(config)
    lo, hi = SELFTEST_GOLDENS["sn120_classical_window"]
    if not lo <= spectrum.peak_energy <= hi:
        raise AssertionError(f"E0 = {spectrum.peak_energy:.3f} outside [{lo}, {hi}]")
    return f"E0 = {spectrum.peak_energy:.3f} MeV"


def _check_exact_matches_classical() -> str:
    """An exact quantum run reproduces the classical spectrum on a window whose
    filled shells make the same transitions: 40Ca on shells 1-4."""
    config = NucleusConfig(A=40, Z=20, kappa=0.3, basis=BasisWindow(1, 4), grid_max=40.0)
    quantum = run_quantum(config, 0, mode="exact").spectrum
    classical = run_classical(config)
    tol = SELFTEST_GOLDENS["exact_vs_classical_mev"]
    gaps = {
        "peak": abs(quantum.peak_energy - classical.peak_energy),
        "FWHM": abs(quantum.width_fwhm - classical.width_fwhm),
        "sigma/height": abs(quantum.sigma - classical.sigma).max() / classical.peak_height,
    }
    wide = [f"{name} gap {gap:.3e}" for name, gap in gaps.items() if not gap <= tol]
    if wide:
        raise AssertionError(f"{', '.join(wide)} exceeds {tol:g}")
    return f"40Ca window 1-4: E0 = {quantum.peak_energy:.3f} MeV in both"


def selftest(out=print) -> int:
    """Run the fast invariant suite; returns 0 if every check passes."""
    checks = (
        ("h4 golden coefficients", _check_h4_golden),
        ("h5 golden coefficients", _check_h5_golden),
        ("sn120 classical peak", _check_sn120_classical),
        ("exact quantum equals classical", _check_exact_matches_classical),
    )
    failures = 0
    for name, check in checks:
        try:
            detail = check()
        except Exception as exc:  # noqa: BLE001 - every failure must be reported, not raised
            failures += 1
            out(f"FAIL: {name}: {exc}")
        else:
            out(f"ok: {name} [{detail}]")
    out("all checks passed" if failures == 0 else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.subcommand == "selftest":
        return selftest()
    try:
        _check_sampling_flags(args)
        summary, outputs = args.handler(args, _configure(args))
        os.makedirs(args.out, exist_ok=True)
        paths = []
        for name, write, value in outputs:
            paths.append(os.path.join(args.out, name))
            write(paths[-1], value)
        for line in summary:
            print(line)
        for path in paths:
            print(f"wrote {path}")
        return 0
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (GdrqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
