"""Command line interface: config parsing, pipeline dispatch, CSV output.

Subcommands: classical, quantum, basis-study, error-study, compare, selftest.
Configs are flat `key = value` text files validated against a typed schema.
Exit codes: 0 success, 1 runtime or I/O failure, 2 usage.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

from . import __version__
from .algorithms import energy_expectation, swap_test
from .encoding import BasisWindow, NucleusConfig, build_hamiltonian, jw_annihilation, jw_creation
from .errors import GdrqError, SchemaError, ValidationError
from .experiment import (
    basis_study,
    bundled_experiment,
    check_mad_runs,
    collect_runs,
    compare_with_experiment,
    load_experimental_csv,
    mad_series,
    median_spectrum,
    run_classical,
    run_quantum,
    write_basis_csv,
    write_comparison_csv,
    write_mad_csv,
    write_runs_csv,
    write_spectrum_csv,
)
from .statevector import init_basis_state


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
    """argparse type for a comma-separated list of shell windows."""
    return tuple(_window(token) for token in text.split(",") if token.strip())


TABLE_WINDOWS = _windows("0-10,2-8,3-6,4-6,4-5")

_SCHEMA = {
    "A": int,
    "Z": int,
    "kappa": float,
    "basis": BasisWindow.parse,
    "gamma_spread": float,
    "shots": int,
    "runs": int,
    "grid_min": float,
    "grid_max": float,
    "grid_step": float,
    "calibration": float,
}
_REQUIRED = ("A", "Z", "kappa", "basis")


@dataclass(frozen=True)
class CliCommand:
    """Parsed invocation: one subcommand plus its validated options."""

    subcommand: str
    config_path: str | None
    overrides: dict
    output_dir: str
    master_seed: int
    exact: bool = False
    bases: tuple[BasisWindow, ...] = TABLE_WINDOWS
    experiment_path: str | None = None
    mode: str = "classical"


def load_config(path) -> NucleusConfig:
    """Parse a flat key = value config file ('#' starts a comment)."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
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
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise SchemaError(f"{path}: missing required key(s): {', '.join(missing)}")
    return NucleusConfig(**values)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line on stderr, exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gdrq",
        description="Dipole response of closed-shell nuclei on a simulated quantum register.",
    )
    parser.add_argument("--version", action="version", version=f"gdrq {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, needs_config: bool = True) -> None:
        p.add_argument("--config", required=needs_config, help="path to a key = value config file")
        p.add_argument("--seed", type=_seed, default=1, help="master seed (default 1)")
        p.add_argument("--shots", type=int, help="override shots per measurement")
        p.add_argument("--runs", type=int, help="override the number of independent runs")
        p.add_argument("--kappa", type=float, help="override the residual strength")
        p.add_argument("--gamma-spread", type=float, help="override the Lorentzian spread (MeV)")
        p.add_argument("--basis", type=_window, help="override the shell window, e.g. 3-6")
        p.add_argument(
            "--exact", action="store_true", help="analytic probabilities, no sampling"
        )
        p.add_argument("--out", default="out", help="output directory (default ./out)")

    common(sub.add_parser("classical", help="deterministic linear-response baseline"))
    common(sub.add_parser("quantum", help="sampled quantum pipeline, median over runs"))
    p_basis = sub.add_parser("basis-study", help="classical peak/width per shell window")
    common(p_basis)
    p_basis.add_argument(
        "--bases",
        type=_windows,
        default=TABLE_WINDOWS,
        help=f"comma-separated windows (default {','.join(w.label for w in TABLE_WINDOWS)})",
    )
    common(sub.add_parser("error-study", help="MAD of the peak energy versus run count"))
    p_cmp = sub.add_parser("compare", help="model spectrum against experimental data")
    common(p_cmp)
    p_cmp.add_argument("--experiment", help="experimental CSV (default: bundled for the nucleus)")
    p_cmp.add_argument(
        "--mode",
        choices=("classical", "quantum"),
        default="classical",
        help="which pipeline to compare (default classical)",
    )
    sub.add_parser("selftest", help="fast invariant checks against golden values")
    return parser


def parse_args(argv=None) -> CliCommand:
    args = build_parser().parse_args(argv)
    if args.subcommand == "selftest":
        return CliCommand(
            subcommand="selftest", config_path=None, overrides={}, output_dir="out", master_seed=1
        )
    overrides: dict = {}
    if args.shots is not None:
        overrides["shots"] = args.shots
    if args.runs is not None:
        overrides["runs"] = args.runs
    if args.kappa is not None:
        overrides["kappa"] = args.kappa
    if args.gamma_spread is not None:
        overrides["gamma_spread"] = args.gamma_spread
    if args.basis is not None:
        overrides["basis"] = args.basis
    return CliCommand(
        subcommand=args.subcommand,
        config_path=args.config,
        overrides=overrides,
        output_dir=args.out,
        master_seed=args.seed,
        exact=args.exact,
        bases=getattr(args, "bases", TABLE_WINDOWS),
        experiment_path=getattr(args, "experiment", None),
        mode=getattr(args, "mode", "classical"),
    )


class _UsageError(Exception):
    """A command-line value the config rejects: reported like a parser error."""


def _configure(cmd: CliCommand) -> NucleusConfig:
    """Load the config file and apply the command-line overrides.

    A bad value in the file is a runtime error (exit 1); an override that the
    config checks reject, or error-study's --runs below two, is a usage error
    (exit 2).
    """
    config = load_config(cmd.config_path)
    try:
        config = replace(config, **cmd.overrides)
        if cmd.subcommand == "error-study" and "runs" in cmd.overrides:
            check_mad_runs(config.runs)
    except ValidationError as exc:
        raise _UsageError(f"gdrq {cmd.subcommand}: error: {exc}") from exc
    return config


def _quantum_records(config: NucleusConfig, cmd: CliCommand):
    if cmd.exact:
        return (run_quantum(config, cmd.master_seed, run_index=0, mode="exact"),)
    return collect_runs(config, cmd.master_seed)


def _cmd_classical(cmd: CliCommand) -> int:
    config = _configure(cmd)
    spectrum = run_classical(config)
    os.makedirs(cmd.output_dir, exist_ok=True)
    out = os.path.join(cmd.output_dir, "spectrum.csv")
    write_spectrum_csv(out, spectrum)
    print(
        f"classical A={config.A} Z={config.Z} window {config.basis.label}: "
        f"E0 = {spectrum.peak_energy:.4f} MeV, FWHM = {spectrum.width_fwhm:.4f} MeV"
    )
    print(f"wrote {out}")
    return 0


def _cmd_quantum(cmd: CliCommand) -> int:
    config = _configure(cmd)
    records = _quantum_records(config, cmd)
    spectrum = median_spectrum(records)
    os.makedirs(cmd.output_dir, exist_ok=True)
    runs_path = os.path.join(cmd.output_dir, "runs.csv")
    spectrum_path = os.path.join(cmd.output_dir, "spectrum.csv")
    write_runs_csv(runs_path, records)
    write_spectrum_csv(spectrum_path, spectrum)
    label = "exact run" if cmd.exact else f"median of {len(records)} runs"
    print(
        f"quantum A={config.A} Z={config.Z} window {config.basis.label} ({label}): "
        f"E0 = {spectrum.peak_energy:.4f} MeV, FWHM = {spectrum.width_fwhm:.4f} MeV"
    )
    print(f"wrote {runs_path}")
    print(f"wrote {spectrum_path}")
    return 0


def _cmd_basis_study(cmd: CliCommand) -> int:
    config = _configure(cmd)
    rows = basis_study(config, cmd.bases)
    os.makedirs(cmd.output_dir, exist_ok=True)
    out = os.path.join(cmd.output_dir, "basis_study.csv")
    write_basis_csv(out, rows)
    for row in rows:
        print(f"window {row.label}: E0 = {row.peak_energy:.4f} MeV, FWHM = {row.width_fwhm:.4f} MeV")
    print(f"wrote {out}")
    return 0


def _cmd_error_study(cmd: CliCommand) -> int:
    config = _configure(cmd)
    records = collect_runs(config, cmd.master_seed)
    series = mad_series(records)
    os.makedirs(cmd.output_dir, exist_ok=True)
    runs_path = os.path.join(cmd.output_dir, "runs.csv")
    mad_path = os.path.join(cmd.output_dir, "mad_series.csv")
    write_runs_csv(runs_path, records)
    write_mad_csv(mad_path, series)
    print(
        f"error study over {len(records)} runs: median E0 = {series.e0_median[-1]:.4f} MeV, "
        f"MAD = {series.delta_e0[-1]:.4f} MeV"
    )
    print(f"wrote {runs_path}")
    print(f"wrote {mad_path}")
    return 0


_BUNDLED_BY_NUCLEUS = {(120, 50): "sn120", (208, 82): "pb208"}


def _cmd_compare(cmd: CliCommand) -> int:
    config = _configure(cmd)
    if cmd.mode == "quantum":
        spectrum = median_spectrum(_quantum_records(config, cmd))
    else:
        spectrum = run_classical(config)
    if cmd.experiment_path is not None:
        experiment = load_experimental_csv(cmd.experiment_path)
    else:
        key = _BUNDLED_BY_NUCLEUS.get((config.A, config.Z))
        if key is None:
            raise SchemaError(
                f"no bundled experimental data for A={config.A}, Z={config.Z}; pass --experiment"
            )
        experiment = bundled_experiment(key)
    report = compare_with_experiment(spectrum, experiment)
    os.makedirs(cmd.output_dir, exist_ok=True)
    out = os.path.join(cmd.output_dir, "comparison.csv")
    write_comparison_csv(out, report)
    print(
        f"{cmd.mode} model E0 = {report.model_peak:.4f} MeV vs experiment {report.experiment_peak:.4f} MeV: "
        f"offset = {report.peak_offset:+.4f} MeV, height ratio = {report.height_ratio:.4f}"
    )
    print(f"wrote {out}")
    return 0


SELFTEST_GOLDENS = {
    "h4_render": "6.000*I - 0.750*Z0 - 1.250*Z1 - 1.750*Z2 - 2.250*Z3",
    "h5_identity": 8.75,
    "h5_z_coefficients": (-0.75, -1.25, -1.75, -2.25, -2.75),
    "swap_identity": 1.0,
    "lcu_eigenstate_energy": 3.5,
    "sn120_classical_window": (14.0, 17.0),
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


def _check_jw_algebra() -> str:
    import numpy as np

    from . import pauli as pl

    for i in range(3):
        for j in range(3):
            anti = pl.dense_matrix(jw_annihilation(i, 3)) @ pl.dense_matrix(jw_creation(j, 3))
            anti += pl.dense_matrix(jw_creation(j, 3)) @ pl.dense_matrix(jw_annihilation(i, 3))
            expected = np.eye(8) if i == j else np.zeros((8, 8))
            if np.max(np.abs(anti - expected)) > 1e-12:
                raise AssertionError(f"{{a_{i}, adag_{j}}} violated")
    return "anticommutators exact on 3 modes"


def _check_swap_identity() -> str:
    import numpy as np

    from .statevector import StateVector

    plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
    est = swap_test(plus, plus, shots=0, mode="exact")
    if abs(est.clamped - SELFTEST_GOLDENS["swap_identity"]) > 1e-12:
        raise AssertionError(f"overlap {est.clamped}")
    return "identical states overlap 1"


def _check_lcu_eigenstate() -> str:
    h4 = build_hamiltonian(BasisWindow(0, 3), 1.0)
    state = init_basis_state(4, "0100")
    value = energy_expectation(h4, state, shots=0, mode="exact")
    if abs(value - SELFTEST_GOLDENS["lcu_eigenstate_energy"]) > 1e-9:
        raise AssertionError(f"energy {value}")
    return "shell N=2 energy 3.5"


def _check_sn120_classical() -> str:
    config = NucleusConfig(A=120, Z=50, kappa=0.4, basis=BasisWindow(0, 10))
    spectrum = run_classical(config)
    lo, hi = SELFTEST_GOLDENS["sn120_classical_window"]
    if not lo <= spectrum.peak_energy <= hi:
        raise AssertionError(f"E0 = {spectrum.peak_energy:.3f} outside [{lo}, {hi}]")
    return f"E0 = {spectrum.peak_energy:.3f} MeV"


def selftest(out=print) -> int:
    """Run the fast invariant suite; returns 0 if every check passes."""
    checks = (
        ("h4 golden coefficients", _check_h4_golden),
        ("h5 golden coefficients", _check_h5_golden),
        ("jordan-wigner algebra", _check_jw_algebra),
        ("swap test identity", _check_swap_identity),
        ("lcu eigenstate energy", _check_lcu_eigenstate),
        ("sn120 classical peak", _check_sn120_classical),
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


_HANDLERS = {
    "classical": _cmd_classical,
    "quantum": _cmd_quantum,
    "basis-study": _cmd_basis_study,
    "error-study": _cmd_error_study,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    try:
        cmd = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if cmd.subcommand == "selftest":
        return selftest()
    try:
        return _HANDLERS[cmd.subcommand](cmd)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except GdrqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
