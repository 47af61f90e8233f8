"""Unit tests for config parsing, argument handling, and CLI entry points."""

import argparse
import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdrq import cli, experiment
from gdrq.encoding import BasisWindow, NucleusConfig
from gdrq.errors import SchemaError, ValidationError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SN_TEXT = """\
# tin experiment
A = 120
Z = 50
kappa = 0.5        # residual strength
basis = 3-6
shots = 8000
runs = 100
calibration = 0.1751
"""


@pytest.fixture
def sn_config(tmp_path):
    path = tmp_path / "sn.cfg"
    path.write_text(SN_TEXT)
    return path


def save_config(config: NucleusConfig) -> str:
    """Config file text that round-trips through cli.load_config."""
    lines = [
        f"A = {config.A}",
        f"Z = {config.Z}",
        f"kappa = {config.kappa!r}",
        f"basis = {config.basis.label}",
        f"gamma_spread = {config.gamma_spread!r}",
        f"shots = {config.shots}",
        f"runs = {config.runs}",
        f"grid_min = {config.grid_min!r}",
        f"grid_max = {config.grid_max!r}",
        f"grid_step = {config.grid_step!r}",
        f"calibration = {config.calibration!r}",
    ]
    return "\n".join(lines) + "\n"


def small_quantum_config(tmp_path, runs=3):
    config = NucleusConfig(
        A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6), runs=runs, calibration=0.1751
    )
    path = tmp_path / "small.cfg"
    path.write_text(save_config(config))
    return path


class TestLoadConfig:
    def test_parses_values_and_comments(self, sn_config):
        config = cli.load_config(sn_config)
        assert config.A == 120 and config.Z == 50
        assert config.kappa == 0.5
        assert config.basis == BasisWindow(3, 6)
        assert config.calibration == 0.1751
        assert config.gamma_spread == 2.0  # default untouched

    def test_missing_required_key_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("A = 120\nZ = 50\nkappa = 0.5\n")
        with pytest.raises(SchemaError, match="basis"):
            cli.load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("A = 120\nZ = 50\nkappa = 0.5\nbasis = 3-6\nbogus = 1\n")
        with pytest.raises(SchemaError, match="bogus"):
            cli.load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("A = 120\nA = 121\nZ = 50\nkappa = 0.5\nbasis = 3-6\n")
        with pytest.raises(SchemaError, match="duplicate"):
            cli.load_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("A 120\n")
        with pytest.raises(SchemaError):
            cli.load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("A = twelve\nZ = 50\nkappa = 0.5\nbasis = 3-6\n")
        with pytest.raises(SchemaError, match="A"):
            cli.load_config(path)

    def test_out_of_range_value_is_a_validation_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("A = 120\nZ = 50\nkappa = 5.0\nbasis = 3-6\n")
        with pytest.raises(ValidationError):
            cli.load_config(path)

    def test_save_config_round_trips(self, tmp_path):
        config = NucleusConfig(
            A=208,
            Z=82,
            kappa=0.85,
            basis=BasisWindow(3, 6),
            gamma_spread=1.75,
            shots=5000,
            runs=7,
            calibration=0.2378,
        )
        path = tmp_path / "roundtrip.cfg"
        path.write_text(save_config(config))
        assert cli.load_config(path) == config
        # every config field is written, and every schema key is a field
        assert {line.split(" = ")[0] for line in save_config(config).splitlines()} == set(
            cli._SCHEMA
        ) == {f.name for f in dataclasses.fields(NucleusConfig)}

    @given(
        st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
        st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
    )
    def test_save_config_preserves_floats_exactly(self, kappa, gamma_spread):
        config = NucleusConfig(
            A=120, Z=50, kappa=kappa, basis=BasisWindow(3, 6), gamma_spread=gamma_spread
        )
        text = save_config(config)
        parsed = {
            line.split("=")[0].strip(): line.split("=", 1)[1].strip()
            for line in text.splitlines()
        }
        assert float(parsed["kappa"]) == kappa
        assert float(parsed["gamma_spread"]) == gamma_spread


def parse(argv):
    return cli.build_parser().parse_args(argv)


class TestParseArgs:
    def test_defaults(self):
        args = parse(["classical", "--config", "x.cfg"])
        assert args.subcommand == "classical"
        assert args.config == "x.cfg"
        assert args.out == "out"
        assert (args.kappa, args.gamma_spread, args.basis) == (None, None, None)

    def test_sampling_defaults(self):
        args = parse(["quantum", "--config", "x.cfg"])
        # an absent --seed parses to None; main sets the default seed 1
        assert args.seed is None and cli.DEFAULT_SEED == 1
        assert (args.shots, args.runs) == (None, None)
        assert not args.exact

    def test_overrides_parsed_to_config_types(self):
        args = parse(
            [
                "quantum",
                "--config",
                "x.cfg",
                "--shots",
                "500",
                "--runs",
                "7",
                "--kappa",
                "0.6",
                "--gamma-spread",
                "1.5",
                "--basis",
                "2-5",
                "--exact",
                "--seed",
                "99",
            ]
        )
        assert (args.shots, args.runs, args.kappa, args.gamma_spread) == (500, 7, 0.6, 1.5)
        assert args.basis == BasisWindow(2, 5)
        assert args.exact
        assert args.seed == 99

    def test_basis_study_bases_default(self):
        args = parse(["basis-study", "--config", "x.cfg"])
        assert args.bases == cli.TABLE_WINDOWS

    def test_compare_mode_and_experiment(self):
        args = parse(["compare", "--config", "x.cfg", "--mode", "quantum", "--experiment", "e.csv"])
        assert args.mode == "quantum"
        assert args.experiment == "e.csv"

    def test_selftest_needs_no_config(self):
        assert vars(parse(["selftest"])) == {"subcommand": "selftest"}


def subcommand_flags(name):
    """Every option string that one subcommand's parser accepts, --help aside."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {opt for action in sub.choices[name]._actions for opt in action.option_strings} - {
        "-h",
        "--help",
    }


CONFIG_FLAGS = {"--config", "--kappa", "--gamma-spread", "--out"}
SAMPLING_FLAGS = {"--seed", "--shots", "--runs"}
FLAG_TABLE = {
    "classical": CONFIG_FLAGS | {"--basis"},
    "basis-study": CONFIG_FLAGS | {"--bases"},
    "quantum": CONFIG_FLAGS | {"--basis", "--exact"} | SAMPLING_FLAGS,
    "error-study": CONFIG_FLAGS | {"--basis"} | SAMPLING_FLAGS,
    "compare": CONFIG_FLAGS | {"--basis", "--exact", "--mode", "--experiment"} | SAMPLING_FLAGS,
}
# argv that sets a flag to a value other than its default (or the base argv's)
FLAG_VARIANTS = {
    "--kappa": ["--kappa", "0.6"],
    "--gamma-spread": ["--gamma-spread", "1.5"],
    "--basis": ["--basis", "4-6"],
    "--bases": ["--bases", "0-10,4-5"],
    "--seed": ["--seed", "2"],
    "--shots": ["--shots", "500"],
    "--runs": ["--runs", "4"],
    "--exact": ["--exact"],
    "--mode": ["--mode", "classical"],
    "--experiment": ["--experiment", "EXPERIMENT"],
}


class TestFlagSurface:
    """Each subcommand takes only the flags it reads."""

    def test_flag_table(self):
        assert {name: subcommand_flags(name) for name in FLAG_TABLE} == FLAG_TABLE
        assert subcommand_flags("selftest") == set()

    @pytest.mark.parametrize(
        "command, flag",
        [
            (name, flag)
            for name in FLAG_TABLE
            for flag in sorted(subcommand_flags(name) - {"--config", "--out"})
        ],
    )
    def test_every_flag_changes_an_output_byte(self, tmp_path, capsys, command, flag):
        cfg = small_quantum_config(tmp_path)
        exp = tmp_path / "exp.csv"
        exp.write_text(
            "energy_mev,sigma_mb\n"
            + "".join(f"{e},{100.0 / (1.0 + ((e - 15.0) / 2.5) ** 2)}\n" for e in range(8, 23))
        )
        base = [command, "--config", str(cfg)]
        if command == "compare":
            base += ["--mode", "quantum"]
        variant = [str(exp) if token == "EXPERIMENT" else token for token in FLAG_VARIANTS[flag]]
        outputs = []
        for argv in (base, base + variant):
            out = tmp_path / f"out{len(outputs)}"
            assert cli.main([*argv, "--out", str(out)]) == 0, argv
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        capsys.readouterr()
        assert outputs[0] != outputs[1], f"{command} {flag} changed no output byte"


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
REPRODUCE = ROOT / "scripts" / "reproduce_all.py"


class TestDocumentedCommandLines:
    def test_readme_gdrq_lines_parse(self):
        blocks = README.read_text(encoding="utf-8").split("```")[1::2]
        lines = [
            line.split()[1:]
            for block in blocks
            for line in block.splitlines()
            if line.startswith("gdrq ")
        ]
        assert len(lines) >= 7
        for argv in lines:
            cli.build_parser().parse_args(argv)

    def test_readme_layout_names_every_module(self):
        blocks = README.read_text(encoding="utf-8").split("```")[1::2]
        layout = next(block for block in blocks if block.lstrip().startswith("src/gdrq/"))
        named = {line.split()[0] for line in layout.splitlines() if line.startswith("  ")}
        modules = {p.name for p in (ROOT / "src" / "gdrq").glob("*.py")} - {"__init__.py"}
        assert modules - named == set()

    @staticmethod
    def reproduce_all_steps(monkeypatch, tmp_path, capsys):
        """(step, argv) of each call that scripts/reproduce_all.py makes to run()."""
        # the script puts its src/ on sys.path; the copy keeps that out of other tests
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location("reproduce_all", REPRODUCE)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        recorded = []
        monkeypatch.setattr(script, "run", lambda step, argv: recorded.append((step, argv)))
        script_argv = ["reproduce_all.py", "--out", str(tmp_path), "--runs", "3"]
        monkeypatch.setattr(sys, "argv", script_argv)
        assert script.main() == 0
        capsys.readouterr()
        return recorded

    def test_reproduce_all_argv_parse(self, monkeypatch, tmp_path, capsys):
        recorded = self.reproduce_all_steps(monkeypatch, tmp_path, capsys)
        assert len(recorded) == 10
        for _, argv in recorded:
            cli.build_parser().parse_args(argv)

    def test_reproduce_all_step_sequence(self, monkeypatch, tmp_path, capsys):
        recorded = self.reproduce_all_steps(monkeypatch, tmp_path, capsys)
        sampled = ["--seed", "20260823", "--runs", "3"]
        expected = []
        for nucleus in ("sn120", "pb208"):
            config = ["--config", str(ROOT / "configs" / f"{nucleus}.cfg")]
            out = tmp_path / nucleus
            expected += [
                (
                    f"{nucleus} classical",
                    ["classical", *config, "--kappa", "0.4", "--basis", "0-10", "--out", str(out / "classical")],
                ),
                (
                    f"{nucleus} basis study",
                    ["basis-study", *config, "--kappa", "0.4", "--out", str(out / "basis_study")],
                ),
                (f"{nucleus} quantum", ["quantum", *config, *sampled, "--out", str(out / "quantum")]),
                (
                    f"{nucleus} error study",
                    ["error-study", *config, *sampled, "--out", str(out / "error_study")],
                ),
                (
                    f"{nucleus} comparison",
                    ["compare", *config, "--mode", "quantum", *sampled, "--out", str(out / "comparison")],
                ),
            ]
        assert recorded == expected


class TestMainSubcommands:
    def test_classical_writes_spectrum(self, sn_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(
            ["classical", "--config", str(sn_config), "--kappa", "0.4", "--out", str(out)]
        )
        assert code == 0
        assert (out / "spectrum.csv").exists()
        stdout = capsys.readouterr().out
        assert "E0 = " in stdout and "FWHM = " in stdout

    def test_quantum_writes_runs_and_spectrum(self, tmp_path):
        cfg = small_quantum_config(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["quantum", "--config", str(cfg), "--seed", "7", "--out", str(out)])
        assert code == 0
        runs_lines = (out / "runs.csv").read_text().splitlines()
        assert len(runs_lines) == 1 + 3
        assert (out / "spectrum.csv").exists()

    def test_quantum_exact_single_run(self, tmp_path, capsys):
        cfg = small_quantum_config(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["quantum", "--config", str(cfg), "--exact", "--out", str(out)])
        assert code == 0
        assert "exact run" in capsys.readouterr().out
        assert len((out / "runs.csv").read_text().splitlines()) == 2

    def test_exact_mode_reports_its_run_s_own_spectrum(self, tmp_path, capsys, monkeypatch):
        """`quantum --exact` and `compare --mode quantum --exact` take no
        median of their one run: they read its spectrum."""
        monkeypatch.setattr(cli, "median_spectrum", lambda _: pytest.fail("a median was taken"))
        cfg = CONFIGS / "sn120.cfg"
        flags = ["--config", str(cfg), "--exact"]
        assert cli.main(["quantum", *flags, "--out", str(tmp_path / "quantum")]) == 0
        assert cli.main(["compare", "--mode", "quantum", *flags, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        run = experiment.run_quantum(cli.load_config(cfg), cli.DEFAULT_SEED, mode="exact")
        experiment.write_spectrum_csv(tmp_path / "expected.csv", run.spectrum)
        written = (tmp_path / "quantum" / "spectrum.csv").read_bytes()
        assert written == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize("command", ["quantum", "error-study"])
    def test_sampled_commands_read_the_ensemble_s_columns(self, tmp_path, capsys, monkeypatch, command):
        """`quantum` and `error-study` build no run view: runs.csv, the median
        and the MAD series come from the ensemble's columns, with the bytes
        they have when views may be built."""
        argv = [command, "--config", str(CONFIGS / "sn120.cfg"), "--seed", "3"]
        written = {}
        for patched in (True, False):
            experiment._ensemble.cache_clear()
            with monkeypatch.context() as m:
                if patched:
                    m.setattr(experiment._EnsembleRun, "view", lambda *_: pytest.fail("a view was built"))
                assert cli.main([*argv, "--out", str(tmp_path / str(patched))]) == 0
            written[patched] = tree_bytes(tmp_path / str(patched))
        capsys.readouterr()
        assert written[True] == written[False] and len(written[True]) == 2

    def test_basis_study_writes_table(self, sn_config, tmp_path):
        out = tmp_path / "out"
        code = cli.main(
            [
                "basis-study",
                "--config",
                str(sn_config),
                "--kappa",
                "0.4",
                "--bases",
                "0-10,4-5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "basis_study.csv").read_text().splitlines()
        assert lines[0] == "label,n_min,n_max,e0_mev,width_mev"
        assert len(lines) == 3

    def test_error_study_writes_runs_and_series(self, tmp_path):
        cfg = small_quantum_config(tmp_path, runs=4)
        out = tmp_path / "out"
        code = cli.main(["error-study", "--config", str(cfg), "--seed", "5", "--out", str(out)])
        assert code == 0
        assert (out / "runs.csv").exists()
        mad_lines = (out / "mad_series.csv").read_text().splitlines()
        assert mad_lines[0] == "m,e0_median_mev,delta_e0_mev"
        assert len(mad_lines) == 1 + 3  # m = 2, 3, 4

    def test_compare_against_explicit_file(self, sn_config, tmp_path):
        exp = tmp_path / "exp.csv"
        exp.write_text(
            "# laboratory curve\nenergy_mev,sigma_mb\n"
            + "".join(f"{e},{100.0 / (1.0 + ((e - 15.0) / 2.5) ** 2)}\n" for e in range(8, 23))
        )
        out = tmp_path / "out"
        code = cli.main(
            [
                "compare",
                "--config",
                str(sn_config),
                "--kappa",
                "0.4",
                "--experiment",
                str(exp),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "energy_mev,sigma_model_mb,sigma_experiment_mb"
        # a named file is read on every call, unlike a bundled curve
        exp.write_text("energy_mev,sigma_mb\n10,0.5\n11,3\n12,0.25\n")
        argv = ["compare", "--config", str(sn_config), "--kappa", "0.4", "--experiment", str(exp)]
        assert cli.main([*argv, "--out", str(tmp_path / "again")]) == 0
        rows = (tmp_path / "again" / "comparison.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["0.5", "3", "0.25"]

    def test_compare_uses_bundled_data_by_nucleus(self, sn_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(
            ["compare", "--config", str(sn_config), "--kappa", "0.4", "--out", str(out)]
        )
        assert code == 0
        assert "vs experiment 15.4" in capsys.readouterr().out

    def test_compare_writes_only_points_inside_the_model_grid(self, sn_config, tmp_path):
        """The shipped grid runs 5-30 MeV; the model is not extrapolated past it."""
        exp = tmp_path / "wide.csv"
        exp.write_text("energy_mev,sigma_mb\n2,1\n10,4\n15,9\n20,4\n40,1\n")
        argv = ["compare", "--config", str(sn_config), "--kappa", "0.4", "--experiment", str(exp)]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "comparison.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["10", "15", "20"]
        assert [row.split(",")[2] for row in rows] == ["4", "9", "4"]

    def test_compare_with_no_point_inside_the_grid_is_one_line(self, sn_config, tmp_path, capsys):
        exp = tmp_path / "outside.csv"
        exp.write_text("energy_mev,sigma_mb\n2,1\n3,4\n40,1\n")
        argv = ["compare", "--config", str(sn_config), "--kappa", "0.4", "--experiment", str(exp)]
        assert cli.main([*argv, "--out", str(tmp_path / "none")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "no experimental energy inside the model grid [5, 30] MeV" in err
        assert not (tmp_path / "none").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = small_quantum_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert (
                cli.main(["quantum", "--config", str(cfg), "--seed", "7", "--out", str(out)])
                == 0
            )
        assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
        assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()

    @pytest.mark.parametrize("command", [["quantum"], ["quantum", "--exact"], ["error-study"]])
    def test_default_seed_is_one(self, tmp_path, capsys, command):
        cfg = small_quantum_config(tmp_path)
        outputs = []
        for seed in ([], ["--seed", "1"]):
            out = tmp_path / f"out{len(outputs)}"
            assert cli.main([*command, "--config", str(cfg), *seed, "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_repeated_main_calls_share_one_parser(self, tmp_path, capsys):
        """The parser is built once; erroring argvs between calls change nothing."""
        cfg = small_quantum_config(tmp_path)
        good = ["quantum", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "out")]
        unknown_flag = ["quantum", "--config", str(cfg), "--bases", "0-10"]
        unread_flag = ["quantum", "--config", str(cfg), "--exact", "--runs", "4"]
        results = []
        for argv in (good, unknown_flag, good, unread_flag, good):
            code = cli.main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err, (tmp_path / "out" / "runs.csv").read_bytes()))
        assert results[0] == results[2] == results[4]
        assert results[0][0] == 0 and results[1][0] == results[3][0] == 2
        assert cli.build_parser() is cli.build_parser()


class TestUnreadSamplingFlags:
    """A sampling flag that the chosen mode does not read is a one-line usage error."""

    @pytest.mark.parametrize(
        "argv, flags, reason",
        [
            (["quantum", "--exact", "--shots", "500"], "--shots", "--exact"),
            (["quantum", "--exact", "--runs", "4"], "--runs", "--exact"),
            (["quantum", "--runs", "4", "--exact", "--shots", "500"], "--shots --runs", "--exact"),
            (["compare", "--seed", "1"], "--seed", "--mode classical"),
            (["compare", "--seed", "0", "--shots", "0"], "--seed --shots", "--mode classical"),
            (["compare", "--mode", "classical", "--seed", "3"], "--seed", "--mode classical"),
            (["compare", "--mode", "classical", "--shots", "500"], "--shots", "--mode classical"),
            (["compare", "--mode", "classical", "--runs", "4"], "--runs", "--mode classical"),
            (["compare", "--mode", "classical", "--exact"], "--exact", "--mode classical"),
            (["compare", "--mode", "quantum", "--exact", "--seed", "3"], "--seed", "--exact"),
            (["compare", "--mode", "quantum", "--exact", "--runs", "4"], "--runs", "--exact"),
        ],
    )
    def test_refused_before_any_work(self, tmp_path, capsys, argv, flags, reason):
        out = tmp_path / "out"
        code = cli.main([*argv, "--config", str(CONFIGS / "sn120.cfg"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"gdrq {argv[0]}: error: {flags} not read with {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["quantum", "--exact", "--seed", "3"],
            ["compare", "--mode", "quantum", "--seed", "3", "--shots", "500", "--runs", "3"],
            ["compare", "--mode", "quantum", "--exact"],
            ["compare", "--mode", "classical"],
        ],
    )
    def test_read_flags_still_accepted(self, tmp_path, capsys, argv):
        cfg = small_quantum_config(tmp_path)
        assert cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()


class TestMainErrors:
    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        code = cli.main(["classical", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_schema_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("A = 120\nZ = 50\nkappa = 0.5\n")
        code = cli.main(["classical", "--config", str(path)])
        assert code == 1
        assert "missing required" in capsys.readouterr().err

    def test_domain_error_exits_1(self, sn_config, tmp_path, capsys):
        # single-shell window has no dipole pair
        code = cli.main(
            [
                "classical",
                "--config",
                str(sn_config),
                "--basis",
                "5-5",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exits_2(self, capsys):
        assert cli.main(["bogus"]) == 2
        assert cli.main([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["classical", "--basis", "6-3"],
            ["classical", "--basis", "x"],
            ["basis-study", "--bases", "0-10,x"],
            ["basis-study", "--bases", ","],
            ["basis-study", "--bases", ""],
            ["classical", "--basis", "0-101"],
            ["quantum", "--basis", "999999995-999999999"],
            ["basis-study", "--bases", "0-10,0-1000000000"],
            ["quantum", "--shots", "0"],
            ["quantum", "--runs", "0"],
            ["quantum", "--shots", "100000000000000000000"],
            ["quantum", "--shots", "100000000000000000000", "--runs", "2"],
            ["compare", "--mode", "quantum", "--shots", "100000000000000000000"],
            ["classical", "--kappa", "5"],
            ["classical", "--gamma-spread", "-1"],
            ["error-study", "--runs", "1"],
            ["quantum", "--seed", "-1"],
            ["quantum", "--seed", "-1", "--exact"],
            ["classical", "--seed", "3"],
            ["basis-study", "--basis", "3-6"],
            ["error-study", "--exact"],
        ],
    )
    def test_bad_window_is_one_line_usage_error(self, tmp_path, capsys, argv):
        code = cli.main([*argv, "--config", str(CONFIGS / "sn120.cfg"), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert "error:" in err

    def test_oversized_runs_flag_is_one_line_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["quantum", "--config", str(CONFIGS / "sn120.cfg"), "--runs", "100000000000000000000"]
        code = cli.main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "gdrq quantum: error: runs must be at most 100000, got 100000000000000000000\n"
        assert not out.exists()

    def test_undecodable_config_is_one_line_data_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.cfg"
        path.write_bytes(b"\xff\xfe" + SN_TEXT.encode("utf-16-le"))
        code = cli.main(["classical", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    def test_undecodable_experiment_is_one_line_data_error(self, sn_config, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("# Berman & Fultz, \u00e9d.\nenergy_mev,sigma_mb\n".encode("latin-1"))
        argv = ["compare", "--config", str(sn_config), "--experiment", str(path)]
        code = cli.main([*argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {path}: not UTF-8 text (invalid continuation byte)\n"

    def test_out_of_range_file_value_stays_runtime_error(self, tmp_path, capsys):
        # the value --runs 1 rejects as usage is a data error when the file holds it
        cfg = small_quantum_config(tmp_path, runs=1)
        code = cli.main(["error-study", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "at least two runs" in capsys.readouterr().err

    def test_deformation_key_is_unknown(self, tmp_path, capsys):
        path = tmp_path / "old.cfg"
        path.write_text(SN_TEXT + "beta2 = 0.0\n")
        code = cli.main(["classical", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {path}:9: unknown key 'beta2'\n"

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({"grid_step": "1e-15"}, "energy grid of 2.5e+16 points exceeds 100000"),
            ({"grid_min": "-1e308", "grid_max": "1e308"}, "energy grid of inf points exceeds 100000"),
            (
                {"shots": "100000000000000000000"},
                "shots must be at most 9223372036854775807, got 100000000000000000000",
            ),
            ({"runs": "-2"}, "runs must be a non-negative integer, got -2"),
            ({"runs": "100001"}, "runs must be at most 100000, got 100001"),
            ({"Z": "-50"}, "Z must be a non-negative integer, got -50"),
            ({"basis": "0-1000000000"}, "n_max must be at most 100, got 1000000000"),
        ],
    )
    def test_out_of_range_file_value_is_data_error(self, tmp_path, capsys, edits, message):
        lines = (CONFIGS / "sn120.cfg").read_text().splitlines()
        for key, value in edits.items():
            lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line for line in lines]
        path = tmp_path / "sn120.cfg"
        path.write_text("\n".join(lines) + "\n")
        code = cli.main(["classical", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key", ["gamma_spread", "grid_min", "grid_max", "grid_step", "calibration"]
    )
    def test_non_finite_file_value_is_data_error(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(SN_TEXT.replace("calibration = 0.1751\n", "") + f"{key} = {value}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["classical", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err == f"error: {key} must be finite, got {float(value)}\n"


def _values(numbers):
    """Command-line text of a number, or a string that is no number at all."""
    junk = st.sampled_from(["", "x", "1.5", "nan", "inf", "-inf", "1e400", "0x10", "--"])
    return st.one_of(numbers.map(str), junk)


_FUZZ_OPTIONS = {
    "--seed": _values(st.integers(-3, 2**70)),
    "--shots": _values(st.integers(-3, 10**9)),
    "--runs": _values(st.integers(-3, 10**9)),
    "--kappa": _values(st.floats(allow_nan=True, allow_infinity=True)),
    "--gamma-spread": _values(st.floats(allow_nan=True, allow_infinity=True)),
    "--basis": st.one_of(
        st.tuples(st.integers(-2, 12), st.integers(-2, 12)).map(lambda w: f"{w[0]}-{w[1]}"),
        _values(st.integers(-2, 12)),
    ),
}


def _non_finite(text):
    """True for the text of NaN or an infinity, e.g. "nan", "-inf" or "1e400"."""
    try:
        return not math.isfinite(float(text))
    except ValueError:
        return False


def _fuzz_case(command):
    """(command, options) with options drawn from the flags the subcommand takes."""
    flags = sorted(set(_FUZZ_OPTIONS) & subcommand_flags(command[0]))
    options = st.sets(st.sampled_from(flags)).flatmap(
        lambda keys: st.fixed_dictionaries({k: _FUZZ_OPTIONS[k] for k in sorted(keys)})
    )
    return st.tuples(st.just(command), options)


class TestArgvFuzz:
    @settings(max_examples=60, deadline=None)
    @example(case=(["classical"], {"--gamma-spread": "nan"}))
    @example(case=(["classical"], {"--gamma-spread": "inf"}))
    @example(case=(["quantum", "--exact"], {"--gamma-spread": "-inf"}))
    @given(case=st.sampled_from([["classical"], ["quantum", "--exact"]]).flatmap(_fuzz_case))
    def test_exit_code_documented_and_no_traceback(self, tmp_path_factory, case):
        command, options = case
        out = tmp_path_factory.mktemp("fuzz")
        argv = [*command, "--config", str(CONFIGS / "sn120.cfg"), "--out", str(out)]
        for flag, value in options.items():
            argv += [flag, value]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
        floats = (options.get(flag) for flag in ("--kappa", "--gamma-spread"))
        if any(_non_finite(value) for value in floats if value is not None):
            assert code == 2, argv


class TestPostSelectionBudget:
    def test_rare_post_selection_seed_completes(self, tmp_path, capsys):
        # at p = 1/144 this ensemble needed more than 1000 Bernoulli attempts
        argv = ["quantum", "--config", str(CONFIGS / "sn120.cfg"), "--seed", "799819"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        assert "E0 = 16.3531 MeV" in capsys.readouterr().out


# the commands run in order in one interpreter; after each, whether numpy.random is loaded
LAZY_RANDOM_SCRIPT = """
import contextlib, io, json, sys
from gdrq import cli
config, out = sys.argv[1:]
loaded = []
for argv in (
    ["classical"],
    ["basis-study"],
    ["quantum", "--exact"],
    ["compare", "--mode", "quantum", "--exact"],
    ["quantum", "--runs", "2"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--config", config, "--out", out])
    loaded.append([" ".join(argv), code, "numpy.random" in sys.modules])
print(json.dumps(loaded))
"""


class TestLazyRandomImport:
    def test_only_a_sampled_run_imports_numpy_random(self, tmp_path):
        paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        argv = [sys.executable, "-c", LAZY_RANDOM_SCRIPT, str(CONFIGS / "sn120.cfg"), str(tmp_path)]
        result = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
        assert json.loads(result.stdout) == [
            ["classical", 0, False],
            ["basis-study", 0, False],
            ["quantum --exact", 0, False],
            ["compare --mode quantum --exact", 0, False],
            ["quantum --runs 2", 0, True],
        ]


# the sampled subcommands run in order in one interpreter; after each, whether
# numpy.ma is loaded.  200 runs are more than one block of spectra, so that
# ensemble takes its median on first read (see experiment.Ensemble)
MASKED_SCRIPT = """
import contextlib, io, json, sys
from gdrq import cli
config, out = sys.argv[1:]
loaded = []
for argv in (
    ["quantum", "--runs", "3"],
    ["error-study", "--runs", "3"],
    ["compare", "--mode", "quantum", "--runs", "3"],
    ["quantum", "--runs", "200"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--shots", "1000", "--config", config, "--out", out])
    loaded.append([" ".join(argv), code, "numpy.ma" in sys.modules])
print(json.dumps(loaded))
"""


class TestNoMaskedArrays:
    def test_sampled_subcommands_never_import_numpy_ma(self, tmp_path):
        """The median spectrum takes numpy's median steps without np.median,
        whose NaN check imports numpy.ma (about 1 MB and 10 ms)."""
        paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        argv = [sys.executable, "-c", MASKED_SCRIPT, str(CONFIGS / "sn120.cfg"), str(tmp_path)]
        result = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
        assert json.loads(result.stdout) == [
            ["quantum --runs 3", 0, False],
            ["error-study --runs 3", 0, False],
            ["compare --mode quantum --runs 3", 0, False],
            ["quantum --runs 200", 0, False],
        ]


# the sampled steps of scripts/reproduce_all.py for one nucleus, by output directory
SAMPLED_STEPS = {
    "quantum": ["quantum"],
    "error_study": ["error-study"],
    "comparison": ["compare", "--mode", "quantum"],
}


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestOneProcessEqualsThree:
    @pytest.mark.parametrize("nucleus", ["sn120", "pb208"])
    def test_shared_ensemble_writes_the_bytes_of_fresh_processes(
        self, tmp_path, capsys, monkeypatch, nucleus
    ):
        flags = ["--config", str(CONFIGS / f"{nucleus}.cfg"), "--seed", "9", "--runs", "5"]
        medians = []
        spectrum_of = experiment._median_spectrum
        monkeypatch.setattr(
            experiment, "_median_spectrum", lambda *args: medians.append(1) or spectrum_of(*args)
        )
        for name, argv in SAMPLED_STEPS.items():
            assert cli.main([*argv, *flags, "--out", str(tmp_path / "one" / name)]) == 0
        capsys.readouterr()
        memo = experiment._ensemble.cache_info()
        assert (memo.misses, memo.hits) == (1, 2)
        # compare --mode quantum reads the median spectrum that quantum took
        assert len(medians) == 1
        paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        for name, argv in SAMPLED_STEPS.items():
            out = ["--out", str(tmp_path / "three" / name)]
            command = [sys.executable, "-m", "gdrq.cli", *argv, *flags, *out]
            subprocess.run(command, capture_output=True, env=env, check=True)
        one, three = tree_bytes(tmp_path / "one"), tree_bytes(tmp_path / "three")
        assert sorted(one) == [
            "comparison/comparison.csv",
            "error_study/mad_series.csv",
            "error_study/runs.csv",
            "quantum/runs.csv",
            "quantum/spectrum.csv",
        ]
        assert one == three


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        assert cli.selftest() == 0
        out = capsys.readouterr().out
        assert out.count("ok: ") == 4
        assert "ok: exact quantum equals classical" in out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_broken_golden_is_reported(self, monkeypatch, capsys):
        monkeypatch.setitem(cli.SELFTEST_GOLDENS, "h5_identity", 9.0)
        assert cli.selftest() == 1
        out = capsys.readouterr().out
        assert "FAIL: h5 golden coefficients" in out
        assert "1 check(s) failed" in out

    def test_exact_quantum_gap_is_reported(self, monkeypatch, capsys):
        """A quantum path that drifts from the classical one fails its one check."""
        real = cli.run_quantum

        def drifted(config, *args, **kwargs):
            return real(dataclasses.replace(config, kappa=config.kappa + 0.01), *args, **kwargs)

        monkeypatch.setattr(cli, "run_quantum", drifted)
        assert cli.selftest() == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("FAIL")]
        assert len(failed) == 1
        assert failed[0].startswith("FAIL: exact quantum equals classical: peak gap")
        assert lines[-1] == "1 check(s) failed"

    def test_main_dispatches_selftest(self, capsys):
        assert cli.main(["selftest"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        assert cli.main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("gdrq ")
