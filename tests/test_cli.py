"""Unit tests for config parsing, argument handling, and CLI entry points."""

import contextlib
import dataclasses
import io
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdrq import cli
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


class TestParseArgs:
    def test_defaults(self):
        cmd = cli.parse_args(["classical", "--config", "x.cfg"])
        assert cmd.subcommand == "classical"
        assert cmd.config_path == "x.cfg"
        assert cmd.master_seed == 1
        assert cmd.output_dir == "out"
        assert cmd.overrides == {}
        assert not cmd.exact

    def test_overrides_collected_only_when_given(self):
        cmd = cli.parse_args(
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
        assert cmd.overrides == {
            "shots": 500,
            "runs": 7,
            "kappa": 0.6,
            "gamma_spread": 1.5,
            "basis": BasisWindow(2, 5),
        }
        assert cmd.exact
        assert cmd.master_seed == 99

    def test_basis_study_bases_default(self):
        cmd = cli.parse_args(["basis-study", "--config", "x.cfg"])
        assert cmd.bases == cli.TABLE_WINDOWS

    def test_compare_mode_and_experiment(self):
        cmd = cli.parse_args(
            ["compare", "--config", "x.cfg", "--mode", "quantum", "--experiment", "e.csv"]
        )
        assert cmd.mode == "quantum"
        assert cmd.experiment_path == "e.csv"

    def test_selftest_needs_no_config(self):
        cmd = cli.parse_args(["selftest"])
        assert cmd.subcommand == "selftest"
        assert cmd.config_path is None


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

    def test_compare_uses_bundled_data_by_nucleus(self, sn_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(
            ["compare", "--config", str(sn_config), "--kappa", "0.4", "--out", str(out)]
        )
        assert code == 0
        assert "vs experiment 15.4" in capsys.readouterr().out

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
            ["quantum", "--shots", "0"],
            ["quantum", "--runs", "0"],
            ["classical", "--kappa", "5"],
            ["classical", "--gamma-spread", "-1"],
            ["error-study", "--runs", "1"],
            ["quantum", "--seed", "-1"],
            ["quantum", "--seed", "-1", "--exact"],
        ],
    )
    def test_bad_window_is_one_line_usage_error(self, tmp_path, capsys, argv):
        code = cli.main([*argv, "--config", str(CONFIGS / "sn120.cfg"), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert "error:" in err

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


class TestArgvFuzz:
    @settings(max_examples=60, deadline=None)
    @example(command=["classical"], options={"--gamma-spread": "nan"})
    @example(command=["classical"], options={"--gamma-spread": "inf"})
    @example(command=["quantum", "--exact"], options={"--gamma-spread": "-inf"})
    @given(
        command=st.sampled_from([["classical"], ["quantum", "--exact"]]),
        options=st.sets(st.sampled_from(sorted(_FUZZ_OPTIONS))).flatmap(
            lambda keys: st.fixed_dictionaries({k: _FUZZ_OPTIONS[k] for k in sorted(keys)})
        ),
    )
    def test_exit_code_documented_and_no_traceback(self, tmp_path_factory, command, options):
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


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        assert cli.selftest() == 0
        out = capsys.readouterr().out
        assert out.count("ok: ") == 6
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_broken_golden_is_reported(self, monkeypatch, capsys):
        monkeypatch.setitem(cli.SELFTEST_GOLDENS, "h5_identity", 9.0)
        assert cli.selftest() == 1
        out = capsys.readouterr().out
        assert "FAIL: h5 golden coefficients" in out
        assert "1 check(s) failed" in out

    def test_main_dispatches_selftest(self, capsys):
        assert cli.main(["selftest"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        assert cli.main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("gdrq ")
