"""Golden SHA-256 digests of the CLI artifacts for both shipped nuclei.

The digests pin every byte of the quantum and error-study outputs at two master
seeds with each config's own run count (100 runs of 8000 shots), plus the exact
spectrum, and of `quantum --runs 300` at seed 1, more runs than one block, whose
median is rebuilt from the draws a block of grid columns at a time.  A refactor
of the quantum pipeline must leave all of them unchanged.  The classical spectra (at the 0-10 window with kappa 0.4, as the reproduction
script runs them, and at each config's own window and kappa) and the 120Sn
basis study pin the classical path the same way; those commands take no --seed,
so seed 1 in their keys only names the entry.  The comparison with the bundled
data is pinned in both modes, the quantum one at seed 1 and exact (which
reads no seed).

Below the CSVs, three digests pin raw float64 bits: every array and number of
the records of a 50-run collect_runs ensemble per config; the terms of the
window Hamiltonian and both dipole operators on every window the benchmark's
exact scan visits; and every number of the quantum plan (each LCU's lambda and
success probability, each SWAP test's p0 and marginal, each energy's sign) on
those windows and on every 2-5 shell window from n_min 0-7 of both configs.
"""

import ast
import hashlib
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gdrq import cli
from gdrq.encoding import BasisWindow, build_dipole, build_hamiltonian, hbar_omega
from gdrq.errors import GdrqError
from gdrq.experiment import QuantumPlan, collect_runs

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

GOLDEN = {
    ("sn120", 1, "quantum"): {
        "runs.csv": "ccbbec31a11931c484ebb0d78adfb10a61c1e9b69ad20027f17e8e9ff3429e19",
        "spectrum.csv": "60a19299a9d2547328a2b64e6458ed4cda05f08a81c175b7787fdf2f1ff8092d",
    },
    ("sn120", 1, "error-study"): {
        "runs.csv": "ccbbec31a11931c484ebb0d78adfb10a61c1e9b69ad20027f17e8e9ff3429e19",
        "mad_series.csv": "2514ec4947473e7548f036a6c5de165743820be84ad80791cfba1bac2f346c4b",
    },
    ("sn120", 1, "quantum --exact"): {
        "spectrum.csv": "3dc3437797ffc5ac0b781fdcc19a3737b662fca0594b21333d05b12dc2c68457",
    },
    ("sn120", 2, "quantum"): {
        "runs.csv": "d833ca66e831496ad8ac8a82af5e6a6b68d457dc91e38b563d29776a0dac9a7d",
        "spectrum.csv": "35e915d998e8f0f82f29188121987a0bc5d403a5976efd8b90c1ac57d1a6d059",
    },
    ("sn120", 2, "error-study"): {
        "runs.csv": "d833ca66e831496ad8ac8a82af5e6a6b68d457dc91e38b563d29776a0dac9a7d",
        "mad_series.csv": "6a5f4d692ad611576426751833918e7fc86bd448f33b3ad6d02c71cbd73ac03d",
    },
    ("sn120", 2, "quantum --exact"): {
        "spectrum.csv": "3dc3437797ffc5ac0b781fdcc19a3737b662fca0594b21333d05b12dc2c68457",
    },
    ("pb208", 1, "quantum"): {
        "runs.csv": "38a5cd67114b0c4afcb540a5b5cad1e346cf8eec468a10bfc49a59348a9018f8",
        "spectrum.csv": "b47bcedc219f15241e3b16a06ed21c4bfd5044d0f4f85f1f026940a78fe1ba9b",
    },
    ("pb208", 1, "error-study"): {
        "runs.csv": "38a5cd67114b0c4afcb540a5b5cad1e346cf8eec468a10bfc49a59348a9018f8",
        "mad_series.csv": "9c9acfff6a632e5ee7387197bedbf244b3e333547a284dd01ca490bea36be181",
    },
    ("pb208", 1, "quantum --exact"): {
        "spectrum.csv": "09ff1a514ae009baf3076c06bebdb2449d1e31798caeaaf869035f67c3ceb52d",
    },
    ("pb208", 2, "quantum"): {
        "runs.csv": "0fc8df4dbfaa51792f9a5002b5d001a0a4a75a6fd557830b6521af7e11eca274",
        "spectrum.csv": "f5f1993fdcbe3ac616db91bb101d26311fe179a67f1b603dc1268d87f315cceb",
    },
    ("pb208", 2, "error-study"): {
        "runs.csv": "0fc8df4dbfaa51792f9a5002b5d001a0a4a75a6fd557830b6521af7e11eca274",
        "mad_series.csv": "09f34b57736bf6dcfad4755ff5c6da027edea068a739d73a08af8105c0921a17",
    },
    ("pb208", 2, "quantum --exact"): {
        "spectrum.csv": "09ff1a514ae009baf3076c06bebdb2449d1e31798caeaaf869035f67c3ceb52d",
    },
    ("sn120", 1, "classical --kappa 0.4 --basis 0-10"): {
        "spectrum.csv": "f497c6d5868444d3af7e3879409c1806e4735e08ce514721831e57ffe6c1252f",
    },
    ("sn120", 1, "classical"): {
        "spectrum.csv": "d769e9efa2cf45d3617eeaa8b04aa889f2d47ab3969fb0e418bfc53f38d9f381",
    },
    ("pb208", 1, "classical --kappa 0.4 --basis 0-10"): {
        "spectrum.csv": "0632a6717f9f4fce32a54bf17a4ce7631150749738b9b89922cef3de128ccf97",
    },
    ("pb208", 1, "classical"): {
        "spectrum.csv": "d2e375707a2c6b3997ab3e9ab0737a5d7473288f539e74bd6503a2493c558881",
    },
    ("sn120", 1, "basis-study --kappa 0.4"): {
        "basis_study.csv": "4df83deb993deda4bd699dafd4dd3085a612b368fad1a84e2599a590f055dcc7",
    },
    ("sn120", 1, "compare --mode classical"): {
        "comparison.csv": "6d840715da51f6733b6f67ed6c7059ed1aeb6881b8ad9cc01e3813a5ef15dfdb",
    },
    ("sn120", 1, "compare --mode quantum"): {
        "comparison.csv": "5bf304101ea4f5a93dc5618ebf763c73c646b625d0863a93a661cd88fe90099a",
    },
    ("pb208", 1, "compare --mode classical"): {
        "comparison.csv": "afb5044177b96433921597dc7e8146bbc769c8c31bdc4b9712901d8ff2dbefdd",
    },
    ("pb208", 1, "compare --mode quantum"): {
        "comparison.csv": "2225242dd7adf9091b16547d63d625e9e160355ffa0a3ac8a5412c15512763c3",
    },
    ("sn120", 1, "compare --mode quantum --exact"): {
        "comparison.csv": "9b58b08d8a3eebf7a650d33fad7d550182eadbd47f77bd44f7d1f75ea827bfae",
    },
    ("pb208", 1, "compare --mode quantum --exact"): {
        "comparison.csv": "34305e618d22f8a1f2a0b4b07fd13342e7e535a1f174839dd8a0c25e6d75bb5a",
    },
    # past one block of runs (174 on a 251-point grid), the median is rebuilt
    # from the draws a block of grid columns at a time
    ("sn120", 1, "quantum --runs 300"): {
        "runs.csv": "7b3603fb77e0fa4481a32ebfeb6ba75a6d13e55c5903736ade257914bfdc902d",
        "spectrum.csv": "890561ddd2e56347ff3a32f54b5ddca2574dc5254c4d53d0ea14990f81f7eb12",
    },
    ("pb208", 1, "quantum --runs 300"): {
        "runs.csv": "c3c7ef25de74569c23b3d959e301486e6d98878dd054794f8f327880476c1aad",
        "spectrum.csv": "a74a2e7a5c8e36e8458f5473048259a7621b31ba9fc83bc95b662065bea9a97b",
    },
}


@pytest.mark.parametrize("nucleus, seed, command", sorted(GOLDEN))
def test_artifact_digests(tmp_path, capsys, nucleus, seed, command):
    argv = [*command.split(), "--config", str(CONFIGS / f"{nucleus}.cfg"), "--out", str(tmp_path)]
    if command.split()[0] in ("quantum", "error-study") or command.endswith("--mode quantum"):
        argv += ["--seed", str(seed)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN[nucleus, seed, command]
    }
    assert digests == GOLDEN[nucleus, seed, command]


def exact_windows() -> dict[str, tuple[str, ...]]:
    """EXACT_WINDOWS of bench/workloads.py, read as a literal (no benchmark import)."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["EXACT_WINDOWS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("EXACT_WINDOWS not found in bench/workloads.py")


def _floats(digest, *values) -> None:
    for value in values:
        digest.update(np.ascontiguousarray(value, dtype=float).tobytes())


ENSEMBLE_SEED = 20260823
ENSEMBLE_DIGEST = "4f6a8a5990f6bd4f23eb020d1dac083ac84db732196f74ebad65304b9452f70c"
OPERATOR_DIGEST = "dea024eca5d81c407fb663de3fa0f78975be687b93d7d357f95f08303b74ed70"
PLAN_DIGEST = "50a96b59375123b733a0e12d7a2ce905d903b7646b2c42577888f2f47725f60e"


def test_ensemble_record_bits():
    """Every float64 of a 50-run ensemble per config: poles, spectra and peak summaries."""
    digest = hashlib.sha256()
    for nucleus in ("sn120", "pb208"):
        for record in collect_runs(cli.load_config(CONFIGS / f"{nucleus}.cfg"), ENSEMBLE_SEED, runs=50):
            for t in record.transitions.entries:
                _floats(digest, t.energy, t.strength, t.weight)
            s = record.spectrum
            _floats(digest, s.energies, s.r0.view(float), s.r_dressed.view(float), s.sigma_raw, s.sigma)
            _floats(digest, s.peak_energy, s.peak_height, s.width_fwhm)
    assert digest.hexdigest() == ENSEMBLE_DIGEST, digest.hexdigest()


def test_operator_term_bits():
    """Axes, coefficient bits and phase of H and both dipoles on every exact-scan window."""
    digest = hashlib.sha256()
    for nucleus, windows in sorted(exact_windows().items()):
        config = cli.load_config(CONFIGS / f"{nucleus}.cfg")
        for label in windows:
            window = BasisWindow.parse(label)
            operators = [build_hamiltonian(window, hbar_omega(config.A))]
            operators += [
                build_dipole(window, replace(config, basis=window), species)
                for species in ("proton", "neutron")
            ]
            for op in operators:
                for t in op.terms:
                    digest.update(t.axes.encode())
                    digest.update(struct.pack("<ddd", t.coefficient, t.phase.real, t.phase.imag))
    assert digest.hexdigest() == OPERATOR_DIGEST, digest.hexdigest()


def plan_windows() -> dict[str, list[str]]:
    """The exact-scan windows of each config, then every 2-5 shell window from n_min 0-7."""
    grid = [f"{lo}-{lo + shells - 1}" for shells in range(2, 6) for lo in range(8)]
    return {nucleus: [*windows, *grid] for nucleus, windows in sorted(exact_windows().items())}


def plan_digest() -> str:
    """sha256 of every number of the quantum plan of each window in plan_windows.

    A window whose plan cannot be built contributes its error message.
    """
    digest = hashlib.sha256()
    for nucleus, windows in plan_windows().items():
        config = cli.load_config(CONFIGS / f"{nucleus}.cfg")
        for label in windows:
            digest.update(f"{nucleus} {label};".encode())
            try:
                plan = QuantumPlan.build(replace(config, basis=BasisWindow.parse(label)))
            except GdrqError as exc:
                digest.update(f"{type(exc).__name__}: {exc};".encode())
                continue
            _floats(digest, plan.length)
            for sp in plan.species:
                digest.update(f"{sp.spawn_index};".encode())
                for energy in (sp.reference, sp.excited):
                    _floats(digest, energy.sign)
                    _lcu_overlap(digest, energy.statistics)
                _lcu_overlap(digest, sp.strength)
    return digest.hexdigest()


def _lcu_overlap(digest, overlap) -> None:
    _floats(digest, overlap.lam, overlap.p_success, overlap.swap.p0, overlap.swap.marginal)


def test_plan_bits():
    """Every LCU and SWAP-test number of the plans of 85 windows, both configs."""
    digest = plan_digest()
    assert digest == PLAN_DIGEST, digest
