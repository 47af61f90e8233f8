"""Golden SHA-256 digests of the CLI artifacts for both shipped nuclei.

The digests pin every byte of the quantum and error-study outputs at two master
seeds with each config's own run count (100 runs of 8000 shots), plus the exact
spectrum.  A refactor of the quantum pipeline must leave all of them unchanged.
"""

import hashlib
from pathlib import Path

import pytest

from gdrq import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
}


@pytest.mark.parametrize("nucleus, seed, command", sorted(GOLDEN))
def test_artifact_digests(tmp_path, capsys, nucleus, seed, command):
    argv = [
        *command.split(),
        "--config",
        str(CONFIGS / f"{nucleus}.cfg"),
        "--seed",
        str(seed),
        "--out",
        str(tmp_path),
    ]
    assert cli.main(argv) == 0
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN[nucleus, seed, command]
    }
    assert digests == GOLDEN[nucleus, seed, command]
