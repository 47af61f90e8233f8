"""sha256 of the bits of sampled ensembles, their median spectra, low-shot runs and plans.

Three digests that a change meant to keep every bit must leave as they are:
80 ensembles (both shipped configs, master seeds 0-39, 20 runs each) with
every run's poles, cross section and bare response and each ensemble's median
spectrum; 360 single runs at 20, 100 and 300 shots (seeds 0-59), where a
run that fails contributes its error message; and test_golden's plan digest,
every number of the quantum plans of 85 windows.

Run from the repository root:

    PYTHONPATH=src python tests/record_digest.py

It prints the three digests and exits 1 when any differs from RECORDED; the
plan digest is recorded once, as test_golden.PLAN_DIGEST.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from gdrq import cli
from gdrq.errors import GdrqError
from gdrq.experiment import collect_runs, median_spectrum, run_quantum
from test_golden import PLAN_DIGEST, plan_digest

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RECORDED = {
    "ensembles": "dfb909c98c9616b6b9bcd37d8793015908752f25056b6a8cabf87394d09a5517",
    "low-shot runs": "f5a45ddf03d169886e724de8f60d8618eaeb942e4f01f553d2cadd7c0d41a8c8",
    "plans": PLAN_DIGEST,
}


def _update(digest, *values) -> None:
    for value in values:
        digest.update(np.ascontiguousarray(value, dtype=float).tobytes())


def _spectrum(digest, spectrum) -> None:
    _update(digest, spectrum.energies, spectrum.r0.view(float), spectrum.r_dressed.view(float))
    _update(digest, spectrum.sigma_raw, spectrum.sigma)
    _update(digest, spectrum.peak_energy, spectrum.peak_height, spectrum.width_fwhm)


def _poles(digest, transitions) -> None:
    for t in transitions.entries:
        _update(digest, t.energy, t.strength, t.weight)


def ensemble_digest() -> str:
    digest = hashlib.sha256()
    for nucleus in ("sn120", "pb208"):
        config = cli.load_config(CONFIGS / f"{nucleus}.cfg")
        for master in range(40):
            try:
                records = collect_runs(config, master, runs=20)
            except GdrqError as exc:
                digest.update(f"{type(exc).__name__}: {exc};".encode())
                continue
            for record in records:
                digest.update(f"{record.run_index},{record.seed};".encode())
                _poles(digest, record.transitions)
                _update(digest, record.spectrum.sigma, record.spectrum.r0.view(float))
            _spectrum(digest, median_spectrum(records))
    return digest.hexdigest()


def low_shot_digest() -> str:
    digest = hashlib.sha256()
    for nucleus in ("sn120", "pb208"):
        config = cli.load_config(CONFIGS / f"{nucleus}.cfg")
        for shots in (20, 100, 300):
            for seed in range(60):
                try:
                    record = run_quantum(replace(config, shots=shots), seed)
                except GdrqError as exc:
                    digest.update(f"{type(exc).__name__}: {exc};".encode())
                    continue
                _poles(digest, record.transitions)
                _spectrum(digest, record.spectrum)
    return digest.hexdigest()


if __name__ == "__main__":
    digests = {"ensembles": ensemble_digest, "low-shot runs": low_shot_digest, "plans": plan_digest}
    differ = []
    for name, digest in digests.items():
        value = digest()
        print(name, value)
        if value != RECORDED[name]:
            differ.append(name)
    if differ:
        sys.exit(f"digests differ from the recorded ones: {', '.join(differ)}")
