"""The benchmark's workloads read gdrq results by attribute; each read must still work.

bench/workloads.py checks every record it times against its own reference
model, reading `transitions.entries`, `Transition.alpha` and `spectrum.sigma`
among others.  A refactor that drops one of them would only show up as a
failed benchmark run, so this test loads the module by file path and runs one
round of the exact scan and one of the ensemble (whose records come from the
batched collect_runs), whose checks then must find no problem.
"""

import importlib.util
import types
from pathlib import Path

import gdrq.cli
import gdrq.encoding
import gdrq.errors
import gdrq.experiment

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads.py imports its `reference` model
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PACKAGE = types.SimpleNamespace(
    cli=gdrq.cli, encoding=gdrq.encoding, errors=gdrq.errors, experiment=gdrq.experiment
)


def test_exact_scan_round_finds_no_problem(monkeypatch):
    workloads = load_workloads(monkeypatch)
    scan = workloads.ExactScan(PACKAGE, seed=11)
    attempted, failed = scan.round(0, workloads.Clock())
    assert (attempted, failed) == (scan.round_size(), 0)
    assert scan.problems == []


def test_ensemble_round_finds_no_problem(monkeypatch):
    workloads = load_workloads(monkeypatch)
    monkeypatch.chdir(ROOT)  # the workload reads configs/ from the working directory
    ensemble = workloads.Ensemble(PACKAGE, seed=11)
    attempted, failed = ensemble.round(0, workloads.Clock())
    assert (attempted, failed) == (ensemble.round_size(), 0)
    assert ensemble.problems == []
