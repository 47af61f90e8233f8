"""The benchmark's tracer looks gdrq functions up by name; each must still exist.

bench/tracing.py patches every entry of its TARGETS table with getattr, so a
renamed or deleted function would only show up as a crash of
`bench/run.py --trace 1`.  This test loads the table by file path, without
running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", load_targets(), ids=lambda t: ".".join(t[2:]))
def test_trace_target_resolves(target):
    _name, module_name, attr, *method = target
    owner = getattr(importlib.import_module(module_name), attr)
    assert callable(owner)
    for name in method:
        assert callable(getattr(owner, name))
