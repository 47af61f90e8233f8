"""Per-layer tracing of gdrq from outside the package.

Each traced public function is replaced, wherever a caller looks it up, by a
wrapper that records a span (name, start, end, parent, round).  Module-level
functions are patched in every gdrq module namespace that holds them (so both
gdrq.experiment.lcu_apply and gdrq.algorithms.lcu_apply are covered); methods
are patched on their class.  Spans stay in memory and are written out once at
the end.  Hooks attached to some wrappers count the work a call implies, from
its arguments and result, without touching the program.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# metric prefix -> (module, attribute[, method]); several entries may share a
# prefix, as all write_*_csv functions report under experiment.write_csv.
TARGETS = (
    ("cli.main", "gdrq.cli", "main"),
    ("cli.load_config", "gdrq.cli", "load_config"),
    ("experiment.collect_runs", "gdrq.experiment", "collect_runs"),
    ("experiment.run_quantum", "gdrq.experiment", "run_quantum"),
    ("experiment.run_classical", "gdrq.experiment", "run_classical"),
    ("experiment.basis_study", "gdrq.experiment", "basis_study"),
    ("experiment.median_spectrum", "gdrq.experiment", "median_spectrum"),
    ("experiment.mad_series", "gdrq.experiment", "mad_series"),
    ("experiment.write_csv", "gdrq.experiment", "write_spectrum_csv"),
    ("experiment.write_csv", "gdrq.experiment", "write_runs_csv"),
    ("experiment.write_csv", "gdrq.experiment", "write_mad_csv"),
    ("experiment.write_csv", "gdrq.experiment", "write_basis_csv"),
    ("experiment.write_csv", "gdrq.experiment", "write_comparison_csv"),
    ("encoding.build_hamiltonian", "gdrq.encoding", "build_hamiltonian"),
    ("encoding.build_dipole", "gdrq.encoding", "build_dipole"),
    ("encoding.fill_occupations", "gdrq.encoding", "fill_occupations"),
    ("algorithms.energy_expectation", "gdrq.algorithms", "energy_expectation"),
    ("algorithms.lcu_apply", "gdrq.algorithms", "lcu_apply"),
    ("algorithms.swap_test", "gdrq.algorithms", "swap_test"),
    ("statevector.apply_unitary", "gdrq.statevector", "apply_unitary"),
    ("statevector.apply_multiplexed", "gdrq.statevector", "apply_multiplexed"),
    ("statevector.post_select", "gdrq.statevector", "post_select"),
    ("statevector.sample", "gdrq.statevector", "sample"),
    ("statevector.RngStream", "gdrq.statevector", "RngStream", "__init__"),
    ("pauli.PauliTerm.matrix", "gdrq.pauli", "PauliTerm", "matrix"),
    ("pauli.apply", "gdrq.pauli", "apply"),
    ("pauli.multiply_sums", "gdrq.pauli", "multiply_sums"),
    ("response.assemble_spectrum", "gdrq.response", "assemble_spectrum"),
    ("response.bare_response", "gdrq.response", "bare_response"),
    ("response.dress_response", "gdrq.response", "dress_response"),
    ("response.find_peak", "gdrq.response", "find_peak"),
)
LAYER_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))

# (name, unit, better) of the derived metrics, after the calls/self_ms pairs.
DERIVED = (
    ("algorithms.lcu_apply.success_ratio", "ratio", "higher"),
    ("experiment.energy_redraws", "count", "lower"),
    ("experiment.run_quantum.repeat_ratio", "ratio", "lower"),
    ("statevector.apply_unitary.check_mflop", "MFLOP", "lower"),
    ("statevector.apply_unitary.apply_mflop", "MFLOP", "lower"),
    ("statevector.apply_multiplexed.dense_mb", "MB", "lower"),
    ("response.bare_response.pole_points", "count", "lower"),
    ("experiment.write_csv.bytes", "B", "lower"),
    ("process.cpu_per_wall", "s/s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for name in LAYER_NAMES:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_ms", "ms", "lower"))
    return specs + list(DERIVED)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics.

    `poles_of(config)` gives the reference poles of a config; run_quantum
    measures one reference state and one transition per pole, and every
    further energy_expectation call is a redraw.
    """

    def __init__(self, poles_of):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []
        self.round = 0
        self.sums = defaultdict(float)
        self._quantum_keys: set = set()
        self._poles_of = poles_of

    # -- hooks: work implied by one call -----------------------------------
    def _lcu(self, args, kwargs, result):
        self.sums["inv_p"] += 1.0 / result.success_probability

    def _unitary(self, args, kwargs, result):
        state = _arg(args, kwargs, 0, "state")
        dim = 2 ** len(_arg(args, kwargs, 2, "targets"))
        # complex multiply-add = 8 real flops; u^H u is dim^3 of them, u @ psi dim * 2^n
        self.sums["check_flop"] += 8.0 * dim**3
        self.sums["apply_flop"] += 8.0 * dim * 2**state.nqubits

    def _multiplexed(self, args, kwargs, result):
        kc = len(_arg(args, kwargs, 2, "controls"))
        kt = len(_arg(args, kwargs, 3, "targets"))
        self.sums["dense_bytes"] += 16.0 * 4 ** (kc + kt)

    def _bare(self, args, kwargs, result):
        transitions = _arg(args, kwargs, 0, "transitions")
        self.sums["pole_points"] += len(transitions.entries) * len(_arg(args, kwargs, 1, "grid"))

    def _write(self, args, kwargs, result):
        self.sums["csv_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _quantum(self, args, kwargs, result):
        config = _arg(args, kwargs, 0, "config")
        seed = _arg(args, kwargs, 1, "seed")
        mode = args[3] if len(args) > 3 else kwargs.get("mode", "sampled")
        self._quantum_keys.add((config, int(seed), mode))
        self.sums["planned_energies"] += 2 * len(self._poles_of(config))

    # -- patching ----------------------------------------------------------
    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.round)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "algorithms.lcu_apply": self._lcu,
            "statevector.apply_unitary": self._unitary,
            "statevector.apply_multiplexed": self._multiplexed,
            "response.bare_response": self._bare,
            "experiment.write_csv": self._write,
            "experiment.run_quantum": self._quantum,
        }
        modules = [m for key, m in sys.modules.items() if key == "gdrq" or key.startswith("gdrq.")]
        for name, module_name, attr, *method in TARGETS:
            owner = getattr(sys.modules[module_name], attr)
            if method:
                original = getattr(owner, method[0])
                self._undo.append((owner, method[0], original))
                setattr(owner, method[0], self._wrap(name, original, hooks.get(name)))
                continue
            wrapper = self._wrap(name, owner, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is owner:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        calls = defaultdict(int)
        self_s = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _, _), children in zip(self.spans, child_s):
            calls[name] += 1
            self_s[name] += end - start - children
        out = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_s[name] * 1e3
        lcu_calls = calls["algorithms.lcu_apply"]
        quantum_calls = calls["experiment.run_quantum"]
        s = self.sums
        out["algorithms.lcu_apply.success_ratio"] = lcu_calls / s["inv_p"] if lcu_calls else 0.0
        out["experiment.energy_redraws"] = calls["algorithms.energy_expectation"] - int(
            s["planned_energies"]
        )
        out["experiment.run_quantum.repeat_ratio"] = (
            quantum_calls / len(self._quantum_keys) if quantum_calls else 0.0
        )
        out["statevector.apply_unitary.check_mflop"] = s["check_flop"] / 1e6
        out["statevector.apply_unitary.apply_mflop"] = s["apply_flop"] / 1e6
        out["statevector.apply_multiplexed.dense_mb"] = s["dense_bytes"] / 1e6
        out["response.bare_response.pole_points"] = int(s["pole_points"])
        out["experiment.write_csv.bytes"] = int(s["csv_bytes"])
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "round"], "spans": self.spans}, fh)
