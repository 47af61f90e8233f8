"""Acceptance gate: one test per release criterion, one verdict line each.

Every test prints "PASS: ..." or "FAIL: ..." with the measured numbers before
asserting, so the -v log reads as a criterion-by-criterion report.  Statistical
criteria run at pinned master seeds; the seeds were chosen once, up front, from
small searches over low integers and are never tuned per assertion.
"""

import dataclasses
import filecmp
import statistics

import numpy as np

from gdrq import cli, experiment
from gdrq import pauli as pl
from gdrq.algorithms import lcu_apply, swap_test
from gdrq.encoding import (
    BasisWindow,
    NucleusConfig,
    build_dipole,
    build_hamiltonian,
    fill_occupations,
    hbar_omega,
    jw_annihilation,
    jw_creation,
)
from gdrq.experiment import basis_study, collect_runs, run_quantum
from gdrq.response import bare_response, classical_transitions
from gdrq.statevector import RngStream, StateVector

SN = NucleusConfig(A=120, Z=50, kappa=0.5, basis=BasisWindow(3, 6), calibration=0.1751)
PB = NucleusConfig(A=208, Z=82, kappa=0.85, basis=BasisWindow(3, 6), calibration=0.2378)
SN_CLASSICAL = NucleusConfig(A=120, Z=50, kappa=0.4, basis=BasisWindow(0, 10))


def verdict(name: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}: {name} [{detail}]")
    assert passed, f"{name}: {detail}"


class TestCriterion1GoldenHamiltonians:
    def test_window_coefficients_match_exact_rationals(self):
        h4 = build_hamiltonian(BasisWindow(0, 3), 1.0)
        h5 = build_hamiltonian(BasisWindow(0, 4), 1.0)
        render_ok = h4.render() == "6.000*I - 0.750*Z0 - 1.250*Z1 - 1.750*Z2 - 2.250*Z3"
        identity_ok = h5.identity_coefficient() == 8.75
        z_ok = tuple(t.coefficient for t in h5.without_identity().terms) == (
            -0.75,
            -1.25,
            -1.75,
            -2.25,
            -2.75,
        )
        verdict(
            "criterion 1: golden window Hamiltonians",
            render_ok and identity_ok and z_ok,
            f"4-shell render ok={render_ok}, 5-shell identity 8.75 ok={identity_ok}, "
            f"Z coefficients exact ok={z_ok}",
        )


class TestCriterion2LadderAlgebra:
    def test_five_mode_anticommutators_and_nilpotency(self):
        n = 5
        dim = 2**n
        worst = 0.0
        create = [pl.dense_matrix(jw_creation(m, n)) for m in range(n)]
        destroy = [pl.dense_matrix(jw_annihilation(m, n)) for m in range(n)]
        for i in range(n):
            for j in range(n):
                canonical = destroy[i] @ create[j] + create[j] @ destroy[i]
                expected = np.eye(dim) if i == j else np.zeros((dim, dim))
                worst = max(worst, float(np.max(np.abs(canonical - expected))))
                pair = destroy[i] @ destroy[j] + destroy[j] @ destroy[i]
                worst = max(worst, float(np.max(np.abs(pair))))
        for m in range(n):
            worst = max(worst, float(np.max(np.abs(create[m] @ create[m]))))
        verdict(
            "criterion 2: five-mode ladder algebra",
            worst < 1e-12,
            f"max |algebra defect| = {worst:.3e} (tolerance 1e-12)",
        )


class TestCriterion3SwapStatistics:
    def test_identity_and_two_sigma_coverage(self):
        rng = np.random.default_rng(0)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = StateVector(2, amps / np.linalg.norm(amps))
        identity = swap_test(psi, psi, shots=0).clamped
        identity_ok = abs(identity - 1.0) < 1e-12

        master = RngStream(13)
        hits = 0
        trials = 200
        for t in range(trials):
            stream = master.child(t)
            g = stream.generator
            a = g.normal(size=4) + 1j * g.normal(size=4)
            b = g.normal(size=4) + 1j * g.normal(size=4)
            sa = StateVector(2, a / np.linalg.norm(a))
            sb = StateVector(2, b / np.linalg.norm(b))
            exact = abs(np.vdot(sa.amplitudes, sb.amplitudes)) ** 2
            est = swap_test(sa, sb, 8000, rng=stream.child(1000).generator)
            if abs(est.raw - exact) <= 2.0 * est.standard_error:
                hits += 1
        coverage_ok = hits >= 0.95 * trials
        verdict(
            "criterion 3: SWAP-test statistics",
            identity_ok and coverage_ok,
            f"identical-state overlap = {identity:.12f}; "
            f"{hits}/{trials} trials within 2 SE at 8000 shots (need >= 190)",
        )


class TestCriterion4LcuFidelity:
    def test_hundred_random_operators(self):
        rng = np.random.default_rng(20260823)
        worst_state = 0.0
        worst_prob = 0.0
        cases = 0
        while cases < 100:
            nqubits = int(rng.integers(1, 5))
            n_terms = int(rng.integers(1, min(6, 4**nqubits) + 1))
            seen: dict[str, float] = {}
            while len(seen) < n_terms:
                axes = "".join(rng.choice(list("IXYZ"), size=nqubits))
                seen[axes] = float(rng.uniform(0.25, 2.0)) * float(rng.choice([-1.0, 1.0]))
            op = pl.PauliSum(
                nqubits, tuple(pl.PauliTerm(c, axes) for axes, c in seen.items())
            )
            amps = rng.normal(size=2**nqubits) + 1j * rng.normal(size=2**nqubits)
            psi = StateVector(nqubits, amps / np.linalg.norm(amps))
            image = pl.dense_matrix(op) @ psi.amplitudes
            norm = float(np.linalg.norm(image))
            if norm < 1e-6:
                continue
            cases += 1
            result = lcu_apply(op, psi)
            lam = float(sum(abs(t.coefficient) for t in op.terms))
            worst_state = max(
                worst_state, float(np.max(np.abs(result.state.amplitudes - image / norm)))
            )
            worst_prob = max(
                worst_prob, abs(result.success_probability - norm**2 / lam**2)
            )
        verdict(
            "criterion 4: LCU against direct application",
            worst_state < 1e-9 and worst_prob < 1e-9,
            f"{cases} random operators (<= 4 qubits, <= 6 terms): "
            f"max state error = {worst_state:.3e}, max probability error = {worst_prob:.3e}",
        )


class TestCriterion5ExactResponse:
    @staticmethod
    def dense_oracle_r0(config: NucleusConfig) -> np.ndarray:
        """Free response from the dense Hamiltonian and dipole, no circuits."""
        basis = config.basis
        homega = hbar_omega(config.A)
        occ = fill_occupations(config)
        grid = config.energy_grid()
        hamiltonian = pl.dense_matrix(build_hamiltonian(basis, homega))
        r0 = np.zeros(grid.size, dtype=complex)
        for species in ("proton", "neutron"):
            occs = occ.occupations(species)
            bits = [1 if occs[shell] >= 1.0 - 1e-12 else 0 for shell in basis.shells()]
            if not any(bits):
                continue
            ref_index = sum(b << q for q, b in enumerate(bits))
            dipole = pl.dense_matrix(build_dipole(basis, config, species))
            ref_vec = np.zeros(2**basis.nqubits)
            ref_vec[ref_index] = 1.0
            e_ref = hamiltonian[ref_index, ref_index].real
            image = dipole @ ref_vec
            for idx in np.nonzero(np.abs(image) > 1e-14)[0]:
                if idx == ref_index:
                    continue
                strength = abs(image[idx]) ** 2
                de = hamiltonian[idx, idx].real - e_ref
                if de <= 0:
                    continue
                r0 += strength / (grid - de + 1j * config.gamma_spread)
                r0 -= strength / (grid + de + 1j * config.gamma_spread)
        return r0

    def test_dense_oracle_and_matched_windows(self):
        worst_dense = 0.0
        for config in (SN, PB):
            record = run_quantum(config, 1, mode="exact")
            r_quantum = bare_response(
                record.transitions, config.energy_grid(), config.gamma_spread
            )
            worst_dense = max(
                worst_dense, float(np.max(np.abs(r_quantum - self.dense_oracle_r0(config))))
            )
        worst_matched = 0.0
        matched = (
            NucleusConfig(A=4, Z=2, kappa=0.3, basis=BasisWindow(0, 1), grid_max=60.0),
            NucleusConfig(A=40, Z=20, kappa=0.3, basis=BasisWindow(1, 4), grid_max=40.0),
        )
        for config in matched:
            record = run_quantum(config, 1, mode="exact")
            grid = config.energy_grid()
            r_quantum = bare_response(record.transitions, grid, config.gamma_spread)
            r_classical = bare_response(
                classical_transitions(config, fill_occupations(config)),
                grid,
                config.gamma_spread,
            )
            worst_matched = max(
                worst_matched, float(np.max(np.abs(r_quantum - r_classical)))
            )
        verdict(
            "criterion 5: exact-mode response",
            worst_dense < 1e-9 and worst_matched < 1e-6,
            f"dense-oracle gap = {worst_dense:.3e} (tol 1e-9); "
            f"matched-window gap = {worst_matched:.3e} (tol 1e-6)",
        )


class TestCriterion6BasisSensitivity:
    def test_wide_windows_stable_small_windows_shift(self):
        windows = [BasisWindow.parse(w) for w in ("0-10", "2-8", "3-6", "4-6", "4-5")]
        rows = {r.label: r for r in basis_study(SN_CLASSICAL, windows)}
        d3 = abs(rows["3-6"].peak_energy - rows["0-10"].peak_energy)
        d5 = abs(rows["4-5"].peak_energy - rows["0-10"].peak_energy)
        w3 = abs(rows["3-6"].width_fwhm - rows["0-10"].width_fwhm)
        w5 = abs(rows["4-5"].width_fwhm - rows["0-10"].width_fwhm)
        energies_ok = d3 <= 0.5 and d5 >= 2.0 * d3 and d5 > d3
        widths_ok = w5 >= w3
        verdict(
            "criterion 6: shell-window sensitivity",
            energies_ok and widths_ok,
            f"|E0(3-6) - E0(0-10)| = {d3:.4f} <= 0.5, "
            f"|E0(4-5) - E0(0-10)| = {d5:.4f} >= 2x; widths {w3:.4f} vs {w5:.4f}",
        )


class TestCriterion7RunToRunSpread:
    def test_mad_bounded_and_saturating(self):
        details = []
        ok = True
        for config in (SN, PB):
            records = collect_runs(config, 20260823, runs=100)
            e0s = [r.peak_energy for r in records]
            mads = []
            for m in range(2, 101):
                head = e0s[:m]
                center = statistics.median(head)
                mads.append(statistics.median(abs(v - center) for v in head))
            worst = max(mads)
            at50, at100 = mads[50 - 2], mads[100 - 2]
            change = abs(at100 - at50) / at50
            ok = ok and worst < 2.0 and change < 0.20
            details.append(
                f"A={config.A}: max MAD = {worst:.4f} MeV, "
                f"MAD 50->100 change = {100 * change:.1f}%"
            )
        verdict(
            "criterion 7: run-to-run spread at 8000 shots",
            ok,
            "; ".join(details) + " (need < 2.0 MeV and < 20%)",
        )


class TestCriterion8ShotConvergence:
    def test_median_error_decreases_with_shots(self):
        details = []
        ok = True
        for config in (SN, PB):
            exact_e0 = run_quantum(config, 10, mode="exact").peak_energy
            errors = []
            for shots in (500, 8000, 100000):
                trial = dataclasses.replace(config, shots=shots)
                records = collect_runs(trial, 10, runs=21)
                median_e0 = statistics.median(r.peak_energy for r in records)
                errors.append(abs(median_e0 - exact_e0))
            ok = ok and errors[0] > errors[1] > errors[2]
            details.append(
                f"A={config.A}: |median - exact| = "
                + " > ".join(f"{e:.4f}" for e in errors)
            )
        verdict(
            "criterion 8: shot-count convergence",
            ok,
            "; ".join(details) + " at shots 500, 8000, 100000",
        )


class TestCriterion9Determinism:
    def test_every_artifact_is_byte_stable(self, tmp_path, monkeypatch):
        config_path = tmp_path / "sn.cfg"
        # the SN config with five runs
        config_path.write_text(
            "A = 120\nZ = 50\nkappa = 0.5\nbasis = 3-6\nruns = 5\ncalibration = 0.1751\n"
        )
        invocations = {
            "classical": ["classical", "--kappa", "0.4"],
            "quantum": ["quantum", "--seed", "7"],
            "basis-study": ["basis-study", "--kappa", "0.4"],
            "error-study": ["error-study", "--seed", "7"],
            "compare": ["compare", "--kappa", "0.4"],
        }
        builds = []
        build = experiment.QuantumPlan.build
        monkeypatch.setattr(
            experiment.QuantumPlan,
            "build",
            staticmethod(lambda config: builds.append(config) or build(config)),
        )
        plans = {}
        unstable = []
        for name, argv in invocations.items():
            dirs = []
            plans[name] = []
            for attempt in ("first", "second"):
                # no kept ensemble: a sampled attempt draws its own
                experiment._ensemble.cache_clear()
                built = len(builds)
                out = tmp_path / f"{name}-{attempt}"
                code = cli.main(
                    argv + ["--config", str(config_path), "--out", str(out)]
                )
                assert code == 0, f"{name} exited {code}"
                plans[name].append(len(builds) - built)
                dirs.append(out)
            produced = sorted(p.name for p in dirs[0].iterdir())
            match, mismatch, errors = filecmp.cmpfiles(
                dirs[0], dirs[1], produced, shallow=False
            )
            if mismatch or errors:
                unstable.append(f"{name}: {mismatch or errors}")
        sampled = {"quantum": [1, 1], "error-study": [1, 1]}
        assert plans == {name: sampled.get(name, [0, 0]) for name in invocations}, plans
        verdict(
            "criterion 9: byte-identical artifacts",
            not unstable,
            "all five subcommands reran identically"
            if not unstable
            else "; ".join(unstable),
        )
