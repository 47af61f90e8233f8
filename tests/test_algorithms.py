"""Unit tests for the estimation primitives: SWAP-test overlaps, LCU
application, and the energy estimator built on them."""

import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdrq import pauli as pl
from gdrq.algorithms import (
    _HADAMARD,
    MAX_ATTEMPTS,
    LcuCircuit,
    SwapStatistics,
    _replay_block,
    _swap_weights,
    energy_expectation,
    lcu_apply,
    replay_limits,
    replay_post_selection,
    swap_statistics,
    swap_test,
)
from gdrq.cli import load_config
from gdrq.encoding import BasisWindow, build_hamiltonian
from gdrq.errors import AnnihilatedStateError, PreparationError, SizeError, ValidationError
from gdrq.experiment import QuantumPlan
from gdrq.statevector import (
    UNITARY_TOL,
    RngStream,
    StateVector,
    Unitaries,
    apply_multiplexed,
    apply_unitary,
    init_basis_state,
    marginal,
    sample,
)
from oracles import lcu_gates, measure_probability, select_stack, swap_weights_gates

HADAMARD = Unitaries(np.array([[[1, 1], [1, -1]]], dtype=complex) / np.sqrt(2.0))
CONTROLLED_SWAP = Unitaries([np.eye(4), np.eye(4, dtype=complex)[[0, 2, 1, 3]]])


def bits(values) -> np.ndarray:
    """The IEEE bits of a float or complex array, as uint64 words."""
    return np.ascontiguousarray(values).view(np.uint64)


def random_state(rng: np.random.Generator, nqubits: int) -> StateVector:
    amps = rng.normal(size=2**nqubits) + 1j * rng.normal(size=2**nqubits)
    return StateVector(nqubits, amps / np.linalg.norm(amps))


def random_hermitian_sum(rng: np.random.Generator, nqubits: int, max_terms: int) -> pl.PauliSum:
    """Random real-weighted Pauli sum (every plain string is Hermitian)."""
    n_terms = int(rng.integers(1, min(max_terms, 4**nqubits) + 1))
    seen: dict[str, float] = {}
    while len(seen) < n_terms:
        axes = "".join(rng.choice(list("IXYZ"), size=nqubits))
        seen[axes] = float(rng.uniform(0.25, 2.0)) * float(rng.choice([-1.0, 1.0]))
    return pl.PauliSum(nqubits, tuple(pl.PauliTerm(c, axes) for axes, c in seen.items()))


class TestSwapTest:
    def test_identical_states_give_one(self):
        rng = np.random.default_rng(11)
        psi = random_state(rng, 2)
        est = swap_test(psi, psi, shots=0)
        assert est.raw == pytest.approx(1.0, abs=1e-12)
        assert est.clamped == pytest.approx(1.0, abs=1e-12)
        assert est.standard_error == 0.0

    def test_orthogonal_states_give_zero(self):
        est = swap_test(init_basis_state(2, "00"), init_basis_state(2, "11"), shots=0)
        assert est.raw == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_exact_mode_matches_inner_product(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_state(rng, 2), random_state(rng, 2)
        expected = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
        est = swap_test(a, b, shots=0)
        assert est.raw == pytest.approx(expected, abs=1e-10)

    def test_sampled_mode_reports_error_bar(self):
        rng = np.random.default_rng(2)
        a, b = random_state(rng, 2), random_state(rng, 2)
        est = swap_test(a, b, shots=4000, rng=np.random.default_rng(2))
        assert est.standard_error > 0.0
        assert 0.0 <= est.clamped <= 1.0
        again = swap_test(a, b, shots=4000, rng=np.random.default_rng(2))
        assert est.raw == again.raw

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_statistics_equal_controlled_swap_ladder(self, seed, n):
        rng = np.random.default_rng(seed)
        psi, phi = random_state(rng, n), random_state(rng, n)
        anc = 2 * n
        full = apply_unitary(psi.tensor(phi).tensor(init_basis_state(1, "0")), HADAMARD, [anc])
        for j in range(n):
            full = apply_multiplexed(full, CONTROLLED_SWAP, [anc], [j, n + j])
        full = apply_unitary(full, HADAMARD, [anc])
        stats = swap_statistics(psi, phi)
        assert stats.p0 == measure_probability(full, anc, 0)
        assert np.array_equal(stats.marginal, marginal(full, [anc]))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_batch_statistics_equal_each_circuit(self, seed, n, rows):
        """A batch of pairs, simulated in passes of a few rows at five qubits,
        gives each pair the bits of its own SWAP test, and p0 is
        measure_probability on the simulated ladder circuit."""
        rng = np.random.default_rng(seed)
        pairs = [(random_state(rng, n), random_state(rng, n)) for _ in range(rows)]
        stats = swap_statistics(
            StateVector(n, np.stack([psi.amplitudes for psi, _ in pairs])),
            StateVector(n, np.stack([phi.amplitudes for _, phi in pairs])),
        )
        assert stats.p0.shape == (rows,) and stats.marginal.shape == (rows, 2)
        anc = 2 * n
        for (psi, phi), p0, row in zip(pairs, stats.p0, stats.marginal):
            full = apply_unitary(psi.tensor(phi).tensor(init_basis_state(1, "0")), HADAMARD, [anc])
            for j in range(n):
                full = apply_multiplexed(full, CONTROLLED_SWAP, [anc], [j, n + j])
            full = apply_unitary(full, HADAMARD, [anc])
            assert bits(p0) == bits(measure_probability(full, anc, 0))
            one = swap_statistics(psi, phi)
            assert bits(p0) == bits(one.p0)
            assert np.array_equal(bits(row), bits(one.marginal))

    def test_validation(self):
        a = init_basis_state(1, "0")
        with pytest.raises(SizeError):
            swap_test(a, init_basis_state(2, "00"), shots=0)
        with pytest.raises(ValidationError):
            swap_test(a, a, shots=0, rng=np.random.default_rng(1))


class TestLcuApply:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_application(self, seed):
        rng = np.random.default_rng(seed)
        nqubits = int(rng.integers(1, 4))
        op = random_hermitian_sum(rng, nqubits, 5)
        psi = random_state(rng, nqubits)
        image = pl.dense_matrix(op) @ psi.amplitudes
        norm = np.linalg.norm(image)
        if norm < 1e-6:
            return
        result = lcu_apply(op, psi)
        lam = sum(abs(t.coefficient) for t in op.terms)
        assert result.lam == pytest.approx(lam)
        assert result.success_probability == pytest.approx(norm**2 / lam**2, abs=1e-12)
        assert np.allclose(result.state.amplitudes, image / norm, atol=1e-9)

    def test_single_term_runs_on_one_ancilla(self):
        op = pl.PauliSum(2, (pl.PauliTerm(-2.0, "XI"),))
        circuit = LcuCircuit(op)
        assert circuit.n_ancillas == 1
        assert circuit.prepare.blocks.shape == (1, 2, 2)
        psi = init_basis_state(2, "00")
        result = circuit.apply(psi)
        assert result.success_probability == pytest.approx(1.0)
        # -2 X0 |00> normalized = -|01>
        assert np.allclose(result.state.amplitudes, [0, -1, 0, 0])
        state, _ = lcu_gates(circuit, psi)
        assert np.array_equal(bits(result.state.amplitudes), bits(state.amplitudes))

    def test_annihilating_operator_rejected(self):
        # (I - Z)/2 is the occupation of qubit 0; it kills |00>
        number = pl.PauliSum(2, (pl.PauliTerm(0.5, "II"), pl.PauliTerm(-0.5, "ZI")))
        with pytest.raises(AnnihilatedStateError):
            lcu_apply(number, init_basis_state(2, "00"))
        with pytest.raises(AnnihilatedStateError):
            lcu_apply(pl.PauliSum(2), init_basis_state(2, "00"))

    def test_imaginary_weight_rejected(self):
        op = pl.PauliSum(1, (pl.PauliTerm(1.0, "Y", 1j),))
        with pytest.raises(ValidationError):
            lcu_apply(op, init_basis_state(1, "0"))

    def test_size_mismatch_rejected(self):
        op = pl.PauliSum(2, (pl.PauliTerm(1.0, "XI"),))
        with pytest.raises(SizeError):
            lcu_apply(op, init_basis_state(1, "0"))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestLcuCircuit:
    @pytest.mark.parametrize("seed", range(6))
    def test_one_circuit_serves_many_states(self, seed):
        """A circuit reused over states, one at a time or as one batch, gives bit
        for bit what a fresh one per state gives."""
        rng = np.random.default_rng(seed)
        nqubits = int(rng.integers(1, 5))
        op = random_hermitian_sum(rng, nqubits, 9)
        states = [random_state(rng, nqubits) for _ in range(5)]
        states += [init_basis_state(nqubits, format(i, f"0{nqubits}b")) for i in range(2**nqubits)]
        circuit = LcuCircuit(op)
        served = []
        for psi in states:
            try:
                fresh = LcuCircuit(op).apply(psi)
            except AnnihilatedStateError:
                with pytest.raises(AnnihilatedStateError):
                    circuit.apply(psi)
                continue
            reused = circuit.apply(psi)
            assert np.array_equal(reused.state.amplitudes, fresh.state.amplitudes)
            assert reused.success_probability == fresh.success_probability
            assert reused.lam == fresh.lam
            served.append((psi, fresh))
        batch = circuit.apply(StateVector(nqubits, np.stack([psi.amplitudes for psi, _ in served])))
        for (_, fresh), row, p in zip(served, batch.state.amplitudes, batch.success_probability):
            assert np.array_equal(bits(row), bits(fresh.state.amplitudes))
            assert bits(p) == bits(fresh.success_probability)

    def test_subnormal_coefficient_refused(self):
        """1 / weight overflows for a subnormal weight; the circuit refuses the
        term by name instead of failing its unitarity check on NaN."""
        tiny = np.finfo(float).tiny
        op = pl.PauliSum(1, (pl.PauliTerm(2.2e-309, "Y"),))
        message = r"^LCU cannot load the subnormal coefficient 2\.2e-309 of Y0$"
        with pytest.raises(ValidationError, match=message):
            LcuCircuit(op)
        mixed = pl.PauliSum(2, (pl.PauliTerm(1.0, "XI"), pl.PauliTerm(-tiny / 2, "ZZ")))
        with pytest.raises(ValidationError, match="subnormal coefficient .* of Z0Z1"):
            LcuCircuit(mixed)
        # the smallest normal weight still loads, with exact select blocks
        circuit = LcuCircuit(pl.PauliSum(1, (pl.PauliTerm(tiny, "Y"),)))
        assert np.array_equal(select_stack(circuit)[0], pl.PauliTerm(1.0, "Y").matrix())

    def test_overflowing_lambda_refused(self):
        """The success probability divides by lambda**2; a weight sum that
        overflows, or whose square does, is refused when the circuit is built."""
        huge = pl.PauliSum(1, (pl.PauliTerm(1e308, "X"), pl.PauliTerm(1e308, "Z")))
        with pytest.raises(ValidationError, match=r"^LCU weight sum lambda = inf overflows") as info:
            LcuCircuit(huge)
        assert "\n" not in str(info.value)
        large = pl.PauliSum(1, (pl.PauliTerm(1e200, "X"), pl.PauliTerm(-1e200, "Z")))
        with pytest.raises(ValidationError, match=r"lambda = 2e\+200 overflows when squared"):
            LcuCircuit(large)
        # the largest weights whose lambda**2 is finite still run
        circuit = LcuCircuit(pl.PauliSum(1, (pl.PauliTerm(6e153, "X"), pl.PauliTerm(-6e153, "Z"))))
        assert circuit.apply(init_basis_state(1, "0")).success_probability == pytest.approx(0.5)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_prepare_is_its_own_adjoint(self, weights):
        """The Householder prepare unitary is real and exactly symmetric, so one
        checked matrix both prepares and unprepares."""
        amps = np.zeros(2 ** max(1, (len(weights) - 1).bit_length()))
        amps[: len(weights)] = weights
        if not amps.any():
            amps[0] = 1.0
        amps = np.sqrt(amps / amps.sum())
        prep = Unitaries.reflection(amps).blocks[0]
        assert not prep.imag.any()
        assert np.array_equal(bits(prep.real), bits(prep.real.T))

    @pytest.mark.parametrize(
        "amps",
        [[0.6, np.nan, 0.0, 0.0], [0.6 * (1 + 1e-6), 0.8 * (1 + 1e-6)], [np.inf, 0.0]],
        ids=["nan", "norm-1+1e-6", "inf"],
    )
    def test_prepare_is_checked_on_its_column(self, amps):
        """The prepare reflection is checked on its first column, with the
        one-line error of the Gram check: a NaN or infinite amplitude fails,
        and so does a column of norm 1 + 1e-6, whose reflection is unitary but
        does not load it."""
        with pytest.raises(ValidationError, match=r"^matrix is not unitary \(defect ") as info:
            Unitaries.reflection(np.array(amps))
        assert "\n" not in str(info.value)
        # within the tolerance of a unit norm, the column loads as the first column
        column = np.array([0.6, 0.8]) * (1 + 1e-12)
        assert np.allclose(Unitaries.reflection(column).blocks[0][:, 0], column, atol=1e-15)

    def test_lambda_is_summed_left_to_right(self):
        """lambda adds |c_i| left to right, as the builtin sum() did before
        Python 3.12; a compensated sum of these weights rounds up instead."""
        weights = [1.0, 1e-16, 1e-16]
        op = pl.PauliSum(1, tuple(pl.PauliTerm(c, axes) for c, axes in zip(weights, "XYZ")))
        assert [t.coefficient for t in op.terms] == weights
        assert math.fsum(weights) > 1.0
        assert LcuCircuit(op).lam == 1.0

    def test_hamiltonian_circuit_serves_every_configuration(self):
        """One pass over a batch of configurations gives each row, bit for bit,
        what a fresh circuit gives that configuration on its own; a batch that
        holds an annihilated configuration fails as that configuration does."""
        h = build_hamiltonian(BasisWindow(3, 6), 1.0).without_identity()
        circuit = LcuCircuit(h)
        fresh, annihilated = [], []
        for i in range(16):
            psi = init_basis_state(4, format(i, "04b"))
            try:
                fresh.append((psi, LcuCircuit(h).apply(psi)))
            except AnnihilatedStateError:
                annihilated.append(psi)
        assert len(fresh) >= 8 and annihilated
        batch = circuit.apply(StateVector(4, np.stack([psi.amplitudes for psi, _ in fresh])))
        assert batch.lam == circuit.lam
        for (_, one), state, p in zip(fresh, batch.state.amplitudes, batch.success_probability):
            assert np.array_equal(bits(state), bits(one.state.amplitudes))
            assert bits(p) == bits(one.success_probability)
        rows = np.stack([fresh[0][0].amplitudes, annihilated[0].amplitudes])
        with pytest.raises(AnnihilatedStateError, match="annihilates"):
            circuit.apply(StateVector(4, rows))

    @staticmethod
    def corrupted(entry=None, scale=1.0):
        """A three-term operator whose compiled table has entry (1, 3) set to
        `entry`, or multiplied by `scale`; the operator reads its table from
        here on, as it would a compiled one."""
        terms = (pl.PauliTerm(1.0, "XI"), pl.PauliTerm(-0.5, "ZZ"), pl.PauliTerm(2.0, "IY"))
        op = pl.PauliSum(2, terms)
        rows, values = pl.permutation_table(op)
        bad = values.copy()
        bad[1, 3] = bad[1, 3] * scale if entry is None else entry
        op.__dict__["table"] = (rows, bad)
        return op

    @pytest.mark.parametrize(
        "entry, scale",
        [
            (None, 1.0 + 1e-6),
            (None, 1.0 + 1e-9),
            (None, 1e200),
            (None, 0.0),
            (np.nan, 1.0),
            (np.inf, 1.0),
            (-np.inf, 1.0),
            (complex(0.0, np.nan), 1.0),
            (complex(np.inf, np.nan), 1.0),
        ],
        ids=["modulus", "modulus-1e-9", "huge", "zero", "nan", "inf", "-inf", "complex-nan",
             "complex-inf-nan"],
    )
    def test_non_unitary_select_rejected_at_build(self, entry, scale):
        """Each defect of a select entry fails the modulus check with the
        one-line error of the dense Gram check, and a huge entry warns of no
        overflow on the way (warnings fail the suite)."""
        LcuCircuit(self.corrupted())
        with pytest.raises(ValidationError, match=r"^matrix is not unitary \(defect [^\n]*\)$"):
            LcuCircuit(self.corrupted(entry, scale))

    def test_select_check_follows_the_tolerance(self):
        """|entry|^2 - 1 is the Gram defect of a signed permutation: a modulus off
        by far less than UNITARY_TOL passes the entry check and the dense Gram
        check of the scattered stack, one off by far more fails both."""
        good = LcuCircuit(self.corrupted())
        for scale in (1.0 + 1e-13, 1.0 - 1e-13, 1.0 + 1e-8, 1.0 - 1e-8):
            entries = good.entries.copy()
            entries[1, 3] *= scale
            stack = select_stack(SimpleNamespace(rows=good.rows, entries=entries))
            for check, value in ((LcuCircuit, self.corrupted(scale=scale)), (Unitaries, stack)):
                if abs(scale - 1.0) < 1e-12:
                    check(value)
                else:
                    with pytest.raises(ValidationError, match="not unitary"):
                        check(value)

    def test_a_circuit_makes_no_dense_select(self):
        """Building a circuit of 16 terms on 8 qubits and applying it allocates
        less than a sixteenth of one dense (16, 256, 256) select stack."""
        rng = np.random.default_rng(5)
        strings = {"".join(rng.choice(list("IXYZ"), 8)) for _ in range(16)}
        op = pl.PauliSum(8, tuple(pl.PauliTerm(rng.uniform(0.5, 2.0), a) for a in strings))
        psi = random_state(rng, 8)
        tracemalloc.start()
        try:
            LcuCircuit(op).apply(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(op) * 256 * 256 * 16 / 16

    def test_select_holds_the_table_read_only(self):
        """The select is the operator's own table rows and its entries, (k, 2^n)
        arrays, read-only like the checked matrices; no dense stack is kept."""
        op = build_hamiltonian(BasisWindow(3, 5), 1.0).without_identity()
        circuit = LcuCircuit(op)
        assert circuit.rows is op.table[0]
        assert circuit.entries.shape == circuit.rows.shape == (len(op), 2**op.nqubits)
        for array in (circuit.rows, circuit.entries, circuit.prepare.blocks, _HADAMARD.blocks):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 2


class TestFixedLayoutCircuits:
    """LcuCircuit.apply and the SWAP-test pass lay their registers out directly;
    each gives the bits of its circuit run gate by gate (see oracles)."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_lcu_equals_gate_by_gate_circuit(self, seed, nqubits, rows):
        rng = np.random.default_rng(seed)
        circuit = LcuCircuit(random_hermitian_sum(rng, nqubits, 12))
        amps = np.stack([random_state(rng, nqubits).amplitudes for _ in range(rows)])
        batch = StateVector(nqubits, amps)
        states = [batch, StateVector(nqubits, batch.amplitudes[0])]
        states += [init_basis_state(nqubits, format(i, f"0{nqubits}b")) for i in range(2**nqubits)]
        for psi in states:
            try:
                result = circuit.apply(psi)
            except AnnihilatedStateError:
                # a random operator can annihilate a basis state, not a random one
                assert psi.amplitudes.ndim == 1 and not psi.amplitudes.imag.any()
                continue
            state, total = lcu_gates(circuit, psi)
            assert result.state.nqubits == state.nqubits == nqubits
            assert result.state.amplitudes.shape == psi.amplitudes.shape
            assert np.array_equal(bits(result.state.amplitudes), bits(state.amplitudes))
            assert np.all(np.abs(total - result.success_probability) < 1e-9)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_swap_weights_equal_gate_by_gate_circuit(self, seed, nqubits, rows):
        rng = np.random.default_rng(seed)
        psi, phi = (
            np.stack([random_state(rng, nqubits).amplitudes for _ in range(rows)]) for _ in range(2)
        )
        # a basis state pair as well, whose amplitudes are mostly zeros
        psi[0] = init_basis_state(nqubits, "1" * nqubits).amplitudes
        weights = _swap_weights(nqubits, psi, phi)
        assert np.array_equal(bits(weights), bits(swap_weights_gates(nqubits, psi, phi)))
        single = swap_statistics(StateVector(nqubits, psi[-1]), StateVector(nqubits, phi[-1]))
        gates = swap_weights_gates(nqubits, psi[-1:], phi[-1:])[0]
        assert bits(single.p0) == bits(gates[0])
        assert np.array_equal(bits(single.marginal), bits(gates / gates.sum()))


class TestBatchedUnitaryCheck:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_agrees_with_single_check(self, k):
        """Random unitaries, perturbed on a log scale across the tolerance, are
        accepted or rejected alike by the batched check and a check of the one
        matrix, max|u^H u - I| > UNITARY_TOL."""
        rng = np.random.default_rng(k)
        dim = 2**k
        cases = [random_unitary(rng, dim) for _ in range(10)]
        for scale in np.logspace(-14, -6, 33):
            u = random_unitary(rng, dim)
            cases.append(u + scale * (rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape)))
        verdicts = []
        for u in cases:
            single = not np.max(np.abs(u.conj().T @ u - np.eye(dim))) > UNITARY_TOL
            try:
                Unitaries(u[None])
                batched = True
            except ValidationError:
                batched = False
            assert single == batched
            verdicts.append(single)
        assert True in verdicts and False in verdicts
        ok = [u for u, v in zip(cases, verdicts) if v]
        assert np.array_equal(Unitaries(ok).blocks, ok)
        for bad in (u for u, v in zip(cases, verdicts) if not v):
            with pytest.raises(ValidationError):
                Unitaries([*ok[:3], bad, *ok[3:6]])


class TestEnergyExpectation:
    def test_hamiltonian_eigenstates_golden(self):
        h4 = build_hamiltonian(BasisWindow(0, 3), 1.0)
        assert energy_expectation(h4, init_basis_state(4, "0100"), shots=0) == pytest.approx(3.5)
        assert energy_expectation(h4, init_basis_state(4, "1000"), shots=0) == pytest.approx(4.5)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_exact_mode_recovers_absolute_expectation(self, seed):
        rng = np.random.default_rng(seed)
        op = random_hermitian_sum(rng, 2, 4)
        psi = random_state(rng, 2)
        expected = abs(np.vdot(psi.amplitudes, pl.dense_matrix(op) @ psi.amplitudes).real)
        if np.linalg.norm(pl.dense_matrix(op) @ psi.amplitudes) < 1e-6:
            return
        got = energy_expectation(op, psi, shots=0)
        assert got == pytest.approx(expected, abs=1e-8)

    def test_sampled_mode_is_deterministic_per_generator(self):
        h = build_hamiltonian(BasisWindow(3, 5), 1.0).without_identity()
        psi = init_basis_state(3, "011")
        a = energy_expectation(h, psi, shots=2000, rng=np.random.default_rng(9))
        b = energy_expectation(h, psi, shots=2000, rng=np.random.default_rng(9))
        assert a == b


class _NeverBelow:
    """Stand-in generator whose every draw is 1.0, so no attempt succeeds."""

    def __init__(self):
        self.draws = 0

    def random(self, size=None):
        self.draws += 1 if size is None else size
        return 1.0 if size is None else np.ones(size)


# p = 1/144, 1e-3 and 0.05 each have a key among the 20 whose first success
# falls past the first block (see test_some_success_falls_past_the_first_block)
REPLAY_PS = [1.0, 0.5, 1 / 144, 1e-3, 0.05]


def scalar_attempts(p, twin):
    """The draw-by-draw Bernoulli loop the block replay must equal."""
    expected = 1
    while not twin.random() < p:
        expected += 1
    return expected


class TestReplayPostSelection:
    @pytest.mark.parametrize("p", REPLAY_PS)
    def test_matches_scalar_bernoulli_loop(self, p):
        """Same attempts, and the generator goes on alike: LcuOverlap.energy draws
        the replay, the SWAP multinomial and the success-rate binomial from one."""
        probs = [0.25, 0.5, 0.25]
        for key in range(20):
            rng, twin = RngStream(7, (key,)).generator, RngStream(7, (key,)).generator
            attempts = replay_post_selection(p, rng, replay_limits(p))
            assert attempts == scalar_attempts(p, twin)
            assert rng.random() == twin.random()
            np.testing.assert_array_equal(rng.multinomial(8000, probs), twin.multinomial(8000, probs))
            assert rng.binomial(8000, p) == twin.binomial(8000, p)

    @pytest.mark.parametrize("p", [1 / 144, 1e-3, 0.05])
    def test_some_success_falls_past_the_first_block(self, p):
        block = _replay_block(p, budget=10**9)
        attempts = [scalar_attempts(p, RngStream(7, (key,)).generator) for key in range(20)]
        assert max(attempts) > block

    @pytest.mark.parametrize(
        "p, budget", [(1.0, MAX_ATTEMPTS), (0.5, MAX_ATTEMPTS), (1 / 144, 3966)]
    )
    def test_budget_runs_out_after_documented_attempts(self, p, budget):
        rng = _NeverBelow()
        with pytest.raises(PreparationError, match=f"failed {budget} times"):
            replay_post_selection(p, rng, replay_limits(p))
        assert rng.draws == budget


def shipped_marginals() -> list[np.ndarray]:
    """The SWAP-test ancilla marginals of the plans of both shipped configs."""
    configs = Path(__file__).resolve().parent.parent / "configs"
    marginals = []
    for nucleus in ("sn120", "pb208"):
        plan = QuantumPlan.build(load_config(configs / f"{nucleus}.cfg"))
        for sp in plan.species:
            overlaps = (sp.reference.statistics, sp.excited.statistics, sp.strength)
            marginals += [overlap.swap.marginal for overlap in overlaps]
    return marginals


EDGE_MARGINALS = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [1e-12, 1 - 1e-12]]


class TestTwoOutcomeShots:
    """numpy's multinomial over two outcomes draws its first count as one
    binomial; SwapStatistics.zero_count relies on it, draw for draw."""

    @pytest.mark.parametrize("shots", [1, 7, 8000, 10**6])
    def test_binomial_is_the_first_multinomial_count(self, shots):
        marginals = [np.array(m) for m in EDGE_MARGINALS] + shipped_marginals()
        assert len(marginals) == len(EDGE_MARGINALS) + 12
        for m in marginals:
            for seed in range(200):
                rng, twin = RngStream(seed, (shots,)).generator, RngStream(seed, (shots,)).generator
                assert rng.binomial(shots, m[0]) == twin.multinomial(shots, m)[0]
                assert rng.random() == twin.random()

    @pytest.mark.parametrize("shots", [1, 8000])
    def test_zero_count_draws_the_multinomial_count(self, shots):
        for m in shipped_marginals()[:3] + [np.array(EDGE_MARGINALS[2])]:
            stats = SwapStatistics(p0=float(m[0]), marginal=m)
            for seed in range(20):
                rng, twin = RngStream(seed).generator, RngStream(seed).generator
                assert stats.zero_count(shots, rng) == twin.multinomial(shots, m)[0]
                assert rng.random() == twin.random()

    def test_zero_count_needs_a_shot(self):
        stats = SwapStatistics(p0=0.5, marginal=np.array([0.5, 0.5]))
        with pytest.raises(ValidationError, match="shots >= 1"):
            stats.zero_count(0, np.random.default_rng(0))


class TestPlainGenerators:
    """Every draw takes a numpy Generator as it comes from default_rng."""

    def test_each_estimator_draws_on_the_generator_it_is_given(self):
        psi = random_state(np.random.default_rng(4), 2)
        phi = random_state(np.random.default_rng(5), 2)
        stats = swap_statistics(psi, phi)
        twin = np.random.default_rng(0)
        k0 = twin.multinomial(500, stats.marginal)[0]
        assert swap_test(psi, phi, 500, np.random.default_rng(0)).raw == 2.0 * k0 / 500 - 1.0

        attempts = replay_post_selection(0.05, np.random.default_rng(0), replay_limits(0.05))
        assert attempts == scalar_attempts(0.05, np.random.default_rng(0))

        h = build_hamiltonian(BasisWindow(3, 5), 1.0).without_identity()
        state = init_basis_state(3, "011")
        result = LcuCircuit(h).apply(state)
        twin = np.random.default_rng(0)
        p = result.success_probability
        replay_post_selection(p, twin, replay_limits(p))
        k0 = twin.multinomial(500, swap_statistics(state, result.state).marginal)[0]
        p_hat = twin.binomial(500, result.success_probability) / 500
        clamped = min(max(2.0 * k0 / 500 - 1.0, 0.0), 1.0)
        expected = result.lam * float(np.sqrt(p_hat)) * float(np.sqrt(clamped))
        assert energy_expectation(h, state, 500, np.random.default_rng(0)) == expected

        counts = sample(phi, [0, 1], 500, np.random.default_rng(0))
        drawn = np.random.default_rng(0).multinomial(500, marginal(phi, [0, 1]))
        assert np.array_equal(counts, drawn)


class TestLazyStreams:
    def test_unused_parent_builds_no_seed_sequence(self, monkeypatch):
        built = []
        original = np.random.SeedSequence

        def counting(*args, **kwargs):
            built.append(kwargs["spawn_key"])
            return original(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        measurement = RngStream(5).child(1).child(0)
        assert built == []
        value = measurement.generator.random()
        assert built == [(1, 0)]
        eager = np.random.Generator(np.random.PCG64(original(entropy=5, spawn_key=(1, 0))))
        assert value == eager.random()
