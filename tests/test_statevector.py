"""Unit tests for the dense statevector simulator and its RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdrq.errors import (
    ImpossibleOutcomeError,
    SizeError,
    TargetError,
    ValidationError,
)
from gdrq import statevector
from gdrq.statevector import (
    RngStream,
    ShotHistogram,
    StateVector,
    apply_multiplexed,
    apply_unitary,
    init_basis_state,
    measure_probability,
    post_select,
    sample,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def random_state(rng: np.random.Generator, nqubits: int) -> StateVector:
    amps = rng.normal(size=2**nqubits) + 1j * rng.normal(size=2**nqubits)
    return StateVector(nqubits, amps / np.linalg.norm(amps))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def embed_oracle(u: np.ndarray, targets: list[int], nqubits: int) -> np.ndarray:
    """Independent full-register embedding: u's index bit m belongs to targets[m]."""
    dim = 2**nqubits
    mask = sum(1 << t for t in targets)
    full = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            if (i & ~mask) != (j & ~mask):
                continue
            si = sum(((i >> t) & 1) << m for m, t in enumerate(targets))
            sj = sum(((j >> t) & 1) << m for m, t in enumerate(targets))
            full[i, j] = u[si, sj]
    return full


def signed_permutation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Unitary with one entry from {1, -1, i, -i} in each row and column."""
    phases = rng.choice(np.array([1, -1, 1j, -1j]), size=dim)
    return np.eye(dim, dtype=complex)[:, rng.permutation(dim)] * phases


def multiplexer_oracle(
    unitaries: list[np.ndarray], controls: list[int], targets: list[int], nqubits: int
) -> np.ndarray:
    """Dense block-diagonal multiplexer (identity on unlisted patterns), embedded."""
    dim = 2 ** len(targets)
    big = np.eye(dim * 2 ** len(controls), dtype=complex)
    for i, u in enumerate(unitaries):
        big[i * dim : (i + 1) * dim, i * dim : (i + 1) * dim] = u
    return embed_oracle(big, [*targets, *controls], nqubits)


def multiplexer_case(seed: int, nqubits: int, kc: int, kt: int, blocks):
    """Random state, qubit split and 1..2^kc blocks drawn by `blocks(rng, dim)`."""
    rng = np.random.default_rng(seed)
    qubits = [int(q) for q in rng.permutation(nqubits)]
    controls, targets = qubits[:kc], qubits[kc : kc + kt]
    count = int(rng.integers(1, 2**kc + 1))
    unitaries = [blocks(rng, 2**kt) for _ in range(count)]
    return random_state(rng, nqubits), unitaries, controls, targets


multiplexer_shapes = st.tuples(st.integers(2, 5), st.integers(1, 2), st.integers(1, 2)).filter(
    lambda shape: shape[1] + shape[2] <= shape[0]
)


class TestRngStream:
    def test_same_address_same_draws(self):
        a = RngStream(7, (1, 2)).generator.random(5)
        b = RngStream(7, (1, 2)).generator.random(5)
        assert np.array_equal(a, b)

    def test_child_extends_spawn_key(self):
        child = RngStream(7, (1,)).child(4)
        assert child.seed == 7
        assert child.spawn_key == (1, 4)

    def test_children_are_order_free(self):
        parent = RngStream(3)
        first = parent.child(0).generator.random(4)
        parent2 = RngStream(3)
        _ = parent2.child(1).generator.random(4)
        again = parent2.child(0).generator.random(4)
        assert np.array_equal(first, again)

    def test_distinct_children_differ(self):
        parent = RngStream(3)
        assert not np.array_equal(
            parent.child(0).generator.random(8), parent.child(1).generator.random(8)
        )

    def test_negative_address_rejected(self):
        with pytest.raises(ValidationError):
            RngStream(-1)
        with pytest.raises(ValidationError):
            RngStream(1, (-2,))

    def test_repr_mentions_address(self):
        assert "spawn_key=(5,)" in repr(RngStream(1, (5,)))


class TestStateVector:
    def test_init_basis_state_bit_convention(self):
        # "10" reads qubit 1 = 1, qubit 0 = 0, i.e. index 2
        s = init_basis_state(2, "10")
        assert np.argmax(np.abs(s.amplitudes)) == 2
        s = init_basis_state(2, "01")
        assert np.argmax(np.abs(s.amplitudes)) == 1

    def test_init_basis_state_validation(self):
        with pytest.raises(ValidationError):
            init_basis_state(2, "1")
        with pytest.raises(ValidationError):
            init_basis_state(2, "1x")

    def test_register_size_limits(self):
        with pytest.raises(SizeError):
            StateVector(0, np.array([1.0]))
        with pytest.raises(SizeError):
            StateVector(17, np.zeros(2**17))
        with pytest.raises(SizeError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_tensor_puts_other_on_high_qubits(self):
        low = init_basis_state(1, "1")
        high = init_basis_state(1, "0")
        joined = low.tensor(high)
        # qubit 0 carries the |1>, so index 1
        assert np.argmax(np.abs(joined.amplitudes)) == 1
        joined = init_basis_state(1, "0").tensor(init_basis_state(1, "1"))
        assert np.argmax(np.abs(joined.amplitudes)) == 2

    def test_norm_and_normalized(self):
        s = StateVector(1, np.array([3.0, 4.0]))
        assert s.norm() == pytest.approx(5.0)
        assert s.normalized().norm() == pytest.approx(1.0)
        with pytest.raises(ValidationError):
            StateVector(1, np.zeros(2)).normalized()

    def test_overlap(self):
        a = init_basis_state(1, "0")
        b = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert a.overlap(b) == pytest.approx(1.0 / np.sqrt(2.0))
        with pytest.raises(SizeError):
            a.overlap(init_basis_state(2, "00"))


class TestApplyUnitary:
    def test_x_on_qubit_zero(self):
        out = apply_unitary(init_basis_state(2, "00"), X, [0])
        assert np.argmax(np.abs(out.amplitudes)) == 1

    def test_x_on_qubit_one(self):
        out = apply_unitary(init_basis_state(2, "00"), X, [1])
        assert np.argmax(np.abs(out.amplitudes)) == 2

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 2))
    @settings(max_examples=50, deadline=None)
    def test_matches_embedding_oracle(self, seed, nqubits, k):
        rng = np.random.default_rng(seed)
        targets = list(rng.choice(nqubits, size=min(k, nqubits), replace=False))
        targets = [int(t) for t in targets]
        u = random_unitary(rng, 2 ** len(targets))
        state = random_state(rng, nqubits)
        got = apply_unitary(state, u, targets).amplitudes
        want = embed_oracle(u, targets, nqubits) @ state.amplitudes
        assert np.allclose(got, want, atol=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_preserves_norm(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng, 3)
        u = random_unitary(rng, 4)
        out = apply_unitary(state, u, [0, 2])
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_bad_targets_raise_index_error(self):
        s = init_basis_state(2, "00")
        with pytest.raises(TargetError):
            apply_unitary(s, X, [2])
        with pytest.raises(IndexError):
            apply_unitary(s, np.eye(4), [0, 0])

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            apply_unitary(init_basis_state(1, "0"), np.array([[1.0, 0.0], [0.0, 2.0]]), [0])
        with pytest.raises(ValidationError):
            apply_unitary(init_basis_state(2, "00"), X, [0, 1])


class TestControlledAndMultiplexed:
    def test_multiplexed_pattern_selection(self):
        u_list = [np.eye(2, dtype=complex), X]
        # control 0 -> identity
        out = apply_multiplexed(init_basis_state(2, "00"), u_list, [1], [0])
        assert np.argmax(np.abs(out.amplitudes)) == 0
        # control 1 -> X
        out = apply_multiplexed(init_basis_state(2, "10"), u_list, [1], [0])
        assert np.argmax(np.abs(out.amplitudes)) == 3

    def test_multiplexed_little_endian_controls(self):
        flips = [np.eye(2, dtype=complex)] * 4
        flips[2] = X  # pattern 2 = controls read (c0, c1) = (0, 1)
        state = init_basis_state(3, "100")  # qubit 2 set
        out = apply_multiplexed(state, flips, controls=[1, 2], targets=[0])
        assert np.argmax(np.abs(out.amplitudes)) == 0b101

    def test_patterns_beyond_list_are_identity(self):
        state = init_basis_state(2, "10")
        out = apply_multiplexed(state, [X], [1], [0])
        assert np.argmax(np.abs(out.amplitudes)) == 2

    @given(st.integers(0, 2**32 - 1), multiplexer_shapes)
    @settings(max_examples=40, deadline=None)
    def test_signed_permutations_match_oracle_exactly(self, seed, shape):
        state, unitaries, controls, targets = multiplexer_case(seed, *shape, signed_permutation)
        got = apply_multiplexed(state, unitaries, controls, targets).amplitudes
        want = multiplexer_oracle(unitaries, controls, targets, state.nqubits) @ state.amplitudes
        assert np.array_equal(got, want)

    @given(st.integers(0, 2**32 - 1), multiplexer_shapes)
    @settings(max_examples=40, deadline=None)
    def test_random_unitaries_match_oracle(self, seed, shape):
        state, unitaries, controls, targets = multiplexer_case(seed, *shape, random_unitary)
        got = apply_multiplexed(state, unitaries, controls, targets).amplitudes
        want = multiplexer_oracle(unitaries, controls, targets, state.nqubits) @ state.amplitudes
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("controls, targets", [([1], [0]), ([0], [1]), ([2, 0], [1])])
    def test_input_amplitudes_untouched(self, controls, targets):
        # controls [1], targets [0] on two qubits needs no axis move at all
        rng = np.random.default_rng(5)
        state = random_state(rng, 3)
        before = state.amplitudes.copy()
        unitaries = [random_unitary(rng, 2) for _ in range(2 ** len(controls))]
        apply_multiplexed(state, unitaries, controls, targets)
        assert np.array_equal(state.amplitudes, before)

    def test_each_block_checked_once(self, monkeypatch):
        checked = []
        real = statevector._check_unitary
        monkeypatch.setattr(statevector, "_check_unitary", lambda u, k: checked.append(k) or real(u, k))
        apply_multiplexed(init_basis_state(3, "000"), [np.eye(4), np.eye(4)[::-1]], [2], [0, 1])
        assert checked == [2, 2]

    def test_non_unitary_block_rejected(self):
        bad = np.array([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValidationError):
            apply_multiplexed(init_basis_state(2, "00"), [np.eye(2), bad], [1], [0])

    def test_too_many_unitaries_rejected(self):
        with pytest.raises(ValidationError):
            apply_multiplexed(init_basis_state(2, "00"), [np.eye(2)] * 3, [1], [0])

    def test_needs_controls_and_targets(self):
        with pytest.raises(SizeError):
            apply_multiplexed(init_basis_state(2, "00"), [np.eye(2)], [], [0])


class TestMeasurement:
    def test_measure_probability_plus_state(self):
        plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert measure_probability(plus, 0, 0) == pytest.approx(0.5)
        assert measure_probability(plus, 0, 1) == pytest.approx(0.5)
        with pytest.raises(ValidationError):
            measure_probability(plus, 0, 2)

    def test_post_select_drops_qubit_and_renormalizes(self):
        state = apply_unitary(init_basis_state(2, "00"), H, [1])
        kept, prob = post_select(state, 1, 1)
        assert kept.nqubits == 1
        assert prob == pytest.approx(0.5)
        assert kept.norm() == pytest.approx(1.0)

    def test_post_select_impossible_outcome(self):
        with pytest.raises(ImpossibleOutcomeError):
            post_select(init_basis_state(2, "00"), 1, 1)

    def test_post_select_needs_two_qubits(self):
        with pytest.raises(SizeError):
            post_select(init_basis_state(1, "0"), 0, 0)

    def test_sample_deterministic_and_complete(self):
        state = apply_unitary(init_basis_state(2, "00"), H, [0])
        hist1 = sample(state, [0, 1], 100, RngStream(5))
        hist2 = sample(state, [0, 1], 100, RngStream(5))
        assert hist1.counts == hist2.counts
        assert sum(hist1.counts.values()) == 100
        # qubit 1 never fires
        assert all(key[0] == "0" for key in hist1.counts)

    def test_sample_key_orientation(self):
        state = init_basis_state(2, "10")
        hist = sample(state, [0, 1], 10, RngStream(1))
        assert hist.counts == {"10": 10}
        assert hist.shots == 10

    def test_histogram_validation(self):
        with pytest.raises(ValidationError):
            ShotHistogram({"0": 3}, 4)
        with pytest.raises(ValidationError):
            ShotHistogram({"0": 1, "11": 1}, 2)
        with pytest.raises(ValidationError):
            ShotHistogram({}, 0)
