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
from gdrq import pauli as pl
from gdrq import statevector
from gdrq.statevector import (
    RngStream,
    StateVector,
    Unitaries,
    apply_multiplexed,
    apply_unitary,
    init_basis_state,
    marginal,
    post_select,
    sample,
    seed_states,
    seeded_generator,
)
from oracles import measure_probability

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
X_GATE, H_GATE, I_GATE = (Unitaries(u[None]) for u in (X, H, np.eye(2)))


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

    @pytest.mark.parametrize("index", [1.5, True, -1])
    def test_bad_child_index_rejected(self, index):
        with pytest.raises(ValidationError, match="child index must be a non-negative") as err:
            RngStream(3).child(index)
        assert "\n" not in str(err.value)

    def test_negative_address_rejected(self):
        with pytest.raises(ValidationError):
            RngStream(-1)
        with pytest.raises(ValidationError):
            RngStream(1, (-2,))

    def test_repr_mentions_address(self):
        assert "spawn_key=(5,)" in repr(RngStream(1, (5,)))

    @pytest.mark.parametrize("seed, key", [(1.5, ()), (True, ()), (1, (0.5,)), (1, (False,))])
    def test_non_integer_address_rejected(self, seed, key):
        with pytest.raises(ValidationError, match="must be a non-negative integer"):
            RngStream(seed, key)


def numpy_states(entropy, key, n_words):
    """The reference: numpy's own SeedSequence."""
    return np.random.SeedSequence(entropy, spawn_key=tuple(key)).generate_state(n_words, np.uint64)


def random_ints(rng, count, max_bits):
    """Non-negative Python ints whose bit lengths spread evenly over 0..max_bits."""
    n_bytes = max_bits // 8 + 1
    return [
        int.from_bytes(rng.bytes(n_bytes), "little") >> (8 * n_bytes - int(bits))
        for bits in rng.integers(0, max_bits + 1, count)
    ]


EDGE_ENTROPIES = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 1, 2**200]
EDGE_KEYS = [(), (0,), (2**32 - 1,), (2**32,), (0, 2**32 - 1, 2**32)]


def key_rows(key, rows):
    """`rows` copies of a spawn key as a (rows, key length) array, the empty key included."""
    return np.array([key] * rows, dtype=np.int64).reshape(rows, len(key))


class TestSeedStates:
    @pytest.mark.parametrize("n_words", [1, 4])
    def test_random_rows_match_numpy(self, n_words):
        rng = np.random.default_rng(20261018 + n_words)
        checked = 0
        for key_length in range(4):
            entropy = random_ints(rng, 300, 200)
            shape = (300, key_length)
            keys = rng.integers(0, 2**40, shape) >> rng.integers(0, 41, shape)
            got = seed_states(np.array(entropy, dtype=object), keys, n_words)
            for row, e, key in zip(got, entropy, keys.tolist()):
                np.testing.assert_array_equal(row, numpy_states(e, key, n_words))
                checked += 1
            # the fast path: a uint64 column, as the run seeds of an ensemble
            seeds = rng.integers(0, 2**64, 50, dtype=np.uint64)
            got = seed_states(seeds, keys[:50], n_words)
            for row, e, key in zip(got, seeds.tolist(), keys.tolist()):
                np.testing.assert_array_equal(row, numpy_states(e, key, n_words))
                checked += 1
        assert checked >= 1000

    @pytest.mark.parametrize("n_words", [1, 4])
    @pytest.mark.parametrize("key", EDGE_KEYS)
    def test_edge_entropies_and_keys_match_numpy(self, key, n_words):
        column = seed_states(np.array(EDGE_ENTROPIES, dtype=object), key_rows(key, 7), n_words)
        for row, e in zip(column, EDGE_ENTROPIES):
            expected = numpy_states(e, key, n_words)
            np.testing.assert_array_equal(row, expected)
            np.testing.assert_array_equal(seed_states(e, key_rows(key, 1), n_words)[0], expected)

    @pytest.mark.parametrize(
        "seed, key", [(7, (1, 2)), (0, ()), (2**64 + 5, (0, 3)), (2**200, (2**32,))]
    )
    def test_seeded_generator_draws_like_numpy(self, seed, key):
        batch = seeded_generator(seed_states(seed, key_rows(key, 1), 4)[0])
        oracle = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
        assert batch.random() == oracle.random()
        np.testing.assert_array_equal(batch.random(64), oracle.random(64))
        batch.bit_generator.advance(-40)
        oracle.bit_generator.advance(-40)
        assert batch.random() == oracle.random()
        probs = [0.25, 0.5, 0.25]
        np.testing.assert_array_equal(
            batch.multinomial(8000, probs), oracle.multinomial(8000, probs)
        )
        assert batch.binomial(8000, 1 / 144) == oracle.binomial(8000, 1 / 144)

    def test_every_row_of_a_batch_seeds_its_own_generator(self):
        seeds = np.random.default_rng(3).integers(0, 2**64, 40, dtype=np.uint64)
        keys = np.array([(species, k) for species in (0, 1) for k in range(5)])
        rows = seed_states(np.repeat(seeds, len(keys)), np.tile(keys, (len(seeds), 1)), 4)
        addresses = [(int(s), tuple(k)) for s in seeds for k in keys.tolist()]
        for row, (seed, key) in zip(rows, addresses):
            assert seeded_generator(row).random() == RngStream(seed, key).generator.random()

    @pytest.mark.parametrize(
        "entropy, keys",
        [
            (-1, [(0,)]),
            ([3, -1], [(0,), (1,)]),
            (1.5, [(0,)]),
            (True, [(0,)]),
            (1, [(0,), (-1,)]),
            (1, [0, 1]),
            ([1, 2, 3], [(0,), (1,)]),
            ([2**64, 1, 2], [(0,), (1,)]),
            ([], [(0,)]),
        ],
    )
    def test_bad_rows_rejected(self, entropy, keys):
        with pytest.raises(ValidationError):
            seed_states(entropy, keys, 4)

    @pytest.mark.parametrize("n_words", [1, 4])
    def test_64_bit_rows_are_laid_out_directly(self, seed_sequences, n_words):
        """Entropy below 2**64 and key entries below 2**32 build no SeedSequence."""
        entropy = np.array([0, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)
        keys = [(0,), (2**32 - 1,), (0, 2**32 - 1), (2**32 - 1, 0, 2**32 - 1)]
        got = {
            key: (
                seed_states(entropy, key_rows(key, len(entropy)), n_words),
                [seed_states(e, key_rows(key, 1), n_words)[0] for e in entropy],
            )
            for key in keys
        }
        assert seed_sequences == []
        for key, (rows, singles) in got.items():
            for e, row, single in zip(entropy.tolist(), rows, singles):
                np.testing.assert_array_equal(row, numpy_states(e, key, n_words))
                np.testing.assert_array_equal(single, numpy_states(e, key, n_words))

    @pytest.mark.parametrize(
        "entropy, key",
        [
            (np.uint64(5), (2**32,)),
            (np.uint64(2**64 - 1), (0, 2**32 + 7)),
            (2**64, (0,)),
            (2**64 + 2**33, (2**32 - 1,)),
            (np.array([1, 2**64], dtype=object), (3,)),
            (5, ()),
            (np.uint64(2**64 - 1), ()),
        ],
    )
    def test_other_rows_are_hashed_by_numpy(self, seed_sequences, entropy, key):
        """Each row the direct layout does not cover builds one SeedSequence of its own."""
        values = np.asarray(entropy).reshape(-1).tolist()
        got = seed_states(entropy, key_rows(key, len(values)), 4)
        assert seed_sequences == [key] * len(values)
        for row, e in zip(got, values):
            np.testing.assert_array_equal(row, numpy_states(e, key, 4))

    @pytest.mark.parametrize(
        "entropy, keys",
        [
            (-1, [(0,)]),
            (np.array([3, -1]), [(0,), (1,)]),
            (1, [(0,), (-1,)]),
            (1, [(0, -5)]),
            (1, [(0, 2.0)]),
        ],
    )
    def test_negative_rows_give_one_line(self, seed_sequences, entropy, keys):
        with pytest.raises(ValidationError, match="must be a non-negative integer") as err:
            seed_states(entropy, keys, 4)
        assert "\n" not in str(err.value)
        assert seed_sequences == []

    def test_state_words_serve_only_their_own_request(self):
        words = statevector._state_words_type()(seed_states(1, [(0,)], 4)[0])
        with pytest.raises(ValidationError):
            words.generate_state(2, np.uint64)
        with pytest.raises(ValidationError):
            words.generate_state(8, np.uint32)


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


class TestApplyUnitary:
    def test_x_on_qubit_zero(self):
        out = apply_unitary(init_basis_state(2, "00"), X_GATE, [0])
        assert np.argmax(np.abs(out.amplitudes)) == 1

    def test_x_on_qubit_one(self):
        out = apply_unitary(init_basis_state(2, "00"), X_GATE, [1])
        assert np.argmax(np.abs(out.amplitudes)) == 2

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 2))
    @settings(max_examples=50, deadline=None)
    def test_matches_embedding_oracle(self, seed, nqubits, k):
        rng = np.random.default_rng(seed)
        targets = list(rng.choice(nqubits, size=min(k, nqubits), replace=False))
        targets = [int(t) for t in targets]
        u = random_unitary(rng, 2 ** len(targets))
        state = random_state(rng, nqubits)
        got = apply_unitary(state, Unitaries(u[None]), targets).amplitudes
        want = embed_oracle(u, targets, nqubits) @ state.amplitudes
        assert np.allclose(got, want, atol=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_preserves_norm(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng, 3)
        u = random_unitary(rng, 4)
        out = apply_unitary(state, Unitaries(u[None]), [0, 2])
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_bad_targets_raise_index_error(self):
        s = init_basis_state(2, "00")
        with pytest.raises(TargetError):
            apply_unitary(s, X_GATE, [2])
        with pytest.raises(IndexError):
            apply_unitary(s, Unitaries(np.eye(4)[None]), [0, 0])

    def test_targets_checked_once(self, monkeypatch):
        checked = []
        real = statevector._check_targets
        monkeypatch.setattr(
            statevector, "_check_targets", lambda s, t: checked.append(list(t)) or real(s, t)
        )
        apply_unitary(init_basis_state(2, "00"), X_GATE, [1])
        assert checked == [[1]]

    def test_block_size_and_count_checked(self):
        with pytest.raises(ValidationError, match="expected a 4x4 matrix"):
            apply_unitary(init_basis_state(2, "00"), X_GATE, [0, 1])
        with pytest.raises(ValidationError, match="one matrix, got 2"):
            apply_unitary(init_basis_state(2, "00"), Unitaries([X, H]), [0])


class TestControlledAndMultiplexed:
    def test_multiplexed_pattern_selection(self):
        u_list = Unitaries([np.eye(2, dtype=complex), X])
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
        out = apply_multiplexed(state, Unitaries(flips), controls=[1, 2], targets=[0])
        assert np.argmax(np.abs(out.amplitudes)) == 0b101

    def test_patterns_beyond_list_are_identity(self):
        state = init_basis_state(2, "10")
        out = apply_multiplexed(state, X_GATE, [1], [0])
        assert np.argmax(np.abs(out.amplitudes)) == 2

    @given(st.integers(0, 2**32 - 1), multiplexer_shapes)
    @settings(max_examples=40, deadline=None)
    def test_signed_permutations_match_oracle_exactly(self, seed, shape):
        state, unitaries, controls, targets = multiplexer_case(seed, *shape, signed_permutation)
        got = apply_multiplexed(state, Unitaries(unitaries), controls, targets).amplitudes
        want = multiplexer_oracle(unitaries, controls, targets, state.nqubits) @ state.amplitudes
        assert np.array_equal(got, want)

    @given(st.integers(0, 2**32 - 1), multiplexer_shapes)
    @settings(max_examples=40, deadline=None)
    def test_random_unitaries_match_oracle(self, seed, shape):
        state, unitaries, controls, targets = multiplexer_case(seed, *shape, random_unitary)
        got = apply_multiplexed(state, Unitaries(unitaries), controls, targets).amplitudes
        want = multiplexer_oracle(unitaries, controls, targets, state.nqubits) @ state.amplitudes
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("controls, targets", [([1], [0]), ([0], [1]), ([2, 0], [1])])
    def test_input_amplitudes_untouched(self, controls, targets):
        # controls [1], targets [0] on two qubits needs no axis move at all
        rng = np.random.default_rng(5)
        state = random_state(rng, 3)
        before = state.amplitudes.copy()
        unitaries = Unitaries([random_unitary(rng, 2) for _ in range(2 ** len(controls))])
        apply_multiplexed(state, unitaries, controls, targets)
        assert np.array_equal(state.amplitudes, before)

    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(st.integers(2, 9), st.integers(1, 4), st.integers(1, 5)).filter(
            lambda shape: shape[1] + shape[2] <= shape[0]
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_stacked_product_equals_block_loop(self, seed, shape):
        """apply_multiplexed multiplies every block in one stacked product; that equals,
        bit for bit, a loop that multiplies each block into its control pattern's slice."""
        state, unitaries, controls, targets = multiplexer_case(seed, *shape, random_unitary)
        n, qubits = state.nqubits, [*targets, *controls]
        slices = statevector._to_front(state.amplitudes, n, qubits).reshape(
            2 ** len(controls), 2 ** len(targets), -1
        )
        out = slices.copy()
        for i, u in enumerate(unitaries):
            out[i] = u @ slices[i]
        want = statevector._from_front(out, n, qubits, ())
        got = apply_multiplexed(state, Unitaries(unitaries), controls, targets).amplitudes
        assert np.array_equal(got, want)

    def test_too_many_unitaries_rejected(self):
        with pytest.raises(ValidationError):
            apply_multiplexed(init_basis_state(2, "00"), Unitaries([np.eye(2)] * 3), [1], [0])
        with pytest.raises(ValidationError, match="expected a 2x2 matrix"):
            apply_multiplexed(init_basis_state(3, "000"), Unitaries([np.eye(4)]), [1], [0])

    def test_needs_controls_and_targets(self):
        with pytest.raises(SizeError):
            apply_multiplexed(init_basis_state(2, "00"), I_GATE, [], [0])


class TestUnitaries:
    def test_stack_checked_once_when_built_and_not_when_applied(self, monkeypatch):
        built = []
        init = Unitaries.__init__
        monkeypatch.setattr(
            Unitaries, "__init__", lambda u, blocks: built.append(len(blocks)) or init(u, blocks)
        )
        stack, single = Unitaries([np.eye(4), np.eye(4)[::-1]]), Unitaries(np.eye(4)[None])
        for _ in range(3):
            apply_multiplexed(init_basis_state(3, "000"), stack, [2], [0, 1])
            apply_unitary(init_basis_state(2, "00"), single, [0, 1])
        assert built == [2, 1]
        # a gate trusts the value: blocks slipped past the check are applied as they are
        forged = object.__new__(Unitaries)
        forged.blocks = 2.0 * np.eye(2)[None]
        out = apply_unitary(init_basis_state(1, "0"), forged, [0])
        assert np.array_equal(out.amplitudes, [2, 0])

    def test_non_unitary_rejected(self):
        bad = np.array([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValidationError, match=r"^matrix is not unitary \(defect 3.00e\+00\)$"):
            Unitaries(bad[None])
        with pytest.raises(ValidationError, match="not unitary"):
            Unitaries([np.eye(2), bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_stack_rejected(self, bad):
        """NaN compares false with the tolerance; the check refuses it all the same."""
        with pytest.raises(ValidationError, match="not unitary"):
            Unitaries(np.full((2, 2, 2), bad))
        one_bad = np.stack([np.eye(2), np.eye(2)]).astype(complex)
        one_bad[1, 0, 1] = bad
        with pytest.raises(ValidationError, match="not unitary"):
            Unitaries(one_bad)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2, 3), (2, 2, 2, 2)])
    def test_needs_a_stack_of_square_matrices(self, shape):
        with pytest.raises(ValidationError, match="stack of square matrices"):
            Unitaries(np.ones(shape))

    def test_read_only_view_of_the_same_layout(self):
        """The adjoint of a C-ordered matrix is F-ordered; the stack keeps that view,
        so products with it take the same path and give the same bits."""
        adjoint = random_unitary(np.random.default_rng(3), 4).conj().T
        stack = Unitaries(adjoint[None])
        assert np.shares_memory(stack.blocks, adjoint)
        assert stack.blocks[0].strides == adjoint.strides
        assert stack.blocks[0].flags.f_contiguous and not stack.blocks[0].flags.c_contiguous
        assert not stack.blocks.flags.writeable
        with pytest.raises(ValueError):
            stack.blocks[0, 0, 0] = 2.0

    @pytest.mark.parametrize("raw", [X, X[None], [X], [[0, 1], [1, 0]]])
    def test_gates_refuse_raw_arrays_and_lists(self, raw):
        for gate in (
            lambda: apply_unitary(init_basis_state(2, "00"), raw, [0]),
            lambda: apply_multiplexed(init_basis_state(2, "00"), raw, [1], [0]),
        ):
            with pytest.raises(ValidationError, match=r"^gates apply Unitaries, not (ndarray|list)$"):
                gate()


class TestMeasurement:
    def test_measure_probability_plus_state(self):
        plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert measure_probability(plus, 0, 0) == pytest.approx(0.5)
        assert measure_probability(plus, 0, 1) == pytest.approx(0.5)
        with pytest.raises(ValidationError):
            measure_probability(plus, 0, 2)

    def test_post_select_drops_qubit_and_renormalizes(self):
        state = apply_unitary(init_basis_state(2, "00"), H_GATE, [1])
        kept, prob = post_select(state, 1, 1)
        assert kept.nqubits == 1
        assert prob == pytest.approx(0.5)
        assert np.linalg.norm(kept.amplitudes) == pytest.approx(1.0)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 11))
    @settings(max_examples=60, deadline=None)
    def test_post_select_keeps_the_bits_of_measure_and_take(self, seed, nqubits):
        """The probability is measure_probability's, to the bit, and the kept
        amplitudes are the take of the outcome's half divided by its root."""
        rng = np.random.default_rng(seed)
        amps = random_state(rng, nqubits).amplitudes * 10.0 ** rng.uniform(-3, 3)
        amps[rng.random(amps.size) < 0.3] = 0.0
        state = StateVector(nqubits, amps)
        for qubit in range(nqubits):
            for outcome in (0, 1):
                prob = measure_probability(state, qubit, outcome)
                if prob < statevector.POSTSELECT_TOL:
                    continue
                half = np.take(amps.reshape([2] * nqubits), outcome, axis=nqubits - 1 - qubit)
                kept, got = post_select(state, qubit, outcome)
                assert np.float64(got).view(np.uint64) == np.float64(prob).view(np.uint64)
                want = half.reshape(-1) / np.sqrt(prob)
                assert np.array_equal(kept.amplitudes.view(np.uint64), want.view(np.uint64))

    def test_post_select_bad_outcome_rejected(self):
        with pytest.raises(ValidationError, match="outcome must be 0 or 1, got 2"):
            post_select(init_basis_state(2, "00"), 1, 2)

    def test_post_select_impossible_outcome(self):
        with pytest.raises(ImpossibleOutcomeError):
            post_select(init_basis_state(2, "00"), 1, 1)

    def test_post_select_needs_two_qubits(self):
        with pytest.raises(SizeError):
            post_select(init_basis_state(1, "0"), 0, 0)

    def test_sample_deterministic_and_complete(self):
        state = apply_unitary(init_basis_state(2, "00"), H_GATE, [0])
        counts1 = sample(state, [0, 1], 100, np.random.default_rng(5))
        counts2 = sample(state, [0, 1], 100, np.random.default_rng(5))
        assert np.array_equal(counts1, counts2)
        assert counts1.sum() == 100
        # qubit 1 never fires: outcomes 2 and 3 have bit 1 set
        assert counts1[2:].tolist() == [0, 0]

    def test_sample_outcome_order(self):
        state = init_basis_state(2, "10")
        assert sample(state, [0, 1], 10, np.random.default_rng(1)).tolist() == [0, 0, 10, 0]
        assert sample(state, [1, 0], 10, np.random.default_rng(1)).tolist() == [0, 10, 0, 0]


def bits(values) -> np.ndarray:
    """The IEEE bits of a float or complex array, as uint64 words."""
    return np.ascontiguousarray(values).view(np.uint64)


def batch_case(seed: int, nqubits: int, rows: int) -> tuple[np.random.Generator, StateVector]:
    """A batch of random states of mixed scale, some amplitudes exactly zero
    but at least one in each row not."""
    rng = np.random.default_rng(seed)
    amps = np.stack([random_state(rng, nqubits).amplitudes for _ in range(rows)])
    amps *= 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
    zero = rng.random(amps.shape) < 0.2
    zero[np.arange(rows), rng.integers(2**nqubits, size=rows)] = False
    amps[zero] = 0.0
    return rng, StateVector(nqubits, amps)


def row_states(batch: StateVector) -> list[StateVector]:
    return [StateVector(batch.nqubits, row) for row in batch.amplitudes]


batches = (st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4))


class TestBatches:
    """A gate applied to a batch gives each row the bits it gives that row on its own."""

    @given(*batches)
    @settings(max_examples=40, deadline=None)
    def test_apply_unitary(self, seed, nqubits, rows):
        rng, batch = batch_case(seed, nqubits, rows)
        k = int(rng.integers(1, min(nqubits, 3) + 1))
        targets = [int(q) for q in rng.permutation(nqubits)[:k]]
        u = Unitaries(random_unitary(rng, 2**k)[None])
        got = apply_unitary(batch, u, targets)
        assert got.amplitudes.shape == batch.amplitudes.shape
        for row, one in zip(got.amplitudes, row_states(batch)):
            assert np.array_equal(bits(row), bits(apply_unitary(one, u, targets).amplitudes))

    @given(*batches)
    @settings(max_examples=40, deadline=None)
    def test_apply_multiplexed(self, seed, nqubits, rows):
        if nqubits < 2:
            return
        rng, batch = batch_case(seed, nqubits, rows)
        kc = int(rng.integers(1, nqubits))
        kt = int(rng.integers(1, nqubits - kc + 1))
        qubits = [int(q) for q in rng.permutation(nqubits)]
        controls, targets = qubits[:kc], qubits[kc : kc + kt]
        count = int(rng.integers(0, 2**kc + 1))
        stack = np.array([random_unitary(rng, 2**kt) for _ in range(count)], dtype=complex)
        blocks = Unitaries(stack.reshape(count, 2**kt, 2**kt))
        got = apply_multiplexed(batch, blocks, controls, targets)
        for row, one in zip(got.amplitudes, row_states(batch)):
            want = apply_multiplexed(one, blocks, controls, targets).amplitudes
            assert np.array_equal(bits(row), bits(want))

    @given(*batches)
    @settings(max_examples=40, deadline=None)
    def test_post_select(self, seed, nqubits, rows):
        if nqubits < 2:
            return
        rng, batch = batch_case(seed, nqubits, rows)
        qubit, outcome = int(rng.integers(nqubits)), int(rng.integers(2))
        singles = []
        for one in row_states(batch):
            try:
                singles.append(post_select(one, qubit, outcome))
            except ImpossibleOutcomeError:
                # one impossible row fails the whole batch
                message = f"outcome {outcome} on qubit {qubit}"
                with pytest.raises(ImpossibleOutcomeError, match=message):
                    post_select(batch, qubit, outcome)
                return
        kept, probs = post_select(batch, qubit, outcome)
        assert kept.nqubits == nqubits - 1 and probs.shape == (rows,)
        for row, prob, (one, one_prob) in zip(kept.amplitudes, probs, singles):
            assert np.array_equal(bits(row), bits(one.amplitudes))
            assert bits(prob) == bits(one_prob)

    @given(*batches)
    @settings(max_examples=40, deadline=None)
    def test_marginal(self, seed, nqubits, rows):
        rng, batch = batch_case(seed, nqubits, rows)
        k = int(rng.integers(1, nqubits + 1))
        qubits = [int(q) for q in rng.permutation(nqubits)[:k]]
        got = marginal(batch, qubits)
        assert got.shape == (rows, 2**k)
        for row, one in zip(got, row_states(batch)):
            assert np.array_equal(bits(row), bits(marginal(one, qubits)))

    @given(*batches)
    @settings(max_examples=40, deadline=None)
    def test_pauli_apply(self, seed, nqubits, rows):
        rng, batch = batch_case(seed, nqubits, rows)
        terms = [
            pl.PauliTerm(float(rng.normal()), "".join(rng.choice(list("IXYZ"), size=nqubits)))
            for _ in range(int(rng.integers(1, 9)))
        ]
        op = pl.PauliSum(nqubits, tuple(terms))
        got = pl.apply(op, batch)
        for row, one in zip(got.amplitudes, row_states(batch)):
            assert np.array_equal(bits(row), bits(pl.apply(op, one).amplitudes))

    @given(*batches)
    @settings(max_examples=20, deadline=None)
    def test_tensor(self, seed, nqubits, rows):
        rng, batch = batch_case(seed, nqubits, rows)
        _, other = batch_case(seed + 1, int(rng.integers(1, 4)), rows)
        single = random_state(rng, 2)
        for joined, pairs in (
            (batch.tensor(other), zip(row_states(batch), row_states(other))),
            (batch.tensor(single), ((one, single) for one in row_states(batch))),
            (single.tensor(batch), ((single, one) for one in row_states(batch))),
        ):
            for row, (low, high) in zip(joined.amplitudes, pairs):
                assert np.array_equal(bits(row), bits(low.tensor(high).amplitudes))

    def test_mismatched_batches_cannot_join(self):
        a = StateVector(1, np.eye(2, dtype=complex))
        b = StateVector(1, np.ones((3, 2)))
        with pytest.raises(SizeError, match="row by row"):
            a.tensor(b)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 2, 4), (0,)])
    def test_amplitude_shape_checked(self, shape):
        with pytest.raises(SizeError, match="expected 4 amplitudes or rows of them"):
            StateVector(2, np.ones(shape))
