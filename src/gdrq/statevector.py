"""Dense statevector simulator for small registers (up to 16 qubits).

Amplitude index i encodes the computational basis state whose qubit j holds
bit j of i (little endian).  Bitstrings at the text boundary are written most
significant qubit first, so qubit 0 is the rightmost character and the string
equals the binary rendering of the index: init_basis_state(2, "10") puts the
excitation on qubit 1.

Every draw takes a numpy Generator.  RngStream addresses a PCG64 generator by
(seed, spawn_key); child streams extend the spawn key, so any part of an
experiment can be re-derived independently of evaluation order.  Many at once
are cheaper: seed_states hashes the seed sequences of a whole batch of
addresses in one numpy pass, and seeded_generator starts a PCG64 from one row.
gdrq lays out one kind of row itself, a seed below 2**64 with a non-empty key
of entries below 2**32, as every stream of an ensemble is; numpy's own
SeedSequence hashes any other row, one at a time, at about 20 us a row.  A
master seed of 2**64 or more pays that once per ensemble, for its run seeds; a
run seed that wide pays it for each of its streams.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ImpossibleOutcomeError, SizeError, TargetError, ValidationError

MAX_QUBITS = 16
_BITS = frozenset("01")
UNITARY_TOL = 1e-10
POSTSELECT_TOL = 1e-14


# numpy's SeedSequence hash; NEP 19 keeps the streams it seeds stable
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
# uint64 words of seed state that PCG64 reads, one seed_states row per generator
STREAM_WORDS = 4


def non_negative_int(value, name: str) -> int:
    """`value` as an int when it is a non-negative integer (a bool is not one)."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be a non-negative integer, got {value!r}") from None
    if number < 0:
        raise ValidationError(f"{name} must be a non-negative integer, got {number}")
    return number


class RngStream:
    """Deterministic PCG64 stream addressed by (seed, spawn_key).

    The generator is built on first use: a stream that only parents children
    never hashes its seed sequence.
    """

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()) -> None:
        self.seed = non_negative_int(seed, "seed")
        self.spawn_key = tuple(non_negative_int(k, "spawn key entry") for k in spawn_key)

    @functools.cached_property
    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        return np.random.Generator(np.random.PCG64(seq))

    def child(self, index: int) -> "RngStream":
        """Independent stream with `index` appended to the spawn key."""
        return RngStream(self.seed, self.spawn_key + (non_negative_int(index, "child index"),))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, spawn_key={self.spawn_key})"


@functools.cache
def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """The hash constant before each of `steps` steps and after the last, as a read-only column."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """numpy's hashmix, given the hash constant before and after the step (uint32 wraps)."""
    value = (value ^ before) * after
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * _MIX_MULT_L - y * _MIX_MULT_R
    return value ^ (value >> _SHIFT)


def _mix_entropy(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's entropy pool of each column of assembled words, (length, rows) -> (4, rows).

    A column holds at least the pool size of words, as the entropy of a row
    with a spawn key is padded to it.  numpy's loops run in the same order; the
    steps that read one source word into several pool words use consecutive
    hash constants and are applied together.
    """
    steps = _POOL_SIZE**2 + _POOL_SIZE * (len(entropy) - _POOL_SIZE)
    const = _hash_constants(_INIT_A, _MULT_A, steps)
    done = 0

    def hashmix(value: np.ndarray, steps: int) -> np.ndarray:
        nonlocal done
        done += steps
        return _hashmix(value, const[done - steps : done], const[done - steps + 1 : done + 1])

    pool = hashmix(entropy[:_POOL_SIZE], _POOL_SIZE)
    for src in range(_POOL_SIZE):
        # the pool words below and above the source, in numpy's order
        mixed = hashmix(pool[src], _POOL_SIZE - 1)
        if src > 0:
            pool[:src] = _mix(pool[:src], mixed[:src])
        if src < _POOL_SIZE - 1:
            pool[src + 1 :] = _mix(pool[src + 1 :], mixed[src:])
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, hashmix(word, _POOL_SIZE))
    return pool


def _generate_state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence.generate_state(n_words, np.uint64) of each pool column, (rows, n_words)."""
    const = _hash_constants(_INIT_B, _MULT_B, 2 * n_words)
    words = _hashmix(pool[np.arange(2 * n_words) % _POOL_SIZE], const[:-1], const[1:])
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64)


def seed_states(entropy, spawn_keys, n_words: int) -> np.ndarray:
    """`SeedSequence(entropy, spawn_key=key).generate_state(n_words, np.uint64)` of many rows.

    `spawn_keys` is a (rows, key length) array of non-negative integers and
    `entropy` one non-negative integer for every row, or one per row.  Returns
    (rows, n_words) uint64 words, bit for bit numpy's.  When every entropy
    fits in 64 bits and every key entry in 32, and the key is not empty, as
    for every stream of an ensemble, each row assembles to the four entropy
    words of the pool and one word per key entry: the words are laid out
    directly and numpy's hash runs over all rows at once.  Any other row (a
    wider entropy or key entry, an empty key, a float, bool or object entry)
    is handed to numpy's own SeedSequence one row at a time, about 20 us a
    row, after each entry is checked to be a non-negative integer.
    """
    keys = np.asarray(spawn_keys)
    if keys.ndim != 2:
        raise ValidationError(f"spawn keys must be a (rows, key length) array, not {keys.shape}")
    rows, key_length = keys.shape
    entropy = np.asarray(entropy).reshape(-1)
    if entropy.size not in (1, rows):
        raise ValidationError(f"{entropy.size} entropy values for {rows} spawn keys")
    if _fits(entropy, 64) and _fits(keys, 32):
        words = np.zeros((_POOL_SIZE + key_length, rows), np.uint32)
        wide = entropy.astype(np.uint64)
        words[0] = wide & _MASK32
        words[1] = wide >> 32
        words[_POOL_SIZE:] = keys.T
        return _generate_state(_mix_entropy(words), n_words)
    name = "seed sequence entry"
    seeds = [non_negative_int(e, name) for e in np.broadcast_to(entropy, rows).tolist()]
    key_tuples = [tuple(non_negative_int(k, name) for k in key) for key in keys.tolist()]
    states = [
        np.random.SeedSequence(e, spawn_key=key).generate_state(n_words, np.uint64)
        for e, key in zip(seeds, key_tuples)
    ]
    return np.array(states, np.uint64).reshape(rows, n_words)


def _fits(values: np.ndarray, bits: int) -> bool:
    """Whether `values` is a non-empty integer array of entries in [0, 2**bits)."""
    if values.dtype.kind not in "iu" or values.size == 0:
        return False
    return int(values.min()) >= 0 and int(values.max()) >> bits == 0


@functools.cache
def _state_words_type() -> type:
    """A seed sequence that hands a bit generator precomputed generate_state words.

    The class is made on first use: importing numpy.random costs ~13 ms and
    ~6 MB, which a run that draws nothing does not need.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
                raise ValidationError(f"holds {len(self.words)} uint64 words, not {n_words} {dtype}")
            return self.words

    return StateWords


def seeded_generator(row: np.ndarray) -> np.random.Generator:
    """A PCG64 generator started from one row of seed_states(..., STREAM_WORDS).

    The row of (seed, spawn_key) makes it draw exactly what RngStream(seed,
    spawn_key) draws; PCG64 runs its own seeding on the words.
    """
    return np.random.Generator(np.random.PCG64(_state_words_type()(row)))


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the computational basis of `nqubits` qubits.

    The amplitudes are one state, shape (2^n,), or a batch of states, shape
    (rows, 2^n).  Every gate acts on each row on its own and keeps the batch
    shape; a single state goes through the same code as a batch, as one with
    no row axis.
    """

    nqubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.nqubits <= MAX_QUBITS:
            raise SizeError(f"register size must be in [1, {MAX_QUBITS}]")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim not in (1, 2) or amps.shape[-1] != 2**self.nqubits:
            raise SizeError(
                f"expected {2**self.nqubits} amplitudes or rows of them, got shape {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def tensor(self, other: "StateVector") -> "StateVector":
        """Join registers; `other` occupies the new high qubit indices.

        A batch joins row by row, and a single state joins every row of a batch.
        """
        n = self.nqubits + other.nqubits
        if n > MAX_QUBITS:
            raise SizeError(f"register size must be in [1, {MAX_QUBITS}]")
        low, high = self.amplitudes, other.amplitudes
        if low.ndim == high.ndim == 2 and len(low) != len(high):
            raise SizeError(f"cannot join batches of {len(low)} and {len(high)} rows row by row")
        # the Kronecker product of two vectors is their flattened outer product
        joined = high[..., :, None] * low[..., None, :]
        return StateVector(n, joined.reshape(*joined.shape[:-2], -1))


def init_basis_state(nqubits: int, bits: str) -> StateVector:
    """Computational basis state from a bitstring (qubit 0 rightmost)."""
    if len(bits) != nqubits or not _BITS.issuperset(bits):
        raise ValidationError(f"bits must be {nqubits} characters of 0/1, got {bits!r}")
    amps = np.zeros(2**nqubits, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(nqubits, amps)


def _check_targets(state: StateVector, targets: Sequence[int]) -> list[int]:
    targets = [int(q) for q in targets]
    if len(set(targets)) != len(targets):
        raise TargetError(f"duplicated target qubits {targets}")
    for q in targets:
        if not 0 <= q < state.nqubits:
            raise TargetError(f"target qubit {q} out of range for {state.nqubits} qubits")
    return targets


class Unitaries:
    """A stack of unitaries, checked once when built.

    `blocks` is an (s, d, d) stack; all s blocks are checked in one batched
    product u^H u - I against UNITARY_TOL, and a NaN or infinite entry fails
    the check.  It is kept as a read-only view of the same memory and layout,
    so products with it keep their bits.  A single matrix u is
    Unitaries(u[None]), and a Householder reflection is built from its first
    column (see reflection), with a check of that vector.  What reads the
    stack afterwards checks nothing again: the gates below, and the LCU and
    SWAP-test circuits, which multiply by `blocks` directly.  A signed
    permutation is not made dense (see check_unit_moduli).
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks) -> None:
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
            raise ValidationError(f"expected a stack of square matrices, got shape {blocks.shape}")
        # an infinite entry makes inf * 0 = NaN here, which the comparison below refuses
        with np.errstate(invalid="ignore", over="ignore"):
            gram = blocks.conj().transpose(0, 2, 1) @ blocks
        # subtracting I only changes the diagonal
        diagonal = np.arange(blocks.shape[1])
        gram[:, diagonal, diagonal] -= 1.0
        _refuse_defect(np.abs(gram).max(initial=0.0))
        self._keep(blocks)

    @classmethod
    def reflection(cls, column) -> "Unitaries":
        """The one-block stack of the real Householder reflection I - 2 v v^T
        whose first column is `column`, v being e0 - column normalized.

        The reflection is unitary for any v; it has that first column only
        when the column is a unit vector, so the column is what is checked:
        its norm must lie within UNITARY_TOL of 1, and a NaN or infinite
        entry fails as it fails the Gram check.  I - 2 v v^T is exactly
        symmetric, since the outer product v v^T is, so the block is its own
        adjoint to the bit.
        """
        column = np.asarray(column, dtype=float)
        # hypot neither overflows nor warns on a huge entry
        _refuse_defect(abs(math.hypot(*column.tolist()) - 1.0))
        dim = column.size
        v = np.zeros(dim)
        v[0] = 1.0
        v -= column
        # sqrt(v . v) is how np.linalg.norm takes it, so the block keeps its bits
        nrm = math.sqrt(v.dot(v))
        block = np.eye(dim, dtype=complex)
        if nrm >= 1e-14:
            v /= nrm
            twice_outer = v[:, None] * v
            twice_outer *= 2.0
            block.real -= twice_outer
        stack = object.__new__(cls)
        stack._keep(block[None])
        return stack

    def _keep(self, blocks: np.ndarray) -> None:
        self.blocks = blocks.view()
        self.blocks.flags.writeable = False


def check_unit_moduli(entries: np.ndarray) -> None:
    """Refuse the entries of signed permutations unless each has modulus one:
    u^H u - I of such a block is diagonal, |entry|^2 - 1, so that is the Gram
    check, read off each entry once, and NaN or inf fails it alike."""
    moduli = np.abs(entries)
    # the extreme moduli give the largest defect, and a NaN is the extreme of
    # both; a Python float squares a huge modulus to inf with no warning
    low, high = float(moduli.min(initial=1.0)), float(moduli.max(initial=1.0))
    _refuse_defect(max(1.0 - low * low, high * high - 1.0))


def _refuse_defect(defect: float) -> None:
    """Refuse a stack whose largest |u^H u - I| entry exceeds UNITARY_TOL or is NaN."""
    if not defect <= UNITARY_TOL:
        raise ValidationError(f"matrix is not unitary (defect {defect:.2e})")


def _blocks_on(unitaries: Unitaries, k: int) -> np.ndarray:
    """The blocks of a Unitaries, once they are known to be 2^k x 2^k."""
    if not isinstance(unitaries, Unitaries):
        raise ValidationError(f"gates apply Unitaries, not {type(unitaries).__name__}")
    blocks, dim = unitaries.blocks, 2**k
    if blocks.shape[1] != dim:
        raise ValidationError(f"expected a {dim}x{dim} matrix, got shape {blocks.shape[1:]}")
    return blocks


@functools.cache
def _front_permutation(
    n: int, qubits: tuple[int, ...], lead: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis permutation that moves `qubits` to the front behind `lead` batch
    axes, and its inverse.

    Qubit q is axis lead+n-1-q; the front axes are ordered so that the C-order
    flatten of them reads the list little-endian, and the other axes keep
    their order.
    """
    front = [lead + n - 1 - q for q in reversed(qubits)]
    rest = (axis for axis in range(lead, lead + n) if axis not in front)
    perm = (*range(lead), *front, *rest)
    return perm, tuple(int(i) for i in np.argsort(perm))


def _to_front(amps: np.ndarray, n: int, qubits: Sequence[int]) -> np.ndarray:
    """View of amplitudes with one axis per qubit, the axes of `qubits` first
    behind the batch axis, if any."""
    batch = amps.shape[:-1]
    perm = _front_permutation(n, tuple(qubits), len(batch))[0]
    return amps.reshape(*batch, *[2] * n).transpose(perm)


def _from_front(
    arr: np.ndarray, n: int, qubits: Sequence[int], batch: tuple[int, ...]
) -> np.ndarray:
    """Amplitudes, shape (*batch, 2^n), of an array laid out by _to_front."""
    inverse = _front_permutation(n, tuple(qubits), len(batch))[1]
    return arr.reshape(*batch, *[2] * n).transpose(inverse).reshape(*batch, -1)


def apply_unitary(state: StateVector, u: Unitaries, targets: Sequence[int]) -> StateVector:
    """Apply the one 2^k x 2^k matrix of u; its row/col index bit m belongs to targets[m].

    The rows of a batch form the stack axis of one matmul, so each row gets the
    product, and the bits, that it gets on its own.
    """
    targets = _check_targets(state, targets)
    blocks = _blocks_on(u, len(targets))
    if len(blocks) != 1:
        raise ValidationError(f"apply_unitary applies one matrix, got {len(blocks)}")
    n, batch = state.nqubits, state.amplitudes.shape[:-1]
    moved = _to_front(state.amplitudes, n, targets)
    out = blocks[0] @ moved.reshape(*batch, 2 ** len(targets), -1)
    return StateVector(n, _from_front(out, n, targets, batch))


def apply_multiplexed(
    state: StateVector,
    unitaries: Unitaries,
    controls: Sequence[int],
    targets: Sequence[int],
) -> StateVector:
    """Apply block i of `unitaries` on targets when the control register reads i.

    Control patterns are little endian in the listed controls; patterns beyond
    the stack act as the identity.  Each block is applied to its own control
    pattern's slice of each row, so no block-diagonal matrix is built.
    """
    if len(controls) < 1 or len(targets) < 1:
        raise SizeError("multiplexing needs at least one control and one target")
    blocks = _blocks_on(unitaries, len(targets))
    if len(blocks) > 2 ** len(controls):
        raise ValidationError(f"{len(blocks)} unitaries exceed {2 ** len(controls)} control patterns")
    qubits = _check_targets(state, [*targets, *controls])
    n, batch = state.nqubits, state.amplitudes.shape[:-1]
    # the flatten reads the control pattern, then the target index
    moved = _to_front(state.amplitudes, n, qubits)
    slices = moved.reshape(*batch, 2 ** len(controls), 2 ** len(targets), -1)
    out = slices.copy()
    if len(blocks):
        # one stacked product: the same matrix-vector product per block as a loop
        out[..., : len(blocks), :, :] = np.matmul(blocks, slices[..., : len(blocks), :, :])
    return StateVector(n, _from_front(out, n, qubits, batch))


def post_select(
    state: StateVector, qubit: int, outcome: int
) -> tuple[StateVector, float | np.ndarray]:
    """Condition on a measurement outcome and drop the measured qubit.

    Returns the renormalized conditional state on the remaining qubits (higher
    indices shift down by one) together with the outcome probability, one per
    row of a batch.  Any row whose probability is below POSTSELECT_TOL fails
    the whole call.
    """
    (qubit,) = _check_targets(state, [qubit])
    if state.nqubits < 2:
        raise SizeError("post-selection needs at least two qubits")
    if outcome not in (0, 1):
        raise ValidationError(f"outcome must be 0 or 1, got {outcome}")
    batch = state.amplitudes.shape[:-1]
    # the amplitudes where the qubit reads `outcome`, in index order; each
    # row's |amp|^2 is summed along the contiguous last axis, as a 1-D sum is
    kept = state.amplitudes.reshape(*batch, -1, 2, 2**qubit)[..., outcome, :].reshape(*batch, -1)
    probs = (np.abs(kept) ** 2).sum(axis=-1)
    if (probs < POSTSELECT_TOL).any():
        raise ImpossibleOutcomeError(
            f"outcome {outcome} on qubit {qubit} has probability {probs.min():.3e}"
        )
    return StateVector(state.nqubits - 1, kept / np.sqrt(probs)[..., None]), probs


def outcome_weights(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    """Summed |amp|^2 of each of the 2^k outcomes on `qubits` (little endian in
    the list), per row: the marginal before it is normalized."""
    qubits = _check_targets(state, qubits)
    batch = state.amplitudes.shape[:-1]
    moved = _to_front(np.abs(state.amplitudes) ** 2, state.nqubits, qubits)
    return moved.reshape(*batch, 2 ** len(qubits), -1).sum(axis=-1)


def marginal(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    """Normalized distribution of the 2^k outcomes on `qubits` (little endian in
    the list), per row."""
    weights = outcome_weights(state, qubits)
    return weights / weights.sum(axis=-1, keepdims=True)


def sample(
    state: StateVector, qubits: Sequence[int], shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Multinomial shot counts of the 2^k outcomes on `qubits`, indexed like `marginal`."""
    probs = marginal(state, qubits)
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    return rng.multinomial(shots, probs)
