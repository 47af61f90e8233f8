"""Dense statevector simulator for small registers (up to 16 qubits).

Amplitude index i encodes the computational basis state whose qubit j holds
bit j of i (little endian).  Bitstrings at the text boundary are written most
significant qubit first, so qubit 0 is the rightmost character and the string
equals the binary rendering of the index: init_basis_state(2, "10") puts the
excitation on qubit 1.

Randomness comes only through RngStream, a PCG64 generator addressed by
(seed, spawn_key); child streams extend the spawn key, so any part of an
experiment can be re-derived independently of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ImpossibleOutcomeError, SizeError, TargetError, ValidationError

MAX_QUBITS = 16
UNITARY_TOL = 1e-10
POSTSELECT_TOL = 1e-14


class RngStream:
    """Deterministic PCG64 stream addressed by (seed, spawn_key)."""

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()) -> None:
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        if self.seed < 0 or any(k < 0 for k in self.spawn_key):
            raise ValidationError("seed and spawn key entries must be non-negative")
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        self.generator = np.random.Generator(np.random.PCG64(seq))

    def child(self, index: int) -> "RngStream":
        """Independent stream with `index` appended to the spawn key."""
        return RngStream(self.seed, self.spawn_key + (int(index),))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, spawn_key={self.spawn_key})"


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the computational basis of `nqubits` qubits."""

    nqubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.nqubits <= MAX_QUBITS:
            raise SizeError(f"register size must be in [1, {MAX_QUBITS}]")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.nqubits,):
            raise SizeError(f"expected {2**self.nqubits} amplitudes, got shape {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        nrm = self.norm()
        if nrm < POSTSELECT_TOL:
            raise ValidationError("cannot normalize a (numerically) zero state")
        return StateVector(self.nqubits, self.amplitudes / nrm)

    def tensor(self, other: "StateVector") -> "StateVector":
        """Join registers; `other` occupies the new high qubit indices."""
        n = self.nqubits + other.nqubits
        if n > MAX_QUBITS:
            raise SizeError(f"register size must be in [1, {MAX_QUBITS}]")
        return StateVector(n, np.kron(other.amplitudes, self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        if self.nqubits != other.nqubits:
            raise SizeError("overlap requires equal register sizes")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class ShotHistogram:
    """Counts of measured bitstrings; keys are written qubit-0-rightmost."""

    counts: Mapping[str, int]
    shots: int

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValidationError("shots must be >= 1")
        if sum(self.counts.values()) != self.shots:
            raise ValidationError("histogram counts must sum to the shot count")
        lengths = {len(k) for k in self.counts}
        if len(lengths) > 1:
            raise ValidationError("histogram keys must have a common length")


def init_basis_state(nqubits: int, bits: str) -> StateVector:
    """Computational basis state from a bitstring (qubit 0 rightmost)."""
    if len(bits) != nqubits or any(c not in "01" for c in bits):
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


def _check_unitary(u: np.ndarray, k: int) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    dim = 2**k
    if u.shape != (dim, dim):
        raise ValidationError(f"expected a {dim}x{dim} matrix, got shape {u.shape}")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
    if defect > UNITARY_TOL:
        raise ValidationError(f"matrix is not unitary (defect {defect:.2e})")
    return u


def _front_axes(n: int, qubits: Sequence[int]) -> list[int]:
    """Axes of `qubits` (qubit q is axis n-1-q), ordered so that the C-order
    flatten of them reads the list little-endian."""
    k = len(qubits)
    return [n - 1 - qubits[k - 1 - i] for i in range(k)]


def apply_unitary(state: StateVector, u: np.ndarray, targets: Sequence[int]) -> StateVector:
    """Apply a 2^k x 2^k unitary; u row/col index bit m belongs to targets[m]."""
    targets = _check_targets(state, targets)
    k = len(targets)
    u = _check_unitary(u, k)
    n = state.nqubits
    arr = state.amplitudes.reshape([2] * n)
    front = _front_axes(n, targets)
    moved = np.moveaxis(arr, front, range(k))
    out = (u @ moved.reshape(2**k, -1)).reshape([2] * n)
    out = np.moveaxis(out, range(k), front)
    return StateVector(n, out.reshape(-1))


def apply_multiplexed(
    state: StateVector,
    unitaries: Sequence[np.ndarray],
    controls: Sequence[int],
    targets: Sequence[int],
) -> StateVector:
    """Apply unitaries[i] on targets when the control register reads i.

    Control patterns are little endian in the listed controls; patterns beyond
    len(unitaries) act as the identity.  Each block is checked once and applied
    to its own control pattern's slice, so no block-diagonal matrix is built.
    """
    kc = len(controls)
    kt = len(targets)
    if kc < 1 or kt < 1:
        raise SizeError("multiplexing needs at least one control and one target")
    if len(unitaries) > 2**kc:
        raise ValidationError(f"{len(unitaries)} unitaries exceed {2**kc} control patterns")
    qubits = _check_targets(state, [*targets, *controls])
    blocks = [_check_unitary(u, kt) for u in unitaries]
    n = state.nqubits
    k = kc + kt
    # the flatten reads the control pattern, then the target index
    front = _front_axes(n, qubits)
    moved = np.moveaxis(state.amplitudes.reshape([2] * n), front, range(k))
    slices = moved.reshape(2**kc, 2**kt, -1)
    out = slices.copy()
    for i, u in enumerate(blocks):
        out[i] = u @ slices[i]
    out = np.moveaxis(out.reshape([2] * n), range(k), front)
    return StateVector(n, out.reshape(-1))


def measure_probability(state: StateVector, qubit: int, outcome: int) -> float:
    """Probability that the given qubit reads `outcome` (0 or 1)."""
    (qubit,) = _check_targets(state, [qubit])
    if outcome not in (0, 1):
        raise ValidationError(f"outcome must be 0 or 1, got {outcome}")
    arr = np.abs(state.amplitudes.reshape([2] * state.nqubits)) ** 2
    return float(np.take(arr, outcome, axis=state.nqubits - 1 - qubit).sum())


def post_select(state: StateVector, qubit: int, outcome: int) -> tuple[StateVector, float]:
    """Condition on a measurement outcome and drop the measured qubit.

    Returns the renormalized conditional state on the remaining qubits (higher
    indices shift down by one) together with the outcome probability.
    """
    (qubit,) = _check_targets(state, [qubit])
    if state.nqubits < 2:
        raise SizeError("post-selection needs at least two qubits")
    prob = measure_probability(state, qubit, outcome)
    if prob < POSTSELECT_TOL:
        raise ImpossibleOutcomeError(
            f"outcome {outcome} on qubit {qubit} has probability {prob:.3e}"
        )
    arr = state.amplitudes.reshape([2] * state.nqubits)
    kept = np.take(arr, outcome, axis=state.nqubits - 1 - qubit).reshape(-1)
    return StateVector(state.nqubits - 1, kept / np.sqrt(prob)), prob


def marginal(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    """Normalized distribution of the 2^k outcomes on `qubits` (little endian in the list)."""
    qubits = _check_targets(state, qubits)
    k = len(qubits)
    n = state.nqubits
    arr = (np.abs(state.amplitudes) ** 2).reshape([2] * n)
    front = _front_axes(n, qubits)
    moved = np.moveaxis(arr, front, range(k))
    probs = moved.reshape(2**k, -1).sum(axis=1)
    return probs / probs.sum()


def sample(state: StateVector, qubits: Sequence[int], shots: int, rng: RngStream) -> ShotHistogram:
    """Multinomial shot counts of the marginal distribution on `qubits`."""
    probs = marginal(state, qubits)
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    k = len(qubits)
    drawn = rng.generator.multinomial(shots, probs)
    counts = {format(i, f"0{k}b"): int(c) for i, c in enumerate(drawn) if c > 0}
    return ShotHistogram(counts, shots)
