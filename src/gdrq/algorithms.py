"""Circuit-level estimation primitives.

The quantum plan calls three of them: LcuCircuit applies a Pauli sum as a
linear combination of unitaries, swap_statistics simulates SWAP tests, and
LcuOverlap turns the numbers of both into an energy or a strength.
swap_test, lcu_apply and energy_expectation are one-shot wrappers that build
and use these once.  An estimator that takes a numpy Generator draws every
classically random step (post-selection attempts, shot histograms) from it,
modelling a finite-shot experiment; given None instead, it returns the
analytic values read off the simulated amplitudes, with zero variance.

All circuits place ancillas above the system register and remove them again by
post-selection, so callers only ever see system-sized states.  The random
steps read a circuit only through numbers it yields once (a success
probability, an ancilla distribution).  replay_post_selection, SwapStatistics
and LcuOverlap draw from those numbers; the primitives below use them on a
fresh circuit, and a caller that repeats a circuit under many seeds simulates
it once and keeps them.  An LcuOverlap also fixes its replay's budget and
block size when it is made.  The SWAP test's ancilla has two outcomes, so its
shots are one binomial draw: the first count numpy's multinomial draws, with
the generator left where the multinomial leaves it.  Likewise an LcuCircuit
depends only on its operator: its prepare reflection and its select, the
operator's own table, are checked once, then applied to as many states as
needed.  The circuits take a batch of states (see StateVector) as they take
one, so a caller simulates all the states of one circuit in one call, and
all its SWAP tests in another.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from . import pauli as pl
from .errors import (
    AnnihilatedStateError,
    ImpossibleOutcomeError,
    PreparationError,
    SizeError,
    ValidationError,
)
from .statevector import POSTSELECT_TOL, StateVector, Unitaries, check_unit_moduli

MAX_ATTEMPTS = 1000
# the Bernoulli post-selection replay runs out of attempts at most this often
_EXHAUST_PROBABILITY = 1e-12

# bytes of register one SWAP-test pass simulates: a larger temporary is served
# from freshly mapped pages on every pass, and their faults cost more than
# further passes do
_SWAP_PASS_BYTES = 2**16

_HADAMARD = Unitaries(np.array([[[1, 1], [1, -1]]], dtype=complex) / np.sqrt(2.0))


@dataclass(frozen=True)
class OverlapEstimate:
    """Squared-overlap estimate from a SWAP test."""

    raw: float
    clamped: float
    standard_error: float


@dataclass(frozen=True)
class LcuResult:
    """Normalized A|psi>/||A|psi>|| with the all-zero ancilla probability, per row of a batch."""

    state: StateVector
    success_probability: float | np.ndarray
    lam: float


def _replay_block(p_success: float, budget: int) -> int:
    """Draws per block of a replay: two expected waits, at least 16, at most 4096."""
    return min(budget, 4096, max(16, math.ceil(2.0 / p_success)))


def replay_limits(p_success: float) -> tuple[int, int]:
    """(budget, block) of a post-selection replay at `p_success`, fixed by it alone.

    The budget is at least MAX_ATTEMPTS and grows like 1/p_success, so that
    running out has probability below 1e-12 per replay.
    """
    budget = MAX_ATTEMPTS
    if p_success < 1.0:
        budget = max(budget, math.ceil(math.log(_EXHAUST_PROBABILITY) / math.log1p(-p_success)))
    return budget, _replay_block(p_success, budget)


def replay_post_selection(
    p_success: float, rng: np.random.Generator, limits: tuple[int, int]
) -> int:
    """Bernoulli post-selection attempts up to and including the first success.

    `limits` is replay_limits(p_success).  Attempts are drawn in blocks;
    `random(n)` gives the same doubles as n scalar draws, and the generator is
    wound back to just after the first success, so it ends where a
    draw-by-draw loop would and the next draw on it is the same.
    """
    budget, block = limits
    drawn = 0
    while drawn < budget:
        size = min(block, budget - drawn)
        below = rng.random(size) < p_success
        k = int(below.argmax())
        if below[k]:
            if k + 1 < size:
                rng.bit_generator.advance(k + 1 - size)
            return drawn + k + 1
        drawn += size
    raise PreparationError(f"LCU post-selection failed {budget} times (p = {p_success:.3e})")


@dataclass(frozen=True)
class SwapStatistics:
    """Ancilla statistics of one simulated SWAP-test circuit, or one per row of a batch.

    p0 is the exact probability that the ancilla reads |0>, marginal the
    normalized ancilla distribution that shots are drawn from; a batch's are
    arrays with one leading entry per row.  `estimate` reads the statistics
    of one circuit.
    """

    p0: float | np.ndarray
    marginal: np.ndarray

    def estimate(self, shots: int, rng: np.random.Generator | None = None) -> OverlapEstimate:
        """Overlap from p0 (no generator) or from `shots` draws on `rng` (see zero_count)."""
        if rng is None:
            raw = 2.0 * self.p0 - 1.0
            return OverlapEstimate(raw=raw, clamped=_clamp(raw), standard_error=0.0)
        k0 = self.zero_count(shots, rng)
        raw = 2.0 * k0 / shots - 1.0
        smoothed = (k0 + 1.0) / (shots + 2.0)
        se = 2.0 * math.sqrt(smoothed * (1.0 - smoothed) / shots)
        return OverlapEstimate(raw=raw, clamped=_clamp(raw), standard_error=se)

    def zero_count(self, shots: int, rng: np.random.Generator) -> int:
        """Of `shots` SWAP-test shots on `rng`, those whose ancilla reads |0>.

        The ancilla has two outcomes, and numpy's multinomial draws its first
        count as binomial(shots, marginal[0] / 1.0): this is that draw, with
        the same count and the generator left in the same state.
        """
        if shots < 1:
            raise ValidationError("a sampled SWAP test needs shots >= 1")
        return rng.binomial(shots, self.marginal[0])


def _clamp(raw: float) -> float:
    """A raw overlap estimate clamped to [0, 1]."""
    return min(max(raw, 0.0), 1.0)


def swap_statistics(psi: StateVector, phi: StateVector) -> SwapStatistics:
    """Simulate the SWAP-test circuit of psi and phi once, or of each row pair
    of two batches.

    The ladder of controlled SWAPs (qubit j with n + j, controlled by the
    ancilla) exchanges the two registers where the ancilla reads 1, so it is
    applied as the transpose of that half of the amplitudes: a permutation,
    exact to the bit.  The amplitudes are squared once: p0 is the first
    outcome weight of the ancilla, before the weights are normalized.  A batch
    is simulated a few rows at a time, each row as it would be alone, so that
    no temporary outgrows _SWAP_PASS_BYTES.
    """
    if psi.amplitudes.shape != phi.amplitudes.shape:
        raise SizeError(
            f"swap test requires states of one shape, got {psi.amplitudes.shape} and "
            f"{phi.amplitudes.shape}"
        )
    n = psi.nqubits
    psi_rows, phi_rows = (state.amplitudes.reshape(-1, 2**n) for state in (psi, phi))
    # rows per pass, so that each pass's (rows, 2^(2n+1)) registers fit in _SWAP_PASS_BYTES
    step = max(1, _SWAP_PASS_BYTES // (16 * 2 ** (2 * n + 1)))
    passes = [
        _swap_weights(n, psi_rows[i : i + step], phi_rows[i : i + step])
        for i in range(0, len(psi_rows), step)
    ]
    weights = np.concatenate(passes).reshape(*psi.amplitudes.shape[:-1], 2)
    return SwapStatistics(
        p0=np.take(weights, 0, axis=-1), marginal=weights / weights.sum(axis=-1, keepdims=True)
    )


def _swap_weights(n: int, psi_rows: np.ndarray, phi_rows: np.ndarray) -> np.ndarray:
    """The ancilla's two outcome weights after the SWAP-test circuit of each
    row pair of two (rows, 2^n) batches.

    The register is laid out as (row, ancilla, phi register, psi register),
    the ancilla being the top qubit: its |0> half holds each row pair's
    product state and its |1> half starts at zero.  Each Hadamard is one
    matmul over the ancilla axis.
    """
    hadamard = _HADAMARD.blocks[0]
    register = np.zeros((len(psi_rows), 2, 2**n, 2**n), dtype=complex)
    np.multiply(phi_rows[:, :, None], psi_rows[:, None, :], out=register[:, 0])
    halves = (hadamard @ register.reshape(len(register), 2, -1)).reshape(register.shape)
    laddered = np.stack([halves[:, 0], halves[:, 1].transpose(0, 2, 1)], axis=1)
    out = hadamard @ laddered.reshape(len(laddered), 2, -1)
    return (np.abs(out) ** 2).sum(axis=-1)


def swap_test(
    psi: StateVector, phi: StateVector, shots: int, rng: np.random.Generator | None = None
) -> OverlapEstimate:
    """Estimate |<psi|phi>|^2 via the SWAP test.

    The ancilla's |0> probability is (1 + |<psi|phi>|^2) / 2; the raw estimate
    2*p0 - 1 can leave [0, 1] at finite shots, so a clamped copy is reported
    alongside.  The standard error uses the add-one (Laplace) rate, keeping it
    positive at extreme counts.  With no generator, shots is ignored and the
    error is zero.
    """
    return swap_statistics(psi, phi).estimate(shots, rng)


class LcuCircuit:
    """Prepare-select-unprepare circuit of a real-weighted Pauli sum A.

    Over max(1, ceil(log2 k)) ancillas for k terms: the prepare unitary loads
    sqrt(|c_i| / lambda), the select applies sign(c_i) * P_i on ancilla
    pattern i, and post-selecting all ancillas on |0> leaves A|psi>/||A|psi>||
    with success probability ||A|psi>||^2 / lambda^2, lambda = sum |c_i|.
    None of this depends on the state, so it is built and checked once, and
    kept read-only.  The prepare is a real symmetric reflection
    (Unitaries.reflection), so it unprepares as well.  Each P_i is a signed
    permutation, so the select is the operator's table (PauliSum.table):
    its `rows`, and its entries over each term's weight times its sign,
    `entries`, checked to have modulus one; no dense block is made.
    """

    __slots__ = ("op", "lam", "n_ancillas", "prepare", "rows", "entries")

    def __init__(self, op: pl.PauliSum) -> None:
        if not op.is_real_weighted():
            raise ValidationError("LCU needs a real-weighted (Hermitian-combination) Pauli sum")
        if len(op) == 0:
            raise AnnihilatedStateError("empty operator annihilates every state")
        magnitudes = [abs(c) for c in op.coefficients]
        # a select block divides by the weight; below the smallest normal
        # double (numpy's finfo(float).tiny), 1 / weight can overflow
        if min(magnitudes) < sys.float_info.min:
            t = next(t for t in op.terms if abs(t.coefficient) < sys.float_info.min)
            raise ValidationError(
                f"LCU cannot load the subnormal coefficient {t.coefficient!r} of {t.label()}"
            )
        self.op = op
        # added left to right: the builtin sum() of floats compensates its
        # rounding since Python 3.12, which would move lambda's last bits
        self.lam = functools.reduce(operator.add, magnitudes, 0.0)
        # the success probability divides by lambda**2, which must not overflow
        if not math.isfinite(self.lam * self.lam):
            raise ValidationError(f"LCU weight sum lambda = {self.lam!r} overflows when squared")
        k = len(op)
        na = self.n_ancillas = max(1, (k - 1).bit_length())
        amps = np.zeros(2**na)
        amps[:k] = np.sqrt(np.array(magnitudes) / self.lam)
        self.prepare = Unitaries.reflection(amps)
        # block i holds term i's table entries / w_i * sign(c_i) in its permuted rows
        self.rows, values = op.table
        weights = np.array([c * phase for c, phase in zip(op.coefficients, op.phases)])
        signs = np.sign(op.coefficients)
        # a non-finite entry of a corrupted table divides to a NaN part, which the check refuses
        with np.errstate(invalid="ignore"):
            self.entries = values / weights[:, None] * signs[:, None]
        check_unit_moduli(self.entries)
        self.entries.flags.writeable = False

    def apply(self, psi: StateVector) -> LcuResult:
        """Run the circuit on psi, or on each row of a batch in one pass, and
        post-select every ancilla on |0>.

        The reported probability is ||A|psi>||^2 / lambda^2, with A|psi> from
        pauli.apply and its squared norm from np.vdot, row by row; the product
        of the circuit's post-selection probabilities is checked against it.
        Any row that A annihilates fails the whole call.
        """
        if self.op.nqubits != psi.nqubits:
            raise SizeError(f"operator on {self.op.nqubits} qubits, state on {psi.nqubits}")
        images = pl.apply(self.op, psi).amplitudes
        nrm2 = np.array([np.vdot(row, row).real for row in images.reshape(-1, images.shape[-1])])
        p_success = nrm2.reshape(images.shape[:-1]) / self.lam**2
        if (p_success < POSTSELECT_TOL).any():
            raise AnnihilatedStateError(
                f"operator annihilates the state (p = {p_success.min():.3e})"
            )
        n, na = psi.nqubits, self.n_ancillas
        batch = psi.amplitudes.shape[:-1]
        prepare, k = self.prepare.blocks[0], len(self.rows)
        # axes (*batch, ancilla pattern, system index): the ancillas are the
        # top qubits, so only pattern 0 holds psi, and the prepare sends it to
        # its first column times psi
        register = prepare[:, :1] * psi.amplitudes[..., None, :]
        # block i on pattern i's slice; the patterns beyond the table are left as they are
        register[..., :k, :] = pl.permute(self.rows, self.entries, register[..., :k, :])
        amplitudes = (prepare @ register).reshape(*batch, -1)
        total = 1.0
        # the top ancilla reads |0> on the leading half of the register
        for anc in reversed(range(n, n + na)):
            kept = amplitudes[..., : 2**anc]
            prob = (np.abs(kept) ** 2).sum(axis=-1)
            if (prob < POSTSELECT_TOL).any():
                raise ImpossibleOutcomeError(
                    f"outcome 0 on qubit {anc} has probability {prob.min():.3e}"
                )
            amplitudes = kept / np.sqrt(prob)[..., None]
            total *= prob
        assert np.all(np.abs(total - p_success) < 1e-9)
        return LcuResult(
            state=StateVector(n, amplitudes), success_probability=p_success, lam=self.lam
        )


def lcu_apply(op: pl.PauliSum, psi: StateVector) -> LcuResult:
    """Apply a real-weighted Pauli sum to psi as a linear combination of unitaries."""
    return LcuCircuit(op).apply(psi)


@dataclass(frozen=True)
class LcuOverlap:
    """Seed-free numbers of an LCU application followed by a SWAP test.

    The replay limits of its success probability are computed once, here.
    """

    lam: float
    p_success: float
    swap: SwapStatistics
    limits: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "limits", replay_limits(self.p_success))

    def energy(self, shots: int, rng: np.random.Generator | None) -> float:
        """|<psi|A|psi>| = lambda * sqrt(p_success) * |<psi|chi>|, as one repeat
        of the experiment measures it.

        With no generator, the analytic value.  Otherwise every draw is from
        `rng`: the post-selection replay, whose attempt count nothing reads,
        then the SWAP shots and `shots` Bernoulli draws that re-estimate the
        success rate.
        """
        if rng is None:
            p_hat, overlap = self.p_success, self.swap.estimate(shots).clamped
        else:
            replay_post_selection(self.p_success, rng, self.limits)
            k0 = self.swap.zero_count(shots, rng)
            p_hat = rng.binomial(shots, self.p_success) / shots
            overlap = _clamp(2.0 * k0 / shots - 1.0)
        return self.lam * math.sqrt(p_hat) * math.sqrt(overlap)


def energy_expectation(
    op: pl.PauliSum, psi: StateVector, shots: int, rng: np.random.Generator | None = None
) -> float:
    """|<psi|A|psi>| from the LCU success rate and a SWAP test.

    |<psi|A|psi>| = lambda * sqrt(p_success) * |<psi|chi>| with chi the LCU
    output; given a generator, the success rate is re-estimated from `shots`
    Bernoulli draws so both factors carry shot noise.
    """
    result = LcuCircuit(op).apply(psi)
    swap = swap_statistics(psi, result.state)
    return LcuOverlap(result.lam, result.success_probability, swap).energy(shots, rng)
