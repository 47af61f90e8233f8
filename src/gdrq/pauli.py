"""Exact algebra of Pauli strings and real-weighted Pauli sums.

Conventions used across the package:

- qubit j indexes bit j of the basis-state integer (little endian);
- an axes string lists qubit 0 first, so "XZ" means X on qubit 0, Z on qubit 1;
- the dense matrix of an n-qubit string equals kron(M_{n-1}, ..., M_1, M_0);
  it is built from the string's bit masks (see masks), not from kron;
- a string is a signed permutation: column c holds one entry, in row c ^ flip.
  Each sum compiles its terms once into a table of those rows and entries
  (permutation_table, PauliSum.table).  Row c ^ flip is its own inverse, so a
  table acts as a gather (permute); apply and the LCU select act through it;
- each term factors as (signed real coefficient) * (phase), with the phase kept
  exactly in {1, i}.  Products track phases through the single-qubit table
  (X*Y = iZ and cyclic), so no rounding ever touches the phase group.

A PauliSum holds its terms as columns: flip masks, Z masks, real
coefficients and phases, built and checked once per sum.  It is kept in
canonical form: duplicate axes merged, zero-weight terms dropped, terms
ordered by (qubit support, axes letters).  PauliSum(n, terms) merges and sorts
PauliTerm objects into the columns; PauliSum.from_canonical takes columns a
closed form already lists in that order (the window operators of encoding),
and makes no per-term object.  Scaling, dropping the identity, the table and
the LCU circuit read the columns; `terms` shows them as PauliTerm objects, for
rendering and for the term-by-term algebra (multiply_sums, dense_matrix).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, TYPE_CHECKING

import numpy as np

from .errors import CapacityError, SizeError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .statevector import StateVector

AXES = "IXYZ"
_AXES_SET = frozenset(AXES)
DENSE_MAX_QUBITS = 12

# Single-qubit product table: _PRODUCT[(a, b)] = (phase, axis) with a*b = phase*axis.
_PRODUCT: dict[tuple[str, str], tuple[complex, str]] = {}
for _a in AXES:
    _PRODUCT[("I", _a)] = (1 + 0j, _a)
    _PRODUCT[(_a, "I")] = (1 + 0j, _a)
for _a, _b, _c in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")):
    _PRODUCT[(_a, _a)] = (1 + 0j, "I")
    _PRODUCT[(_a, _b)] = (1j, _c)
    _PRODUCT[(_b, _a)] = (-1j, _c)
_PRODUCT[("Z", "Z")] = (1 + 0j, "I")

_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string.

    The stored phase is canonicalized to {1, i}; a -1 or -i phase is folded
    into the sign of the real coefficient, so `weight = coefficient * phase`
    is the full complex weight of the string.
    """

    coefficient: float
    axes: str
    phase: complex = 1 + 0j

    def __post_init__(self) -> None:
        if not self.axes or not _AXES_SET.issuperset(self.axes):
            raise ValidationError(f"bad axes string {self.axes!r}")
        if self.phase not in _PHASES:
            raise ValidationError(f"phase must be one of {{1,-1,i,-i}}, got {self.phase!r}")
        coeff = float(self.coefficient)
        if not math.isfinite(coeff):
            raise ValidationError(f"coefficient of {self.axes!r} must be finite, got {coeff}")
        phase = complex(self.phase)
        if phase == -1:
            coeff, phase = -coeff, 1 + 0j
        elif phase == -1j:
            coeff, phase = -coeff, 1j
        object.__setattr__(self, "coefficient", coeff)
        object.__setattr__(self, "phase", phase)

    @property
    def nqubits(self) -> int:
        return len(self.axes)

    @property
    def weight(self) -> complex:
        return self.coefficient * self.phase

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(j for j, ax in enumerate(self.axes) if ax != "I")

    def label(self) -> str:
        """Human-readable string name, e.g. "X0X1" or "I" for the identity."""
        body = "".join(f"{ax}{j}" for j, ax in enumerate(self.axes) if ax != "I")
        return body or "I"

    def matrix(self) -> np.ndarray:
        """Dense matrix of the weighted string from its bit masks (<= 12 qubits).

        Column c holds one entry, weight * i^(Y count) * (-1)^popcount(c & zmask),
        in row c ^ flip.
        """
        if self.nqubits > DENSE_MAX_QUBITS:
            raise CapacityError(f"dense matrix capped at {DENSE_MAX_QUBITS} qubits")
        flip, zmask, n_y = masks(self)
        idx = np.arange(2**self.nqubits, dtype=np.uint64)
        out = np.zeros((idx.size, idx.size), dtype=complex)
        out[idx ^ np.uint64(flip), idx] = self.weight * (1j**n_y) * _signs(idx, zmask)
        return out


def masks(term: PauliTerm) -> tuple[int, int, int]:
    """(flip, zmask, Y count) of a string: X and Y flip a bit, Z and Y read its sign."""
    flip = 0
    zmask = 0
    n_y = 0
    for j, ax in enumerate(term.axes):
        if ax in "XY":
            flip |= 1 << j
        if ax in "ZY":
            zmask |= 1 << j
        if ax == "Y":
            n_y += 1
    return flip, zmask, n_y


def _signs(idx: np.ndarray, zmask: int | np.ndarray) -> np.ndarray:
    """(-1)^popcount(i & zmask) for every basis index i; a column of masks gives a row each."""
    parity = np.bitwise_count(idx & np.asarray(zmask, dtype=np.uint64)) & 1
    return 1.0 - 2.0 * parity


def multiply(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    """Product of two terms with exact phase tracking."""
    if a.nqubits != b.nqubits:
        raise SizeError(f"qubit count mismatch: {a.nqubits} vs {b.nqubits}")
    phase = a.phase * b.phase
    axes = []
    for ax_a, ax_b in zip(a.axes, b.axes):
        ph, ax = _PRODUCT[(ax_a, ax_b)]
        phase *= ph
        axes.append(ax)
    return PauliTerm(a.coefficient * b.coefficient, "".join(axes), phase)


def _merge(nqubits: int, terms: Iterable[PauliTerm]) -> tuple[PauliTerm, ...]:
    weights: dict[str, complex] = {}
    for term in terms:
        if term.nqubits != nqubits:
            raise SizeError(f"term on {term.nqubits} qubits in a {nqubits}-qubit sum")
        weights[term.axes] = weights.get(term.axes, 0j) + term.weight
    merged = []
    for axes, w in weights.items():
        if w == 0:
            continue
        if w.imag == 0.0:
            merged.append(PauliTerm(w.real, axes))
        elif w.real == 0.0:
            merged.append(PauliTerm(w.imag, axes, 1j))
        else:
            # cannot happen for operators built here (Hermitian / ladder algebra)
            raise ValidationError(f"mixed real/imaginary weight {w} on axes {axes!r}")
    merged.sort(key=lambda t: (t.support, t.axes))
    return tuple(merged)


def _axes_of(nqubits: int, flip: int, zmask: int) -> str:
    """The axes string of a term's masks, the inverse of masks."""
    return "".join("IXZY"[(flip >> j & 1) | (zmask >> j & 1) << 1] for j in range(nqubits))


class PauliSum:
    """Canonical sum of Pauli terms on a fixed register size, held as columns.

    Entry i of the tuples `flips` and `zmasks` (see masks), `coefficients`
    (float) and `phases` (exactly 1 or i) describes term i.  PauliSum(n,
    terms) merges and sorts PauliTerm objects into them, and from_canonical
    takes the columns of a closed form as they are.  Two sums are equal when
    their sizes and columns are.
    """

    def __init__(self, nqubits: int, terms: Iterable[PauliTerm] = ()) -> None:
        if nqubits < 1:
            raise ValidationError("nqubits must be >= 1")
        merged = _merge(nqubits, tuple(terms))
        term_masks = [masks(t) for t in merged]
        self._set(
            nqubits,
            tuple(flip for flip, _, _ in term_masks),
            tuple(zmask for _, zmask, _ in term_masks),
            tuple(t.coefficient for t in merged),
            tuple(t.phase for t in merged),
        )

    @classmethod
    def from_canonical(cls, nqubits: int, flips, zmasks, coefficients) -> "PauliSum":
        """The real-weighted sum of the strings with these masks and coefficients.

        The caller lists distinct strings in canonical order, so nothing is
        merged or sorted and no PauliTerm is made.  The three columns must be
        of one length, each mask must lie in [0, 2^n) and no string may repeat,
        so every table row is a permutation.  The coefficients must be finite,
        and a zero one is dropped.
        """
        if nqubits < 1:
            raise ValidationError("nqubits must be >= 1")
        flips, zmasks = tuple(map(int, flips)), tuple(map(int, zmasks))
        coefficients = tuple(map(float, coefficients))
        if not len(flips) == len(zmasks) == len(coefficients):
            lengths = f"{len(flips)}, {len(zmasks)} and {len(coefficients)}"
            raise ValidationError(f"flip masks, Z masks and coefficients number {lengths}")
        for name, column in (("flip", flips), ("Z", zmasks)):
            outside = [mask for mask in column if not 0 <= mask < 1 << nqubits]
            if outside:
                raise ValidationError(f"{name} mask {outside[0]} is outside [0, 2^{nqubits})")
        pairs = list(zip(flips, zmasks))
        if len(set(pairs)) < len(pairs):
            flip, zmask = next(pair for i, pair in enumerate(pairs) if pair in pairs[:i])
            raise ValidationError(f"string {_axes_of(nqubits, flip, zmask)!r} is listed twice")
        if not all(map(math.isfinite, coefficients)):
            j = [math.isfinite(c) for c in coefficients].index(False)
            axes = _axes_of(nqubits, flips[j], zmasks[j])
            raise ValidationError(f"coefficient of {axes!r} must be finite, got {coefficients[j]}")
        phases = (1 + 0j,) * len(coefficients)
        return object.__new__(cls)._set(nqubits, flips, zmasks, coefficients, phases)

    def _set(self, nqubits: int, flips, zmasks, coefficients, phases) -> "PauliSum":
        """Take the canonical columns as this sum's own, less every term whose
        coefficient is zero: dropping terms keeps the order canonical and
        leaves nothing to merge."""
        if not all(coefficients):
            kept = [c != 0.0 for c in coefficients]
            flips, zmasks, coefficients, phases = (
                tuple(itertools.compress(column, kept))
                for column in (flips, zmasks, coefficients, phases)
            )
        self.nqubits = nqubits
        self.flips, self.zmasks = flips, zmasks
        self.coefficients, self.phases = coefficients, phases
        return self

    def _with(self, coefficients: tuple[float, ...], kept=slice(None)) -> "PauliSum":
        """The kept terms (a slice) with these coefficients in place of their own."""
        return object.__new__(PauliSum)._set(
            self.nqubits, self.flips[kept], self.zmasks[kept], coefficients, self.phases[kept]
        )

    def __len__(self) -> int:
        return len(self.coefficients)

    def _key(self) -> tuple:
        return (self.nqubits, self.flips, self.zmasks, self.coefficients, self.phases)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"PauliSum({self.nqubits}, {self.terms!r})"

    @functools.cached_property
    def terms(self) -> tuple[PauliTerm, ...]:
        """The columns as PauliTerm objects, in canonical order, made on first use."""
        return tuple(
            PauliTerm(coefficient, _axes_of(self.nqubits, flip, zmask), phase)
            for flip, zmask, coefficient, phase in zip(
                self.flips, self.zmasks, self.coefficients, self.phases
            )
        )

    def __mul__(self, factor: float) -> "PauliSum":
        """The sum scaled by a finite real factor.

        Scaling changes no axes and no phase, so the canonical order holds and
        nothing needs merging; only a term whose product is exactly zero (a
        zero factor, or underflow) is dropped.
        """
        if isinstance(factor, complex):
            raise ValidationError("scalar factors must be real")
        factor = float(factor)
        if not math.isfinite(factor):
            raise ValidationError(f"scalar factors must be finite, got {factor}")
        coefficients = tuple(c * factor for c in self.coefficients)
        if not all(map(math.isfinite, coefficients)):
            label = self.terms[[math.isfinite(c) for c in coefficients].index(False)].label()
            raise ValidationError(f"scaling {label} by {factor} overflows")
        return self._with(coefficients)

    __rmul__ = __mul__

    def _has_identity(self) -> bool:
        """Whether the sum holds the identity string, which sorts first when it does."""
        return len(self) > 0 and self.flips[0] == 0 and self.zmasks[0] == 0

    def identity_coefficient(self) -> float:
        if not self._has_identity():
            return 0.0
        if self.phases[0] != 1:
            raise ValidationError("identity term with imaginary weight")
        return self.coefficients[0]

    def without_identity(self) -> "PauliSum":
        """The sum less its identity term, the other terms kept as they are."""
        if not self._has_identity():
            return self
        return self._with(self.coefficients[1:], slice(1, None))

    def is_real_weighted(self) -> bool:
        return all(phase == 1 for phase in self.phases)

    def render(self) -> str:
        """Fixed-format text form, e.g. "6.000*I - 0.750*Z0 - ..."."""
        if not self.terms:
            return "0"
        parts = []
        for k, t in enumerate(self.terms):
            unit = "" if t.phase == 1 else "i"
            body = f"{abs(t.coefficient):.3f}{unit}*{t.label()}"
            if k == 0:
                parts.append(f"-{body}" if t.coefficient < 0 else body)
            else:
                parts.append(f"{'-' if t.coefficient < 0 else '+'} {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()

    @functools.cached_property
    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """The sum's signed-permutation table (see permutation_table), compiled on first use."""
        return permutation_table(self)


def permutation_table(op: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """(rows, values) of a sum's terms as signed permutations, read-only (k, 2^n) arrays.

    Term i sends column c to row rows[i, c] = c ^ flip_i with entry
    values[i, c] = weight_i * i^(Y count) * (-1)^popcount(c & zmask_i), the
    same product that PauliTerm.matrix writes into its one entry per column.
    """
    idx = np.arange(2**op.nqubits, dtype=np.uint64)
    columns = zip(op.flips, op.zmasks, op.coefficients, op.phases)
    phases = np.array([c * ph * 1j ** (f & z).bit_count() for f, z, c, ph in columns], complex)
    rows = (idx ^ np.array(op.flips, dtype=np.uint64)[:, None]).astype(np.intp)
    values = phases[:, None] * _signs(idx, np.array(op.zmasks, dtype=np.uint64)[:, None])
    rows.flags.writeable = values.flags.writeable = False
    return rows, values


def multiply_sums(a: PauliSum, b: PauliSum) -> PauliSum:
    """Operator product of two sums: all pairwise term products, merged."""
    if a.nqubits != b.nqubits:
        raise SizeError(f"qubit count mismatch: {a.nqubits} vs {b.nqubits}")
    return PauliSum(a.nqubits, tuple(multiply(ta, tb) for ta in a.terms for tb in b.terms))


def dense_matrix(op: PauliSum) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the sum: its terms' bit-mask matrices added (<= 12 qubits)."""
    if op.nqubits > DENSE_MAX_QUBITS:
        raise CapacityError(f"dense matrix capped at {DENSE_MAX_QUBITS} qubits")
    dim = 2**op.nqubits
    out = np.zeros((dim, dim), dtype=complex)
    for term in op.terms:
        out += term.matrix()
    return out


def permute(rows: np.ndarray, entries: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Block i of a (k, d) table, column c to row rows[i, c] with entries[i, c],
    applied to amps[..., i, :] (or to a single row for every block): rows are
    their own inverse, so output r is the one product at c = rows[i, r]."""
    return (entries * amps)[..., np.arange(len(rows))[:, None], rows]


def apply(op: PauliSum, state: "StateVector") -> "StateVector":
    """Apply the sum to a statevector, or to each row of a batch: sum_i w_i U_i |s>,
    possibly unnormalized.

    Every term's image is gathered from the table (see permute), and the
    images are added up in term order.
    """
    from .statevector import StateVector

    if op.nqubits != state.nqubits:
        raise SizeError(f"operator on {op.nqubits} qubits, state on {state.nqubits}")
    images = permute(*op.table, state.amplitudes[..., None, :])
    out = np.zeros_like(state.amplitudes)
    for term in range(len(op)):
        out += images[..., term, :]
    return StateVector(state.nqubits, out)
