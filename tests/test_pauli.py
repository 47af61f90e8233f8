"""Unit tests for the exact Pauli-string algebra."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdrq import pauli as pl
from gdrq.algorithms import LcuCircuit
from gdrq.errors import CapacityError, SizeError, ValidationError
from gdrq.statevector import StateVector
from oracles import select_stack

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_oracle(axes: str) -> np.ndarray:
    """Independent dense matrix: qubit 0 is the last kron factor."""
    out = np.array([[1.0 + 0j]])
    for ax in reversed(axes):
        out = np.kron(out, SINGLE[ax])
    return out


axes_strings = st.text(alphabet="IXYZ", min_size=1, max_size=4)
coefficients = st.floats(
    min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
).filter(lambda c: abs(c) > 1e-6)


@st.composite
def pauli_terms(draw, nqubits: int | None = None):
    n = nqubits if nqubits is not None else draw(st.integers(1, 4))
    axes = draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
    coeff = draw(coefficients)
    phase = draw(st.sampled_from([1 + 0j, -1 + 0j, 1j, -1j]))
    return pl.PauliTerm(coeff, axes, phase)


class TestPauliTerm:
    def test_phase_canonicalization_folds_sign(self):
        t = pl.PauliTerm(2.0, "X", -1 + 0j)
        assert t.coefficient == -2.0
        assert t.phase == 1 + 0j
        t = pl.PauliTerm(2.0, "X", -1j)
        assert t.coefficient == -2.0
        assert t.phase == 1j

    @given(pauli_terms())
    def test_weight_survives_canonicalization(self, term):
        rebuilt = pl.PauliTerm(term.coefficient, term.axes, term.phase)
        assert rebuilt.weight == term.weight

    def test_support_and_label(self):
        t = pl.PauliTerm(1.0, "IXIZ")
        assert t.support == (1, 3)
        assert t.label() == "X1Z3"
        assert pl.PauliTerm(1.0, "III").label() == "I"

    @given(pauli_terms())
    def test_matrix_matches_kron_oracle(self, term):
        assert np.array_equal(term.matrix(), term.weight * kron_oracle(term.axes))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matrix_equals_kron_oracle_on_every_string(self, n):
        for axes in itertools.product("IXYZ", repeat=n):
            for term in (pl.PauliTerm(-1.5, "".join(axes)), pl.PauliTerm(0.75, "".join(axes), 1j)):
                assert np.array_equal(term.matrix(), term.weight * kron_oracle(term.axes))

    def test_masks(self):
        # axes list qubit 0 first: X on 0, Y on 1, Z on 2
        assert pl.masks(pl.PauliTerm(1.0, "XYZI")) == (0b0011, 0b0110, 1)
        assert pl.masks(pl.PauliTerm(1.0, "IIII")) == (0, 0, 0)

    def test_bad_axes_rejected(self):
        with pytest.raises(ValidationError):
            pl.PauliTerm(1.0, "XQ")
        with pytest.raises(ValidationError):
            pl.PauliTerm(1.0, "")

    @pytest.mark.parametrize("coefficient", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, coefficient):
        message = rf"^coefficient of 'XZ' must be finite, got {coefficient}$"
        with pytest.raises(ValidationError, match=message):
            pl.PauliTerm(coefficient, "XZ")

    def test_bad_phase_rejected(self):
        with pytest.raises(ValidationError):
            pl.PauliTerm(1.0, "X", 0.5 + 0.5j)

    def test_dense_capacity_capped(self):
        with pytest.raises(CapacityError):
            pl.PauliTerm(1.0, "I" * 13).matrix()


class TestMultiply:
    def test_single_qubit_table_golden(self):
        xy = pl.multiply(pl.PauliTerm(1.0, "X"), pl.PauliTerm(1.0, "Y"))
        assert xy.axes == "Z" and xy.weight == 1j
        yx = pl.multiply(pl.PauliTerm(1.0, "Y"), pl.PauliTerm(1.0, "X"))
        assert yx.axes == "Z" and yx.weight == -1j
        zz = pl.multiply(pl.PauliTerm(1.0, "Z"), pl.PauliTerm(1.0, "Z"))
        assert zz.axes == "I" and zz.weight == 1 + 0j

    @given(pauli_terms(nqubits=3), pauli_terms(nqubits=3))
    def test_product_matches_matrix_product(self, a, b):
        prod = pl.multiply(a, b)
        assert np.allclose(prod.matrix(), a.matrix() @ b.matrix())

    @given(pauli_terms(nqubits=2), pauli_terms(nqubits=2), pauli_terms(nqubits=2))
    def test_associativity(self, a, b, c):
        left = pl.multiply(pl.multiply(a, b), c)
        right = pl.multiply(a, pl.multiply(b, c))
        assert left.axes == right.axes
        assert np.isclose(left.weight, right.weight)

    def test_size_mismatch_rejected(self):
        with pytest.raises(SizeError):
            pl.multiply(pl.PauliTerm(1.0, "X"), pl.PauliTerm(1.0, "XX"))


class TestPauliSum:
    def test_duplicates_merge_and_zeros_drop(self):
        s = pl.PauliSum(
            1, (pl.PauliTerm(1.0, "X"), pl.PauliTerm(2.0, "X"), pl.PauliTerm(-3.0, "X"))
        )
        assert len(s) == 0
        s = pl.PauliSum(1, (pl.PauliTerm(1.0, "X"), pl.PauliTerm(0.5, "X")))
        assert len(s) == 1
        assert s.terms[0].coefficient == 1.5

    def test_terms_sorted_by_support_then_axes(self):
        s = pl.PauliSum(
            2,
            (
                pl.PauliTerm(1.0, "IZ"),
                pl.PauliTerm(1.0, "XI"),
                pl.PauliTerm(1.0, "II"),
                pl.PauliTerm(1.0, "IX"),
            ),
        )
        # "XI" acts on qubit 0, so it sorts before the qubit-1 terms
        assert [t.axes for t in s.terms] == ["II", "XI", "IX", "IZ"]

    def test_mixed_weight_rejected(self):
        with pytest.raises(ValidationError):
            pl.PauliSum(1, (pl.PauliTerm(1.0, "X"), pl.PauliTerm(1.0, "X", 1j)))

    def test_scalar_multiplication_real_only(self):
        s = pl.PauliSum(1, (pl.PauliTerm(2.0, "Z"),))
        assert (s * 0.5).terms[0].coefficient == 1.0
        assert (0.5 * s).terms[0].coefficient == 1.0
        with pytest.raises(ValidationError):
            s * 1j

    @pytest.mark.parametrize("factor", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_factor_rejected(self, factor):
        s = pl.PauliSum(1, (pl.PauliTerm(2.0, "Z"),))
        with pytest.raises(ValidationError, match="must be finite") as err:
            s * factor
        assert "\n" not in str(err.value)

    def test_overflowing_product_rejected(self):
        s = pl.PauliSum(1, (pl.PauliTerm(1e300, "Z"),))
        with pytest.raises(ValidationError, match="overflows"):
            s * 1e10
        with pytest.raises(ValidationError):
            pl.PauliSum(1, (pl.PauliTerm(1e300 * 1e10, "Z"),))

    @pytest.mark.parametrize("factor", [0.0, -0.0, 1e-400])
    def test_zero_products_give_the_empty_sum(self, factor):
        s = pl.PauliSum(2, (pl.PauliTerm(1.0, "XI"), pl.PauliTerm(0.5, "ZZ", 1j)))
        assert (s * factor).terms == ()
        assert s * factor == pl.PauliSum(2)

    def test_subnormal_products_are_kept(self):
        s = pl.PauliSum(2, (pl.PauliTerm(1.0, "XI"), pl.PauliTerm(-0.5, "ZZ", 1j)))
        scaled = s * 1e-320
        assert [t.coefficient for t in scaled.terms] == [1e-320, -0.5 * 1e-320]
        assert 0.0 < abs(scaled.terms[1].coefficient) < np.finfo(float).tiny

    @given(
        st.dictionaries(
            st.text(alphabet="IXYZ", min_size=3, max_size=3),
            st.tuples(coefficients, st.sampled_from([1 + 0j, 1j])),
            max_size=8,
        ),
        st.sampled_from([2.5, -1.0, 1 / 3, -7e-5, 1e-310, 3e-322, 1e200, 5e-324]),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_equals_merged_sum(self, raw, factor):
        """Scaling keeps the canonical order: it equals the merge of the scaled terms."""
        s = pl.PauliSum(3, tuple(pl.PauliTerm(c, axes, ph) for axes, (c, ph) in raw.items()))
        scaled = s * factor
        merged = pl.PauliSum(
            3, tuple(pl.PauliTerm(t.coefficient * factor, t.axes, t.phase) for t in s.terms)
        )
        assert scaled == merged
        assert [(t.coefficient, t.axes, t.phase) for t in scaled.terms] == [
            (t.coefficient, t.axes, t.phase) for t in merged.terms
        ]
        assert [math.copysign(1.0, t.coefficient) for t in scaled.terms] == [
            math.copysign(1.0, t.coefficient) for t in merged.terms
        ]

    def test_identity_helpers(self):
        s = pl.PauliSum(2, (pl.PauliTerm(3.0, "II"), pl.PauliTerm(1.0, "ZI")))
        assert s.identity_coefficient() == 3.0
        assert s.without_identity().terms[0].axes == "ZI"
        assert pl.PauliSum(2).identity_coefficient() == 0.0

    @given(
        st.dictionaries(
            st.text(alphabet="IXYZ", min_size=3, max_size=3),
            st.tuples(coefficients, st.sampled_from([1 + 0j, 1j])),
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_without_identity_equals_merged_sum(self, raw):
        """Dropping the identity keeps the canonical order: the kept terms equal
        the merge of the sum's other terms, term for term."""
        s = pl.PauliSum(3, tuple(pl.PauliTerm(c, axes, ph) for axes, (c, ph) in raw.items()))
        stripped = s.without_identity()
        merged = pl.PauliSum(3, tuple(t for t in s.terms if t.axes != "III"))
        assert stripped == merged
        assert [(t.coefficient, t.axes, t.phase) for t in stripped.terms] == [
            (t.coefficient, t.axes, t.phase) for t in merged.terms
        ]
        assert [math.copysign(1.0, t.coefficient) for t in stripped.terms] == [
            math.copysign(1.0, t.coefficient) for t in merged.terms
        ]

    @given(
        st.dictionaries(
            st.text(alphabet="IXYZ", min_size=3, max_size=3),
            st.tuples(coefficients, st.sampled_from([1 + 0j, 1j])),
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_terms_view_rebuilds_the_columns(self, raw):
        """`terms` reads the columns back as the canonical PauliTerm objects
        they were merged from, and merging those again changes no column."""
        s = pl.PauliSum(3, tuple(pl.PauliTerm(c, axes, ph) for axes, (c, ph) in raw.items()))
        assert [pl.masks(t)[:2] for t in s.terms] == list(zip(s.flips, s.zmasks))
        assert tuple(t.coefficient for t in s.terms) == s.coefficients
        assert tuple(t.phase for t in s.terms) == s.phases
        assert pl.PauliSum(3, s.terms) == s

    def test_from_canonical_takes_the_columns_as_they_are(self):
        """Columns listed in canonical order make the sum the merge makes, a
        zero coefficient dropped; a non-finite one is refused by name."""
        op = pl.PauliSum.from_canonical(2, [0, 1, 3], [0, 0, 3], [1.5, 0.0, -0.25])
        assert op == pl.PauliSum(2, (pl.PauliTerm(-0.25, "YY"), pl.PauliTerm(1.5, "II")))
        assert op.is_real_weighted() and len(op) == 2
        with pytest.raises(ValidationError, match=r"^coefficient of 'YY' must be finite, got nan$"):
            pl.PauliSum.from_canonical(2, [0, 3], [0, 3], [1.0, math.nan])

    @pytest.mark.parametrize(
        "flips, zmasks, message",
        [
            ([4], [0], r"^flip mask 4 is outside \[0, 2\^2\)$"),
            ([0, 1], [0, 8], r"^Z mask 8 is outside \[0, 2\^2\)$"),
            ([-1], [0], r"^flip mask -1 is outside \[0, 2\^2\)$"),
            ([0], [-2], r"^Z mask -2 is outside \[0, 2\^2\)$"),
        ],
        ids=["flip-4", "z-8", "flip-negative", "z-negative"],
    )
    def test_from_canonical_refuses_masks_outside_the_register(self, flips, zmasks, message):
        """A mask outside [0, 2^n) names no string on n qubits: its table row
        would leave the register, so it is refused in one line."""
        with pytest.raises(ValidationError, match=message):
            pl.PauliSum.from_canonical(2, flips, zmasks, [1.0] * len(flips))

    @pytest.mark.parametrize(
        "flips, zmasks, coefficients",
        [([0, 1], [0], [1.0]), ([0], [0, 1], [1.0]), ([0, 1], [0, 1], [1.0])],
        ids=["short-z", "short-flips", "short-coefficients"],
    )
    def test_from_canonical_refuses_ragged_columns(self, flips, zmasks, coefficients):
        """Columns zipped term by term would drop the unmatched entries from
        some readers (render) and not from others (the table)."""
        lengths = f"{len(flips)}, {len(zmasks)} and {len(coefficients)}"
        message = rf"^flip masks, Z masks and coefficients number {lengths}$"
        with pytest.raises(ValidationError, match=message):
            pl.PauliSum.from_canonical(2, flips, zmasks, coefficients)

    def test_from_canonical_refuses_a_repeated_string(self):
        """A string listed twice would give the table a repeated row per column
        of its pair, so it is refused by name, even when one copy's coefficient
        is zero; the same masks on another string are fine."""
        for coefficients in ([1.0, 2.0, 3.0], [1.0, 2.0, 0.0]):
            with pytest.raises(ValidationError, match=r"^string 'YY' is listed twice$"):
                pl.PauliSum.from_canonical(2, [3, 1, 3], [3, 0, 3], coefficients)
        op = pl.PauliSum.from_canonical(2, [3, 3], [0, 3], [1.0, 2.0])
        assert [t.axes for t in op.terms] == ["XX", "YY"]

    def test_wide_registers_keep_their_terms(self):
        """The mask columns hold Python integers, so a sum wider than 64 qubits
        keeps its terms as the merge made them."""
        wide = pl.PauliSum(70, (pl.PauliTerm(1.0, "Y" * 70), pl.PauliTerm(2.0, "I" * 69 + "Z")))
        # support (0, ..., 69) sorts before (69,)
        assert wide.flips == (2**70 - 1, 0) and wide.zmasks == (2**70 - 1, 2**69)
        assert [t.axes for t in wide.terms] == ["Y" * 70, "I" * 69 + "Z"]

    def test_predicates(self):
        diag = pl.PauliSum(2, (pl.PauliTerm(1.0, "ZI"), pl.PauliTerm(1.0, "IZ")))
        assert diag.is_real_weighted()
        imag = pl.PauliSum(2, (pl.PauliTerm(1.0, "YI", 1j),))
        assert not imag.is_real_weighted()

    def test_render_golden(self):
        s = pl.PauliSum(
            2, (pl.PauliTerm(1.5, "II"), pl.PauliTerm(-0.25, "ZI"), pl.PauliTerm(0.5, "XY"))
        )
        assert s.render() == "1.500*I - 0.250*Z0 + 0.500*X0Y1"
        assert pl.PauliSum(2).render() == "0"
        assert str(s) == s.render()

    def test_render_leading_negative_and_imaginary_unit(self):
        s = pl.PauliSum(1, (pl.PauliTerm(-2.0, "Z"),))
        assert s.render() == "-2.000*Z0"
        s = pl.PauliSum(1, (pl.PauliTerm(0.5, "Y", 1j),))
        assert s.render() == "0.500i*Y0"

    @given(
        st.lists(
            st.tuples(coefficients, st.text(alphabet="IXYZ", min_size=2, max_size=2)),
            min_size=0,
            max_size=5,
        )
    )
    def test_dense_matrix_is_sum_of_term_matrices(self, raw):
        terms = tuple(pl.PauliTerm(c, axes) for c, axes in raw)
        s = pl.PauliSum(2, terms)
        oracle = sum((t.matrix() for t in terms), np.zeros((4, 4), dtype=complex))
        assert np.allclose(pl.dense_matrix(s), oracle)

    def test_merged_and_multiplied_sums_match_dense(self):
        a = pl.PauliSum(2, (pl.PauliTerm(1.0, "XI"), pl.PauliTerm(0.5, "IZ")))
        b = pl.PauliSum(2, (pl.PauliTerm(2.0, "ZI"), pl.PauliTerm(1.0, "II")))
        merged = pl.PauliSum(2, a.terms + b.terms)
        assert np.allclose(pl.dense_matrix(merged), pl.dense_matrix(a) + pl.dense_matrix(b))
        prod = pl.multiply_sums(a, b)
        assert np.allclose(pl.dense_matrix(prod), pl.dense_matrix(a) @ pl.dense_matrix(b))

    def test_size_mismatch_rejected(self):
        a = pl.PauliSum(1, (pl.PauliTerm(1.0, "X"),))
        b = pl.PauliSum(2, (pl.PauliTerm(1.0, "XX"),))
        with pytest.raises(SizeError):
            pl.multiply_sums(a, b)
        with pytest.raises(SizeError):
            pl.PauliSum(2, (pl.PauliTerm(1.0, "X"),))


class TestApply:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_apply_matches_dense_oracle(self, seed, nqubits):
        rng = np.random.default_rng(seed)
        n_terms = int(rng.integers(1, 5))
        terms = []
        for _ in range(n_terms):
            axes = "".join(rng.choice(list("IXYZ"), size=nqubits))
            terms.append(pl.PauliTerm(float(rng.uniform(-2, 2)), axes))
        op = pl.PauliSum(nqubits, tuple(terms))
        amps = rng.normal(size=2**nqubits) + 1j * rng.normal(size=2**nqubits)
        amps /= np.linalg.norm(amps)
        state = StateVector(nqubits, amps)
        got = pl.apply(op, state).amplitudes
        want = pl.dense_matrix(op) @ amps
        assert np.allclose(got, want, atol=1e-12)

    def test_apply_z_flips_sign_on_occupied(self):
        minus = StateVector(1, np.array([0.0, 1.0], dtype=complex))
        out = pl.apply(pl.PauliSum(1, (pl.PauliTerm(1.0, "Z"),)), minus)
        assert np.allclose(out.amplitudes, [0.0, -1.0])

    def test_apply_size_mismatch(self):
        op = pl.PauliSum(2, (pl.PauliTerm(1.0, "XX"),))
        with pytest.raises(SizeError):
            pl.apply(op, StateVector(1, np.array([1.0, 0.0])))

    def test_dense_capacity_capped(self):
        op = pl.PauliSum(13, (pl.PauliTerm(1.0, "I" * 13),))
        with pytest.raises(CapacityError):
            pl.dense_matrix(op)


def bits(values) -> np.ndarray:
    """The float64 words of an array as integers: equal only if bit-identical."""
    return np.ascontiguousarray(values).view(np.float64).view(np.uint64)


def mask_loop_apply(op: pl.PauliSum, amps: np.ndarray) -> np.ndarray:
    """pauli.apply as it was before the table: each term's masks derived anew."""
    idx = np.arange(amps.size, dtype=np.uint64)
    out = np.zeros_like(amps)
    for term in op.terms:
        flip, zmask, n_y = pl.masks(term)
        phase = term.weight * (1j**n_y)
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & np.uint64(zmask)) & 1)
        out[idx ^ np.uint64(flip)] += phase * signs * amps
    return out


@st.composite
def real_sums(draw):
    """Real-weighted sums on 1-6 qubits with at least one Y term."""
    n = draw(st.integers(1, 6))
    strings = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    axes = [draw(strings.filter(lambda a: "Y" in a))] + draw(st.lists(strings, max_size=7))
    weights = st.floats(-1e3, 1e3, allow_nan=False).filter(lambda c: abs(c) > 1e-6)
    return pl.PauliSum(n, tuple(pl.PauliTerm(draw(weights), a) for a in axes))


class TestPermutationTable:
    """The compiled table against the per-term mask constructions it replaced."""

    @given(real_sums())
    @settings(max_examples=80, deadline=None)
    def test_rebuilds_dense_matrix_exactly(self, op):
        rows, values = op.table
        dim = 2**op.nqubits
        rebuilt = np.zeros((dim, dim), dtype=complex)
        for term_rows, term_values in zip(rows, values):
            block = np.zeros((dim, dim), dtype=complex)
            block[term_rows, np.arange(dim)] = term_values
            rebuilt += block
        assert np.array_equal(bits(rebuilt), bits(pl.dense_matrix(op)))

    @given(real_sums(), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_apply_equals_the_mask_loop(self, op, seed):
        rng = np.random.default_rng(seed)
        dim = 2**op.nqubits
        amps = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * 10.0 ** rng.uniform(-3, 3)
        got = pl.apply(op, StateVector(op.nqubits, amps)).amplitudes
        assert np.array_equal(bits(got), bits(mask_loop_apply(op, amps)))

    @given(real_sums())
    @settings(max_examples=80, deadline=None)
    def test_lcu_select_stack_equals_the_term_matrices(self, op):
        """The select's rows and entries, scattered into dense blocks, are each
        term's matrix divided by its weight and multiplied by its sign."""
        old = np.array([t.matrix() / t.weight * np.sign(t.coefficient) for t in op.terms])
        assert np.array_equal(bits(select_stack(LcuCircuit(op))), bits(old))

    def test_compiled_once_read_only_and_per_sum(self, monkeypatch):
        compiled = []
        compile_table = pl.permutation_table
        monkeypatch.setattr(
            pl, "permutation_table", lambda op: compiled.append(op) or compile_table(op)
        )
        op = pl.PauliSum(2, (pl.PauliTerm(1.0, "XY"), pl.PauliTerm(-0.5, "ZI")))
        assert op.table is op.table
        scaled = op * 2.0
        assert not np.array_equal(scaled.table[1], op.table[1])
        assert compiled == [op, scaled]
        for array in op.table:
            assert array.shape == (2, 4)
            with pytest.raises(ValueError):
                array[0, 0] = 0

    def test_empty_sum_applies_as_zero(self):
        state = StateVector(2, np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.array_equal(pl.apply(pl.PauliSum(2), state).amplitudes, np.zeros(4))
