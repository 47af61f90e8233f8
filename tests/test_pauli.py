"""Unit tests for the exact Pauli-string algebra."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdrq import pauli as pl
from gdrq.errors import CapacityError, SizeError, ValidationError
from gdrq.statevector import StateVector

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

    def test_identity_helpers(self):
        s = pl.PauliSum(2, (pl.PauliTerm(3.0, "II"), pl.PauliTerm(1.0, "ZI")))
        assert s.identity_coefficient() == 3.0
        assert s.without_identity().terms[0].axes == "ZI"
        assert pl.PauliSum(2).identity_coefficient() == 0.0

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

    def test_add_and_multiply_sums_match_dense(self):
        a = pl.PauliSum(2, (pl.PauliTerm(1.0, "XI"), pl.PauliTerm(0.5, "IZ")))
        b = pl.PauliSum(2, (pl.PauliTerm(2.0, "ZI"), pl.PauliTerm(1.0, "II")))
        assert np.allclose(pl.dense_matrix(a + b), pl.dense_matrix(a) + pl.dense_matrix(b))
        prod = pl.multiply_sums(a, b)
        assert np.allclose(pl.dense_matrix(prod), pl.dense_matrix(a) @ pl.dense_matrix(b))

    def test_size_mismatch_rejected(self):
        a = pl.PauliSum(1, (pl.PauliTerm(1.0, "X"),))
        b = pl.PauliSum(2, (pl.PauliTerm(1.0, "XX"),))
        with pytest.raises(SizeError):
            pl.add(a, b)
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
