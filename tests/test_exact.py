import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cobtqft.exact import RationalMatrix, kron, mat_mul
from cobtqft.frobenius import qz5, zqs3


def assert_reduced(m):
    for v in m.entries.values():
        assert type(v) is F
        assert v != 0
        assert v.denominator > 0
        assert math.gcd(abs(v.numerator), v.denominator) == 1


small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=4)
# denominators up to 60 make the common denominators real lcms
wide_fraction = st.fractions(min_value=-60, max_value=60, max_denominator=60)


@st.composite
def matrices(draw, rows=None, cols=None, values=small_fraction):
    r = rows if rows is not None else draw(st.integers(1, 4))
    c = cols if cols is not None else draw(st.integers(1, 4))
    data = draw(st.dictionaries(
        st.tuples(st.integers(0, r - 1), st.integers(0, c - 1)),
        values, max_size=r * c))
    return RationalMatrix(r, c, data)


def dense(m):
    return [[m.get(r, c) for c in range(m.cols)] for r in range(m.rows)]


def reference_mat_mul(a, b):
    """The product as dense Fraction sums, entry by entry."""
    x, y = dense(a), dense(b)
    return [[sum((x[i][j] * y[j][k] for j in range(a.cols)), F(0))
             for k in range(b.cols)] for i in range(a.rows)]


def reference_kron(a, b):
    return [[a.get(r // b.rows, c // b.cols) * b.get(r % b.rows, c % b.cols)
             for c in range(a.cols * b.cols)]
            for r in range(a.rows * b.rows)]


def assert_matches_dense(m, rows):
    assert m.rows == len(rows) and all(len(row) == m.cols for row in rows)
    assert m.entries == {(r, c): v for r, row in enumerate(rows)
                         for c, v in enumerate(row) if v}
    assert_reduced(m)


def test_matrix_values_are_ints_or_fractions():
    with pytest.raises(TypeError, match="got float"):
        RationalMatrix(1, 1, {(0, 0): 0.1})
    with pytest.raises(TypeError, match="got float"):
        RationalMatrix.from_rows([[1, 0.5]])
    with pytest.raises(TypeError, match="got str"):
        RationalMatrix.from_rows([["1/3"]])
    with pytest.raises(TypeError, match="got float"):
        RationalMatrix.identity(2).scale(0.1)
    m = RationalMatrix.from_rows([[2, F(1, 3)]]).scale(3)
    assert m.entries == {(0, 0): F(6), (0, 1): F(1)}
    assert_reduced(m)


def test_construction_drops_zeros_and_validates():
    m = RationalMatrix(2, 2, {(0, 0): F(0), (1, 1): F(2, 4)})
    assert (0, 0) not in m.entries
    assert m.get(1, 1) == F(1, 2)
    assert m.get(0, 1) == 0
    with pytest.raises(ValueError):
        RationalMatrix(2, 2, {(2, 0): F(1)})


def test_mat_mul_identity():
    m = qz5().mul
    assert mat_mul(RationalMatrix.identity(5), m) == m
    assert mat_mul(m, RationalMatrix.identity(25)) == m


def test_mat_mul_counit_unit_gives_group_order():
    q = qz5()
    assert mat_mul(q.counit, q.unit) == RationalMatrix.from_rows([[5]])


def test_mat_mul_handle_squared_closed_form():
    handle = RationalMatrix.from_rows([[3, 0, 3], [0, 6, 0], [F(3, 2), 0, F(9, 2)]])
    squared = RationalMatrix.from_rows(
        [[9, 0, 15], [0, 24, 0], [F(15, 2), 0, F(33, 2)]]).scale(F(3, 2))
    assert mat_mul(handle, handle) == squared


def test_mat_mul_shape_error_names_both_shapes():
    a = RationalMatrix(3, 9)
    b = RationalMatrix(5, 25)
    with pytest.raises(ValueError, match="3x9 by 5x25"):
        mat_mul(a, b)


def test_kron_unit_scalar():
    x = zqs3().mul
    one = RationalMatrix.from_rows([[1]])
    assert kron(one, x) == x
    assert kron(x, one) == x


def test_kron_identities():
    assert kron(RationalMatrix.identity(2), RationalMatrix.identity(3)) \
        == RationalMatrix.identity(6)


def test_kron_units_column():
    col = kron(qz5().unit, zqs3().unit)
    assert col.shape == (15, 1)
    assert col.entries == {(0, 0): F(1)}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mat_mul_associative(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=a.cols))
    c = data.draw(matrices(rows=b.cols))
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kron_mixed_product(data):
    a = data.draw(matrices())
    b = data.draw(matrices())
    c = data.draw(matrices(rows=a.cols))
    d = data.draw(matrices(rows=b.cols))
    assert mat_mul(kron(a, b), kron(c, d)) == kron(mat_mul(a, c), mat_mul(b, d))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mat_mul_matches_dense_fraction_reference(data):
    a = data.draw(matrices(values=wide_fraction))
    b = data.draw(matrices(rows=a.cols, values=wide_fraction))
    assert_matches_dense(mat_mul(a, b), reference_mat_mul(a, b))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kron_matches_dense_fraction_reference(data):
    a = data.draw(matrices(values=wide_fraction))
    b = data.draw(matrices(values=wide_fraction))
    assert_matches_dense(kron(a, b), reference_kron(a, b))


nonzero_fraction = wide_fraction.filter(bool)


@settings(max_examples=40, deadline=None)
@given(st.lists(nonzero_fraction, min_size=6, max_size=6))
def test_mat_mul_drops_entries_that_cancel_to_zero(v):
    # entry (0, 0) of the product is p*q - q*p; the other three are drawn
    p, q, r, s, t, u = v
    a = RationalMatrix.from_rows([[p, q], [r, s]])
    b = RationalMatrix.from_rows([[q, t], [-p, u]])
    product = mat_mul(a, b)
    assert (0, 0) not in product.entries
    assert_matches_dense(product, reference_mat_mul(a, b))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_results_stay_reduced(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=a.cols))
    for result in (mat_mul(a, b), kron(a, b), a.transpose(), a.scale(F(6, 4))):
        assert_reduced(result)


def test_json_round_trip_and_format():
    m = RationalMatrix(2, 3, {(0, 0): F(3, 2), (1, 2): F(-4, 2)})
    text = m.to_json()
    assert '"3/2"' in text and '"-2"' in text  # denominator 1 omitted
    assert RationalMatrix.from_json(text) == m


@pytest.mark.parametrize("obj", [
    [], {"rows": 1, "cols": "1", "entries": []},
    {"rows": 1, "cols": 1, "entries": 5},
    {"rows": 1, "cols": 1, "entries": [[0, 0, 1.5]]},
    {"rows": 1, "cols": 1, "entries": [[0, 0, "x"]]},
    {"rows": 1, "cols": 1, "entries": [[0, 0, "1/0"]]},
])
def test_json_rejects_malformed_matrices(obj):
    with pytest.raises(ValueError):
        RationalMatrix.from_json_obj(obj)
