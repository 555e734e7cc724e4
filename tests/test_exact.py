import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cobtqft.exact import (MAX_VALUE_DIGITS, RationalMatrix, format_rational,
                           kron, mat_mul, swap_matrix)
from cobtqft.frobenius import faithful_algebra, qz5, zqs3
from cobtqft.surface import e_block
from cobtqft.tqft import evaluate


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


def test_get_checks_its_bounds():
    # a flat position r * cols + c would otherwise read another entry:
    # (0, 3) of a 2x3 matrix is position 3, where entry (1, 0) sits
    m = RationalMatrix(2, 3, {(1, 0): 1})
    assert m.get(1, 0) == 1 and m.get(0, 2) == 0
    for r, c in ((0, 3), (2, 0), (-1, 0), (0, -1), (1, 3)):
        with pytest.raises(IndexError, match="outside a 2x3 matrix"):
            m.get(r, c)
    with pytest.raises(IndexError):
        RationalMatrix(0, 0).get(0, 0)


def test_key_holds_every_shape():
    # positions beyond 64 bits
    big = RationalMatrix(2 ** 40, 2 ** 40, {(2 ** 39, 5): 1})
    assert big.key() == RationalMatrix(2 ** 40, 2 ** 40,
                                       {(2 ** 39, 5): 1}).key()
    assert big.key() != RationalMatrix(2 ** 40, 2 ** 40,
                                       {(2 ** 39, 6): 1}).key()
    assert big.entries == {(2 ** 39, 5): 1} and big.get(2 ** 39, 5) == 1
    assert big.transpose().entries == {(5, 2 ** 39): 1}
    # one flat position and numerator, two shapes
    wide = RationalMatrix(2, 3, {(1, 0): 2, (1, 2): 1})
    tall = RationalMatrix(3, 2, {(1, 1): 2, (2, 1): 1})
    assert sorted(wide.nums.items()) == sorted(tall.nums.items())
    assert wide.key() != tall.key() and wide != tall
    keys = {m.key() for m in (big, wide, tall, RationalMatrix(0, 0),
                              RationalMatrix(0, 3), RationalMatrix(3, 0))}
    assert len(keys) == 6
    # past rows, cols and den, a key holds bytes only
    for m in (big, wide, tall, RationalMatrix(0, 3)):
        assert all(type(part) is bytes for part in m.key()[3:])


def test_key_tells_every_numerator_apart():
    # one numerator changed: beyond 64 bits, or in sign only
    for n, other in ((2 ** 64, 2 ** 64 + 1), (2 ** 70, 2 ** 70 + 2 ** 6),
                     (2 ** 64 - 1, 2 ** 64), (2, -2), (2 ** 65, -2 ** 65)):
        m = RationalMatrix(2, 2, {(0, 0): 1, (1, 1): n})
        changed = RationalMatrix(2, 2, {(0, 0): 1, (1, 1): other})
        assert m != changed and m.key() != changed.key(), (n, other)
        assert m.key() == RationalMatrix(2, 2, {(0, 0): 1, (1, 1): n}).key()


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
    assert RationalMatrix.from_json_obj(json.loads(text)) == m



def _oracle_json_obj(m):
    """The JSON form built as an object, one entry list at a time."""
    nums, cols = m.nums, m.cols
    text = {n: format_rational(F(n, m.den)) for n in set(nums.values())}
    entries = [[p // cols, p % cols, text[nums[p]]] for p in sorted(nums)]
    return {"rows": m.rows, "cols": cols, "entries": entries}


def test_json_text_is_the_json_form_dumped():
    # to_json writes its text directly and to_json_obj reads it back;
    # both must agree with the form built as an object, on empty,
    # one-entry, negative, fractional and evaluated matrices
    for m in (RationalMatrix(0, 0), RationalMatrix(1, 1, {(0, 0): 7}),
              RationalMatrix(1, 1), RationalMatrix(3, 2, {
                  (0, 1): -5, (2, 0): -1, (1, 1): 12}),
              RationalMatrix(2, 3, {(0, 0): F(3, 2), (0, 2): F(-1, 6),
                                    (1, 0): F(3, 2), (1, 1): F(-7, 4)}),
              evaluate(faithful_algebra(), e_block(2, 1, 2)).matrix):
        oracle = _oracle_json_obj(m)
        assert m.to_json_obj() == oracle
        assert m.to_json() == json.dumps(oracle, separators=(",", ":"))


def _entry(value):
    return {"rows": 1, "cols": 1, "entries": [[0, 0, value]]}


@pytest.mark.parametrize("obj", [
    [], {"rows": 1, "cols": "1", "entries": []},
    {"rows": 1, "cols": 1, "entries": 5},
    _entry(1.5), _entry("x"), _entry("1/0"),
    # only -?[0-9]+(/[0-9]+)? is read: Fraction() would take all of these
    _entry("1e10000000000"), _entry("1e100000000"), _entry("5.0"),
    _entry(" 1"), _entry("1 "), _entry("0x1"), _entry("1_0"),
    _entry("+1"), _entry("1/-2"), _entry("\u0661"), _entry("9" * 5000),
    {"rows": 1, "cols": 2, "entries": [[0, 1, "1"], [0, 0, "2"],
                                       [0, 1, "3"]]},
])
def test_json_rejects_malformed_matrices(obj):
    with pytest.raises(ValueError) as err:
        RationalMatrix.from_json_obj(obj)
    message = str(err.value)
    assert len(message) < 120
    entries = obj.get("entries") if isinstance(obj, dict) else None
    if isinstance(entries, list) and entries:
        # a bad value or a repeated position is named by its index
        assert f"matrix entry {len(entries) - 1}" in message
        value = entries[-1][2]
        assert not (isinstance(value, str) and len(value) > 3
                    and value in message)


def test_json_value_digit_limit():
    # the program counts the digits itself, whatever the interpreter's
    # int-string limit; a sign is not a digit, a leading zero is
    wide = "9" * MAX_VALUE_DIGITS
    for text, value in ((wide, int(wide)), ("-" + wide, -int(wide)),
                        ("1/" + wide, F(1, int(wide)))):
        m = RationalMatrix.from_json_obj(_entry(text))
        assert m.entries == {(0, 0): value}
    for text in ("9" + wide, "0" + wide, "1/0" + wide, "-9" + wide):
        with pytest.raises(ValueError, match=f"{MAX_VALUE_DIGITS} digits"):
            RationalMatrix.from_json_obj(_entry(text))


def test_json_reads_the_documented_value_form():
    m = RationalMatrix.from_json_obj({"rows": 1, "cols": 4, "entries": [
        [0, 0, "-0"], [0, 1, "007"], [0, 2, "-6/4"], [0, 3, "3/1"]]})
    assert m.entries == {(0, 1): F(7), (0, 2): F(-3, 2), (0, 3): F(3)}


def assert_canonical(m, rows):
    """`m` is in the canonical integer form and equals the dense
    Fraction reference `rows`."""
    assert m.den > 0
    assert math.gcd(m.den, *m.nums.values()) == 1
    assert 0 not in m.nums.values()
    assert all(type(n) is int for n in m.nums.values())
    assert_matches_dense(m, rows)


mixed_value = st.one_of(st.integers(-30, 30), wide_fraction)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_every_constructor_and_operation_is_canonical(data):
    a = data.draw(matrices(values=mixed_value))
    b = data.draw(matrices(rows=a.cols, values=mixed_value))
    s = data.draw(mixed_value)
    n, d1, d2 = (data.draw(st.integers(0, 4)) for _ in range(3))
    x, y = dense(a), dense(b)
    scaled = [[v * s for v in row] for row in x]
    drawn = data.draw(st.dictionaries(
        st.tuples(st.integers(0, a.rows - 1), st.integers(0, a.cols - 1)),
        mixed_value, max_size=a.rows * a.cols))
    reference_drawn = [[F(drawn.get((r, c), 0)) for c in range(a.cols)]
                       for r in range(a.rows)]
    swap = [[F(int(r == (c % d2) * d1 + c // d2)) for c in range(d1 * d2)]
            for r in range(d1 * d2)]
    built = [
        (RationalMatrix(a.rows, a.cols, drawn), reference_drawn),
        (RationalMatrix._adopt(a.rows, a.cols, drawn), reference_drawn),
        (RationalMatrix.from_rows(x), x),
        (RationalMatrix.identity(n),
         [[F(int(r == c)) for c in range(n)] for r in range(n)]),
        (a.transpose(), [list(col) for col in zip(*x)]),
        (a.transpose().transpose(), x),
        (a.scale(s), scaled),
        # usually the numerators of `a` over a larger denominator
        (a.scale(F(1, 7)), [[v / 7 for v in row] for row in x]),
        (a.scale(s).scale(1 / F(s)) if s else a, x),
        (mat_mul(a, b), reference_mat_mul(a, b)),
        (kron(a, b), reference_kron(a, b)),
        (swap_matrix(d1, d2), swap),
        (RationalMatrix.from_json_obj(json.loads(a.to_json())), x),
        (RationalMatrix.from_json_obj(json.loads(b.to_json())), y),
    ]
    for m, rows in built:
        assert_canonical(m, rows)
        # the flat format: entry (r, c) is nums[r * cols + c] / den
        assert all(type(p) is int and p in range(m.rows * m.cols)
                   for p in m.nums)
        entries = m.entries
        for p, n in m.nums.items():
            r, c = divmod(p, m.cols)
            assert entries[r, c] == F(n, m.den) == rows[r][c]
    # the form is canonical: keys agree exactly when the matrices do
    for m, rows in built:
        for other, other_rows in built:
            same = (m.shape == other.shape and rows == other_rows)
            assert (m == other) == same
            assert (m.key() == other.key()) == same


def test_evaluated_entries_share_one_int_per_numerator():
    # numerators above 256 are not CPython's cached small ints, so each
    # product is a new object unless the normaliser shares it; it does
    # whenever it rewrites a dict, as when it divides out the gcd of the
    # last product that builds this block
    m = evaluate(faithful_algebra(), e_block(2, 2, 2)).matrix
    distinct = set(m.nums.values())
    assert max(distinct) > 256 and len(m.nums) > 10 * len(distinct)
    assert len({id(n) for n in m.nums.values()}) == len(distinct)
