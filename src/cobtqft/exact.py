"""Exact rational scalars and sparse matrices.

Scalars are :class:`fractions.Fraction` values, so every number is an
arbitrary-precision rational kept in lowest terms with a positive
denominator.  A matrix stores only integers: a positive denominator
``den`` and a dict ``nums`` of the numerators of its nonzero entries,
keyed by flat position, so entry ``(r, c)`` is
``nums.get(r * cols + c, 0) / den``; evaluating field theories on two
or three circles produces matrices with 225 to 3375 columns that are
mostly zero, and a plain int per entry is far smaller than an
``(r, c)`` tuple.  The form is canonical, so ``mat_mul``, ``kron``,
``transpose``, ``scale``, ``key``, equality and the JSON printer work
on integers alone.  The constructors whose entries may be 0 or share
a factor with the denominator end in one normaliser: the checked
constructor, ``scale`` and ``mat_mul``, whose sums can cancel.  It
keeps a dict that is already canonical (no zero, gcd 1) as it is; any
other it rewrites, dropping zeros, dividing the gcd out once and
sharing one int among the entries with one numerator.  The others
build the canonical form directly and skip it (``_canonical``):
``identity``, ``swap_matrix`` and ``transpose`` place ones or move the
entries of a canonical matrix, and in the products ``kron`` and
``tqft.evaluate`` build, where each entry multiplies one numerator of
every factor, ``product_divisors`` says in advance what to divide out
of each factor.
``entries``, which nothing in the package reads, is derived on each
read: the nonzero entries as ``{(r, c): Fraction}`` in lowest terms.
The ``(r, c)`` constructor alone checks its input: values are ints or
Fractions (anything else is a TypeError), so no float or string slips in.

There is no floating point anywhere in this package.

JSON form: ``{"rows": R, "cols": C, "entries": [[r, c, "p/q"], ...]}``
with entries sorted row-major and ``/q`` omitted when the denominator
is 1.  ``to_json`` is its one printer; ``to_json_obj`` reads that text
back.  A value is read only in that form, ``-?[0-9]+(/[0-9]+)?`` with
``q`` nonzero; a position may appear once.  Reading (:func:`read_int`)
and printing (:func:`format_rational`) both refuse a ``p`` or ``q`` of
more than MAX_VALUE_DIGITS digits, so whatever is printed reads back;
the digits are counted before ``int()`` sees them, so the interpreter's
own int-string limit plays no part.  Errors about JSON input name the
field and its JSON type (:func:`json_type`), or the index of a matrix
entry, never the value, whose size is unbounded.
"""

from __future__ import annotations

import json
import pickle
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


_JSON_TYPES = {"dict": "object", "list": "array", "str": "string",
               "int": "integer", "float": "number", "bool": "boolean",
               "NoneType": "null"}


def json_type(value) -> str:
    """The JSON type name of a value parsed from JSON."""
    name = type(value).__name__
    return _JSON_TYPES.get(name, name)


def _rational(value) -> int | Fraction:
    """`value` itself; TypeError unless it is an int or a Fraction."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"a matrix value must be an int or a Fraction, "
                        f"got {type(value).__name__}")
    return value


class RationalMatrix:
    """A sparse ``rows x cols`` matrix over the rationals.

    Entry ``(r, c)`` is ``nums.get(r * cols + c, 0) / den``.  The form is
    canonical: ``den`` is positive, no value of ``nums`` is 0, and
    ``gcd(den, *nums.values()) == 1``.  Instances are immutable by
    convention: nothing mutates ``den`` or ``nums`` after construction.
    """

    __slots__ = ("rows", "cols", "den", "nums")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("a matrix shape must be nonnegative")
        values = {}
        if entries:
            for (r, c), value in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError("an entry lies outside the matrix")
                values[r * cols + c] = _rational(value)
        d = lcm(*{v.denominator for v in values.values()})
        self._normalise(rows, cols, {k: v.numerator * (d // v.denominator)
                                     for k, v in values.items()}, d)

    def _normalise(self, rows: int, cols: int, nums: dict,
                   den: int) -> "RationalMatrix":
        # The canonical form of the matrix with entries nums[k] / den
        # (den > 0).  Every caller passes a dict of its own, so one that
        # is already canonical (no zero, gcd 1) is kept as it is; any
        # other is rewritten with one int shared per numerator, which
        # keeps large blocks small in memory.
        distinct = set(nums.values())
        g = gcd(den, *distinct)
        self.rows = rows
        self.cols = cols
        self.den = den // g
        if g == 1 and 0 not in distinct:
            self.nums = nums
        else:
            shared = {n: n // g for n in distinct}
            self.nums = {k: shared[n] for k, n in nums.items() if n}
        return self

    @classmethod
    def _integer(cls, rows: int, cols: int, nums: dict,
                 den: int) -> "RationalMatrix":
        """The matrix with entries ``nums[p] / den`` at flat positions p;
        in-bounds positions and ``den > 0`` are the caller's to ensure."""
        return cls.__new__(cls)._normalise(rows, cols, nums, den)

    @classmethod
    def _canonical(cls, rows: int, cols: int, nums: dict,
                   den: int) -> "RationalMatrix":
        """The matrix with entries ``nums[p] / den``, taken as it is: the
        caller ensures that it is canonical and its positions in bounds."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.den, m.nums = rows, cols, den, nums
        return m

    @classmethod
    def _adopt(cls, rows: int, cols: int, data: dict) -> "RationalMatrix":
        """The checked constructor, named as the benchmark's tests call it."""
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._canonical(n, n, {i * (n + 1): 1 for i in range(n)}, 1)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        n = len(rows)
        m = len(rows[0]) if n else 0
        if any(len(row) != m for row in rows):
            raise ValueError("ragged rows")
        return cls(n, m, {(i, j): value for i, row in enumerate(rows)
                          for j, value in enumerate(row)})

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    @property
    def entries(self) -> dict[tuple[int, int], Fraction]:
        """The nonzero entries as ``{(r, c): Fraction}`` in lowest terms,
        built anew on each read; entries with one value share a Fraction."""
        value = {n: Fraction(n, self.den) for n in set(self.nums.values())}
        cols = self.cols
        return {divmod(p, cols): value[n] for p, n in self.nums.items()}

    def get(self, r: int, c: int) -> Fraction:
        """Entry ``(r, c)``; IndexError when it lies outside the matrix."""
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r}, {c}) lies outside a "
                             f"{self.rows}x{self.cols} matrix")
        return Fraction(self.nums.get(r * self.cols + c, 0), self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.den == other.den and self.nums == other.nums)

    def key(self):
        """Canonical hashable form (for dict-based distinctness checks):
        the shape, ``den``, and two bytes objects: the sorted flat
        positions, and the numerators in that order.  ``pickle`` writes
        an int of any size, a small one in a few bytes, so a key holds
        no int object per entry."""
        nums = self.nums
        positions = sorted(nums)
        return (self.rows, self.cols, self.den,
                pickle.dumps(positions, protocol=4),
                pickle.dumps([nums[p] for p in positions], protocol=4))

    def transpose(self) -> "RationalMatrix":
        rows, cols = self.rows, self.cols
        return RationalMatrix._canonical(
            cols, rows, {(p % cols) * rows + p // cols: n
                         for p, n in self.nums.items()}, self.den)

    def scale(self, s) -> "RationalMatrix":
        s = _rational(s)
        return RationalMatrix._integer(
            self.rows, self.cols,
            {k: s.numerator * n for k, n in self.nums.items()},
            s.denominator * self.den)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols}, {len(self.nums)} nonzero)"

    def to_json_obj(self) -> dict:
        """The JSON form as an object, read back from `to_json`, the one
        printer of the form."""
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The JSON form as compact text, written straight from the sorted
        positions, one string formatted per distinct numerator."""
        nums, cols = self.nums, self.cols
        text = {n: f'"{format_rational(Fraction(n, self.den))}"]'
                for n in set(nums.values())}
        entries = ",".join([f"[{p // cols},{p % cols},{text[nums[p]]}"
                            for p in sorted(nums)])
        return f'{{"rows":{self.rows},"cols":{cols},"entries":[{entries}]}}'

    @classmethod
    def from_json_obj(cls, obj) -> "RationalMatrix":
        """Parse the JSON form; malformed input raises ValueError."""
        if not (isinstance(obj, dict) and type(obj.get("rows")) is int
                and type(obj.get("cols")) is int
                and isinstance(obj.get("entries"), list)):
            raise ValueError('a matrix must be {"rows": R, "cols": C, '
                             '"entries": [...]}')
        entries = {}
        for n, entry in enumerate(obj["entries"]):
            if not (isinstance(entry, list) and len(entry) == 3
                    and type(entry[0]) is int and type(entry[1]) is int
                    and isinstance(entry[2], str)):
                got = (f"[{', '.join(map(json_type, entry))}]"
                       if isinstance(entry, list) and len(entry) <= 3
                       else json_type(entry))
                raise ValueError(f'matrix entry {n} must be [integer row, '
                                 f'integer col, "p/q" string], got {got}')
            if (entry[0], entry[1]) in entries:
                raise ValueError(f"matrix entry {n} repeats the position "
                                 f"of an earlier entry")
            entries[entry[0], entry[1]] = _parse_rational(entry[2], n)
        return cls(obj["rows"], obj["cols"], entries)


# The JSON value form: an integer p, or p/q with q a positive integer.
_JSON_VALUE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")

# The most digits of a JSON integer, or of a numerator or denominator,
# read or printed, so every printed value can be read back.
MAX_VALUE_DIGITS = 4300
_VALUE_BOUND = 10 ** MAX_VALUE_DIGITS


def format_rational(value: int | Fraction) -> str:
    """`value` as "p" or "p/q"; ValueError when p or q has more than
    MAX_VALUE_DIGITS digits."""
    if max(abs(value.numerator), value.denominator) >= _VALUE_BOUND:
        raise ValueError(f"a value exceeds the limit of {MAX_VALUE_DIGITS} "
                         f"digits per numerator or denominator")
    return str(value)


def read_int(literal: str) -> int:
    """The integer literal ``-?[0-9]+``; ValueError when it has more than
    MAX_VALUE_DIGITS digits, counted before int() reads it."""
    if len(literal.lstrip("-")) > MAX_VALUE_DIGITS:
        raise ValueError(f"an integer exceeds the limit of "
                         f"{MAX_VALUE_DIGITS} digits")
    return int(literal)


def _parse_rational(text: str, n: int) -> Fraction:
    """The value of matrix entry `n` in the JSON value form."""
    if _JSON_VALUE.fullmatch(text):
        p, _, q = text.partition("/")
        try:
            return Fraction(read_int(p), read_int(q or "1"))
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f'matrix entry {n}: the value is not a rational '
                     f'"p/q" of integers with q nonzero, each of at most '
                     f'{MAX_VALUE_DIGITS} digits')


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Exact matrix product ``a · b``."""
    if a.cols != b.rows:
        raise ValueError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}: "
            "inner dimensions differ")
    # group the operand with fewer nonzeros by its inner index j and walk
    # the other once, so an entry whose j has no group costs one lookup;
    # entry (i, j) of a and entry (j, k) of b meet at i * width + k
    inner, width = a.cols, b.cols
    acc: dict[int, int] = {}
    get = acc.get
    if len(a.nums) <= len(b.nums):
        cols_of_a: dict[int, list] = {}
        for p, v in a.nums.items():
            cols_of_a.setdefault(p % inner, []).append(
                (p // inner * width, v))
        for q, w in b.nums.items():
            group = cols_of_a.get(q // width)
            if group is not None:
                k = q % width
                for offset, v in group:
                    p = offset + k
                    acc[p] = get(p, 0) + v * w
    else:
        rows_of_b: dict[int, list] = {}
        for q, w in b.nums.items():
            rows_of_b.setdefault(q // width, []).append((q % width, w))
        for p, v in a.nums.items():
            group = rows_of_b.get(p % inner)
            if group is not None:
                offset = p // inner * width
                for k, w in group:
                    q = offset + k
                    acc[q] = get(q, 0) + v * w
    return RationalMatrix._integer(a.rows, width, acc, a.den * b.den)


def product_divisors(
        factors: Sequence[RationalMatrix]) -> tuple[list[int], int]:
    """The divisors that make a product of canonical factors canonical.

    An entry of the product (``kron``'s, or the matrix ``tqft.evaluate``
    builds) multiplies one numerator of each factor, over D, the product
    of their dens.  The gcd of all x_i·y_j is gcd(x)·gcd(y), so the
    product is canonical, with no zero, once h = gcd(D, ∏ gcd of each
    factor's numerators) is divided out.  Factor i's divisor is the gcd
    of D_i, D over the earlier divisors, and its numerators; as
    gcd(n, xy) = gcd(n, x)·gcd(n / gcd(n, x), y), the divisors multiply
    to h.  Returns them, one per factor, and the product's den D / h.
    """
    den = 1
    for m in factors:
        den *= m.den
    divisors = []
    for m in factors:
        # a factor with no entries takes all of den: the zero product's
        # den is 1
        d = gcd(den, *m.nums.values()) if den > 1 else 1
        den //= d
        divisors.append(d)
    return divisors, den


def kron(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Kronecker product with the left factor as the outer (slow) index.

    Basis vector ``e_i ⊗ e_j`` of the product space sits at index
    ``i * dim(b-side) + j``, matching the fixed ordering
    ``b1⊗b1, b1⊗b2, ..., bn⊗bn`` used for all tensor-product bases here.
    """
    ac, br, bc = a.cols, b.rows, b.cols
    width = ac * bc
    (da, db), den = product_divisors((a, b))
    # entry (ia*br + ib, ja*bc + jb) sits at an outer offset from a's
    # entry (ia, ja) plus an inner offset from b's entry (ib, jb)
    outer = [(p // ac * br * width + p % ac * bc, va // da)
             for p, va in a.nums.items()]
    inner = [(q // bc * width + q % bc, vb // db)
             for q, vb in b.nums.items()]
    data = {o + i: va * vb for o, va in outer for i, vb in inner}
    return RationalMatrix._canonical(a.rows * br, width, data, den)


def swap_matrix(d1: int, d2: int) -> RationalMatrix:
    """The flip ``V⊗W -> W⊗V`` for spaces of dimensions d1 and d2."""
    n = d1 * d2
    return RationalMatrix._canonical(
        n, n, {(j * d1 + i) * n + i * d2 + j: 1
               for i in range(d1) for j in range(d2)}, 1)
