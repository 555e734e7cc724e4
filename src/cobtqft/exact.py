"""Exact rational scalars and sparse matrices.

Scalars are :class:`fractions.Fraction` values, so every number is an
arbitrary-precision rational kept in lowest terms with a positive
denominator.  A matrix stores only its nonzero entries in a dict
``(row, col) -> Fraction``: evaluating field theories on two or three
circles produces matrices with 225 to 3375 columns that are mostly
zero.  Matrix values are ints or Fractions (anything else is a
TypeError), so no binary fraction or string slips in.

``mat_mul`` and ``kron`` multiply no Fractions: they read each factor
as integer numerators over the lcm of its denominators, accumulate
plain ints, and divide by the product of the two denominators once,
with one reduced Fraction per distinct numerator, shared by the entries
that have it (Fractions are immutable), and no zero left by
cancellation.

There is no floating point anywhere in this package.

JSON form: ``{"rows": R, "cols": C, "entries": [[r, c, "p/q"], ...]}``
with entries sorted row-major and ``/q`` omitted when the denominator
is 1.  Errors about JSON input name the field and its JSON type
(:func:`json_type`), never the value, whose size is unbounded.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import Sequence


_JSON_TYPES = {"dict": "object", "list": "array", "str": "string",
               "int": "integer", "float": "number", "bool": "boolean",
               "NoneType": "null"}


def json_type(value) -> str:
    """The JSON type name of a value parsed from JSON."""
    name = type(value).__name__
    return _JSON_TYPES.get(name, name)


def _rational(value) -> Fraction:
    """`value` as a Fraction; TypeError unless it is an int or a Fraction."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"a matrix value must be an int or a Fraction, "
                        f"got {type(value).__name__}")
    return value if isinstance(value, Fraction) else Fraction(value)


class RationalMatrix:
    """A sparse ``rows x cols`` matrix over the rationals.

    Instances are immutable by convention: no method mutates ``entries``
    after construction.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("a matrix shape must be nonnegative")
        self.rows = rows
        self.cols = cols
        data: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (r, c), value in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError("an entry lies outside the matrix")
                v = _rational(value)
                if v:
                    data[r, c] = v
        self.entries = data

    @classmethod
    def _adopt(cls, rows: int, cols: int, data: dict) -> "RationalMatrix":
        # Internal fast path: `data` must already be canonical (in-bounds
        # keys, nonzero Fraction values) and is taken over without copying.
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = data
        return m

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        one = Fraction(1)
        return cls._adopt(n, n, {(i, i): one for i in range(n)})

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        n = len(rows)
        m = len(rows[0]) if n else 0
        data = {}
        for i, row in enumerate(rows):
            if len(row) != m:
                raise ValueError("ragged rows")
            for j, value in enumerate(row):
                v = _rational(value)
                if v:
                    data[i, j] = v
        return cls._adopt(n, m, data)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    def get(self, r: int, c: int) -> Fraction:
        return self.entries.get((r, c), Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def key(self):
        """Canonical hashable form (for dict-based distinctness checks)."""
        return (self.rows, self.cols,
                tuple(sorted((r, c, v.numerator, v.denominator)
                             for (r, c), v in self.entries.items())))

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._adopt(
            self.cols, self.rows,
            {(c, r): v for (r, c), v in self.entries.items()})

    def scale(self, s) -> "RationalMatrix":
        s = _rational(s)
        if not s:
            return RationalMatrix._adopt(self.rows, self.cols, {})
        return RationalMatrix._adopt(
            self.rows, self.cols,
            {k: s * v for k, v in self.entries.items()})

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"

    def to_json_obj(self) -> dict:
        entries = [[r, c, str(v)]
                   for (r, c), v in sorted(self.entries.items())]
        return {"rows": self.rows, "cols": self.cols, "entries": entries}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

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
            try:
                entries[entry[0], entry[1]] = Fraction(entry[2])
            except (ValueError, ZeroDivisionError):
                raise ValueError(f'matrix entry {n}: the value is not a '
                                 f'rational "p/q" with q nonzero') from None
        return cls(obj["rows"], obj["cols"], entries)

    @classmethod
    def from_json(cls, text: str) -> "RationalMatrix":
        return cls.from_json_obj(json.loads(text))


def _numerators(m: RationalMatrix) -> tuple[int, dict]:
    """``(d, {(r, c): n})``: every entry of ``m`` as ``n / d``, with ``d``
    the lcm of the entries' denominators."""
    d = lcm(*{v.denominator for v in m.entries.values()})
    return d, {k: v.numerator * (d // v.denominator)
               for k, v in m.entries.items()}


def _from_numerators(rows: int, cols: int, nums: dict,
                     d: int) -> RationalMatrix:
    """The matrix with entries ``n / d``, zeros dropped; entries with the
    same numerator share one Fraction."""
    value = {n: Fraction(n, d) for n in set(nums.values()) if n}
    return RationalMatrix._adopt(
        rows, cols, {k: value[n] for k, n in nums.items() if n})


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Exact matrix product ``a · b``."""
    if a.cols != b.rows:
        raise ValueError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}: "
            "inner dimensions differ")
    da, na = _numerators(a)
    db, nb = _numerators(b)
    # group the left factor by column so each nonzero of b is touched once
    cols_of_a: dict[int, list] = {}
    for (i, j), v in na.items():
        cols_of_a.setdefault(j, []).append((i, v))
    acc: dict[tuple[int, int], int] = {}
    for (j, k), w in nb.items():
        for i, v in cols_of_a.get(j, ()):
            acc[i, k] = acc.get((i, k), 0) + v * w
    return _from_numerators(a.rows, b.cols, acc, da * db)


def kron(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Kronecker product with the left factor as the outer (slow) index.

    Basis vector ``e_i ⊗ e_j`` of the product space sits at index
    ``i * dim(b-side) + j``, matching the fixed ordering
    ``b1⊗b1, b1⊗b2, ..., bn⊗bn`` used for all tensor-product bases here.
    """
    br, bc = b.rows, b.cols
    da, na = _numerators(a)
    db, nb = _numerators(b)
    data = {}
    for (ia, ja), va in na.items():
        rbase = ia * br
        cbase = ja * bc
        for (ib, jb), vb in nb.items():
            data[rbase + ib, cbase + jb] = va * vb
    return _from_numerators(a.rows * br, a.cols * bc, data, da * db)


def swap_matrix(d1: int, d2: int) -> RationalMatrix:
    """The flip ``V⊗W -> W⊗V`` for spaces of dimensions d1 and d2."""
    one = Fraction(1)
    data = {}
    for i in range(d1):
        for j in range(d2):
            data[j * d1 + i, i * d2 + j] = one
    return RationalMatrix._adopt(d1 * d2, d1 * d2, data)
