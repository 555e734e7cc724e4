"""Embedded golden constants and the regeneration check.

The explicit structure matrices of the two base algebras are fixed
here, digit for digit, as repository fixtures.  ``golden_report``
rebuilds every one of them from the constructors and diffs the
serialized JSON byte-exactly, so any drift in basis conventions,
orderings or normalizations is caught immediately.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import RationalMatrix, mat_mul
from .frobenius import qz5, zqs3
from .surface import e_block
from .tqft import evaluate

F = Fraction

# 5x25 multiplication table of the cyclic-group algebra on <e,a,...,a^4>
QZ5_MUL = RationalMatrix.from_rows([
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0],
])

QZ5_UNIT = RationalMatrix.from_rows([[1], [0], [0], [0], [0]])
QZ5_COUNIT = RationalMatrix.from_rows([[5, 0, 0, 0, 0]])
QZ5_COMUL = QZ5_MUL.transpose().scale(F(1, 5))

# 3x9 multiplication table of the center of the symmetric-group algebra
# on <e, sum of transpositions, sum of 3-cycles>
ZQS3_MUL = RationalMatrix.from_rows([
    [1, 0, 0, 0, 3, 0, 0, 0, 2],
    [0, 1, 0, 1, 0, 2, 0, 2, 0],
    [0, 0, 1, 0, 3, 0, 1, 0, 1],
])

ZQS3_UNIT = RationalMatrix.from_rows([[1], [0], [0]])
ZQS3_COUNIT = RationalMatrix.from_rows([[1, 0, 0]])
ZQS3_PAIRING = RationalMatrix.from_rows([[1, 0, 0, 0, 3, 0, 0, 0, 2]])
ZQS3_COPAIRING = RationalMatrix.from_rows(
    [[1, 0, 0, 0, F(1, 3), 0, 0, 0, F(1, 2)]]).transpose()
ZQS3_COMUL = RationalMatrix.from_rows([
    [1, 0, 0, 0, F(1, 3), 0, 0, 0, F(1, 2)],
    [0, 1, 0, 1, 0, 1, 0, 1, 0],
    [0, 0, 1, 0, F(2, 3), 0, 1, 0, F(1, 2)],
]).transpose()

# the handle operator mul∘comul of the center algebra (genus-one tube)
ZQS3_HANDLE = RationalMatrix.from_rows([
    [3, 0, 3],
    [0, 6, 0],
    [F(3, 2), 0, F(9, 2)],
])


class GoldenEntry(NamedTuple):
    name: str
    produced: str
    expected: str

    @property
    def ok(self) -> bool:
        return self.produced == self.expected


def golden_report() -> tuple[GoldenEntry, ...]:
    """Rebuild every fixed matrix and compare serialized forms."""
    q = qz5()
    z = zqs3()
    produced = [
        ("qz5 mul", q.mul, QZ5_MUL),
        ("qz5 unit", q.unit, QZ5_UNIT),
        ("qz5 comul", q.comul, QZ5_COMUL),
        ("qz5 counit", q.counit, QZ5_COUNIT),
        ("zqs3 mul", z.mul, ZQS3_MUL),
        ("zqs3 unit", z.unit, ZQS3_UNIT),
        ("zqs3 counit", z.counit, ZQS3_COUNIT),
        ("zqs3 pairing", mat_mul(z.counit, z.mul), ZQS3_PAIRING),
        ("zqs3 copairing", mat_mul(z.comul, z.unit), ZQS3_COPAIRING),
        ("zqs3 comul", z.comul, ZQS3_COMUL),
        ("zqs3 handle", mat_mul(z.mul, z.comul), ZQS3_HANDLE),
        ("zqs3 genus-1 tube", evaluate(z, e_block(1, 1, 1)).matrix,
         ZQS3_HANDLE),
    ]
    return tuple(GoldenEntry(name, got.to_json(), want.to_json())
                 for name, got, want in produced)
