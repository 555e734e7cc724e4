"""Evaluation of cobordisms in a commutative Frobenius algebra.

``evaluate(a, K)`` produces the exact matrix the field theory of ``a``
assigns to the cobordism ``K``: each connected component factors as a
comultiplication tree after genus-many handle operators after a
multiplication tree, components combine by Kronecker product, and
permutation matrices route the boundary circles to their positions.
Closed components contribute the scalar counit∘handle^g∘unit each.

Closed-form cross-checks for the three named algebras live here too:
the handle-power matrix of the center of the symmetric-group algebra
and the closed-surface invariants, including
``5 * (3/2)^(k-1) * (2^(2k-1)+1)`` for the faithful 15-dimensional
algebra.

Evaluation is pure, so the building blocks are memoized per algebra
with ``functools.lru_cache``; algebras hash by identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import RationalMatrix, kron, mat_mul, perm_matrix
from .frobenius import AxiomReport, FrobeniusAlgebra, verify_frobenius
from .surface import Cobordism


class AxiomFailure(ValueError):
    """Raised when evaluation is asked to use a non-Frobenius algebra."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            "algebra fails Frobenius axioms: " + ", ".join(report.failures))


@dataclass(frozen=True)
class Evaluation:
    algebra: FrobeniusAlgebra
    n_in: int
    n_out: int
    matrix: RationalMatrix


@lru_cache(maxsize=None)
def _axioms(a: FrobeniusAlgebra) -> AxiomReport:
    return verify_frobenius(a)


def ensure_verified(a: FrobeniusAlgebra) -> AxiomReport:
    """The memoized axiom report of ``a``; AxiomFailure if any fails."""
    report = _axioms(a)
    if not report.all_pass:
        raise AxiomFailure(report)
    return report


@lru_cache(maxsize=None)
def iterated_mul(a: FrobeniusAlgebra, n: int) -> RationalMatrix:
    """The n-fold multiplication dim^n -> dim (unit for n=0)."""
    if n == 0:
        return a.unit
    if n == 1:
        return RationalMatrix.identity(a.dim)
    return mat_mul(a.mul, kron(iterated_mul(a, n - 1),
                               RationalMatrix.identity(a.dim)))


@lru_cache(maxsize=None)
def iterated_comul(a: FrobeniusAlgebra, m: int) -> RationalMatrix:
    """The m-fold comultiplication dim -> dim^m (counit for m=0)."""
    if m == 0:
        return a.counit
    if m == 1:
        return RationalMatrix.identity(a.dim)
    return mat_mul(kron(iterated_comul(a, m - 1),
                        RationalMatrix.identity(a.dim)), a.comul)


@lru_cache(maxsize=None)
def handle_power(a: FrobeniusAlgebra, k: int) -> RationalMatrix:
    """The k-th power of the handle operator mul∘comul."""
    if k == 0:
        return RationalMatrix.identity(a.dim)
    return mat_mul(handle_power(a, k - 1), mat_mul(a.mul, a.comul))


@lru_cache(maxsize=None)
def component_matrix(a: FrobeniusAlgebra, m: int, k: int, n: int) -> RationalMatrix:
    """Matrix of the connected block with n ingoing, m outgoing, genus k."""
    inner = mat_mul(handle_power(a, k), iterated_mul(a, n))
    return mat_mul(iterated_comul(a, m), inner)


@lru_cache(maxsize=None)
def closed_scalar(a: FrobeniusAlgebra, g: int) -> Fraction:
    """counit ∘ handle^g ∘ unit, the value of the closed genus-g surface."""
    return mat_mul(a.counit, mat_mul(handle_power(a, g), a.unit)).get(0, 0)


@lru_cache(maxsize=None)
def _routing(a: FrobeniusAlgebra, p: tuple[int, ...]) -> RationalMatrix:
    return perm_matrix(p, a.dim)


def evaluate(a: FrobeniusAlgebra, K: Cobordism) -> Evaluation:
    """Apply the field theory of ``a`` to a cobordism."""
    ensure_verified(a)
    matrix = RationalMatrix.identity(1)
    for c in K.components:
        matrix = kron(matrix, component_matrix(
            a, len(c.outgoing), c.genus, len(c.ingoing)))
    in_order = [i for c in K.components for i in c.ingoing]
    out_order = [j for c in K.components for j in c.outgoing]
    p_in = [0] * K.n_in
    for slot, i in enumerate(in_order):
        p_in[i] = slot
    if p_in != sorted(p_in):
        matrix = mat_mul(matrix, _routing(a, tuple(p_in)))
    if out_order != sorted(out_order):
        matrix = mat_mul(_routing(a, tuple(out_order)), matrix)
    scalar = Fraction(1)
    for g in K.closed_genera:
        scalar *= closed_scalar(a, g)
    if scalar != 1:
        matrix = matrix.scale(scalar)
    if matrix.shape != (a.dim ** K.n_out, a.dim ** K.n_in):
        raise RuntimeError(f"evaluation of a {K.n_in} -> {K.n_out} cobordism "
                           f"produced a {matrix.rows}x{matrix.cols} matrix")
    return Evaluation(a, K.n_in, K.n_out, matrix)


def zqs3_handle_power(k: int) -> RationalMatrix:
    """Closed form for the k-th handle power in the center of the
    symmetric-group algebra of degree 3 (k >= 1)::

        (3/2)^(k-1) * [ 2^(2k-1)+1    0           2^(2k)-1
                        0             3*2^(2k-1)  0
                        2^(2k-1)-1/2  0           2^(2k)+1/2 ]
    """
    if k < 1:
        raise ValueError("the closed form is anchored at k >= 1; genus 0 "
                         "is the identity cylinder")
    s = Fraction(3, 2) ** (k - 1)
    h = 2 ** (2 * k - 1)
    return RationalMatrix.from_rows([
        [s * (h + 1), 0, s * (2 * h - 1)],
        [0, s * 3 * h, 0],
        [s * (h - Fraction(1, 2)), 0, s * (2 * h + Fraction(1, 2))],
    ])


def closed_invariant(tag: str, k: int) -> Fraction:
    """Closed-form value of the closed genus-k surface for a named algebra.

    At k = 0 each formula evaluates to counit∘unit (5, 1 and 5
    respectively), so one expression covers all genera.
    """
    if k < 0:
        raise ValueError(f"no closed surface has genus {k}")
    if tag == "qz5":
        return Fraction(5)
    base = Fraction(3, 2) ** (k - 1) * (Fraction(2) ** (2 * k - 1) + 1)
    if tag == "zqs3":
        return base
    if tag == "A":
        return 5 * base
    raise ValueError(f"unknown algebra tag {tag!r}; expected qz5, zqs3 or A")
