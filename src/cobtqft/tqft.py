"""Evaluation of cobordisms in a commutative Frobenius algebra.

``evaluate(a, K)`` produces the exact matrix the field theory of ``a``
assigns to the cobordism ``K``.  A connected genus-g component with n
ingoing and m outgoing circles gets the block comul^m ∘ handle^g ∘ mul^n
(``component_matrix``), and a closed genus-g piece the scalar
counit∘handle^g∘unit, the 0 -> 0 block.  Pieces sit side by side, so
an entry of the matrix of K is the product of one entry of each block;
where a piece's circles sit decides only which tensor slots its block's
basis indices occupy.  ``evaluate`` therefore makes one pass: starting
from the first block's entries, it multiplies in each further block,
the closed pieces' first, sending the block's row and column indices
straight to the slots of its outgoing and ingoing circles
(``_slots``).  The pass multiplies integers only: it reads each cached
block's numerators and denominator (``RationalMatrix.nums`` and
``den``) directly.  Before it starts, ``exact.product_divisors`` gives
the matrix's denominator and a divisor for each block, which the pass
divides out of the block's numerators as it places them; the product
then comes out canonical, with no normalising pass after it, as
``kron``'s does.
Positions are flat, as in ``nums`` (row times width plus column), so a
block entry's slots make one integer offset and placing the block adds
that offset to each position of the matrix so far.  Two cases need no
placement, because a piece that holds every boundary circle holds them
in order and its block's positions are already final: a cobordism of
one piece (a connected one with no closed pieces, or one closed piece)
evaluates to its cached block itself, with no pass and no copy, and a
connected cobordism with closed pieces multiplies its block's entries
in where they stand.

The table ``ALGEBRAS`` names the three algebras the command line knows
(``qz5``, ``zqs3`` and ``A``) by their builders; ``load_algebra``
resolves a table name or ``file:<path>`` to an algebra, and
``ensure_verified`` (which ``evaluate`` calls) checks its axioms once.
``closed_invariant`` reads the closed genus-k surface's value from the
algebra's own 0 -> 0 block, as any closed piece is evaluated.

Evaluation is pure, so the building blocks are memoized per algebra
with ``functools.lru_cache``; algebras hash by identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .exact import (RationalMatrix, kron, mat_mul, product_divisors,
                    read_int)
from .frobenius import (AxiomReport, FrobeniusAlgebra, faithful_algebra, qz5,
                        verify_frobenius, zqs3)
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
def ensure_verified(a: FrobeniusAlgebra) -> AxiomReport:
    """The axiom report of ``a``, cached once it passes; AxiomFailure, not
    cached, if any axiom fails (every caller stops at the first)."""
    report = verify_frobenius(a)
    if not report.all_pass:
        raise AxiomFailure(report)
    return report


@lru_cache(maxsize=None, typed=True)
def component_matrix(a: FrobeniusAlgebra, m: int, k: int, n: int) -> RationalMatrix:
    """Matrix of the connected block E[m,k,n] = comul^m ∘ handle^k ∘ mul^n
    with n ingoing, m outgoing circles and genus k.

    mul^n = E[1,0,n] (the unit at n = 0) and comul^m = E[m,0,1] (the
    counit at m = 0) are each built from the next smaller one, and
    handle^k = E[1,k,1] from its two halves, so building it recurses
    about log2(k) deep; any other block is E[m,0,1] ∘ (E[1,k,1] ∘
    E[1,0,n]).  An argument that is not an int, or is negative, raises
    ValueError; the cache tells 1 from True and 1.0.
    """
    if {type(m), type(k), type(n)} != {int}:
        raise ValueError("a block's genus and circle counts must be ints")
    if min(m, k, n) < 0:
        raise ValueError("no block has a negative genus or circle count")
    one = RationalMatrix.identity(a.dim)
    if (m, k) == (1, 0):
        if n < 2:
            return a.unit if n == 0 else one
        return mat_mul(a.mul, kron(component_matrix(a, 1, 0, n - 1), one))
    if (k, n) == (0, 1):
        if m == 0:
            return a.counit
        return mat_mul(kron(component_matrix(a, m - 1, 0, 1), one), a.comul)
    if (m, n) == (1, 1):
        if k == 1:
            return mat_mul(a.mul, a.comul)
        return mat_mul(component_matrix(a, 1, k // 2, 1),
                       component_matrix(a, 1, k - k // 2, 1))
    inner = mat_mul(component_matrix(a, 1, k, 1), component_matrix(a, 1, 0, n))
    return mat_mul(component_matrix(a, m, 0, 1), inner)


@lru_cache(maxsize=None)
def _slots(d: int, circles: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Where each basis index of a block on ``circles`` lands among n slots.

    Tensor indices are base-d numerals with slot 0 the most significant
    digit, as in ``kron``; the block's j-th digit goes to slot
    ``circles[j]``, the other slots stay 0.
    """
    weights = [d ** (n - 1 - t) for t in circles]
    return tuple(sum(i * w for i, w in zip(digits, weights))
                 for digits in product(range(d), repeat=len(circles)))


# The largest matrix the command line lets `evaluate` build, in entries:
# the 3 -> 3 matrices under A, the largest the scan needs.
MAX_EVAL_ENTRIES = 15 ** 6


def check_matrix_size(a: FrobeniusAlgebra, n_in: int, n_out: int) -> None:
    """ValueError when an n_in -> n_out matrix under `a` passes the limit."""
    if a.dim ** (n_in + n_out) > MAX_EVAL_ENTRIES:
        raise ValueError(f"a {n_in} -> {n_out} matrix under a {a.dim}-"
                         f"dimensional algebra exceeds the limit of "
                         f"{MAX_EVAL_ENTRIES} matrix entries")


def evaluate(a: FrobeniusAlgebra, K: Cobordism) -> Evaluation:
    """Apply the field theory of ``a`` to a cobordism.

    The matrix of a cobordism of one piece is that piece's cached block
    itself, shared with every other caller; like any RationalMatrix it
    is not to be mutated.
    """
    ensure_verified(a)
    # the closed pieces come first, while the matrix has one entry
    pieces = [((), g, ()) for g in K.closed_genera]
    pieces += [(c.outgoing, c.genus, c.ingoing) for c in K.components]
    blocks = [component_matrix(a, len(outgoing), genus, len(ingoing))
              for outgoing, genus, ingoing in pieces]
    if len(blocks) == 1:
        return Evaluation(a, K.n_in, K.n_out, blocks[0])
    width = a.dim ** K.n_in
    divisors, den = product_divisors(blocks)
    # the first piece's entries start the matrix; with no pieces it is
    # the 1 x 1 matrix 1
    nums = None if blocks else {0: 1}
    for (outgoing, _, ingoing), block, d in zip(pieces, blocks, divisors):
        if len(outgoing) == K.n_out and len(ingoing) == K.n_in:
            # the piece holds every circle, in order: nothing moves
            placed = (block.nums.items() if d == 1 else
                      [(k, w // d) for k, w in block.nums.items()])
        else:
            rows = _slots(a.dim, outgoing, K.n_out)
            cols = _slots(a.dim, ingoing, K.n_in)
            bc = block.cols
            placed = [(rows[k // bc] * width + cols[k % bc], w // d)
                      for k, w in block.nums.items()]
        nums = (dict(placed) if nums is None else
                {p + q: v * w for p, v in nums.items() for q, w in placed})
    matrix = RationalMatrix._canonical(a.dim ** K.n_out, width, nums, den)
    return Evaluation(a, K.n_in, K.n_out, matrix)


ALGEBRAS = {"qz5": qz5, "zqs3": zqs3, "A": faithful_algebra}


def read_json(path: str):
    """The JSON in the UTF-8 file at `path`; ValueError, its message led
    by the path, if the file is not UTF-8 or not JSON, nests too deeply
    or holds an integer of more than ``exact.MAX_VALUE_DIGITS`` digits."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=read_int)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None


def load_algebra(selector: str) -> FrobeniusAlgebra:
    """Resolve a table name or ``file:<path>`` to an algebra.

    The axioms are not checked here: :func:`ensure_verified` does that,
    and :func:`evaluate` and :func:`closed_invariant` call it.
    """
    if selector in ALGEBRAS:
        return ALGEBRAS[selector]()
    if selector.startswith("file:"):
        return FrobeniusAlgebra.from_json_obj(read_json(selector[5:]))
    raise ValueError(f"unknown algebra {selector!r}: expected one of "
                     f"{', '.join(ALGEBRAS)} or file:<path>")


def closed_invariant(a: FrobeniusAlgebra, k: int) -> Fraction:
    """Value of the closed genus-k surface under ``a``: the 0 -> 0 block
    counit∘handle^k∘unit; AxiomFailure if ``a`` fails an axiom."""
    ensure_verified(a)
    return component_matrix(a, 0, k, 0).get(0, 0)
