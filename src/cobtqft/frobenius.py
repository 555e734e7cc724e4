"""Commutative Frobenius algebras over the exact rationals.

Provides centers of group algebras (on the conjugacy-class-sum
basis), group algebras of abelian groups, tensor products of algebras,
and an exact axiom checker.  The two concrete instances everything else
is built from are the group algebra of the cyclic group of order 5 and
the center of the group algebra of the symmetric group of degree 3;
their tensor product is the 15-dimensional algebra whose field theory
the faithfulness scan certifies.

No matrix is inverted.  On the class sums C_i the pairing counit∘mul
is a permutation matrix scaled by the class sizes, so its inverse, the
copairing, is γ = Σ_i |C_i|⁻¹ · C_i ⊗ C_ī, with C_ī the class of the
inverses (Kock, *Frobenius Algebras and 2D Topological Quantum Field
Theories*, 2003); :func:`center_of_group_algebra` says why.

An abelian group algebra is its own center, so ``group_algebra`` is
``center_of_group_algebra`` with the counit scaled by the group order
|G| and the comultiplication by 1/|G|.  With that counit the handle
operator mul∘comul is the identity, and a closed genus-g surface
evaluates to |G| for every g.

Matrix conventions: a d-dimensional algebra has
``mul: d x d^2``, ``unit: d x 1``, ``comul: d^2 x d``, ``counit: 1 x d``,
with tensor-square bases ordered ``b1⊗b1, b1⊗b2, ..., bn⊗bn``.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .exact import RationalMatrix, json_type, kron, mat_mul, swap_matrix


class FiniteGroup:
    """A finite group given by its Cayley table on element indices."""

    __slots__ = ("order", "table", "identity")

    def __init__(self, table: Sequence[Sequence[int]]):
        n = len(table)
        rows = tuple(tuple(row) for row in table)
        for row in rows:
            if len(row) != n or any(not 0 <= x < n for x in row):
                raise ValueError("Cayley table is not an n x n table of indices")
        identity = None
        for e in range(n):
            if all(rows[e][g] == g == rows[g][e] for g in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element")
        for g in range(n):
            if identity not in rows[g]:
                raise ValueError(f"element {g} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                        raise ValueError(
                            f"multiplication is not associative at ({a},{b},{c})")
        self.order = n
        self.table = rows
        self.identity = identity

    def inverse(self, a: int) -> int:
        return self.table[a].index(self.identity)

    def is_abelian(self) -> bool:
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(self.order) for b in range(self.order))

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes ordered with the identity's class first, then by least
        element index."""
        seen = set()
        classes = []
        for g in range(self.order):
            if g in seen:
                continue
            orbit = {self.table[self.table[h][g]][self.inverse(h)]
                     for h in range(self.order)}
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
        classes.sort(key=lambda cls: (self.identity not in cls, cls[0]))
        return tuple(classes)

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        return cls([[(i + j) % n for j in range(n)] for i in range(n)])

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        """Permutations of 0..n-1 in lexicographic one-line order."""
        elements = list(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(elements)}
        table = [[index[tuple(p[q[x]] for x in range(n))] for q in elements]
                 for p in elements]
        return cls(table)


# The largest dimension of an algebra read from JSON: the axiom check
# grows about as dim^3 and takes 0.1-0.2 s at dim 20.
MAX_INPUT_DIM = 20


class FrobeniusAlgebra:
    """Structure maps of a (candidate) commutative Frobenius algebra.

    Construction does not validate the axioms, so broken instances can
    be built and fed to :func:`verify_frobenius`; the constructors in
    this module all produce instances that pass.
    """

    __slots__ = ("dim", "mul", "unit", "comul", "counit")

    def __init__(self, dim: int, mul: RationalMatrix, unit: RationalMatrix,
                 comul: RationalMatrix, counit: RationalMatrix):
        # the wrong shape is not printed: read from JSON, it is unbounded
        for name, m, rows, cols in (("mul", mul, dim, dim * dim),
                                    ("unit", unit, dim, 1),
                                    ("comul", comul, dim * dim, dim),
                                    ("counit", counit, 1, dim)):
            if m.shape != (rows, cols):
                raise ValueError(f"{name} must be {rows}x{cols}, and its "
                                 f"shape differs")
        self.dim = dim
        self.mul = mul
        self.unit = unit
        self.comul = comul
        self.counit = counit

    def __repr__(self) -> str:
        return f"FrobeniusAlgebra(dim={self.dim})"

    def to_json_obj(self) -> dict:
        return {"dim": self.dim,
                "mul": self.mul.to_json_obj(), "unit": self.unit.to_json_obj(),
                "comul": self.comul.to_json_obj(),
                "counit": self.counit.to_json_obj()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj) -> "FrobeniusAlgebra":
        """Parse the JSON form; a malformed field, or a dimension above
        MAX_INPUT_DIM, raises ValueError naming it."""
        if not isinstance(obj, dict):
            raise ValueError(f"an algebra must be a JSON object, "
                             f"got {json_type(obj)}")
        if type(obj.get("dim")) is not int:
            raise ValueError(f"algebra field 'dim' must be an integer, "
                             f"got {json_type(obj.get('dim'))}")
        if obj["dim"] > MAX_INPUT_DIM:
            raise ValueError(f"algebra field 'dim' exceeds the input limit "
                             f"{MAX_INPUT_DIM}")
        maps = []
        for field in ("mul", "unit", "comul", "counit"):
            try:
                maps.append(RationalMatrix.from_json_obj(obj.get(field)))
            except ValueError as err:
                raise ValueError(f"algebra field {field!r}: {err}") from None
        return cls(obj["dim"], *maps)


class AxiomReport(NamedTuple):
    results: tuple[tuple[str, bool], ...]

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok in self.results)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.results if not ok)


def center_of_group_algebra(g: FiniteGroup) -> FrobeniusAlgebra:
    """The center of a group algebra, on the conjugacy-class-sum basis.

    The counit reads off the coefficient of the identity element, so the
    pairing counit∘mul takes class sums C_i, C_j to the number of pairs
    x ∈ C_i, y ∈ C_j with xy = e: |C_i| if C_j is C_ī, the class of the
    inverses of C_i, and 0 otherwise.  Its inverse is the copairing
    γ = Σ_i |C_i|⁻¹ · C_i ⊗ C_ī (since |C_ī| = |C_i|), and the
    comultiplication is (id⊗mul)∘(γ⊗id), so that γ = comul∘unit.
    """
    classes = g.conjugacy_classes()
    d = len(classes)
    class_of = {}
    for k, cls in enumerate(classes):
        for x in cls:
            class_of[x] = k
    mul_data = {}
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            coeff = [0] * g.order
            for x in ci:
                row = g.table[x]
                for y in cj:
                    coeff[row[y]] += 1
            col = i * d + j
            for k, ck in enumerate(classes):
                c = coeff[ck[0]]
                if any(coeff[x] != c for x in ck):
                    raise RuntimeError("class sums must multiply to "
                                       "class-sum combinations")
                if c:
                    mul_data[k, col] = Fraction(c)
    mul = RationalMatrix(d, d * d, mul_data)
    unit = RationalMatrix(d, 1, {(class_of[g.identity], 0): Fraction(1)})
    counit = RationalMatrix(1, d, {(0, class_of[g.identity]): Fraction(1)})
    copairing = RationalMatrix(
        d * d, 1, {(i * d + class_of[g.inverse(cls[0])], 0):
                   Fraction(1, len(cls)) for i, cls in enumerate(classes)})
    one = RationalMatrix.identity(d)
    comul = mat_mul(kron(one, mul), kron(copairing, one))
    return FrobeniusAlgebra(d, mul, unit, comul, counit)


def group_algebra(g: FiniteGroup) -> FrobeniusAlgebra:
    """The group algebra of an abelian group, on the basis of its elements.

    An abelian group's conjugacy classes are its single elements (the
    identity first, then by index), so this is
    :func:`center_of_group_algebra` with the counit multiplied by the
    group order |G| and the comultiplication divided by it.  The counit
    is then |G| at the identity element, and the handle operator
    mul∘comul is the identity.
    """
    if not g.is_abelian():
        raise ValueError("group algebra of a non-abelian group is not a "
                         "commutative Frobenius algebra; use "
                         "center_of_group_algebra instead")
    z = center_of_group_algebra(g)
    n = Fraction(g.order)
    return FrobeniusAlgebra(z.dim, z.mul, z.unit, z.comul.scale(1 / n),
                            z.counit.scale(n))


def tensor_algebra(a: FrobeniusAlgebra, b: FrobeniusAlgebra) -> FrobeniusAlgebra:
    """Tensor product algebra on the basis ``a_i ⊗ b_j`` (a outer)."""
    da, db = a.dim, b.dim
    ida = RationalMatrix.identity(da)
    idb = RationalMatrix.identity(db)
    # (A⊗B)⊗(A⊗B) -> A⊗A⊗B⊗B, swapping the middle factors
    unshuffle = kron(ida, kron(swap_matrix(db, da), idb))
    # A⊗A⊗B⊗B -> (A⊗B)⊗(A⊗B)
    shuffle = kron(ida, kron(swap_matrix(da, db), idb))
    mul = mat_mul(kron(a.mul, b.mul), unshuffle)
    comul = mat_mul(shuffle, kron(a.comul, b.comul))
    unit = kron(a.unit, b.unit)
    counit = kron(a.counit, b.counit)
    return FrobeniusAlgebra(da * db, mul, unit, comul, counit)


def verify_frobenius(a: FrobeniusAlgebra) -> AxiomReport:
    """Check every axiom as an exact matrix identity."""
    d = a.dim
    one = RationalMatrix.identity(d)
    flip = swap_matrix(d, d)
    mul, unit, comul, counit = a.mul, a.unit, a.comul, a.counit
    results = (
        ("left unit", mat_mul(mul, kron(unit, one)) == one),
        ("right unit", mat_mul(mul, kron(one, unit)) == one),
        ("associativity",
         mat_mul(mul, kron(mul, one)) == mat_mul(mul, kron(one, mul))),
        ("commutativity", mat_mul(mul, flip) == mul),
        ("left counit", mat_mul(kron(counit, one), comul) == one),
        ("right counit", mat_mul(kron(one, counit), comul) == one),
        ("coassociativity",
         mat_mul(kron(comul, one), comul) == mat_mul(kron(one, comul), comul)),
        ("frobenius left",
         mat_mul(kron(one, mul), kron(comul, one)) == mat_mul(comul, mul)),
        ("frobenius right",
         mat_mul(kron(mul, one), kron(one, comul)) == mat_mul(comul, mul)),
    )
    return AxiomReport(results)


@lru_cache(maxsize=None)
def qz5() -> FrobeniusAlgebra:
    """Group algebra of the cyclic group of order 5."""
    return group_algebra(FiniteGroup.cyclic(5))


@lru_cache(maxsize=None)
def zqs3() -> FrobeniusAlgebra:
    """Center of the group algebra of the symmetric group of degree 3."""
    return center_of_group_algebra(FiniteGroup.symmetric(3))


@lru_cache(maxsize=None)
def faithful_algebra() -> FrobeniusAlgebra:
    """The 15-dimensional tensor product whose field theory is faithful."""
    return tensor_algebra(qz5(), zqs3())

