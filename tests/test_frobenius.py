import hashlib
import itertools
from fractions import Fraction as F

import pytest

from cobtqft.exact import RationalMatrix, kron, mat_mul
from cobtqft.frobenius import (MAX_INPUT_DIM, FiniteGroup, FrobeniusAlgebra,
                               center_of_group_algebra, faithful_algebra,
                               group_algebra, qz5, tensor_algebra,
                               verify_frobenius, zqs3)
from cobtqft.golden import (QZ5_COMUL, QZ5_COUNIT, QZ5_MUL, QZ5_UNIT,
                            ZQS3_COMUL, ZQS3_COPAIRING, ZQS3_COUNIT,
                            ZQS3_MUL, ZQS3_PAIRING, ZQS3_UNIT)
from cobtqft.tqft import load_algebra


def test_group_validation():
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup([[0, 1, 2], [1, 0, 1], [2, 2, 0]])
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="inverse"):
        FiniteGroup([[0, 1, 2], [1, 1, 1], [2, 1, 2]])
    FiniteGroup.cyclic(7)  # fine


def test_symmetric_group_conjugacy_classes():
    s3 = FiniteGroup.symmetric(3)
    assert s3.order == 6
    classes = s3.conjugacy_classes()
    assert len(classes) == 3
    assert classes[0] == (s3.identity,)
    # elements are the one-line permutations in lexicographic order;
    # transpositions come second (their least element index is smaller)
    perms = list(itertools.permutations(range(3)))
    assert [{perms[x] for x in cls} for cls in classes] == [
        {(0, 1, 2)}, {(0, 2, 1), (1, 0, 2), (2, 1, 0)}, {(1, 2, 0), (2, 0, 1)}]


def test_group_algebra_of_z5_matches_fixtures():
    q = group_algebra(FiniteGroup.cyclic(5))
    assert q.mul == QZ5_MUL
    assert q.unit == QZ5_UNIT
    assert q.comul == QZ5_COMUL
    assert q.counit == QZ5_COUNIT


def test_group_algebra_trivial_group():
    t = group_algebra(FiniteGroup.cyclic(1))
    assert t.dim == 1
    assert t.mul == RationalMatrix.from_rows([[1]])
    assert t.counit == RationalMatrix.from_rows([[1]])


def test_group_algebra_rejects_non_abelian():
    with pytest.raises(ValueError, match="non-abelian"):
        group_algebra(FiniteGroup.symmetric(3))


def test_center_of_s3_matches_fixtures():
    z = center_of_group_algebra(FiniteGroup.symmetric(3))
    assert z.mul == ZQS3_MUL
    assert z.unit == ZQS3_UNIT
    assert z.counit == ZQS3_COUNIT
    assert z.comul == ZQS3_COMUL


def test_center_structure_constants_are_nonneg_integers():
    for g in (FiniteGroup.symmetric(3), FiniteGroup.symmetric(4),
              FiniteGroup.cyclic(6)):
        z = center_of_group_algebra(g)
        for v in z.mul.entries.values():
            assert v.denominator == 1 and v.numerator > 0


def _cayley_group_algebra(g):
    """(mul, unit, comul, counit) of the group algebra read off the
    Cayley table: product 1 at (g·h, g·n + h), unit δ_e, counit n·δ_e,
    and the comultiplication the transposed product over n."""
    n = g.order
    mul = RationalMatrix(n, n * n, {(g.table[a][b], a * n + b): 1
                                    for a in range(n) for b in range(n)})
    unit = RationalMatrix(n, 1, {(g.identity, 0): 1})
    counit = RationalMatrix(1, n, {(0, g.identity): n})
    return mul, unit, mul.transpose().scale(F(1, n)), counit


def test_center_of_abelian_group_is_the_group_algebra():
    klein = FiniteGroup([[a ^ b for b in range(4)] for a in range(4)])
    for g in [FiniteGroup.cyclic(n) for n in range(1, 9)] + [klein]:
        a = group_algebra(g)
        assert (a.mul, a.unit, a.comul, a.counit) == _cayley_group_algebra(g)
        # only the normalization of the counit and comultiplication differs
        z = center_of_group_algebra(g)
        assert (z.mul, z.unit) == (a.mul, a.unit)
        assert (z.comul, z.counit.scale(g.order)) \
            == (a.comul.scale(g.order), a.counit)
        # the counit |G| at the identity makes the handle the identity
        assert mat_mul(a.mul, a.comul) == RationalMatrix.identity(g.order)


def _alternating(n):
    """The even permutations of 0..n-1, in lexicographic one-line order."""
    elements = [p for p in itertools.permutations(range(n))
                if sum(p[i] > p[j] for i in range(n)
                       for j in range(i + 1, n)) % 2 == 0]
    index = {p: i for i, p in enumerate(elements)}
    return FiniteGroup([[index[tuple(p[q[x]] for x in range(n))]
                         for q in elements] for p in elements])


# SHA-256 prefixes of `to_json()` of mul, unit, comul and counit, in order
STRUCTURE_MAP_DIGESTS = {
    "qz5": (qz5, ("bc75d7b0fa7b", "6fe907218c68", "af7924077355",
                  "b6367bb6f09f")),
    "zqs3": (zqs3, ("835676cc8ceb", "abd729bc1a74", "5fa63f1f2e5f",
                    "40ed5af47434")),
    "A": (faithful_algebra, ("6485a1559af1", "8a72cd669957", "c259f2114395",
                             "16f775f28700")),
    "C4": (lambda: group_algebra(FiniteGroup.cyclic(4)),
           ("747600c128a8", "6d4e9821eebd", "3433a43e09b3", "d1b82fe670d1")),
    "ZS4": (lambda: center_of_group_algebra(FiniteGroup.symmetric(4)),
            ("d8835866e841", "6fe907218c68", "2c738f268e94", "3cd105ae5946")),
    "ZA4": (lambda: center_of_group_algebra(_alternating(4)),
            ("a84f89c247ce", "6d4e9821eebd", "ade5c62c9adf", "e71caeec062b")),
}


@pytest.mark.parametrize("name", sorted(STRUCTURE_MAP_DIGESTS))
def test_structure_map_json_is_pinned(name):
    build, expected = STRUCTURE_MAP_DIGESTS[name]
    a = build()
    digests = tuple(hashlib.sha256(m.to_json().encode()).hexdigest()[:12]
                    for m in (a.mul, a.unit, a.comul, a.counit))
    assert digests == expected


def _pairing_copairing(a):
    """β = counit∘mul (1 x d²) and γ = comul∘unit = Δ(1) (d² x 1)."""
    return mat_mul(a.counit, a.mul), mat_mul(a.comul, a.unit)


def test_pairing_copairing_zqs3():
    beta, gamma = _pairing_copairing(zqs3())
    assert beta == ZQS3_PAIRING
    assert gamma == ZQS3_COPAIRING


def test_pairing_copairing_qz5():
    beta, gamma = _pairing_copairing(qz5())
    for i in range(5):
        for j in range(5):
            inverse_pair = (i + j) % 5 == 0
            assert beta.get(0, i * 5 + j) == (5 if inverse_pair else 0)
            assert gamma.get(i * 5 + j, 0) == (F(1, 5) if inverse_pair else 0)


def test_pairing_snake_identities():
    for a in (qz5(), zqs3(), faithful_algebra()):
        d = a.dim
        one = RationalMatrix.identity(d)
        beta, gamma = _pairing_copairing(a)
        assert mat_mul(kron(beta, one), kron(one, gamma)) == one
        assert mat_mul(kron(one, beta), kron(gamma, one)) == one


def _invert_dense(b):
    """Gauss-Jordan inverse of a square list of Fraction rows."""
    n = len(b)
    aug = [list(row) + [F(int(i == j)) for j in range(n)]
           for i, row in enumerate(b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("the pairing is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def test_copairing_inverts_the_pairing():
    # the closed-form copairing against Gauss-Jordan elimination; in A4
    # the two classes of 3-cycles are each other's inverses
    a4 = _alternating(4)
    assert [a4.inverse(cls[0]) in cls for cls in a4.conjugacy_classes()] \
        == [True, False, False, True]
    klein = FiniteGroup([[a ^ b for b in range(4)] for a in range(4)])
    groups = [FiniteGroup.symmetric(3), FiniteGroup.symmetric(4), a4, klein]
    groups += [FiniteGroup.cyclic(n) for n in range(1, 9)]
    for g in groups:
        a = center_of_group_algebra(g)
        d = a.dim
        beta, gamma = _pairing_copairing(a)
        inverse = _invert_dense([[beta.get(0, i * d + j) for j in range(d)]
                                 for i in range(d)])
        assert [[gamma.get(i * d + j, 0) for j in range(d)]
                for i in range(d)] == inverse


def test_singular_counits_fail_the_counit_laws():
    q = qz5()
    # the zero counit pairs everything to zero, and an all-ones counit
    # makes the pairing a singular circulant
    for counit in (RationalMatrix(1, 5),
                   RationalMatrix(1, 5, {(0, j): F(1) for j in range(5)})):
        beta = mat_mul(counit, q.mul)
        with pytest.raises(ValueError, match="singular"):
            _invert_dense([[beta.get(0, i * 5 + j) for j in range(5)]
                           for i in range(5)])
        broken = FrobeniusAlgebra(5, q.mul, q.unit, q.comul, counit)
        assert verify_frobenius(broken).failures == ("left counit",
                                                     "right counit")


def test_tensor_algebra_dimensions_and_sphere_value():
    a = tensor_algebra(qz5(), zqs3())
    assert a.dim == 15
    assert mat_mul(a.counit, a.unit) == RationalMatrix.from_rows([[5]])


def test_tensor_with_trivial_algebra_is_identity():
    trivial = group_algebra(FiniteGroup.cyclic(1))
    z = zqs3()
    t = tensor_algebra(z, trivial)
    assert (t.mul, t.unit, t.comul, t.counit) == (z.mul, z.unit, z.comul,
                                                  z.counit)
    t = tensor_algebra(trivial, z)
    assert (t.mul, t.unit, t.comul, t.counit) == (z.mul, z.unit, z.comul,
                                                  z.counit)


def test_axioms_pass_for_all_three_algebras():
    for tag in ("qz5", "zqs3", "A"):
        report = verify_frobenius(load_algebra(tag))
        assert report.all_pass, (tag, report.failures)
        assert len(report.results) == 9


def test_broken_counit_fails_counit_law():
    z = zqs3()
    broken = FrobeniusAlgebra(3, z.mul, z.unit, z.comul, RationalMatrix(1, 3))
    report = verify_frobenius(broken)
    assert not report.all_pass
    assert "left counit" in report.failures
    assert "right counit" in report.failures
    assert "associativity" not in report.failures


def test_qz5_is_special():
    q = qz5()
    assert mat_mul(q.mul, q.comul) == RationalMatrix.identity(5)


def test_algebra_json_round_trip():
    z = zqs3()
    back = FrobeniusAlgebra.from_json_obj(z.to_json_obj())
    assert back.dim == z.dim
    assert back.mul == z.mul and back.comul == z.comul
    assert verify_frobenius(back).all_pass
    # keys other than the four maps and "dim", such as the "basis" names
    # older files carry, are ignored
    named = FrobeniusAlgebra.from_json_obj(
        {**z.to_json_obj(), "basis": ["e", "(12)+(13)+(23)", "(123)+(132)"]})
    assert named.to_json() == z.to_json()


def test_algebra_json_dim_limit():
    at_limit = group_algebra(FiniteGroup.cyclic(MAX_INPUT_DIM))
    back = FrobeniusAlgebra.from_json_obj(at_limit.to_json_obj())
    assert back.dim == 20 and back.mul == at_limit.mul
    too_big = group_algebra(FiniteGroup.cyclic(MAX_INPUT_DIM + 1))
    with pytest.raises(ValueError, match="'dim' exceeds the input limit 20"):
        FrobeniusAlgebra.from_json_obj(too_big.to_json_obj())


def test_shape_validation():
    z = zqs3()
    with pytest.raises(ValueError, match="mul must be 3x9, and its shape"):
        FrobeniusAlgebra(3, z.unit, z.unit, z.comul, z.counit)
