from fractions import Fraction as F

import pytest

from cobtqft.exact import RationalMatrix, kron, mat_mul
from cobtqft.frobenius import (MAX_INPUT_DIM, FiniteGroup, FrobeniusAlgebra,
                               center_of_group_algebra, faithful_algebra,
                               group_algebra, pairing_copairing, qz5,
                               tensor_algebra, verify_frobenius, zqs3)
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
    # transpositions come second (their least element index is smaller)
    assert len(classes[1]) == 3 and len(classes[2]) == 2
    names = [tuple(s3.names[x] for x in cls) for cls in classes]
    assert names[0] == ("e",)
    assert set(names[1]) == {"(12)", "(13)", "(23)"}
    assert set(names[2]) == {"(123)", "(132)"}


def test_group_algebra_of_z5_matches_fixtures():
    q = group_algebra(FiniteGroup.cyclic(5))
    assert q.mul == QZ5_MUL
    assert q.unit == QZ5_UNIT
    assert q.comul == QZ5_COMUL
    assert q.counit == QZ5_COUNIT
    assert q.basis_names == ("e", "a", "a^2", "a^3", "a^4")


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


def test_center_of_abelian_group_is_the_group_algebra():
    g = FiniteGroup.cyclic(2)
    assert center_of_group_algebra(g).mul == group_algebra(g).mul
    # only the counit normalization differs
    assert group_algebra(g).counit == RationalMatrix.from_rows([[2, 0]])
    assert center_of_group_algebra(g).counit == RationalMatrix.from_rows([[1, 0]])


def test_pairing_copairing_zqs3():
    pd = pairing_copairing(zqs3())
    assert pd.pairing == ZQS3_PAIRING
    assert pd.copairing == ZQS3_COPAIRING


def test_pairing_copairing_qz5():
    pd = pairing_copairing(qz5())
    for i in range(5):
        for j in range(5):
            inverse_pair = (i + j) % 5 == 0
            assert pd.pairing.get(0, i * 5 + j) == (5 if inverse_pair else 0)
            assert pd.copairing.get(i * 5 + j, 0) \
                == (F(1, 5) if inverse_pair else 0)


def test_pairing_snake_identities():
    for a in (qz5(), zqs3(), faithful_algebra()):
        d = a.dim
        one = RationalMatrix.identity(d)
        beta, gamma = pairing_copairing(a)
        assert mat_mul(kron(beta, one), kron(one, gamma)) == one
        assert mat_mul(kron(one, beta), kron(gamma, one)) == one


def test_pairing_rejects_singular_form():
    q = qz5()
    # the zero counit pairs everything to zero
    broken = FrobeniusAlgebra(5, q.mul, q.unit, q.comul, RationalMatrix(1, 5))
    with pytest.raises(ValueError, match="not a Frobenius form"):
        pairing_copairing(broken)
    # an all-ones counit makes the pairing a singular circulant
    ones = FrobeniusAlgebra(
        5, q.mul, q.unit, q.comul,
        RationalMatrix(1, 5, {(0, j): F(1) for j in range(5)}))
    with pytest.raises(ValueError, match="not a Frobenius form"):
        pairing_copairing(ones)


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
    assert (back.dim, back.basis_names) == (z.dim, z.basis_names)
    assert back.mul == z.mul and back.comul == z.comul
    assert verify_frobenius(back).all_pass


def test_algebra_json_dim_limit():
    at_limit = group_algebra(FiniteGroup.cyclic(MAX_INPUT_DIM))
    back = FrobeniusAlgebra.from_json_obj(at_limit.to_json_obj())
    assert back.dim == 20 and back.mul == at_limit.mul
    too_big = group_algebra(FiniteGroup.cyclic(MAX_INPUT_DIM + 1))
    with pytest.raises(ValueError, match="dimension 21 exceeds"):
        FrobeniusAlgebra.from_json_obj(too_big.to_json_obj())


def test_shape_validation():
    z = zqs3()
    with pytest.raises(ValueError, match="mul must be"):
        FrobeniusAlgebra(3, z.unit, z.unit, z.comul, z.counit)
