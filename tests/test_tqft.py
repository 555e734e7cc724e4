import itertools
from fractions import Fraction as F

import pytest

from cobtqft.exact import RationalMatrix, kron, mat_mul, swap_matrix
from cobtqft.frobenius import (FrobeniusAlgebra, faithful_algebra, qz5,
                               tensor_algebra, zqs3)
from cobtqft.faithfulness import ScanBounds, enumerate_cobordisms
from cobtqft.surface import (Cobordism, component, compose, e_block, identity,
                             permutation, tensor)
from cobtqft.tqft import (ALGEBRAS, AxiomFailure, closed_invariant,
                          component_matrix, evaluate, load_algebra)

E111_ZQS3 = RationalMatrix.from_rows([[3, 0, 3], [0, 6, 0],
                                      [F(3, 2), 0, F(9, 2)]])


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
    s = F(3, 2) ** (k - 1)
    h = 2 ** (2 * k - 1)
    return RationalMatrix.from_rows([
        [s * (h + 1), 0, s * (2 * h - 1)],
        [0, s * 3 * h, 0],
        [s * (h - F(1, 2)), 0, s * (2 * h + F(1, 2))],
    ])


def test_iterated_mul():
    q = qz5()
    assert component_matrix(q, 1, 0, 0) == q.unit
    assert component_matrix(q, 1, 0, 1) == RationalMatrix.identity(5)
    assert component_matrix(q, 1, 0, 2) == q.mul
    # left fold equals right fold, forced by associativity
    right_fold = mat_mul(q.mul, kron(RationalMatrix.identity(5), q.mul))
    assert component_matrix(q, 1, 0, 3) == right_fold
    z = zqs3()
    assert component_matrix(z, 0, 0, 1) == z.counit
    assert component_matrix(z, 2, 0, 1) == z.comul


def test_evaluate_genus_one_tube_zqs3():
    assert evaluate(zqs3(), e_block(1, 1, 1)).matrix == E111_ZQS3


def test_evaluate_identity_is_identity_matrix():
    for a in (qz5(), zqs3()):
        for n in range(3):
            assert evaluate(a, identity(n)).matrix \
                == RationalMatrix.identity(a.dim ** n)


def test_evaluate_closed_surfaces_qz5():
    for k in range(9):
        ev = evaluate(qz5(), e_block(0, k, 0))
        assert ev.matrix == RationalMatrix.from_rows([[5]])


def test_evaluate_with_a_zero_closed_scalar_is_empty():
    # Q[x]/(x^2) on the basis (1, x) with counit 1 on x: the sphere is 0
    # and the torus is counit(2x) = 2
    dual = FrobeniusAlgebra(
        2, RationalMatrix(2, 4, {(0, 0): 1, (1, 1): 1, (1, 2): 1}),
        RationalMatrix(2, 1, {(0, 0): 1}),
        RationalMatrix(4, 2, {(1, 0): 1, (2, 0): 1, (3, 1): 1}),
        RationalMatrix(1, 2, {(0, 1): 1}))
    tube = e_block(1, 1, 1)
    with_torus = Cobordism(1, 1, tube.components, (1,))
    assert evaluate(dual, with_torus).matrix \
        == evaluate(dual, tube).matrix.scale(2)
    for closed in ((0,), (1, 0)):
        K = Cobordism(1, 1, tube.components, closed)
        assert evaluate(dual, K).matrix == RationalMatrix(2, 2)


def test_evaluate_closed_surface_A_genus2():
    ev = evaluate(faithful_algebra(), e_block(0, 2, 0))
    assert ev.matrix == RationalMatrix.from_rows([[F(135, 2)]])


def test_evaluate_shape_matches_arities():
    A = faithful_algebra()
    K = Cobordism(2, 1, [component((0,), (0,), 1), component((1,), (), 0)])
    ev = evaluate(A, K)
    assert (ev.n_in, ev.n_out) == (2, 1)
    assert ev.matrix.shape == (15, 225)


def test_evaluate_refuses_broken_algebra():
    z = zqs3()
    broken = FrobeniusAlgebra(3, z.mul, z.unit, z.comul, RationalMatrix(1, 3))
    with pytest.raises(AxiomFailure, match="counit"):
        evaluate(broken, identity(1))
    with pytest.raises(AxiomFailure, match="counit"):
        closed_invariant(broken, 1)


def test_zqs3_handle_power_closed_form():
    assert zqs3_handle_power(1) == E111_ZQS3
    squared = RationalMatrix.from_rows(
        [[9, 0, 15], [0, 24, 0], [F(15, 2), 0, F(33, 2)]]).scale(F(3, 2))
    assert zqs3_handle_power(2) == squared
    assert zqs3_handle_power(2) == mat_mul(E111_ZQS3, E111_ZQS3)
    assert zqs3_handle_power(3) == mat_mul(E111_ZQS3,
                                           mat_mul(E111_ZQS3, E111_ZQS3))
    with pytest.raises(ValueError):
        zqs3_handle_power(0)


def test_handle_power_identity_through_genus_8():
    z = zqs3()
    for k in range(1, 9):
        assert evaluate(z, e_block(1, k, 1)).matrix == zqs3_handle_power(k), k


def test_qz5_special_property_through_genus_8():
    q = qz5()
    expected = RationalMatrix.identity(5)
    for k in range(9):
        assert evaluate(q, e_block(1, k, 1)).matrix == expected, k


def test_closed_invariant_values():
    A = faithful_algebra()
    assert closed_invariant(zqs3(), 1) == 3
    assert closed_invariant(A, 0) == 5
    assert closed_invariant(A, 1) == 15
    assert closed_invariant(A, 2) == F(135, 2)
    assert closed_invariant(A, 3) == F(1485, 4)
    assert closed_invariant(qz5(), 7) == 5
    # genus 0 is the sphere, counit of the unit
    for a in (qz5(), zqs3(), A):
        sphere = mat_mul(a.counit, a.unit).get(0, 0)
        assert closed_invariant(a, 0) == sphere
    with pytest.raises(ValueError, match="negative genus"):
        closed_invariant(A, -1)


def test_component_matrix_refuses_negative_arguments():
    z = zqs3()
    for m, k, n in ((1, -1, 1), (-1, 0, 1), (1, 0, -1), (0, -5, 0)):
        with pytest.raises(ValueError, match="negative genus"):
            component_matrix(z, m, k, n)


def test_component_matrix_refuses_arguments_that_are_not_ints():
    A = faithful_algebra()
    assert closed_invariant(A, 1) == 15  # cached under the int 1
    for bad in (1.5, 1.0, True, "1"):
        with pytest.raises(ValueError, match="must be ints"):
            closed_invariant(A, bad)
        for m, k, n in ((bad, 0, 1), (1, bad, 1), (1, 0, bad)):
            with pytest.raises(ValueError, match="must be ints"):
                component_matrix(A, m, k, n)


def test_closed_invariant_matches_full_evaluation_through_genus_8():
    A = faithful_algebra()
    z = zqs3()
    for k in range(9):
        assert evaluate(A, e_block(0, k, 0)).matrix.get(0, 0) \
            == closed_invariant(A, k)
        assert evaluate(z, e_block(0, k, 0)).matrix.get(0, 0) \
            == closed_invariant(z, k)


def test_multiplicative_over_disjoint_closed_pieces():
    A = faithful_algebra()
    K = tensor(tensor(e_block(0, 2, 0), e_block(0, 0, 0)), e_block(0, 1, 0))
    value = evaluate(A, K).matrix.get(0, 0)
    assert value == (closed_invariant(A, 2) * closed_invariant(A, 0)
                     * closed_invariant(A, 1))


def test_swap_evaluates_to_flip():
    for a in (qz5(), zqs3()):
        assert evaluate(a, permutation((1, 0))).matrix \
            == swap_matrix(a.dim, a.dim)


def test_evaluate_routes_interleaved_ingoing_circles():
    # components hold ingoing circles {0,2} and {1}: the evaluation must
    # agree with routing by an explicit permutation before the blocks
    z = zqs3()
    K = Cobordism(3, 1, [component((0, 2), (0,), 0), component((1,), (), 1)])
    blocks = tensor(e_block(1, 0, 2), e_block(0, 1, 1))
    route = permutation((0, 2, 1))
    assert K == compose(route, blocks)
    expected = mat_mul(evaluate(z, blocks).matrix, evaluate(z, route).matrix)
    assert evaluate(z, K).matrix == expected


def test_evaluate_routes_interleaved_outgoing_circles():
    z = zqs3()
    K = Cobordism(1, 3, [component((0,), (0, 2), 0), component((), (1,), 1)])
    blocks = tensor(e_block(2, 0, 1), e_block(1, 1, 0))
    route = permutation((0, 2, 1))
    assert K == compose(blocks, route)
    expected = mat_mul(evaluate(z, route).matrix, evaluate(z, blocks).matrix)
    assert evaluate(z, K).matrix == expected


def _reference_route(p, d):
    """The matrix moving the tensor factor in slot i to slot p[i], built
    by bubble sort from adjacent flips id ⊗ swap ⊗ id."""
    n = len(p)
    order = list(range(n))  # order[t]: the factor now in slot t
    route = RationalMatrix.identity(d ** n)
    for _ in range(n):
        for t in range(n - 1):
            if p[order[t]] > p[order[t + 1]]:
                flip = kron(kron(RationalMatrix.identity(d ** t),
                                 swap_matrix(d, d)),
                            RationalMatrix.identity(d ** (n - t - 2)))
                route = mat_mul(flip, route)
                order[t], order[t + 1] = order[t + 1], order[t]
    assert [p[f] for f in order] == list(range(n))
    return route


def _reference_evaluate(a, K):
    """The blocks as a Kronecker chain in component order, routed to the
    circles' order by permutation matrices, then scaled by the closed
    pieces."""
    matrix = RationalMatrix.identity(1)
    for c in K.components:
        matrix = kron(matrix, component_matrix(
            a, len(c.outgoing), c.genus, len(c.ingoing)))
    in_order = [i for c in K.components for i in c.ingoing]
    p_in = [in_order.index(i) for i in range(K.n_in)]
    out_order = [j for c in K.components for j in c.outgoing]
    matrix = mat_mul(_reference_route(out_order, a.dim),
                     mat_mul(matrix, _reference_route(p_in, a.dim)))
    scalar = F(1)
    for g in K.closed_genera:
        scalar *= component_matrix(a, 0, g, 0).get(0, 0)
    return matrix.scale(scalar)


def test_evaluate_places_blocks_like_the_routed_kronecker_chain():
    checked = 0
    for name, bounds in (("A", ScanBounds(2, 1, 1, 1)),
                         ("zqs3", ScanBounds(3, 0, 0, 0)),
                         # connected cobordisms beside a closed piece,
                         # up to three circles per side
                         ("zqs3", ScanBounds(3, 0, 1, 1))):
        a = load_algebra(name)
        for K in enumerate_cobordisms(bounds):
            assert evaluate(a, K).matrix == _reference_evaluate(a, K), K
            checked += 1
    assert checked == 2007


def test_a_connected_cobordism_evaluates_to_its_cached_block():
    A = faithful_algebra()
    assert evaluate(A, e_block(2, 2, 2)).matrix is component_matrix(A, 2, 2, 2)
    assert evaluate(A, e_block(0, 3, 0)).matrix is component_matrix(A, 0, 3, 0)


TINY = ScanBounds(max_circles=1, max_genus=2, max_closed=1, max_closed_genus=2)


def test_compose_functoriality_exhaustive_tiny():
    A = faithful_algebra()
    pool = enumerate_cobordisms(TINY)
    by_in: dict[int, list[Cobordism]] = {}
    for K in pool:
        by_in.setdefault(K.n_in, []).append(K)
    cache = {K: evaluate(A, K).matrix for K in pool}
    checked = 0
    for K in pool:
        for L in by_in.get(K.n_out, []):
            glued = evaluate(A, compose(K, L)).matrix
            assert glued == mat_mul(cache[L], cache[K]), (K, L)
            checked += 1
    assert checked == sum(
        len(by_in.get(K.n_out, [])) for K in pool)


def test_tensor_functoriality_exhaustive_tiny():
    A = faithful_algebra()
    pool = enumerate_cobordisms(TINY)
    cache = {K: evaluate(A, K).matrix for K in pool}
    for K, L in itertools.product(pool, repeat=2):
        assert evaluate(A, tensor(K, L)).matrix == kron(cache[K], cache[L])


def test_context_functoriality_covers_stretches_and_closure():
    # evaluating a contexted cobordism equals applying the context at
    # matrix level, for each context-builder shape
    A = faithful_algebra()
    d = A.dim
    idm = RationalMatrix.identity(d)
    from test_faithfulness import closure, stretch1, stretch2_dual

    K = Cobordism(1, 0, [component((0,), (), 1)], (1,))
    lhs = evaluate(A, stretch1(K)).matrix
    rhs = mat_mul(kron(evaluate(A, K).matrix, idm),
                  evaluate(A, e_block(2, 0, 1)).matrix)
    assert lhs == rhs

    L = Cobordism(0, 2, [component((), (0,), 0), component((), (1,), 2)])
    lhs = evaluate(A, stretch2_dual(L)).matrix
    rhs = mat_mul(evaluate(A, tensor(identity(1), e_block(0, 0, 2))).matrix,
                  kron(evaluate(A, L).matrix, idm))
    assert lhs == rhs

    M = Cobordism(1, 1, [component((0,), (0,), 1)], (2,))
    lhs = evaluate(A, closure(M, 3)).matrix
    rhs = mat_mul(evaluate(A, e_block(0, 3, 1)).matrix,
                  mat_mul(evaluate(A, M).matrix,
                          evaluate(A, e_block(1, 3, 0)).matrix))
    assert lhs == rhs


def _zqs3_closed(k: int) -> F:
    return F(3, 2) ** (k - 1) * (F(2) ** (2 * k - 1) + 1)


# The closed genus-k surface of each table algebra, typed by hand; at
# k = 0 each gives counit∘unit (5, 1 and 5).
CLOSED_FORMS = {"qz5": lambda k: F(5), "zqs3": _zqs3_closed,
                "A": lambda k: 5 * _zqs3_closed(k)}


def test_algebra_table_closed_forms_match_evaluation():
    assert ALGEBRAS == {"qz5": qz5, "zqs3": zqs3, "A": faithful_algebra}
    for name, closed_form in CLOSED_FORMS.items():
        algebra = load_algebra(name)
        assert algebra is ALGEBRAS[name]()
        for k in range(301):
            assert closed_invariant(algebra, k) == closed_form(k), (name, k)
        for k in range(6):
            assert closed_form(k) \
                == evaluate(algebra, e_block(0, k, 0)).matrix.get(0, 0)
    # a fresh copy has no block cached: its genus-2000 value is built
    # from halves, not from 2000 nested calls
    z = zqs3()
    copy = FrobeniusAlgebra(z.dim, z.mul, z.unit, z.comul, z.counit)
    assert closed_invariant(copy, 2000) == CLOSED_FORMS["zqs3"](2000)


def test_load_algebra_selectors(tmp_path):
    path = tmp_path / "zqs3.json"
    path.write_text(zqs3().to_json())
    loaded = load_algebra(f"file:{path}")
    assert loaded is not zqs3() and loaded.mul == zqs3().mul
    with pytest.raises(ValueError, match="unknown algebra 'B'"):
        load_algebra("B")
    assert closed_invariant(loaded, 1) == 3
