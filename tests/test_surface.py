import functools
import itertools

import pytest

from cobtqft import surface
from cobtqft.faithfulness import ScanBounds, enumerate_cobordisms
from cobtqft.surface import (MAX_INPUT_CIRCLES, MAX_INPUT_GENUS, Cobordism,
                             Component, component, compose, e_block,
                             identity, permutation, tensor)

SMALL = ScanBounds(max_circles=2, max_genus=1, max_closed=1, max_closed_genus=1)


def small_enumeration():
    return enumerate_cobordisms(SMALL)


def test_e_block_shapes():
    pants = e_block(1, 0, 2)
    assert (pants.n_in, pants.n_out) == (2, 1)
    assert pants.components == (component((0, 1), (0,), 0),)
    assert e_block(0, 0, 0) == Cobordism(0, 0, (), (0,))
    assert e_block(0, 3, 0) == Cobordism(0, 0, (), (3,))


def test_identity_and_permutation():
    assert identity(0) == Cobordism(0, 0)
    swap = permutation((1, 0))
    assert swap.components == (component((0,), (1,), 0),
                               component((1,), (0,), 0))
    p = (2, 0, 3, 1)
    pinv = (1, 3, 0, 2)
    assert compose(permutation(p), permutation(pinv)) == identity(4)
    with pytest.raises(ValueError):
        permutation((0, 0, 1))


def test_permutation_composition():
    for p in itertools.permutations(range(3)):
        for q in itertools.permutations(range(3)):
            composed = tuple(q[p[i]] for i in range(3))
            assert compose(permutation(p), permutation(q)) \
                == permutation(composed)


def test_compose_euler_oracle_examples():
    # chi = -1 + -1 glued along 2 circles, 2 boundary circles left => genus 1
    assert compose(e_block(2, 0, 1), e_block(1, 0, 2)) == e_block(1, 1, 1)
    assert compose(e_block(1, 0, 0), e_block(0, 0, 1)) == e_block(0, 0, 0)
    K = Cobordism(2, 1, [component((0, 1), (0,), 2)], (1,))
    assert compose(identity(2), K) == K
    assert compose(K, identity(1)) == K


def test_compose_frobenius_relation_normal_form():
    pants, copants = e_block(1, 0, 2), e_block(2, 0, 1)
    left = compose(tensor(copants, identity(1)), tensor(identity(1), pants))
    middle = compose(pants, copants)
    right = compose(tensor(identity(1), copants), tensor(pants, identity(1)))
    assert left == middle == right == e_block(2, 0, 2)


def test_compose_shape_error():
    with pytest.raises(ValueError, match="boundary arities"):
        compose(e_block(2, 0, 1), e_block(1, 0, 1))


def test_compose_multiple_gluings_create_genus():
    # gluing two pairs of pants along both circles rolls up a torus wall
    assert compose(e_block(2, 0, 1), e_block(1, 0, 2)) == e_block(1, 1, 1)
    # four circles between two components
    K = compose(e_block(3, 0, 1), e_block(1, 0, 3))
    assert K == e_block(1, 2, 1)


def test_glue_refuses_a_piece_of_impossible_characteristic():
    # one free circle leaves characteristic at most 1, and 2 - chi - b is
    # twice a genus, so it must be even
    for chis, ins in (([3], [0]), ([2], [0]), ([1, 0], [])):
        with pytest.raises(RuntimeError, match="Euler characteristic"):
            surface._glue(chis, ins, [], [])
    assert surface._glue([0, 0], [0], [1], [(0, 1)]) == identity(1)


def test_glue_resolves_deep_chains_of_seams():
    # 2 000 cylinders end to end: piece i's outgoing circle meets piece
    # i + 1's ingoing one.  Listed forward, union-find first builds one
    # chain 2 000 pieces deep; a piece left off its root would read as a
    # closed torus, or leave a free circle on a piece of its own
    n = 2000
    seams = [(i, i + 1) for i in range(n - 1)]
    chain = functools.reduce(compose, [identity(1)] * n)
    # the chain closed into a loop by a bent tube, 0 -> 2 and 2 -> 0
    loop = compose(compose(e_block(2, 0, 0), tensor(chain, identity(1))),
                   e_block(0, 0, 2))
    assert chain == identity(1) and loop == Cobordism(0, 0, (), [1])
    # forward, backward, interleaved, and alternately from both ends;
    # each seam also with its two pieces swapped
    orders = (seams, seams[::-1], seams[::2] + seams[1::2],
              [seams[i // 2] if i % 2 else seams[-1 - i // 2]
               for i in range(n - 1)])
    for order in orders:
        for listed in (order, [(q, p) for p, q in order]):
            assert surface._glue([0] * n, [0], [n - 1], listed) == chain
            assert surface._glue([0] * n, [], [],
                                 listed + [(n - 1, 0)]) == loop


def _reference_tensor(first: Cobordism, second: Cobordism) -> Cobordism:
    """Disjoint union built directly: `second`'s labels shifted past
    `first`'s, the closed pieces of both kept."""
    comps = list(first.components)
    for c in second.components:
        comps.append(Component(tuple(i + first.n_in for i in c.ingoing),
                               tuple(j + first.n_out for j in c.outgoing),
                               c.genus))
    return Cobordism(first.n_in + second.n_in, first.n_out + second.n_out,
                     comps, first.closed_genera + second.closed_genera)


def test_tensor_matches_the_direct_construction():
    pool = enumerate_cobordisms(ScanBounds(1, 1, 1, 1))
    for K, L in itertools.product(pool, repeat=2):
        assert tensor(K, L) == _reference_tensor(K, L)
    assert len(pool) ** 2 == 1089


def test_tensor():
    K = Cobordism(2, 1, [component((0, 1), (0,), 1)])
    assert tensor(K, identity(0)) == K
    assert tensor(identity(0), K) == K
    assert tensor(e_block(0, 2, 0), e_block(0, 1, 0)) \
        == Cobordism(0, 0, (), (2, 1))
    assert tensor(e_block(1, 0, 1), e_block(1, 0, 1)) == identity(2)


def test_tensor_associative_with_unit():
    pool = [K for K in small_enumeration() if K.n_in + K.n_out <= 2]
    for K, L, M in itertools.islice(itertools.product(pool, repeat=3), 4000):
        assert tensor(tensor(K, L), M) == tensor(K, tensor(L, M))


def test_tensor_and_compose_interchange():
    small = [K for K in small_enumeration()
             if not K.closed_genera and K.n_in <= 1 and K.n_out <= 1]
    for K, Kp in itertools.product(small, repeat=2):
        for L, Lp in itertools.product(small, repeat=2):
            if K.n_out != Kp.n_in or L.n_out != Lp.n_in:
                continue
            assert compose(tensor(K, L), tensor(Kp, Lp)) \
                == tensor(compose(K, Kp), compose(L, Lp))


def test_compose_associative_and_unital_exhaustive():
    for K in small_enumeration():
        assert compose(identity(K.n_in), K) == K
        assert compose(K, identity(K.n_out)) == K
    pool = [K for K in small_enumeration()
            if not K.closed_genera and K.n_in + K.n_out <= 3]
    by_in: dict[int, list[Cobordism]] = {}
    for K in pool:
        by_in.setdefault(K.n_in, []).append(K)
    checked = 0
    for K in pool:
        for L in by_in.get(K.n_out, []):
            for M in by_in.get(L.n_out, []):
                assert compose(compose(K, L), M) == compose(K, compose(L, M))
                checked += 1
    assert checked > 1000


def test_euler_characteristic_additive_under_compose():
    def chi(K):
        return (sum(2 - 2 * c.genus - len(c.ingoing) - len(c.outgoing)
                    for c in K.components)
                + sum(2 - 2 * g for g in K.closed_genera))

    pool = [K for K in small_enumeration() if K.n_in + K.n_out <= 3]
    by_in: dict[int, list[Cobordism]] = {}
    for K in pool:
        by_in.setdefault(K.n_in, []).append(K)
    for K in pool:
        for L in by_in.get(K.n_out, []):
            assert chi(compose(K, L)) == chi(K) + chi(L)


def test_owners():
    K = Cobordism(3, 4, [component((0, 2), (0, 2), 2),
                         component((1,), (1, 3), 0)], (1,))
    assert K.owners == (0, 1, 0, 0, 1, 0, 1)
    assert identity(2).owners == (0, 1, 0, 1)
    assert e_block(0, 4, 0).owners == ()
    # a component with outgoing circles only is ordered by n_in + its
    # least outgoing circle
    assert Cobordism(1, 2, [component((), (0,), 0),
                            component((0,), (1,), 1)]).owners == (0, 1, 0)


def test_canonical_order_makes_equality_structural():
    a = Cobordism(2, 2, [component((1,), (0,), 1), component((0,), (1,), 0)],
                  (0, 2))
    b = Cobordism(2, 2, [component((0,), (1,), 0), component((1,), (0,), 1)],
                  (2, 0))
    assert a == b and hash(a) == hash(b)
    assert a.components[0].ingoing == (0,)
    assert a.closed_genera == (2, 0)


def test_components_and_circles_in_any_order():
    K = Cobordism(3, 0, [Component((2, 0), (), 0), Component((1,), (), 0)])
    L = Cobordism(3, 0, [component((0, 2), (), 0), component((1,), (), 0)])
    assert K == L and hash(K) == hash(L) and K.owners == L.owners == (0, 1, 0)
    assert K.components == L.components
    M = Cobordism(2, 2, [Component([1], (1, 0), 3), Component((0,), (), 0)])
    assert M == Cobordism(2, 2, [component((0,), (), 0),
                                 component((1,), (0, 1), 3)])


def test_owners_is_the_partition_code():
    # components in the order of their least label make owners a
    # canonical code: equal owners iff equal boundary partitions
    codes: dict = {}
    for K in small_enumeration():
        partition = (K.n_in, K.n_out, frozenset(
            frozenset(c.ingoing) | frozenset(K.n_in + j for j in c.outgoing)
            for c in K.components))
        assert codes.setdefault((K.n_in, K.n_out, K.owners),
                                partition) == partition
    assert len(set(codes.values())) == len(codes)


def test_cobordism_validation():
    with pytest.raises(ValueError):
        Cobordism(2, 1, [component((0,), (0,), 0)])  # ingoing 1 missing
    with pytest.raises(ValueError):
        Cobordism(1, 1, [component((0,), (0,), 0),
                         component((0,), (), 0)])  # ingoing 0 reused
    empty = "component with no boundary circles"
    negative = "a component has a negative genus"
    for bad, message in ((component((), (), 1), empty),
                         (Component((0,), (), -1), negative)):
        with pytest.raises(ValueError, match=message):
            Cobordism(1, 0, [component((0,), (), 0), bad])
    with pytest.raises(ValueError, match=empty):
        Cobordism(0, 0, [Component((), (), 0)])
    # the message names no label, however many the component has
    huge = Component(tuple(range(10 ** 5)), (), -1)
    with pytest.raises(ValueError, match=negative) as raised:
        Cobordism(10 ** 5, 0, [huge])
    assert len(str(raised.value)) < 100
    # on each side of a 2 -> 2 cobordism: a missing, a repeated, a
    # negative, a too large and a non-integer label
    for bad in ((0,), (0, 0), (0, -1), (0, 2), (0, 0.5), (0, 1.0)):
        with pytest.raises(ValueError, match="the ingoing circles do not "
                                             "partition 0..1"):
            Cobordism(2, 2, [component(bad, (0, 1), 0)])
        with pytest.raises(ValueError, match="the outgoing circles do not "
                                             "partition 0..1"):
            Cobordism(2, 2, [component((0, 1), bad, 0)])


def test_json_round_trip():
    K = Cobordism(2, 1, [component((0,), (0,), 1), component((1,), (), 0)],
                  (2,))
    assert Cobordism.from_json_obj(K.to_json_obj()) == K


def test_a_genus_that_is_not_an_int_is_refused():
    # as a label is: 1.0 and True are refused too, though they equal 1
    for bad in (1.5, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="a component has a genus that "
                                             "is not an int"):
            Cobordism(1, 1, [component([0], [0], bad)])
        for closed in ([bad], [2, bad], [bad, 0, 1]):
            with pytest.raises(ValueError, match="a closed genus is not "
                                                 "an int"):
                Cobordism(0, 0, (), closed)
    # the negative-value messages stay as they were
    with pytest.raises(ValueError, match="^negative closed genus$"):
        Cobordism(0, 0, (), [1, -1])


def test_negative_arity_is_rejected():
    with pytest.raises(ValueError, match="negative arity"):
        Cobordism(-1, 0)
    obj = e_block(0, 1, 0).to_json_obj()
    obj["in"] = -1
    with pytest.raises(ValueError, match="negative arity"):
        Cobordism.from_json_obj(obj)


def test_json_genus_limit():
    for limit_ok in (e_block(1, MAX_INPUT_GENUS, 1),
                     e_block(0, MAX_INPUT_GENUS, 0)):
        assert Cobordism.from_json_obj(limit_ok.to_json_obj()) == limit_ok
    for too_big in (e_block(1, MAX_INPUT_GENUS + 1, 1),
                    e_block(0, 10 ** 9, 0)):
        with pytest.raises(ValueError, match="exceeds the input limit"):
            Cobordism.from_json_obj(too_big.to_json_obj())


def test_json_circle_limit():
    at_limit = identity(MAX_INPUT_CIRCLES)
    assert Cobordism.from_json_obj(at_limit.to_json_obj()) == at_limit
    for too_many in (e_block(0, 0, MAX_INPUT_CIRCLES + 1),
                     e_block(MAX_INPUT_CIRCLES + 1, 0, 0)):
        with pytest.raises(ValueError, match="input limit of 64 circles"):
            Cobordism.from_json_obj(too_many.to_json_obj())
    # refused before the components are read
    with pytest.raises(ValueError, match="input limit"):
        Cobordism.from_json_obj({"in": 10 ** 9, "out": 0, "components": [],
                                 "closed": []})
