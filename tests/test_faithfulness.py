import collections
import functools
import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from cobtqft.faithfulness import (MAX_SCAN_COBORDISMS, MAX_SCAN_ENTRIES,
                                  ExceptionalTriple, GenusMultiset, ScanBounds,
                                  _closing_context, enumerate_cobordisms,
                                  faithfulness_scan, genus_multiset,
                                  lemma4_injectivity, multiset_invariant,
                                  separating_closure, zsigmondy_witness)
from cobtqft.exact import RationalMatrix
from cobtqft.frobenius import (FiniteGroup, FrobeniusAlgebra, faithful_algebra,
                               group_algebra, qz5, tensor_algebra,
                               verify_frobenius, zqs3)
from cobtqft import surface
from cobtqft.surface import (Cobordism, compose, component, e_block,
                             identity, permutation, tensor)
from cobtqft.tqft import closed_invariant, load_algebra


def _factor_then_filter_witness(a: int, b: int, n: int) -> int:
    """The least prime factor of a^n + b^n, by a 6k +- 1 wheel, that
    divides no a^k + b^k with k < n."""
    m, primes = a ** n + b ** n, []
    for p in (2, 3):
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
    f = 5
    while f * f <= m:
        for p in (f, f + 2):
            if m % p == 0:
                primes.append(p)
                while m % p == 0:
                    m //= p
        f += 6
    if m > 1:
        primes.append(m)
    smaller = [a ** k + b ** k for k in range(1, n)]
    return next(p for p in primes if all(s % p for s in smaller))


def test_zsigmondy_matches_factor_then_filter():
    triples = [(a, b, n) for a in range(2, 40) for b in range(1, a)
               if math.gcd(a, b) == 1 for n in range(1, 32)
               if a ** n + b ** n < 2 ** 32]
    assert len(triples) == 3204
    triples.remove((2, 1, 3))  # the exceptional triple
    for a, b, n in triples + [(2, 1, 43)]:
        assert zsigmondy_witness(a, b, n) \
            == _factor_then_filter_witness(a, b, n), (a, b, n)


def test_zsigmondy_exceptional_triple():
    with pytest.raises(ExceptionalTriple):
        zsigmondy_witness(2, 1, 3)


def test_zsigmondy_small_values():
    assert zsigmondy_witness(2, 1, 1) == 3
    assert zsigmondy_witness(2, 1, 2) == 5
    assert zsigmondy_witness(2, 1, 5) == 11
    assert zsigmondy_witness(3, 2, 3) == 7  # 27+8=35, 5 divides 3+2


def test_zsigmondy_preconditions():
    with pytest.raises(ValueError, match="coprime"):
        zsigmondy_witness(4, 2, 2)
    with pytest.raises(ValueError, match="a > b"):
        zsigmondy_witness(1, 1, 2)
    with pytest.raises(ValueError, match="n >= 1"):
        zsigmondy_witness(2, 1, 0)


def test_zsigmondy_limit():
    # 2^47 + 1 = 3 * 283 * 165768537521 is below the limit 2^48
    assert zsigmondy_witness(2, 1, 47) == 283
    for a, b, n in ((2, 1, 48), (2, 1, 61), (3, 2, 31), (2 ** 24, 1, 2),
                    (2, 1, 10 ** 9)):
        with pytest.raises(ValueError, match="2\\^48"):
            zsigmondy_witness(a, b, n)


def test_zsigmondy_limit_refuses_a_huge_base_before_any_power():
    # (10^100000)^47 alone takes seconds; a >= 2^48 is refused first
    a = 10 ** 100_000
    start = time.perf_counter()
    with pytest.raises(ValueError, match="2\\^48"):
        zsigmondy_witness(a, 1, 47)
    assert time.perf_counter() - start < 1.0


def test_zsigmondy_witnesses_for_odd_handle_exponents():
    # the injectivity argument invokes witnesses for n = 2k-1 with k >= 3
    for k in range(3, 13):
        n = 2 * k - 1
        p = zsigmondy_witness(2, 1, n)
        assert (2 ** n + 1) % p == 0
        for smaller in range(1, n):
            assert (2 ** smaller + 1) % p != 0


def test_multiset_invariant_values():
    assert multiset_invariant(()) == 1
    assert multiset_invariant((1,)) == 15
    assert multiset_invariant(genus_multiset((0, 2))) == F(675, 2)
    # any sequence of genera, in any order, names the same multiset
    value = multiset_invariant(GenusMultiset((3, 1, 0)))
    assert value == 5 * 15 * F(1485, 4)
    assert multiset_invariant([0, 3, 1]) == multiset_invariant((1, 0, 3)) \
        == value
    for bad in ([1, -1], (-2,), GenusMultiset((-1,))):
        with pytest.raises(ValueError):
            multiset_invariant(bad)


def test_multiset_invariant_multiplicative():
    for left in [(), (1,), (2, 0), (3, 1, 1)]:
        for right in [(), (2,), (1, 0)]:
            assert multiset_invariant(left + right) \
                == multiset_invariant(left) * multiset_invariant(right)


def test_invariant_5adic_counts_components():
    for ks in [(), (0,), (1,), (2, 0), (3, 3, 1), (4, 2, 2, 0, 0)]:
        value = multiset_invariant(ks)
        numerator = value.numerator
        power = 0
        while numerator % 5 == 0:
            numerator //= 5
            power += 1
        assert power == len(ks)


def test_invariant_2adic_recovers_total_genus():
    for ks in [(), (0,), (1,), (2, 0), (3, 3, 1), (4, 2, 2, 0, 0)]:
        value = multiset_invariant(ks)
        positive = [k for k in ks if k > 0]
        assert value.denominator == 2 ** (sum(positive) - len(positive))


def test_lemma4_small_table():
    report = lemma4_injectivity(1, 3)
    assert report.injective and report.multisets_checked == 5
    values = [multiset_invariant(ms)
              for ms in [(), (0,), (1,), (2,), (3,)]]
    assert values == [1, 5, 15, F(135, 2), F(1485, 4)]


def test_lemma4_degenerate_and_desk_scale():
    assert lemma4_injectivity(0, 5).injective
    report = lemma4_injectivity(4, 6)
    assert report.injective
    assert report.multisets_checked == 330
    assert report.collision is None


def test_separating_closure_genus_difference():
    ms = separating_closure(e_block(1, 1, 1), e_block(1, 0, 1))
    assert ms == (GenusMultiset((5,)), GenusMultiset((4,)))


def test_separating_closure_partition_difference():
    ms_k, ms_l = separating_closure(identity(2), permutation((1, 0)))
    assert ms_k == GenusMultiset((2, 0))
    assert ms_l == GenusMultiset((1, 1))
    assert multiset_invariant(ms_k) != multiset_invariant(ms_l)


def test_separating_closure_closed_parts():
    two_spheres = tensor(e_block(0, 0, 0), e_block(0, 0, 0))
    torus = e_block(0, 1, 0)
    assert separating_closure(two_spheres, torus) \
        == (GenusMultiset((0, 0)), GenusMultiset((1,)))


def test_separating_closure_errors():
    with pytest.raises(ValueError, match="equal"):
        separating_closure(e_block(1, 1, 1), e_block(1, 1, 1))
    with pytest.raises(ValueError, match="arity mismatch"):
        separating_closure(e_block(1, 1, 1), e_block(1, 1, 0))


def test_separating_closure_reads_the_normal_form_of_any_input_order():
    # components and circles given in any order build one normal form
    K = Cobordism(3, 0, [surface.Component((2, 0), (), 0),
                         surface.Component((1,), (), 0)])
    L = Cobordism(3, 0, [component((0, 2), (), 0), component((1,), (), 0)])
    with pytest.raises(ValueError, match="equal"):
        separating_closure(K, L)
    M = Cobordism(3, 0, [component((0, 1), (), 0), component((2,), (), 0)])
    ms_k, ms_m = separating_closure(K, M)
    assert multiset_invariant(ms_k) != multiset_invariant(ms_m)


def test_separating_closure_exhaustive_over_small_bounds():
    bounds = ScanBounds(max_circles=1, max_genus=1, max_closed=1,
                        max_closed_genus=1)
    pool = enumerate_cobordisms(bounds)
    for K, L in itertools.combinations(pool, 2):
        if (K.n_in, K.n_out) != (L.n_in, L.n_out):
            continue
        ms_k, ms_l = separating_closure(K, L)
        assert ms_k != ms_l
        assert multiset_invariant(ms_k) != multiset_invariant(ms_l)
        # the same context must be applied to both sides, so swapping
        # the arguments swaps the outputs
        assert separating_closure(L, K) == (ms_l, ms_k)


# --- the paper's capping contexts, built by real gluing ---------------------
# fill, stretch and close, as the separation case analysis states them:
# the reference that `_closing_context` collapses into one cobordism

def fill_hole(K: Cobordism, x: int) -> Cobordism:
    """Cap the boundary circle with label `x` with a disk.

    An ingoing circle is filled by preceding K with id ⊗ E_{1,0,0} ⊗ id,
    an outgoing one by following it with id ⊗ E_{0,0,1} ⊗ id; the
    remaining circles on that side close up the index gap.
    """
    if not 0 <= x < K.n_in + K.n_out:
        raise ValueError(f"no boundary label {x} on a {K.n_in}->{K.n_out} "
                         f"cobordism")
    if x < K.n_in:
        context = tensor(tensor(identity(x), e_block(1, 0, 0)),
                         identity(K.n_in - x - 1))
        return compose(context, K)
    j = x - K.n_in
    context = tensor(tensor(identity(j), e_block(0, 0, 1)),
                     identity(K.n_out - j - 1))
    return compose(K, context)


def stretch1(K: Cobordism) -> Cobordism:
    """Turn a 1 -> 0 cobordism into the 1 -> 1 cobordism (K ⊗ id) ∘ E_{2,0,1}."""
    if (K.n_in, K.n_out) != (1, 0):
        raise ValueError(f"stretch1 needs arity 1->0, got {K.n_in}->{K.n_out}")
    return compose(e_block(2, 0, 1), tensor(K, identity(1)))


def stretch1_dual(K: Cobordism) -> Cobordism:
    """Turn a 0 -> 1 cobordism into the 1 -> 1 cobordism E_{1,0,2} ∘ (K ⊗ id)."""
    if (K.n_in, K.n_out) != (0, 1):
        raise ValueError(f"stretch1_dual needs arity 0->1, got {K.n_in}->{K.n_out}")
    return compose(tensor(K, identity(1)), e_block(1, 0, 2))


def stretch2(K: Cobordism) -> Cobordism:
    """Turn a 2 -> 0 cobordism into (K ⊗ id) ∘ (id ⊗ E_{2,0,0})."""
    if (K.n_in, K.n_out) != (2, 0):
        raise ValueError(f"stretch2 needs arity 2->0, got {K.n_in}->{K.n_out}")
    return compose(tensor(identity(1), e_block(2, 0, 0)),
                   tensor(K, identity(1)))


def stretch2_dual(K: Cobordism) -> Cobordism:
    """Turn a 0 -> 2 cobordism into (id ⊗ E_{0,0,2}) ∘ (K ⊗ id)."""
    if (K.n_in, K.n_out) != (0, 2):
        raise ValueError(f"stretch2_dual needs arity 0->2, got {K.n_in}->{K.n_out}")
    return compose(tensor(K, identity(1)),
                   tensor(identity(1), e_block(0, 0, 2)))


def closure(K: Cobordism, a: int) -> Cobordism:
    """Close a 1 -> 1 cobordism inside E_{0,a,1} ∘ K ∘ E_{1,a,0}."""
    if (K.n_in, K.n_out) != (1, 1):
        raise ValueError(f"closure needs arity 1->1, got {K.n_in}->{K.n_out}")
    return compose(compose(e_block(1, a, 0), K), e_block(0, a, 1))


def cap_and_cup():
    # the disconnected 1 -> 1 cobordism: a cap on the in-circle, a cup
    # on the out-circle
    return Cobordism(1, 1, [component((0,), (), 0), component((), (0,), 0)])


def test_fill_hole():
    sphere = fill_hole(fill_hole(identity(1), 0), 0)
    assert sphere == e_block(0, 0, 0)
    assert fill_hole(identity(1), 1) == e_block(0, 0, 1)
    assert fill_hole(e_block(1, 1, 1), 0) == e_block(1, 1, 0)
    assert fill_hole(e_block(0, 0, 2), 1) == e_block(0, 0, 1)
    for x in (2, -1):
        with pytest.raises(ValueError, match=f"no boundary label {x}"):
            fill_hole(identity(1), x)
    with pytest.raises(ValueError):
        fill_hole(e_block(0, 0, 0), 0)


def test_fill_hole_is_the_capping_context():
    # explicit context composition agrees hole by hole
    K = Cobordism(2, 2, [component((0,), (1,), 1), component((1,), (0,), 0)])
    ctx = tensor(tensor(identity(1), e_block(1, 0, 0)), identity(0))
    assert fill_hole(K, 1) == compose(ctx, K)
    ctx = tensor(tensor(identity(0), e_block(0, 0, 1)), identity(1))
    assert fill_hole(K, 2) == compose(K, ctx)


def test_stretch1():
    assert stretch1(e_block(0, 1, 1)) == e_block(1, 1, 1)
    assert stretch1(e_block(0, 0, 1)) == identity(1)
    assert stretch1_dual(e_block(1, 2, 0)) == e_block(1, 2, 1)
    with pytest.raises(ValueError):
        stretch1(e_block(1, 0, 1))


def test_stretch2():
    assert stretch2(e_block(0, 0, 2)) == identity(1)
    assert stretch2(e_block(0, 1, 2)) == e_block(1, 1, 1)
    caps = tensor(e_block(0, 0, 1), e_block(0, 0, 1))
    assert stretch2(caps) == cap_and_cup()
    assert stretch2_dual(e_block(2, 1, 0)) == e_block(1, 1, 1)
    with pytest.raises(ValueError):
        stretch2(e_block(0, 0, 1))


def test_closure():
    for a in (1, 2, 3):
        assert closure(identity(1), a) == Cobordism(0, 0, (), (2 * a,))
        assert closure(e_block(1, 2, 1), a) == Cobordism(0, 0, (), (2 + 2 * a,))
        assert closure(cap_and_cup(), a) == Cobordism(0, 0, (), (a, a))
    with pytest.raises(ValueError):
        closure(e_block(1, 0, 2), 1)


def _reference_separating_closure(K, L):
    """The separation case analysis written out directly on boundary
    partitions (sets of label blocks), per-label dictionaries and label
    pairs: the reference that the module's precomputed tuples must match.
    Label i is ingoing circle i, label n_in + j outgoing circle j."""
    comp_k, genus_k, comp_l, genus_l = {}, {}, {}, {}
    for X, comp_of, genus_of in ((K, comp_k, genus_k), (L, comp_l, genus_l)):
        for idx, c in enumerate(X.components):
            for label in c.ingoing + tuple(X.n_in + j for j in c.outgoing):
                comp_of[label] = idx
                genus_of[label] = c.genus
    labels = range(K.n_in + K.n_out)
    partition_k, partition_l = (
        {frozenset(c.ingoing) | {X.n_in + j for j in c.outgoing}
         for c in X.components} for X in (K, L))
    if partition_k == partition_l:
        diff = next((x for x in labels if genus_k[x] != genus_l[x]), None)
        if diff is None:
            return (GenusMultiset(_reference_fill(K, ()).closed_genera),
                    GenusMultiset(_reference_fill(L, ()).closed_genera))
        kept = (diff,)
    else:
        kept = next(
            (x, y) for x, y in itertools.combinations(labels, 2)
            if (comp_k[x] == comp_k[y]) != (comp_l[x] == comp_l[y]))
    a = 1 + max([c.genus for X in (K, L) for c in X.components]
                + list(K.closed_genera) + list(L.closed_genera) + [0])
    return _reference_close(K, kept, a), _reference_close(L, kept, a)


def _reference_fill(K, kept):
    """Fill every circle of K whose label is not in `kept`.  Filling a
    circle shifts the labels after it down by one, so the circle with
    label x of the original K has label x - filled when its turn comes."""
    filled = 0
    for x in range(K.n_in + K.n_out):
        if x not in kept:
            K = fill_hole(K, x - filled)
            filled += 1
    return K


@functools.lru_cache(maxsize=None)
def _reference_close(K, kept, a):
    K = _reference_fill(K, kept)
    if (K.n_in, K.n_out) == (1, 0):
        K = stretch1(K)
    elif (K.n_in, K.n_out) == (0, 1):
        K = stretch1_dual(K)
    elif (K.n_in, K.n_out) == (2, 0):
        K = stretch2(K)
    elif (K.n_in, K.n_out) == (0, 2):
        K = stretch2_dual(K)
    return GenusMultiset(closure(K, a).closed_genera)


def _check_every_pair_against_the_reference(bounds):
    """Every equal-arity pair within bounds separates as the reference
    case analysis does, in order; returns the number of pairs."""
    by_arity = {}
    for K in enumerate_cobordisms(bounds):
        by_arity.setdefault((K.n_in, K.n_out), []).append(K)
    checked = 0
    for group in by_arity.values():
        for K, L in itertools.combinations(group, 2):
            ms_k, ms_l = separating_closure(K, L)
            assert ms_k != ms_l, (K, L)
            assert (ms_k, ms_l) == _reference_separating_closure(K, L), (K, L)
            assert multiset_invariant(ms_k) != multiset_invariant(ms_l)
            checked += 1
    return checked


def test_separating_closure_exhaustive_two_circles():
    # two circles on a side exercise the same-side separating pairs,
    # which route through both stretching moves; every pair must match
    # the reference case analysis, in order
    bounds = ScanBounds(max_circles=2, max_genus=1, max_closed=1,
                        max_closed_genus=1)
    assert _check_every_pair_against_the_reference(bounds) == 44403


def test_separating_closure_exhaustive_three_circles():
    # up to 6 labels and 15 label pairs: the first differing pair, read
    # from the partition masks, must be the reference's first pair in
    # itertools.combinations order well beyond two circles per side
    assert _check_every_pair_against_the_reference(
        ScanBounds(3, 0, 0, 0)) == 23513


def test_context_keys_name_every_cap_genus():
    # K's partners differ from it at labels 0 and 2 (mask bit 2), so
    # case (c) caps that pair with a = 301, then with a = 45, and K's
    # record must keep both contexts apart: 301 and 45 agree in their
    # low eight bits, so a key packing a into eight bits would read the
    # first context back for the second pair
    K = Cobordism(1, 2, [component((0,), (), 0), component((), (0,), 0),
                         component((), (1,), 0)])
    for genus in (300, 44):
        L = Cobordism(1, 2, [component((0,), (1,), genus),
                             component((), (0,), 0)])
        assert L.max_genus() == genus
        assert separating_closure(K, L) == _reference_separating_closure(K, L)


def _reference_glue(K, caps):
    """The closing context glued for real: a disk of genus caps[i] below
    each ingoing circle i and one of genus caps[n_in + j] above each
    outgoing circle j."""
    below = Cobordism(0, K.n_in, [component((), (i,), g)
                                  for i, g in enumerate(caps[:K.n_in])])
    above = Cobordism(K.n_out, 0, [component((j,), (), g)
                                   for j, g in enumerate(caps[K.n_in:])])
    return GenusMultiset(
        surface.compose(surface.compose(below, K), above).closed_genera)


def test_closing_context_matches_the_reference_for_every_choice():
    # every kept label and label pair, not only the ones the case
    # analysis picks: a genus-2a cap on one hole is the paper's fill,
    # stretch and closure with genus-a caps, and genus-a caps on a pair
    # are the same with the pair kept
    rng = random.Random(7)
    three_circles = [K for K in enumerate_cobordisms(ScanBounds(3, 0, 0, 0))
                     if max(K.n_in, K.n_out) == 3]
    glued = 0
    for K in (*enumerate_cobordisms(ScanBounds(2, 1, 1, 1)), *three_circles):
        # arbitrary cap vectors, against gluing the disks on
        for _ in range(4):
            caps = tuple(rng.randint(0, 6) for _ in range(K.n_in + K.n_out))
            assert _closing_context(K, caps) == _reference_glue(K, caps), \
                (K, caps)
            glued += 1
    assert glued == 4 * (483 + 347)

    bounds = ScanBounds(max_circles=2, max_genus=1, max_closed=1,
                        max_closed_genus=1)
    checked = 0
    for K in enumerate_cobordisms(bounds):
        labels = range(K.n_in + K.n_out)
        zeros = (0,) * len(labels)
        assert _closing_context(K, zeros) \
            == GenusMultiset(_reference_fill(K, ()).closed_genera)
        for a in range(1, 4):
            for x in labels:
                caps = zeros[:x] + (2 * a,) + zeros[x + 1:]
                assert _closing_context(K, caps) \
                    == _reference_close(K, (x,), a), (K, x, a)
                checked += 1
            for x, y in itertools.combinations(labels, 2):
                caps = tuple(a if z in (x, y) else 0 for z in labels)
                assert _closing_context(K, caps) \
                    == _reference_close(K, (x, y), a), (K, x, y, a)
                checked += 1
    assert checked > 10000


def test_enumeration_counts_and_order():
    bounds = ScanBounds(max_circles=2, max_genus=2, max_closed=1,
                        max_closed_genus=3)
    every = enumerate_cobordisms(bounds)
    assert len(every) == 2330
    assert len(set(every)) == len(every)
    by_arity = {}
    for K in every:
        by_arity.setdefault((K.n_in, K.n_out), []).append(K)
    assert len(by_arity[(0, 0)]) == 5
    assert len(by_arity[(1, 1)]) == 60
    assert len(by_arity[(2, 2)]) == 1545
    keys = [K.key() for K in every]
    assert keys == sorted(keys)
    # deterministic: a second call enumerates identically
    assert enumerate_cobordisms(bounds) == every


def test_scan_single_arity_class_of_closed_surfaces():
    bounds = ScanBounds(max_circles=0, max_genus=0, max_closed=1,
                        max_closed_genus=3)
    cert = faithfulness_scan(bounds)
    assert cert.distinct
    assert cert.enumerated == 5
    assert cert.pairs_checked == 10


def test_scan_small_bounds_distinct():
    bounds = ScanBounds(max_circles=1, max_genus=1, max_closed=1,
                        max_closed_genus=1)
    cert = faithfulness_scan(bounds)
    assert cert.verdict == "distinct"
    n = cert.enumerated
    assert cert.pairs_checked == n * (n - 1) // 2
    obj = cert.to_json_obj()
    assert obj["verdict"] == "distinct"
    assert obj["bounds"]["max_circles"] == 1


def test_scan_negative_control_qz5_finds_collision():
    bounds = ScanBounds(max_circles=1, max_genus=1, max_closed=1,
                        max_closed_genus=1)
    cert = faithfulness_scan(bounds, "qz5")
    assert cert.verdict == "collision"
    left, right = cert.collision
    assert left != right
    from cobtqft.tqft import evaluate
    assert evaluate(qz5(), left).matrix == evaluate(qz5(), right).matrix
    obj = cert.to_json_obj()
    assert "collision" in obj and obj["algebra"] == "qz5"
    back = Cobordism.from_json_obj(obj["collision"]["left"])
    assert back == left


@pytest.mark.parametrize("p, bounds, left, right", [
    (2, (0, 0, 4, 2), (1, 1, 1), (2, 0, 0, 0)),
    (3, (0, 0, 2, 1), (0, 0), (1,)),
], ids=["QZ2", "QZ3"])
def test_scan_near_miss_controls(tmp_path, p, bounds, left, right):
    # QZ_p (x) Z(QS3) for p = 2 and 3 gives the closed genus-k surface
    # p * (3/2)^(k-1) * (2^(2k-1) + 1), whose products over these two
    # multisets coincide; the paper's p = 5 separates them
    path = tmp_path / f"qz{p}_zqs3.json"
    path.write_text(tensor_algebra(group_algebra(FiniteGroup.cyclic(p)),
                                   zqs3()).to_json())
    bounds = ScanBounds(*bounds)
    cert = faithfulness_scan(bounds, f"file:{path}")
    assert cert.verdict == "collision"
    assert cert.collision == (Cobordism(0, 0, (), left),
                              Cobordism(0, 0, (), right))
    assert faithfulness_scan(bounds).distinct


def _split_algebra(tmp_path, counit) -> str:
    """`file:` selector of Q x Q on its idempotents e1, e2: e_i e_j is
    delta_ij e_i, the unit e1 + e2, the counit `counit` and the comul
    e_i -> e_i (x) e_i / counit_i, so the handle acts on e_i as
    1 / counit_i and the closed genus-g surface is the sum of
    counit_i^(1 - g)."""
    e1, e2 = map(F, counit)
    a = FrobeniusAlgebra(
        2, RationalMatrix(2, 4, {(0, 0): 1, (1, 3): 1}),
        RationalMatrix(2, 1, {(0, 0): 1, (1, 0): 1}),
        RationalMatrix(4, 2, {(0, 0): 1 / e1, (3, 1): 1 / e2}),
        RationalMatrix(1, 2, {(0, 0): e1, (0, 1): e2}))
    assert verify_frobenius(a).all_pass
    path = tmp_path / f"split_{e1.denominator}_{e2.denominator}.json"
    path.write_text(a.to_json())
    return f"file:{path}"


def test_dimension_two_control_separates_beyond_the_bounds_of_a(tmp_path):
    # handle eigenvalues 2 and 3: the closed values 2^(g-1) + 3^(g-1)
    # are independent by Zsigmondy, and the 2 -> 2 matrices are small
    selector = _split_algebra(tmp_path, (F(1, 2), F(1, 3)))
    a = load_algebra(selector)
    for g in range(31):
        assert closed_invariant(a, g) == F(2) ** (g - 1) + F(3) ** (g - 1)
    # (3,1,0,0) is a bound that scan refuses for A
    for bounds in ((2, 2, 1, 3), (3, 1, 0, 0), (1, 3, 4, 6)):
        assert faithfulness_scan(ScanBounds(*bounds), selector).distinct


@pytest.mark.parametrize("counit, bounds, left, right, pairs", [
    ((1, F(1, 4)), (1, 3, 4, 6), (1, 1, 0), (2,), 105),
    ((F(1, 2), F(1, 2)), (2, 2, 1, 3), (), (0,), 0),
], ids=["c0-c1-c1-is-c2", "one-eigenvalue"])
def test_dimension_two_near_misses(tmp_path, counit, bounds, left, right,
                                   pairs):
    # counit (1, 1/4) gives c_0 * c_1^2 = c_2; equal counits give one
    # eigenvalue, and c_0 = 1 equals the empty product
    cert = faithfulness_scan(ScanBounds(*bounds),
                             _split_algebra(tmp_path, counit))
    assert cert.verdict == "collision" and cert.pairs_checked == pairs
    assert cert.collision == (Cobordism(0, 0, (), left),
                              Cobordism(0, 0, (), right))


def test_scan_rejects_oversized_bounds():
    with pytest.raises(ValueError, match="desk scale"):
        faithfulness_scan(ScanBounds(4, 1, 0, 0))


def test_cobordism_count_from_the_bounds():
    for bounds, count in (((2, 2, 1, 3), 2330), ((2, 1, 1, 1), 483),
                          ((2, 3, 2, 4), 22197), ((3, 1, 0, 0), 3731),
                          ((0, 0, 0, 0), 1), ((0, 5, 2, 2), 10)):
        bounds = ScanBounds(*bounds)
        assert bounds.cobordism_count() == count
        assert len(enumerate_cobordisms(bounds)) == count
        sizes = collections.Counter(
            (K.n_in, K.n_out) for K in enumerate_cobordisms(bounds))
        assert len(sizes) == (bounds.max_circles + 1) ** 2
        for arity, size in sizes.items():
            assert bounds.class_count(*arity) == size
        assert bounds.matrix_entries(15) == sum(
            15 ** (K.n_in + K.n_out) for K in enumerate_cobordisms(bounds))


@pytest.mark.parametrize("broken, message", [
    (lambda every: every[:7] + every[8:], "enumerated 32 cobordisms"),
    (lambda every: every[:-1] + every[-2:-1],
     "1->1 class holds 18 cobordisms, 17 distinct"),
    (lambda every: every + every[-1:], "enumerated 34 cobordisms"),
], ids=["dropped", "repeated", "added"])
def test_scan_proves_its_enumeration_complete(monkeypatch, broken, message):
    from cobtqft import faithfulness
    bounds = ScanBounds(1, 1, 1, 1)
    every = enumerate_cobordisms(bounds)
    assert len(every) == 33
    monkeypatch.setattr(faithfulness, "enumerate_cobordisms",
                        lambda b: broken(every))
    with pytest.raises(RuntimeError, match=message):
        faithfulness_scan(bounds)


def test_scan_refuses_more_cobordisms_than_the_limit():
    assert MAX_SCAN_COBORDISMS == 25000
    # (2,2,100,3) admits 466 boundary shapes times C(104, 4) closed parts
    for bounds in ((2, 2, 100, 3), (3, 2, 1, 0), (2, 3, 3, 4),
                   (3, 10 ** 6, 10 ** 9, 10 ** 6)):
        with pytest.raises(ValueError, match="more than 25000 cobordisms"):
            ScanBounds(*bounds)


def test_scan_refuses_more_matrix_entries_than_the_limit():
    assert MAX_SCAN_ENTRIES == 3 * 10 ** 9
    for bounds in ((2, 2, 1, 3), (2, 3, 2, 4), (3, 0, 0, 0)):
        assert ScanBounds(*bounds).matrix_entries(15) <= MAX_SCAN_ENTRIES
    # 3 731 cobordisms and 15^6 entries a matrix pass the other limits
    with pytest.raises(ValueError, match="more than 3000000000 entries"):
        faithfulness_scan(ScanBounds(3, 1, 0, 0))


def test_scan_refuses_genus_bounds_above_the_input_limit():
    assert surface.MAX_INPUT_GENUS == 64
    assert ScanBounds(0, 64, 1, 64).cobordism_count() == 66
    # (0,0,1,6000) admits only 6 002 cobordisms, but genus-6000 pieces
    for bounds in ((0, 0, 1, 6000), (0, 65, 0, 0), (1, 0, 1, 65)):
        with pytest.raises(ValueError, match="exceeds the input limit 64"):
            ScanBounds(*bounds)


def test_scan_cross_checks_an_equal_copy_of_the_faithful_algebra(
        monkeypatch, tmp_path):
    from cobtqft import faithfulness
    path = tmp_path / "A.json"
    path.write_text(faithful_algebra().to_json())
    assert load_algebra(f"file:{path}") is not faithful_algebra()
    calls, invariants = [], []
    original = faithfulness.separating_closure
    original_invariant = faithfulness.multiset_invariant

    def counting(K, L):
        calls.append((K, L))
        return original(K, L)

    def counting_invariant(ks):
        invariants.append(ks)
        return original_invariant(ks)

    monkeypatch.setattr(faithfulness, "separating_closure", counting)
    monkeypatch.setattr(faithfulness, "multiset_invariant", counting_invariant)
    bounds = ScanBounds(max_circles=1, max_genus=1, max_closed=1,
                        max_closed_genus=1)
    cert = faithfulness_scan(bounds, f"file:{path}")
    assert cert.distinct and cert.algebra == f"file:{path}"
    sizes = collections.Counter(
        (K.n_in, K.n_out) for K in enumerate_cobordisms(bounds))
    assert len(calls) == sum(n * (n - 1) // 2 for n in sizes.values()) > 0
    assert len(invariants) == 2 * len(calls)
