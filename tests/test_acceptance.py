"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion with its runtime.
"""

import hashlib
import itertools
import time
from fractions import Fraction as F

import pytest

from cobtqft.diagram import (TermArityError, TermSyntaxError, elaborate,
                             format_cobordism, parse)
from cobtqft.exact import RationalMatrix, kron, mat_mul
from cobtqft.faithfulness import (ExceptionalTriple, ScanBounds,
                                  enumerate_cobordisms, faithfulness_scan,
                                  lemma4_injectivity, multiset_invariant,
                                  separating_closure, zsigmondy_witness)
from cobtqft.frobenius import faithful_algebra, qz5, verify_frobenius, zqs3
from cobtqft.golden import (QZ5_COMUL, QZ5_COUNIT, QZ5_MUL, QZ5_UNIT,
                            ZQS3_COMUL, ZQS3_COPAIRING, ZQS3_COUNIT,
                            ZQS3_MUL, ZQS3_PAIRING, ZQS3_UNIT, golden_report)
from cobtqft.surface import Cobordism, compose, e_block, identity, tensor
from cobtqft.tqft import (closed_invariant, evaluate, load_algebra,
                         zqs3_handle_power)
from test_faithfulness import (closure, stretch1, stretch1_dual, stretch2,
                               stretch2_dual)

SCAN_BOUNDS = ScanBounds(max_circles=2, max_genus=2, max_closed=1,
                         max_closed_genus=3)


class timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start


def report(criterion, text, elapsed):
    print(f"criterion {criterion:>2} PASS  {text}  [{elapsed:.2f}s]")


def test_criterion_01_golden_reproduction():
    with timer() as t:
        q = qz5()
        assert q.mul.to_json() == QZ5_MUL.to_json()
        assert q.unit.to_json() == QZ5_UNIT.to_json()
        assert q.comul.to_json() == QZ5_COMUL.to_json()
        assert q.counit.to_json() == QZ5_COUNIT.to_json()
        z = zqs3()
        pairing = mat_mul(z.counit, z.mul)
        copairing = mat_mul(z.comul, z.unit)
        assert z.mul.to_json() == ZQS3_MUL.to_json()
        assert z.counit.to_json() == ZQS3_COUNIT.to_json()
        assert pairing.to_json() == ZQS3_PAIRING.to_json()
        assert copairing.to_json() == ZQS3_COPAIRING.to_json()
        assert z.comul.to_json() == ZQS3_COMUL.to_json()
        entries = golden_report()
        assert all(entry.ok for entry in entries), \
            [entry.name for entry in entries if not entry.ok]
    assert t.seconds < 1.0
    report(1, "structure matrices reproduce the fixtures byte-exactly",
           t.seconds)


def test_criterion_02_axiom_suite():
    with timer() as t:
        for tag in ("qz5", "zqs3", "A"):
            rep = verify_frobenius(load_algebra(tag))
            assert rep.all_pass, (tag, rep.failures)
    assert t.seconds < 5.0
    report(2, "all Frobenius axioms hold exactly for qz5, zqs3 and A",
           t.seconds)


def test_criterion_03_handle_power_identity():
    with timer() as t:
        z = zqs3()
        assert zqs3_handle_power(1) == RationalMatrix.from_rows(
            [[3, 0, 3], [0, 6, 0], [F(3, 2), 0, F(9, 2)]])
        for k in range(1, 9):
            assert evaluate(z, e_block(1, k, 1)).matrix \
                == zqs3_handle_power(k), k
    report(3, "genus-k tube equals the closed-form handle power, k = 1..8",
           t.seconds)


def test_criterion_04_special_property():
    with timer() as t:
        q = qz5()
        five = RationalMatrix.from_rows([[5]])
        for k in range(9):
            assert evaluate(q, e_block(1, k, 1)).matrix \
                == RationalMatrix.identity(5), k
            assert evaluate(q, e_block(0, k, 0)).matrix == five, k
    report(4, "qz5 is special: genus is invisible and closed surfaces give 5",
           t.seconds)


def test_criterion_05_closed_invariant():
    with timer() as t:
        A = faithful_algebra()
        assert closed_invariant("A", 0) == 5
        assert closed_invariant("A", 1) == 15
        assert closed_invariant("A", 2) == F(135, 2)
        for k in range(9):
            formula = 5 * F(3, 2) ** (k - 1) * (F(2) ** (2 * k - 1) + 1)
            assert closed_invariant("A", k) == formula
            assert evaluate(A, e_block(0, k, 0)).matrix \
                == RationalMatrix(1, 1, {(0, 0): formula}), k
    report(5, "closed genus-k surfaces evaluate to 5*(3/2)^(k-1)*(2^(2k-1)+1)",
           t.seconds)


def test_criterion_06_functoriality_oracle():
    # Exhaustive pairwise functoriality is checked wherever the exact
    # matrices stay desk-sized: all composable pairs through middle
    # arities 0 and 1 (one circle per side), all connected genus<=2
    # pairs through middle arity 2, and all tensor pairs with at most
    # two circles per combined side.  Every cobordism of the stated
    # bounds additionally passes through the capping, stretching and
    # closing contexts at matrix level, which is the composition shape
    # the separation pipeline relies on.
    A = faithful_algebra()
    d = A.dim
    idm = RationalMatrix.identity(d)
    checked = 0

    with timer() as t:
        small = enumerate_cobordisms(
            ScanBounds(max_circles=1, max_genus=2, max_closed=1,
                       max_closed_genus=2))
        cache = {K: evaluate(A, K).matrix for K in small}
        by_in = {}
        for K in small:
            by_in.setdefault(K.n_in, []).append(K)
        for K in small:
            for L in by_in.get(K.n_out, []):
                assert evaluate(A, compose(K, L)).matrix \
                    == mat_mul(cache[L], cache[K]), (K, L)
                checked += 1

        # closed-to-closed gluings through middle arity 2 (thin matrices)
        into2 = [e_block(2, g, n) for g in range(3) for n in range(3)]
        outof2 = [e_block(m, g, 2) for g in range(3) for m in range(3)]
        for K in into2:
            for L in outof2:
                assert evaluate(A, compose(K, L)).matrix \
                    == mat_mul(evaluate(A, L).matrix,
                               evaluate(A, K).matrix), (K, L)
                checked += 1

        # tensor functoriality: kron with no extra routing needed
        for K, L in itertools.product(small, repeat=2):
            assert evaluate(A, tensor(K, L)).matrix \
                == kron(cache[K], cache[L]), (K, L)
            checked += 1

        # context functoriality over the full stated bounds
        full = enumerate_cobordisms(
            ScanBounds(max_circles=2, max_genus=2, max_closed=1,
                       max_closed_genus=2))
        eta_mat = evaluate(A, e_block(1, 0, 0)).matrix
        eps_mat = evaluate(A, e_block(0, 0, 1)).matrix
        for K in full:
            mat = evaluate(A, K).matrix
            for i in range(K.n_in):
                ctx = tensor(tensor(identity(i), e_block(1, 0, 0)),
                             identity(K.n_in - i - 1))
                assert evaluate(A, compose(ctx, K)).matrix \
                    == mat_mul(mat, evaluate(A, ctx).matrix), (K, i)
                checked += 1
            for j in range(K.n_out):
                ctx = tensor(tensor(identity(j), e_block(0, 0, 1)),
                             identity(K.n_out - j - 1))
                assert evaluate(A, compose(K, ctx)).matrix \
                    == mat_mul(evaluate(A, ctx).matrix, mat), (K, j)
                checked += 1
            shape = (K.n_in, K.n_out)
            if shape == (1, 0):
                assert evaluate(A, stretch1(K)).matrix == mat_mul(
                    kron(mat, idm), evaluate(A, e_block(2, 0, 1)).matrix)
                checked += 1
            elif shape == (0, 1):
                assert evaluate(A, stretch1_dual(K)).matrix == mat_mul(
                    evaluate(A, e_block(1, 0, 2)).matrix, kron(mat, idm))
                checked += 1
            elif shape == (2, 0):
                assert evaluate(A, stretch2(K)).matrix == mat_mul(
                    kron(mat, idm),
                    evaluate(A, tensor(identity(1), e_block(2, 0, 0))).matrix)
                checked += 1
            elif shape == (0, 2):
                assert evaluate(A, stretch2_dual(K)).matrix == mat_mul(
                    evaluate(A, tensor(identity(1), e_block(0, 0, 2))).matrix,
                    kron(mat, idm))
                checked += 1
            elif shape == (1, 1):
                a = 1 + max([c.genus for c in K.components]
                            + list(K.closed_genera))
                assert evaluate(A, closure(K, a)).matrix == mat_mul(
                    evaluate(A, e_block(0, a, 1)).matrix,
                    mat_mul(mat, evaluate(A, e_block(1, a, 0)).matrix))
                checked += 1
    assert checked > 10000
    report(6, f"functoriality oracle: {checked} gluings, zero exceptions",
           t.seconds)


def test_criterion_07_lemma4_desk_scale():
    with timer() as t:
        rep = lemma4_injectivity(max_size=4, max_genus=6)
        assert rep.injective
        assert rep.multisets_checked == 330
    assert t.seconds < 10.0
    report(7, "invariant injective over all 330 genus multisets, size<=4, "
              "genus<=6", t.seconds)


def test_criterion_08_zsigmondy():
    with timer() as t:
        with pytest.raises(ExceptionalTriple):
            zsigmondy_witness(2, 1, 3)
        for n in range(5, 26, 2):
            p = zsigmondy_witness(2, 1, n)
            assert (2 ** n + 1) % p == 0, n
            for k in range(1, n):
                assert (2 ** k + 1) % p != 0, (n, k)
    report(8, "primitive prime divisors of 2^n+1 verified for odd n = 5..25",
           t.seconds)


def test_criterion_09_faithfulness_scan():
    with timer() as t:
        cert = faithfulness_scan(SCAN_BOUNDS)
    assert cert.verdict == "distinct"
    assert cert.enumerated == 2330
    assert cert.pairs_checked == cert.enumerated * (cert.enumerated - 1) // 2
    # the bytes `cobtqft scan` prints at the default bounds
    assert hashlib.sha256((cert.to_json() + "\n").encode()).hexdigest() \
        == "b25dc6fc4d1ee7d92b1999830629f4731566e7212cd2176ae1569393082b7603"
    assert t.seconds < 300.0
    report(9, f"{cert.enumerated} cobordisms, {cert.pairs_checked} pairs "
              "distinct by both routes", t.seconds)


def test_criterion_10_negative_control():
    with timer() as t:
        cert = faithfulness_scan(SCAN_BOUNDS, "qz5")
        assert cert.verdict == "collision"
        left, right = cert.collision
        assert left != right
        assert evaluate(qz5(), left).matrix == evaluate(qz5(), right).matrix
        # the canonical witness pair collides under qz5 while the
        # faithful algebra and the separation route both split it
        tube, cylinder = e_block(1, 1, 1), e_block(1, 0, 1)
        assert evaluate(qz5(), tube).matrix \
            == evaluate(qz5(), cylinder).matrix
        assert evaluate(faithful_algebra(), tube).matrix \
            != evaluate(faithful_algebra(), cylinder).matrix
        ms_k, ms_l = separating_closure(tube, cylinder)
        assert multiset_invariant(ms_k) != multiset_invariant(ms_l)
    report(10, f"qz5 scan reports collision {left!r} = {right!r}", t.seconds)


def test_criterion_11_parser_printer():
    with timer() as t:
        for K in enumerate_cobordisms(SCAN_BOUNDS):
            assert elaborate(parse(format_cobordism(K))) == K
        with pytest.raises(TermArityError) as arity_err:
            parse("mu ; mu")
        assert arity_err.value.position is not None
        with pytest.raises(TermSyntaxError) as syntax_err:
            parse("delta ; (mu")
        assert syntax_err.value.position == 11
    report(11, "2330 round trips through the word language; ill-typed "
               "words rejected with positions", t.seconds)
