import pytest

from cobtqft.diagram import (MAX_NUMBER, MAX_TOKENS, Comp, Gen, Tens,
                             TermArityError, TermSyntaxError, arity,
                             elaborate, format_cobordism, parse, print_term)
from cobtqft.faithfulness import ScanBounds, enumerate_cobordisms
from cobtqft.surface import Cobordism, component, e_block, identity, permutation


def test_parse_basic_structure():
    t = parse("delta ; mu")
    assert t == Comp(left=Gen(name="delta"), right=Gen(name="mu"))
    assert arity(t) == (1, 1)


def test_parse_precedence_and_associativity():
    t = parse("delta * id[1] ; id[1] * mu")
    # ";" binds looser than "*"
    assert isinstance(t, Comp)
    assert isinstance(t.left, Tens) and isinstance(t.right, Tens)
    assert parse("(delta * id[1]) ; (id[1] * mu)") == t
    assert arity(t) == (2, 2)
    left_assoc = parse("eps ; eta ; eps ; eta")
    assert isinstance(left_assoc, Comp) and isinstance(left_assoc.left, Comp)


def test_parse_sugar_block():
    t = parse("E[2,1,3]")
    assert t == Gen(name="E", params=(2, 1, 3))
    assert arity(t) == (3, 2)
    assert elaborate(t) == e_block(2, 1, 3)


def test_parse_type_error_names_arities():
    with pytest.raises(TermArityError, match=r"2->1 with 2->1"):
        parse("mu ; mu")
    with pytest.raises(TermArityError) as err:
        parse("eta ; delta ; mu ; mu")
    assert err.value.position == 19


def test_parse_syntax_errors_have_positions():
    for text, pos in [("mu ; ; mu", 5), ("mu **", 4), ("id[x]", 3),
                      ("(mu ; delta", 11), ("mu @ mu", 3)]:
        with pytest.raises(TermSyntaxError) as err:
            parse(text)
        assert err.value.position == pos, text


def test_parse_rejects_unknown_generator():
    with pytest.raises(TermSyntaxError, match="unknown generator"):
        parse("frobenius")


def test_elaborate_examples():
    assert elaborate(parse("delta ; mu")) == e_block(1, 1, 1)
    assert elaborate(parse("eta ; eps")) == e_block(0, 0, 0)
    assert elaborate(parse("swap ; swap")) == identity(2)
    assert elaborate(parse("id[3]")) == identity(3)


def test_elaborated_relations_hold():
    pairs = [
        # associativity and unit of the multiplication
        ("(mu * id[1]) ; mu", "(id[1] * mu) ; mu"),
        ("(eta * id[1]) ; mu", "id[1]"),
        ("(id[1] * eta) ; mu", "id[1]"),
        # commutativity
        ("swap ; mu", "mu"),
        ("delta ; swap", "delta"),
        # coassociativity and counit
        ("delta ; (delta * id[1])", "delta ; (id[1] * delta)"),
        ("delta ; (eps * id[1])", "id[1]"),
        ("delta ; (id[1] * eps)", "id[1]"),
        # Frobenius law
        ("(delta * id[1]) ; (id[1] * mu)", "mu ; delta"),
        ("(id[1] * delta) ; (mu * id[1])", "mu ; delta"),
        # symmetry
        ("swap ; swap", "id[2]"),
        ("((delta;mu) * id[1]) ; swap", "swap ; (id[1] * (delta;mu))"),
        ("(eta * id[1]) ; swap", "id[1] * eta"),
    ]
    for left, right in pairs:
        assert elaborate(parse(left)) == elaborate(parse(right)), (left, right)


def test_print_parse_round_trip():
    words = ["delta ; mu", "(delta * id[1]) ; (id[1] * mu)",
             "E[2,1,3] * eta ; mu * id[1] ; E[0,2,2]",
             "eta ; (delta ; mu) ; eps", "swap * swap ; id[4]"]
    for text in words:
        t = parse(text)
        assert parse(print_term(t)) == t


def test_format_examples():
    assert format_cobordism(e_block(1, 1, 1)) == "delta ; mu"
    assert format_cobordism(e_block(0, 0, 0)) == "eta ; eps"
    word = format_cobordism(e_block(0, 3, 0))
    assert word.count("delta") == 3 and word.count("mu") == 3
    assert elaborate(parse(word)) == e_block(0, 3, 0)


def test_format_round_trip_exhaustive():
    bounds = ScanBounds(max_circles=2, max_genus=1, max_closed=1,
                        max_closed_genus=2)
    for K in enumerate_cobordisms(bounds):
        word = format_cobordism(K)
        assert elaborate(parse(word)) == K, (K, word)


def test_format_refuses_a_word_that_parse_would_reject():
    # eight tokens a handle: genus 30 stays well inside the limit, and
    # genus 64, which eval accepts as E[1,64,1], needs about 507 tokens
    K = e_block(1, 30, 1)
    assert elaborate(parse(format_cobordism(K))) == K
    limits = f"parse takes {MAX_TOKENS} and {MAX_NUMBER}"
    with pytest.raises(ValueError, match="has 507 tokens .*" + limits):
        format_cobordism(e_block(1, 64, 1))
    # a swap at the front of n circles is written swap * id[n - 2]
    K = permutation((1, 0, *range(2, 66)))
    assert elaborate(parse(format_cobordism(K))) == K
    with pytest.raises(ValueError, match="numbers up to 65; " + limits):
        format_cobordism(permutation((1, 0, *range(2, 67))))


def test_format_round_trip_routing_heavy():
    cases = [
        permutation((2, 0, 1)),
        permutation((3, 1, 0, 2)),
        Cobordism(3, 2, [component((0, 2), (1,), 1),
                         component((1,), (0,), 2)], (1, 0)),
        Cobordism(2, 3, [component((1,), (0, 2), 0),
                         component((0,), (1,), 3)]),
    ]
    for K in cases:
        assert elaborate(parse(format_cobordism(K))) == K


def test_token_limit():
    # n compositions of id[1] take 5n - 1 tokens
    n = (MAX_TOKENS + 1) // 5
    at_limit = " ; ".join(["id[1]"] * n)
    assert elaborate(parse(at_limit)) == identity(1)
    with pytest.raises(TermSyntaxError, match=f"more than {MAX_TOKENS}"):
        parse(at_limit + " ; eps")
    # beyond the limit, long and deep words fail as syntax errors, not by
    # exhausting the interpreter's stack
    for word in (" ; ".join(["id[1]"] * 992),
                 "(" * 330 + "mu" + ")" * 330):
        with pytest.raises(TermSyntaxError, match="tokens"):
            parse(word)
    depth = (MAX_TOKENS - 1) // 2
    nested = "(" * depth + "delta" + ")" * depth
    assert elaborate(parse(nested)) == e_block(2, 0, 1)


def test_number_limit():
    assert elaborate(parse(f"E[1,{MAX_NUMBER},{MAX_NUMBER}]")) \
        == e_block(1, MAX_NUMBER, MAX_NUMBER)
    for word in ("id[65]", "E[1,1200,1]", "id[" + "9" * 30 + "]"):
        with pytest.raises(TermSyntaxError, match=f"limit {MAX_NUMBER}") \
                as err:
            parse(word)
        assert err.value.position is not None
