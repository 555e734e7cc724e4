import random

import pytest

from cobtqft.diagram import (MAX_NUMBER, MAX_TOKENS, Comp, Gen, Tens,
                             TermArityError, TermSyntaxError, elaborate,
                             format_cobordism, parse, print_term)
from cobtqft.faithfulness import ScanBounds, enumerate_cobordisms
from cobtqft.surface import (Cobordism, component, compose, e_block,
                             identity, permutation, tensor)


def test_parse_basic_structure():
    t = parse("delta ; mu")
    assert t == Comp(left=Gen(name="delta"), right=Gen(name="mu"))
    assert (elaborate(t).n_in, elaborate(t).n_out) == (1, 1)


def test_parse_precedence_and_associativity():
    t = parse("delta * id[1] ; id[1] * mu")
    # ";" binds looser than "*"
    assert isinstance(t, Comp)
    assert isinstance(t.left, Tens) and isinstance(t.right, Tens)
    assert parse("(delta * id[1]) ; (id[1] * mu)") == t
    assert (elaborate(t).n_in, elaborate(t).n_out) == (2, 2)
    left_assoc = parse("eps ; eta ; eps ; eta")
    assert isinstance(left_assoc, Comp) and isinstance(left_assoc.left, Comp)


def test_parse_sugar_block():
    t = parse("E[2,1,3]")
    assert t == Gen(name="E", params=(2, 1, 3))
    assert elaborate(t) == e_block(2, 1, 3)


def test_parse_type_error_names_arities():
    with pytest.raises(TermArityError, match=r"2->1 with 2->1"):
        parse("mu ; mu")
    with pytest.raises(TermArityError) as err:
        parse("eta ; delta ; mu ; mu")
    assert err.value.position == 19


def test_arity_error_agrees_in_number():
    for text, message in [
            ("mu ; mu", "cannot compose 2->1 with 2->1: 1 outgoing circle "
                        "meets 2 ingoing (at position 5)"),
            ("delta ; delta", "cannot compose 1->2 with 1->2: 2 outgoing "
                              "circles meet 1 ingoing (at position 8)"),
            ("id[0] ; delta", "cannot compose 0->0 with 1->2: 0 outgoing "
                              "circles meet 1 ingoing (at position 8)")]:
        with pytest.raises(TermArityError) as err:
            parse(text)
        assert str(err.value) == message, text


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


# --- the one-pass elaborator against the compose/tensor fold --------------

_REFERENCE_GENERATORS = {"mu": e_block(1, 0, 2), "eta": e_block(1, 0, 0),
                         "delta": e_block(2, 0, 1), "eps": e_block(0, 0, 1),
                         "swap": permutation((1, 0))}


def _reference_elaborate(t):
    """The recursive fold: `compose` at every ";", `tensor` at every "*"."""
    if isinstance(t, Gen):
        if t.name == "id":
            return identity(t.params[0])
        if t.name == "E":
            return e_block(*t.params)
        return _REFERENCE_GENERATORS[t.name]
    if isinstance(t, Comp):
        return compose(_reference_elaborate(t.left),
                       _reference_elaborate(t.right))
    if isinstance(t, Tens):
        return tensor(_reference_elaborate(t.left),
                      _reference_elaborate(t.right))
    raise TypeError(f"not a term: {t!r}")


def _random_term(rng, n_in, depth):
    """A well-typed random term with n_in ingoing circles, and its number
    of outgoing circles."""
    choice = rng.random() if depth else 0
    if choice < 0.4:
        fixed = [(name, K.n_out)
                 for name, K in _REFERENCE_GENERATORS.items()
                 if K.n_in == n_in]
        if fixed and rng.random() < 0.6:
            name, n_out = rng.choice(fixed)
            return Gen(name=name), n_out
        if rng.random() < 0.3:
            return Gen(name="id", params=(n_in,)), n_in
        m = rng.randint(0, 3)
        return Gen(name="E", params=(m, rng.randint(0, 2), n_in)), m
    if choice < 0.7:
        left, middle = _random_term(rng, n_in, depth - 1)
        right, n_out = _random_term(rng, middle, depth - 1)
        return Comp(left=left, right=right), n_out
    split = rng.randint(0, n_in)
    left, left_out = _random_term(rng, split, depth - 1)
    right, right_out = _random_term(rng, n_in - split, depth - 1)
    return Tens(left=left, right=right), left_out + right_out


def test_elaborate_matches_the_compose_tensor_fold_on_random_terms():
    rng = random.Random(12)
    shapes = set()
    for _ in range(600):
        n_in = rng.randint(0, 3)
        t, n_out = _random_term(rng, n_in, rng.randint(1, 6))
        K = elaborate(t)
        assert K == _reference_elaborate(t), print_term(t)
        assert (K.n_in, K.n_out) == (n_in, n_out)
        # and parse type-checks the word as well typed
        assert parse(print_term(t)) == t
        shapes.add((bool(K.closed_genera), K.max_genus() > 0,
                    len(K.components) > 1))
    # closed pieces, handles and several components all occur
    assert len(shapes) == 8


def _first_generator(text):
    """Offset of the first generator in a printed term."""
    return len(text) - len(text.lstrip("("))


def test_first_ill_typed_composition_is_reported_after_syntax_errors():
    rng = random.Random(13)

    def layer(n_in):
        t, n_out = _random_term(rng, n_in, rng.randint(0, 2))
        return f"({print_term(t)})", n_out

    for _ in range(300):
        # parenthesized well-typed layers, one of which takes one circle
        # more than the layers before it give
        width, bad = rng.randint(0, 2), rng.randint(1, 3)
        texts = []
        for index in range(4):
            text, width = layer(width + (index == bad))
            if index == bad:
                expected = (len(" ; ".join(texts + [""]))
                            + _first_generator(text))
            texts.append(text)
        word = " ; ".join(texts)
        with pytest.raises(TermArityError) as err:
            parse(word)
        assert err.value.position == expected, word
        # a syntax error anywhere in the word takes precedence
        with pytest.raises(TermSyntaxError) as err:
            parse(word + ")")
        assert str(err.value) == \
            f"trailing input: a symbol (at position {len(word)})"
        # with faults at both ";" of a ; (b ; c), the inner one comes
        # first in reading order, and in (a ; b) ; c the left one does
        n0 = rng.randint(0, 2)
        a, n1 = layer(n0)
        b, n2 = layer(n1 + 1)
        c, n3 = layer(n2 + 1)
        inner, left = f"{a} ; ({b} ; ", f"({a} ; "
        for word, position, arities in (
                (f"{inner}{c})", len(inner) + _first_generator(c),
                 f"{n1 + 1}->{n2} with {n2 + 1}->{n3}"),
                (f"{left}{b}) ; {c}", len(left) + _first_generator(b),
                 f"{n0}->{n1} with {n1 + 1}->{n2}")):
            with pytest.raises(TermArityError) as err:
                parse(word)
            assert err.value.position == position, word
            assert str(err.value).startswith(f"cannot compose {arities}:")


def test_elaborate_matches_the_fold_on_chosen_words():
    depth = (MAX_TOKENS - 1) // 2
    cases = {
        "id[0]": Cobordism(0, 0),
        "E[0,3,0]": e_block(0, 3, 0),
        "E[0,0,0] * E[0,2,0]": Cobordism(0, 0, (), (2, 0)),
        "eta ; eps": e_block(0, 0, 0),
        # two circles between the same two pieces roll up a handle
        "delta ; swap ; mu": e_block(1, 1, 1),
        "(delta * delta) ; (id[1] * mu * id[1]) ; (mu * id[1]) ; mu":
            e_block(1, 2, 2),
        "E[3,0,1] ; E[1,0,3]": e_block(1, 2, 1),
        "eta ; delta ; (eps * id[1]) ; eps": e_block(0, 0, 0),
        "(eta * eta) ; swap ; (eps * id[1])": Cobordism(
            0, 1, [component((), (0,), 0)], (0,)),
        "(" * depth + "delta" + ")" * depth: e_block(2, 0, 1),
        " ; ".join(["id[1]"] * ((MAX_TOKENS + 1) // 5)): identity(1),
    }
    for word, K in cases.items():
        t = parse(word)
        assert elaborate(t) == _reference_elaborate(t) == K, word


def test_elaborate_matches_the_fold_on_every_formatted_word():
    checked = 0
    for K in enumerate_cobordisms(ScanBounds(2, 1, 1, 1)):
        t = parse(format_cobordism(K))
        assert elaborate(t) == _reference_elaborate(t) == K, K
        checked += 1
    assert checked == 483


def test_elaborate_refuses_ill_typed_and_foreign_terms():
    # hand-built terms skip the type check of `parse`; gluing too few or
    # too many circles must fail as compose does, never truncate
    for left, right in (("mu", "mu"), ("delta", "eps"), ("eta", "mu")):
        ill = Comp(left=Gen(name=left), right=Gen(name=right))
        with pytest.raises(ValueError) as want:
            _reference_elaborate(ill)
        with pytest.raises(ValueError) as got:
            elaborate(ill)
        assert str(got.value) == str(want.value)
        assert "boundary arities differ" in str(got.value)
        # and so must the same gluing inside a larger term
        with pytest.raises(ValueError) as nested:
            elaborate(Tens(left=Gen(name="id", params=(1,)), right=ill))
        assert str(nested.value) == str(want.value)
    for foreign in ("mu", None, Comp(left=Gen(name="mu"), right=None)):
        with pytest.raises(TypeError, match="not a term"):
            elaborate(foreign)


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
    # the digits are counted before int() reads them, so even a number
    # past Python's 4 300-digit conversion limit is a syntax error
    for word in ("id[65]", "E[1,1200,1]", "id[" + "9" * 30 + "]",
                 "id[" + "0" * 64 + "1]", "E[1," + "7" * 5000 + ",1]"):
        with pytest.raises(TermSyntaxError, match=f"limit {MAX_NUMBER}") \
                as err:
            parse(word)
        assert err.value.position is not None


def test_the_grammar_is_ascii():
    # Arabic-Indic three, a letter mu, a no-break space and a full-width
    # digit: str.isdigit and str.isidentifier accept them, parse does not
    for word, pos in (("id[\u0663]", 3), ("\u03bc", 0), ("mu\u00a0; mu", 2),
                      ("E[1,\uff11,1]", 4), ("eta\u2003", 3)):
        with pytest.raises(TermSyntaxError, match="unexpected character") \
                as err:
            parse(word)
        assert err.value.position == pos, word
    assert parse(" mu\t;\n\r eps\f\v") == parse("mu ; eps")


def test_errors_name_the_token_kind_not_its_text():
    long_name, long_number = "x" * 100_000, "9" * 100_000
    cases = [
        (long_name, "unknown generator name", 0),
        ("mu " + long_name, "trailing input: a name", 3),
        ("id[" + long_name + "]", "expected a number, found a name", 3),
        ("id[3" + long_name, "expected ']', found a name", 4),
        (long_number, "expected a generator, found a number", 0),
        ("mu ; ; mu", "expected a generator, found a symbol", 5),
        ("(mu", "expected ')', found the end of the input", 3),
        ("id[" + long_number + "]", f"a number exceeds the limit {MAX_NUMBER}",
         3),
    ]
    for word, message, pos in cases:
        with pytest.raises(TermSyntaxError) as err:
            parse(word)
        assert str(err.value) == f"{message} (at position {pos})", word[:20]

