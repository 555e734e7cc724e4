import hashlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from cobtqft.diagram import (MAX_NUMBER, MAX_TOKENS, Comp, Gen, Tens,
                             TermArityError, TermError, TermSyntaxError,
                             _min_tokens, elaborate, format_cobordism, parse,
                             print_term)
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
    # words nested too deep to print are refused before they are built:
    # 496 adjacent swaps, 600 cylinders, 600 closed pieces, 1000 handles
    # and a product of 600 circles
    for K in (permutation(tuple(reversed(range(32)))), identity(600),
              Cobordism(0, 0, (), [0] * 600), e_block(1, 1000, 1),
              e_block(1, 0, 600)):
        with pytest.raises(ValueError, match="at least .*" + limits):
            format_cobordism(K)


def test_format_refuses_early_only_words_nested_too_deep():
    # the count made before building never passes the word's own: a word
    # refused early is too long when built, a word that is built keeps
    # its exact count, even far past the limit, and the deepest words
    # the count admits still print
    cases = list(enumerate_cobordisms(ScanBounds(2, 1, 1, 1)))
    cases += [permutation(tuple(reversed(range(n)))) for n in range(2, 22)]
    cases += [e_block(1, 0, 127), e_block(127, 0, 1), e_block(1, 125, 1),
              e_block(0, 128, 0), identity(250),
              Cobordism(0, 0, (), [0] * 250)]
    refused_early = refused_after_building = 0
    for K in cases:
        try:
            assert elaborate(parse(format_cobordism(K))) == K
        except ValueError as refused:
            if "at least" in str(refused):
                assert len(_tokens(_oracle_word(K))) > MAX_TOKENS, K
                refused_early += 1
            else:
                refused_after_building += 1
    # the reversed permutations of 16 to 21 circles are refused early
    assert (refused_early, refused_after_building) == (6, 13)
    with pytest.raises(ValueError, match="at least 503 tokens"):
        format_cobordism(e_block(1, 0, 128))


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



# --- one-pass parsing against the recursive-descent parser ----------------
# The oracle is the parser that `parse` replaced: a tokenizer that builds
# one match and one (kind, text, position) tuple per token, and recursive
# descent that type-checks as it reads.

_ORACLE_TOKEN = re.compile(
    r"(?P<name>[A-Za-z_]\w*)|(?P<int>\d+)|(?P<sym>[;*()\[\],])"
    r"|(?P<bad>[^ \t\n\r\f\v])", re.ASCII)
_ORACLE_KINDS = {"name": "a name", "int": "a number", "sym": "a symbol",
                 "end": "the end of the input"}
_ORACLE_BLOCKS = {"mu": (1, 0, 2), "eta": (1, 0, 0), "delta": (2, 0, 1),
                  "eps": (0, 0, 1)}


def _oracle_tokenize(text):
    tokens = []
    for m in _ORACLE_TOKEN.finditer(text):
        kind, pos = m.lastgroup, m.start()
        if kind == "bad":
            raise TermSyntaxError(f"unexpected character {m.group()!r}", pos)
        if len(tokens) == MAX_TOKENS:
            raise TermSyntaxError(f"the word has more than {MAX_TOKENS} "
                                  f"tokens", pos)
        tokens.append((kind, m.group(), pos))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """`term`, `tens` and `atom` return a subterm with its ingoing and
    outgoing arity and the position of its first generator."""

    def __init__(self, text):
        self.tokens = _oracle_tokenize(text)
        self.i = 0
        self.fault = None  # the first ill-typed ";"

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, text, pos = self.next()
        if text != value:
            raise TermSyntaxError(
                f"expected {value!r}, found {_ORACLE_KINDS[kind]}", pos)

    def parse_int(self):
        kind, text, pos = self.next()
        if kind != "int":
            raise TermSyntaxError(
                f"expected a number, found {_ORACLE_KINDS[kind]}", pos)
        n = MAX_NUMBER + 1 if len(text) > MAX_NUMBER else int(text)
        if n > MAX_NUMBER:
            raise TermSyntaxError(f"a number exceeds the limit {MAX_NUMBER}",
                                  pos)
        return n

    def term(self):
        t, n, m, pos = self.tens()
        while self.peek()[1] == ";":
            self.next()
            right, rn, rm, right_pos = self.tens()
            if m != rn and self.fault is None:
                meet = "circle meets" if m == 1 else "circles meet"
                self.fault = TermArityError(
                    f"cannot compose {n}->{m} with {rn}->{rm}: "
                    f"{m} outgoing {meet} {rn} ingoing", right_pos)
            t, m = Comp(t, right), rm
        return t, n, m, pos

    def tens(self):
        t, n, m, pos = self.atom()
        while self.peek()[1] == "*":
            self.next()
            right, rn, rm, _ = self.atom()
            t, n, m = Tens(t, right), n + rn, m + rm
        return t, n, m, pos

    def atom(self):
        kind, text, pos = self.next()
        if text == "(":
            parsed = self.term()
            self.expect(")")
            return parsed
        if kind != "name":
            raise TermSyntaxError(
                f"expected a generator, found {_ORACLE_KINDS[kind]}", pos)
        if text in _ORACLE_BLOCKS:
            m, _, n = _ORACLE_BLOCKS[text]
            return Gen(text), n, m, pos
        if text == "swap":
            return Gen(text), 2, 2, pos
        if text == "id":
            self.expect("[")
            n = self.parse_int()
            self.expect("]")
            return Gen("id", (n,)), n, n, pos
        if text == "E":
            self.expect("[")
            m = self.parse_int()
            self.expect(",")
            k = self.parse_int()
            self.expect(",")
            n = self.parse_int()
            self.expect("]")
            return Gen("E", (m, k, n)), n, m, pos
        raise TermSyntaxError("unknown generator name", pos)


def _oracle_parse(text):
    p = _Parser(text)
    t = p.term()[0]
    kind, _, pos = p.peek()
    if kind != "end":
        raise TermSyntaxError(f"trailing input: {_ORACLE_KINDS[kind]}", pos)
    if p.fault is not None:
        raise p.fault
    return t


def _outcome(parser, word):
    try:
        return print_term(parser(word))
    except TermError as err:
        return type(err).__name__, str(err), err.position


# atoms of every arity up to 3 -> 3, with their number of tokens
_ATOM_TOKENS = {"mu": 1, "eta": 1, "delta": 1, "eps": 1, "swap": 1,
                "id[0]": 4, "id[1]": 4, "id[2]": 4, "E[1,1,1]": 8,
                "E[0,2,3]": 8, "E[2,0,0]": 8}
# what a mutation inserts: generator names, symbols, digits, a number
# past the limit, a non-ASCII character and whitespace
_FRAGMENTS = ["mu", "eta", "delta", "eps", "swap", "id", "E", "frob",
              ";", "*", "(", ")", "[", "]", ",", "0", "1", "2", "7", "65",
              "٣", " ", "\t", "\n"]


def _loose_word(rng, tokens):
    """Atoms joined by random operators, parenthesized at random, until
    the word has at least `tokens` tokens; often ill-typed."""
    parts, count, depth = [], 0, 0
    while True:
        if rng.random() < 0.2:
            parts.append("(")
            depth += 1
        atom = rng.choice(list(_ATOM_TOKENS))
        parts.append(atom)
        count += _ATOM_TOKENS[atom] + (parts[-2:-1] == ["("])
        while depth and rng.random() < 0.3:
            parts.append(")")
            count, depth = count + 1, depth - 1
        if count + depth >= tokens:
            return " ".join(parts + [")"] * depth)
        parts.append(rng.choice([";", ";", "*"]))
        count += 1


def _mutate(rng, word):
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(word))
        action = rng.random()
        if action < 0.6:
            word = word[:at] + rng.choice(_FRAGMENTS) + word[at:]
        elif action < 0.9:
            word = word[:at] + word[at + rng.randint(1, 4):]
        else:
            word = word[:at]
    return word


def test_parse_agrees_with_the_recursive_descent_parser():
    rng = random.Random(27)
    words = []
    for index in range(2600):
        if index % 4 == 0:
            t, _ = _random_term(rng, rng.randint(0, 3), rng.randint(1, 6))
            word = print_term(t)
        elif index % 4 == 3:  # around the token limit
            word = _loose_word(rng, rng.randint(MAX_TOKENS - 8,
                                                MAX_TOKENS + 2))
        else:
            word = _loose_word(rng, rng.randint(1, 60))
        words.append(word)
        words += [_mutate(rng, word) for _ in range(3)]
    assert len(words) >= 10_000
    errors, parsed = set(), 0
    for word in words:
        got = _outcome(parse, word)
        assert got == _outcome(_oracle_parse, word), word
        if isinstance(got, str):
            parsed += 1
        else:
            errors.add(got[1])
    # the words parse, and raise every error that the parser has
    assert parsed > 1000
    for message in ("unexpected character '٣'", "the word has more than",
                    "trailing input", "expected ')'", "expected '['",
                    "expected ']'", "expected ','", "expected a number",
                    "expected a generator", "unknown generator name",
                    "a number exceeds the limit", "cannot compose"):
        assert any(e.startswith(message) for e in errors), message

def test_huge_words_cost_bounded_work():
    # each is refused within the first MAX_TOKENS + 1 tokens, with the
    # message and position of the recursive-descent parser
    for word, message in (
            ("mu ; " * 200_000, f"the word has more than {MAX_TOKENS} tokens "
                                f"(at position 1250)"),
            ("(" * 10**6, f"the word has more than {MAX_TOKENS} tokens "
                          f"(at position 500)"),
            ("mu ; " * 100 + "é" + " mu" * 100_000,
             "unexpected character 'é' (at position 500)"),
            # a character past the last token read is never looked at
            ("mu ; " * 300 + "é", f"the word has more than {MAX_TOKENS} "
                                  f"tokens (at position 1250)")):
        with pytest.raises(TermSyntaxError) as err:
            parse(word)
        assert str(err.value) == message
        assert _outcome(_oracle_parse, word)[1] == message


# --- the canonical words as Term trees, printed by print_term ---------------
# format_cobordism's words built as terms and printed by print_term, with
# its bounds and messages: the oracle of the test below

_ID1 = Gen(name="id", params=(1,))


def _oracle_seq(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return Comp(left=a, right=b)


def _oracle_mu_tree(n):
    if n == 0:
        return Gen(name="eta")
    if n == 1:
        return None
    t = Gen(name="mu")
    for _ in range(n - 2):
        t = Comp(left=Tens(left=t, right=_ID1), right=Gen(name="mu"))
    return t


def _oracle_delta_tree(m):
    if m == 0:
        return Gen(name="eps")
    if m == 1:
        return None
    t = Gen(name="delta")
    for _ in range(m - 2):
        t = Comp(left=Gen(name="delta"), right=Tens(left=t, right=_ID1))
    return t


def _oracle_block_word(m, k, n):
    handles = None
    for _ in range(k):
        handles = _oracle_seq(handles, Comp(left=Gen(name="delta"),
                                            right=Gen(name="mu")))
    word = _oracle_seq(_oracle_mu_tree(n),
                       _oracle_seq(handles, _oracle_delta_tree(m)))
    return _ID1 if word is None else word


def _oracle_swap_at(j, n):
    t = Gen(name="swap")
    if j > 0:
        t = Tens(left=Gen(name="id", params=(j,)), right=t)
    if j + 2 < n:
        t = Tens(left=t, right=Gen(name="id", params=(n - j - 2,)))
    return t


def _oracle_perm_word(p):
    n = len(p)
    cur = list(range(n))
    t = None
    done = False
    while not done:
        done = True
        for j in range(n - 1):
            if p[cur[j]] > p[cur[j + 1]]:
                cur[j], cur[j + 1] = cur[j + 1], cur[j]
                t = _oracle_seq(t, _oracle_swap_at(j, n))
                done = False
    return t


def _oracle_word(K):
    """K's word, built and printed whatever its length."""
    in_order = [i for c in K.components for i in c.ingoing]
    out_order = [j for c in K.components for j in c.outgoing]
    word = _oracle_perm_word(sorted(range(K.n_in),
                                    key=in_order.__getitem__))
    blocks = None
    for c in K.components:
        piece = _oracle_block_word(len(c.outgoing), c.genus, len(c.ingoing))
        blocks = piece if blocks is None else Tens(left=blocks, right=piece)
    word = _oracle_seq(word, blocks)
    word = _oracle_seq(word, _oracle_perm_word(out_order))
    for g in K.closed_genera:
        piece = _oracle_block_word(0, g, 0)
        word = piece if word is None else Tens(left=word, right=piece)
    if word is None:
        word = Gen(name="id", params=(0,))
    return print_term(word)


def _tokens(text):
    return re.findall(r"[A-Za-z_]\w*|\d+|[;*()\[\],]", text)


def _oracle_format(K):
    in_order = [i for c in K.components for i in c.ingoing]
    out_order = [j for c in K.components for j in c.outgoing]
    n = sum(max(1, 2 * (len(c.ingoing) + len(c.outgoing) + c.genus) - 6)
            for c in K.components)
    n += sum(max(1, 2 * h - 6) for h in K.closed_genera)
    for order in (in_order, out_order):
        if n <= MAX_TOKENS // 2:
            swaps = sum(a > b for i, a in enumerate(order)
                        for b in order[i + 1:])
            # beside each swap among 3 or more circles stands an id[j]
            n += 2 * swaps if len(order) >= 3 else swaps
    if 2 * n - 1 > MAX_TOKENS:
        raise ValueError(f"the word has at least {2 * n - 1} tokens; parse "
                         f"takes {MAX_TOKENS} and {MAX_NUMBER}")
    text = _oracle_word(K)
    found = _tokens(text)
    number = max(map(int, filter(str.isdigit, found)), default=0)
    if len(found) > MAX_TOKENS or number > MAX_NUMBER:
        raise ValueError(f"the word has {len(found)} tokens and numbers up "
                         f"to {number}; parse takes {MAX_TOKENS} and "
                         f"{MAX_NUMBER}")
    return text


def _random_cobordism(rng):
    """A cobordism with up to 6 circles per side, each piece of genus at
    most 3, and up to 2 closed pieces."""
    n_in, n_out = rng.randint(0, 6), rng.randint(0, 6)
    pieces = {}
    for side, n in ((0, n_in), (1, n_out)):
        for circle in range(n):
            pieces.setdefault(rng.randrange(n_in + n_out), ([], []))[
                side].append(circle)
    return Cobordism(n_in, n_out, [component(ins, outs, rng.randint(0, 3))
                                   for ins, outs in pieces.values()],
                     [rng.randint(0, 3) for _ in range(rng.randint(0, 2))])


def test_format_writes_the_words_that_print_term_prints():
    def outcome(format_, K):
        try:
            return format_(K)
        except ValueError as refused:
            return ("refused", str(refused))

    scanned = list(enumerate_cobordisms(ScanBounds(2, 2, 1, 3)))
    assert len(scanned) == 2330
    words = [format_cobordism(K) for K in scanned]
    assert words == [_oracle_format(K) for K in scanned]
    digest = hashlib.sha256("\n".join(words).encode()).hexdigest()
    assert digest == ("cefadf0ab3781c2f6cd72029a3238eed"
                      "9553b229f8a2ef6e5ce12114c2697082")
    # near and past both limits, refused early, late or not at all
    cases = [permutation(tuple(reversed(range(n)))) for n in range(2, 22)]
    cases += [e_block(1, k, 1) for k in range(65)]
    cases += [e_block(1, 0, n) for n in range(129)]
    cases += [e_block(n, 0, 1) for n in range(129)]
    cases += [permutation((1, 0, *range(2, n))) for n in (66, 67)]
    cases += [identity(250), identity(600), Cobordism(0, 0, (), [0] * 250),
              Cobordism(0, 0, (), [0] * 600)]
    outcomes = [outcome(format_cobordism, K) for K in cases]
    assert outcomes == [outcome(_oracle_format, K) for K in cases]
    refusals = [got[1] for got in outcomes if isinstance(got, tuple)]
    # 10 refused before the word is built, 171 after it
    assert sum("at least" in refused for refused in refusals) == 10
    assert sum("numbers up to" in refused for refused in refusals) == 171
    # general permutations and cobordisms, seeded: 445 of the 2000
    # permutations round-trip, and 1555 are refused, 977 of them early;
    # every one of the 2000 cobordisms round-trips
    rng = random.Random(29)
    cases = [permutation(rng.sample(range(n), n))
             for n in rng.choices(range(3, 41), k=2000)]
    cases += [_random_cobordism(rng) for _ in range(2000)]
    outcomes = [outcome(format_cobordism, K) for K in cases]
    assert outcomes == [outcome(_oracle_format, K) for K in cases]
    assert all(elaborate(parse(got)) == K for K, got in zip(cases, outcomes)
               if not isinstance(got, tuple))
    refusals = [got[1] if isinstance(got, tuple) else None
                for got in outcomes]
    assert refusals[2000:] == [None] * 2000
    assert sum(refused is not None for refused in refusals) == 1555
    assert sum("at least" in (refused or "") for refused in refusals) == 977


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.integers(2, 40).flatmap(lambda n: st.permutations(range(n)))
    .map(permutation),
    st.builds(e_block, st.integers(0, 130), st.integers(0, 130),
              st.integers(0, 130)),
    st.builds(identity, st.integers(0, 300)),
    st.randoms(use_true_random=False).map(_random_cobordism)))
def test_early_count_never_exceeds_the_tokens_of_the_built_word(K):
    # the oracle builds the word whatever its length, and format_cobordism
    # writes the same word wherever it builds one
    assert _min_tokens(K) <= len(_tokens(_oracle_word(K)))
