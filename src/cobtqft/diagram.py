"""A typed term language over the cobordism generators.

Grammar (whitespace insignificant)::

    term := tens | term ";" tens          composition, left acts first
    tens := atom | tens "*" atom          tensor (side by side)
    atom := "mu" | "eta" | "delta" | "eps" | "swap"
          | "id" "[" INT "]"
          | "E" "[" INT "," INT "," INT "]"
          | "(" term ")"

";" binds looser than "*"; both are left-associative.  Arities:
mu: 2->1, eta: 0->1, delta: 1->2, eps: 1->0, id[n]: n->n, swap: 2->2,
E[m,k,n]: n->m (the connected genus-k block, admitted as sugar).

``a ; b`` means "a first, then b", matching the top-to-bottom picture
convention; in function-composition notation it is ``b ∘ a``.

Names, numbers and whitespace are ASCII.  A word holds at most
MAX_TOKENS tokens, and every number in it is at most MAX_NUMBER.
`parse` splits a word with one regular expression, stopping after
MAX_TOKENS + 1 tokens, and reads the tokens in one loop with a stack of
open parentheses, so it does not recurse; the token limit bounds the
nesting depth that the recursive `elaborate` and `print_term` meet.
Error messages name a token by its kind and position, never its text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from . import surface
from .surface import Cobordism


class TermError(ValueError):
    """Problem with a term; `position` is a character offset or None."""

    def __init__(self, message: str, position: Optional[int] = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class TermSyntaxError(TermError):
    pass


class TermArityError(TermError):
    pass


class Term:
    """A generator word: a `Gen`, a `Comp` or a `Tens`."""


@dataclass(frozen=True)
class Gen(Term):
    name: str
    params: tuple[int, ...] = ()


@dataclass(frozen=True)
class Comp(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Tens(Term):
    left: Term
    right: Term


# the parameterless generators and id[1], one shared node each: a Gen is
# frozen, so every term the parser builds can share them
_MU, _ETA, _DELTA, _EPS, _SWAP = map(Gen, "mu eta delta eps swap".split())
_ID1 = Gen("id", (1,))

# a generator without parameters, with its ingoing and outgoing arity
_LEAVES = {"mu": (_MU, 2, 1), "eta": (_ETA, 0, 1), "delta": (_DELTA, 1, 2),
           "eps": (_EPS, 1, 0), "swap": (_SWAP, 2, 2)}


MAX_TOKENS = 500
MAX_NUMBER = 64

# splitting on a token leaves the tokens at the odd indices and the text
# between them, which must be ASCII whitespace, at the even ones; any
# other character that starts no token is `_BAD`
_TOKEN = re.compile(r"([A-Za-z_]\w*|\d+|[;*()\[\],])", re.ASCII)
_BAD = re.compile(r"[^ \t\n\r\f\v\w;*()\[\],]", re.ASCII)
# an error names a token it did not expect by its kind, told by its
# first character ("" is the end), never by its text, which may be long
_KINDS = {"": "the end of the input",
          **dict.fromkeys("0123456789", "a number"),
          **dict.fromkeys(";*()[],", "a symbol")}


def _kind(token: str) -> str:
    return _KINDS.get(token[:1], "a name")


def _position(parts: list[str], i: int) -> int:
    """The offset of token i (the end if there is none) in the text."""
    return sum(map(len, parts[:2 * i + 1]))


# the numbers up to the limit by their text; any other is read by digits
_NUMBERS = {str(n): n for n in range(MAX_NUMBER + 1)}


def _params(tokens: list[str], parts: list[str], i: int,
            form: list[str]) -> list[int]:
    """The numbers at tokens[i:] between the brackets and commas `form`."""
    end = i + 2 * len(form) - 1
    numbers = [_NUMBERS.get(t) for t in tokens[i + 1:end:2]]
    if tokens[i:end:2] == form and None not in numbers:
        return numbers
    # the word ends in "", which fails here before tokens[k] runs out
    for k in range(i, end):
        token = tokens[k]
        if (k - i) % 2 == 0:
            want = form[(k - i) // 2]
            if token != want:
                raise TermSyntaxError(f"expected {want!r}, found "
                                      f"{_kind(token)}", _position(parts, k))
        elif not token.isdigit():
            raise TermSyntaxError(f"expected a number, found {_kind(token)}",
                                  _position(parts, k))
        # counting digits first keeps int() off numbers of any length
        elif len(token) > MAX_NUMBER or int(token) > MAX_NUMBER:
            raise TermSyntaxError(f"a number exceeds the limit {MAX_NUMBER}",
                                  _position(parts, k))
    return [int(t) for t in tokens[i + 1:end:2]]


def parse(text: str) -> Term:
    """Parse and type-check a generator word, in one loop over at most
    MAX_TOKENS + 1 tokens.

    Syntax errors come first, in reading order; then the first ill-typed
    ";" in reading order, checked as its right operand closes, raises
    TermArityError at that operand's first generator.
    """
    parts = _TOKEN.split(text, maxsplit=MAX_TOKENS + 1)
    tokens = parts[1::2]
    # past MAX_TOKENS tokens, the last part is text that was not split
    over = len(tokens) > MAX_TOKENS
    bad = _BAD.search(text, 0, len(text) - len(parts[-1]) if over
                      else len(text))
    if bad:
        raise TermSyntaxError(f"unexpected character {bad.group()!r}",
                              bad.start())
    if over:
        raise TermSyntaxError(f"the word has more than {MAX_TOKENS} tokens",
                              _position(parts, MAX_TOKENS))
    tokens.append("")  # the end of the input
    # a subterm is (term, ins, outs, token index of its first generator);
    # per group, `comp` is the ";" chain before the current operand and
    # `tens` the "*" chain waiting for its next atom
    stack: list = []  # the enclosing group's (comp, tens) per open "("
    comp = tens = None
    fault = None  # the first ill-typed ";": its message and token index
    i = 0
    while True:
        token = tokens[i]
        if token == "(":
            stack.append((comp, tens))
            comp = tens = None
            i += 1
            continue
        first = i
        leaf = _LEAVES.get(token)
        if leaf is not None:
            t, n, m = leaf
            i += 1
        elif token == "id":
            n = m = _params(tokens, parts, i + 1, ["[", "]"])[0]
            t, i = _ID1 if n == 1 else Gen("id", (n,)), i + 4
        elif token == "E":
            m, k, n = _params(tokens, parts, i + 1, ["[", ",", ",", "]"])
            t, i = Gen("E", (m, k, n)), i + 8
        else:
            kind = _kind(token)
            raise TermSyntaxError("unknown generator name" if kind == "a name"
                                  else f"expected a generator, found {kind}",
                                  _position(parts, i))
        # an operand is read: fold it into its group, closing groups
        while True:
            if tens is not None:
                lt, ln, lm, first = tens
                t, n, m, tens = Tens(lt, t), ln + n, lm + m, None
            token = tokens[i]
            if token == "*":
                tens = t, n, m, first
                break
            if comp is not None:
                lt, ln, lm, lfirst = comp
                if lm != n and fault is None:
                    meet = "circle meets" if lm == 1 else "circles meet"
                    fault = (f"cannot compose {ln}->{lm} with {n}->{m}: "
                             f"{lm} outgoing {meet} {n} ingoing", first)
                t, n, first = Comp(lt, t), ln, lfirst
            if token == ";":
                comp = t, n, m, first
                break
            if not stack:
                if token:
                    raise TermSyntaxError(f"trailing input: {_kind(token)}",
                                          _position(parts, i))
                if fault is not None:
                    raise TermArityError(fault[0], _position(parts, fault[1]))
                return t
            if token != ")":
                raise TermSyntaxError(f"expected ')', found {_kind(token)}",
                                      _position(parts, i))
            comp, tens = stack.pop()
            i += 1
        i += 1


def print_term(t: Term) -> str:
    """Fully parenthesized text; parse(print_term(t)) == t."""

    def sub(u: Term) -> str:
        s = print_term(u)
        return s if isinstance(u, Gen) else f"({s})"

    if isinstance(t, Gen):
        if t.params:
            return f"{t.name}[{','.join(map(str, t.params))}]"
        return t.name
    if isinstance(t, Comp):
        return f"{sub(t.left)} ; {sub(t.right)}"
    if isinstance(t, Tens):
        return f"{sub(t.left)} * {sub(t.right)}"
    raise TypeError(f"not a term: {t!r}")


def elaborate(t: Term) -> Cobordism:
    """Interpret a well-typed term as a cobordism normal form.

    One walk over the term collects its pieces, the piece of every free
    circle and the seams that ";" makes; `surface._glue` then builds
    the normal form once.
    """
    chis: list[int] = []
    seams: list[tuple[int, int]] = []
    ins, outs = _pieces(t, chis, seams)
    return surface._glue(chis, ins, outs, seams)


def _pieces(t: Term, chis: list[int], seams: list[tuple[int, int]]):
    """The pieces owning t's free ingoing and outgoing circles, in order.

    Appends the Euler characteristic of each of t's pieces to `chis` and
    the pair of pieces joined at each circle that t glues to `seams`.
    """
    kind = type(t)
    if kind is Comp or kind is Tens:
        left_ins, left_outs = _pieces(t.left, chis, seams)
        right_ins, right_outs = _pieces(t.right, chis, seams)
        if kind is Tens:
            return left_ins + right_ins, left_outs + right_outs
        if len(left_outs) != len(right_ins):
            surface.check_gluable((len(left_ins), len(left_outs)),
                                  (len(right_ins), len(right_outs)))
        seams.extend(zip(left_outs, right_ins))
        return left_ins, right_outs
    if kind is not Gen:
        raise TypeError(f"not a term: {t!r}")
    p = len(chis)
    if t.name == "id":  # n cylinders
        ins = list(range(p, p + t.params[0]))
        chis.extend(0 for _ in ins)
        return ins, ins
    if t.name == "swap":  # two crossing cylinders
        chis += [0, 0]
        return [p, p + 1], [p + 1, p]
    if t.name == "E":
        m, k, n = t.params
    else:  # a genus-0 block, with the arities that parse reads
        (_, n, m), k = _LEAVES[t.name], 0
    chis.append(2 - 2 * k - n - m)
    return [p] * n, [p] * m


# --- canonical words -------------------------------------------------------
# A word is built as (text, tokens, number): the text print_term would
# print for its term, its token count and its largest number (0 if none).
# One generator's text holds no space, and a composite's always does.
# None stands for an identity; `_fold` is the one join of a sequence.
_Word = tuple[str, int, int]

_W_MU, _W_ETA, _W_DELTA, _W_EPS, _W_SWAP = (
    (name, 1, 0) for name in "mu eta delta eps swap".split())
_W_ID1, _W_HANDLE = ("id[1]", 4, 1), ("delta ; mu", 3, 0)


def _join(a: _Word, op: str, b: _Word) -> _Word:
    """The word ``a op b`` for op ";" (Comp) or "*" (Tens); as in
    print_term, a side that is not one generator goes in parentheses."""
    left, left_tokens, left_number = a
    right, right_tokens, right_number = b
    if " " in left:
        left, left_tokens = f"({left})", left_tokens + 2
    if " " in right:
        right, right_tokens = f"({right})", right_tokens + 2
    return (f"{left} {op} {right}", left_tokens + right_tokens + 1,
            max(left_number, right_number))


def _fold(op: str, words) -> Optional[_Word]:
    """The words that are not None, joined by op from the left; None
    when there are none."""
    t: Optional[_Word] = None
    for word in words:
        if word is not None:
            t = word if t is None else _join(t, op, word)
    return t


def _mu_tree(n: int) -> Optional[_Word]:
    # n -> 1 multiplication fold; None stands for the identity on one circle
    if n == 0:
        return _W_ETA
    if n == 1:
        return None
    t = _W_MU
    for _ in range(n - 2):
        t = _join(_join(t, "*", _W_ID1), ";", _W_MU)
    return t


def _delta_tree(m: int) -> Optional[_Word]:
    if m == 0:
        return _W_EPS
    if m == 1:
        return None
    t = _W_DELTA
    for _ in range(m - 2):
        t = _join(_W_DELTA, ";", _join(t, "*", _W_ID1))
    return t


def _block_word(m: int, k: int, n: int) -> _Word:
    # the word of E[m,k,n], as tqft.component_matrix builds its matrix:
    # mul^n (eta at n = 0), k handles, then comul^m (eps at m = 0),
    # joined as mul^n ; (handles ; comul^m)
    right = _fold(";", [_W_HANDLE] * k + [_delta_tree(m)])
    word = _fold(";", (_mu_tree(n), right))
    return _W_ID1 if word is None else word


def _perm_word(p: list[int]) -> Optional[_Word]:
    # word of adjacent transpositions sending input position i to output
    # p[i]: a bubble sort of n - 1 passes, each one position shorter
    n = len(p)
    cur = list(range(n))
    ids = [None] + [(f"id[{i}]", 4, i) for i in range(1, n)]  # id[0]: None
    swaps = []
    for end in range(n - 1, 0, -1):
        for j in range(end):
            if p[cur[j]] > p[cur[j + 1]]:
                cur[j], cur[j + 1] = cur[j + 1], cur[j]
                swaps.append(_fold("*", (ids[j], _W_SWAP, ids[n - j - 2])))
    return _fold(";", swaps)


def _min_tokens(K: Cobordism) -> int:
    """A lower bound on the tokens of the word of K, taken without
    building it.

    n generators take 2n - 1 tokens or more with their separators.  A
    block has max(1, 2 * (circles + genus) - 6) generators or more, and
    once that bounds the circles, each adjacent swap adds one.  On a
    side of 3 or more circles it adds two, as an id[j] with j >= 1
    stands beside it.
    """
    n = sum(max(1, 2 * (len(c.ingoing) + len(c.outgoing) + c.genus) - 6)
            for c in K.components)
    n += sum(max(1, 2 * h - 6) for h in K.closed_genera)
    for order in ([i for c in K.components for i in c.ingoing],
                  [j for c in K.components for j in c.outgoing]):
        if n <= MAX_TOKENS // 2:
            n += (1 + (len(order) >= 3)) * sum(
                a > b for i, a in enumerate(order) for b in order[i + 1:])
    return 2 * n - 1


def format_cobordism(K: Cobordism) -> str:
    """A canonical generator word with elaborate(parse(word)) == K.

    Each piece is rendered as the word of its block E[m,k,n]: a
    multiplication tree, genus-many handle loops ``delta ; mu``, then a
    comultiplication tree, so a closed piece becomes ``eta ; ... ; eps``;
    the boundary circles are routed to their positions by words of
    adjacent transpositions.

    The round trip holds iff the word keeps to the limits of `parse`:
    MAX_TOKENS tokens (eight a handle: genus 30 passes, genus 64 fails)
    and numbers up to MAX_NUMBER (a swap among 67 circles may need
    id[65]).  Beyond them this raises ValueError naming both limits; a
    lower bound on the tokens, taken first, spares building huge words.
    """
    floor = _min_tokens(K)
    if floor > MAX_TOKENS:
        raise ValueError(f"the word has at least {floor} tokens; parse "
                         f"takes {MAX_TOKENS} and {MAX_NUMBER}")
    # route the circles to and from the order in which the components,
    # taken in turn, list them
    in_order = [i for c in K.components for i in c.ingoing]
    out_order = [j for c in K.components for j in c.outgoing]
    blocks = [_block_word(len(c.outgoing), c.genus, len(c.ingoing))
              for c in K.components]
    ins = _perm_word(sorted(range(K.n_in), key=in_order.__getitem__))
    word = _fold(";", (ins, _fold("*", blocks), _perm_word(out_order)))
    closed = [_block_word(0, g, 0) for g in K.closed_genera]
    text, tokens, number = _fold("*", [word, *closed]) or ("id[0]", 4, 0)
    if tokens > MAX_TOKENS or number > MAX_NUMBER:
        raise ValueError(f"the word has {tokens} tokens and numbers up "
                         f"to {number}; parse takes {MAX_TOKENS} and "
                         f"{MAX_NUMBER}")
    return text
