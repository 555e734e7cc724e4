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
nesting depth that the recursive elaborator and printer meet.  Error
messages name a token by its kind and position, never its text.
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
# frozen, so the parser and the word builders below can share them
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
    if isinstance(t, Gen):
        if t.name == "id":  # n cylinders
            ins = list(range(len(chis), len(chis) + t.params[0]))
            chis.extend(0 for _ in ins)
            return ins, ins
        if t.name == "swap":  # two crossing cylinders
            p = len(chis)
            chis += [0, 0]
            return [p, p + 1], [p + 1, p]
        if t.name == "E":
            m, k, n = t.params
        else:  # mu, eta, delta or eps: connected, of genus 0
            _, n, m = _LEAVES[t.name]
            k = 0
        chis.append(2 - 2 * k - n - m)
        return [len(chis) - 1] * n, [len(chis) - 1] * m
    if isinstance(t, (Comp, Tens)):
        left_ins, left_outs = _pieces(t.left, chis, seams)
        right_ins, right_outs = _pieces(t.right, chis, seams)
        if isinstance(t, Tens):
            return left_ins + right_ins, left_outs + right_outs
        surface.check_gluable((len(left_ins), len(left_outs)),
                              (len(right_ins), len(right_outs)))
        seams.extend(zip(left_outs, right_ins))
        return left_ins, right_outs
    raise TypeError(f"not a term: {t!r}")


# --- canonical words -------------------------------------------------------

def _seq(a: Optional[Term], b: Optional[Term]) -> Optional[Term]:
    if a is None:
        return b
    if b is None:
        return a
    return Comp(left=a, right=b)


def _mu_tree(n: int) -> Optional[Term]:
    # n -> 1 multiplication fold; None stands for the identity on one circle
    if n == 0:
        return _ETA
    if n == 1:
        return None
    t: Term = _MU
    for _ in range(n - 2):
        t = Comp(left=Tens(left=t, right=_ID1), right=_MU)
    return t


def _delta_tree(m: int) -> Optional[Term]:
    if m == 0:
        return _EPS
    if m == 1:
        return None
    t: Term = _DELTA
    for _ in range(m - 2):
        t = Comp(left=_DELTA, right=Tens(left=t, right=_ID1))
    return t


def _handle_word(k: int) -> Optional[Term]:
    t = None
    for _ in range(k):
        t = _seq(t, Comp(left=_DELTA, right=_MU))
    return t


def _block_word(m: int, k: int, n: int) -> Term:
    # the word of E[m,k,n], as tqft.component_matrix builds its matrix:
    # mul^n (eta at n = 0), k handles, then comul^m (eps at m = 0)
    word = _seq(_mu_tree(n), _seq(_handle_word(k), _delta_tree(m)))
    return _ID1 if word is None else word


def _swap_at(j: int, n: int) -> Term:
    t: Term = _SWAP
    if j > 0:
        t = Tens(left=Gen(name="id", params=(j,)), right=t)
    if j + 2 < n:
        t = Tens(left=t, right=Gen(name="id", params=(n - j - 2,)))
    return t


def _perm_word(p: list[int]) -> Optional[Term]:
    # word of adjacent transpositions sending input position i to output p[i]
    n = len(p)
    cur = list(range(n))
    t: Optional[Term] = None
    done = False
    while not done:
        done = True
        for j in range(n - 1):
            if p[cur[j]] > p[cur[j + 1]]:
                cur[j], cur[j + 1] = cur[j + 1], cur[j]
                t = _seq(t, _swap_at(j, n))
                done = False
    return t


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
    id[65]).  Beyond them this raises ValueError naming both limits,
    before the word is built if it would nest too deep to print.
    """
    # route the circles to and from the order in which the components,
    # taken in turn, list them
    in_order = [i for c in K.components for i in c.ingoing]
    out_order = [j for c in K.components for j in c.outgoing]
    # n generators take 2n - 1 tokens or more with their separators; a
    # block has max(1, 2 * (circles + genus) - 6) generators or more,
    # and once that bounds the circles, each adjacent swap adds one
    n = sum(max(1, 2 * (len(c.ingoing) + len(c.outgoing) + c.genus) - 6)
            for c in K.components)
    n += sum(max(1, 2 * h - 6) for h in K.closed_genera)
    for order in (in_order, out_order):
        if n <= MAX_TOKENS // 2:
            n += sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    if 2 * n - 1 > MAX_TOKENS:
        raise ValueError(f"the word has at least {2 * n - 1} tokens; parse "
                         f"takes {MAX_TOKENS} and {MAX_NUMBER}")
    word = _perm_word(sorted(range(K.n_in), key=in_order.__getitem__))
    blocks: Optional[Term] = None
    for c in K.components:
        piece = _block_word(len(c.outgoing), c.genus, len(c.ingoing))
        blocks = piece if blocks is None else Tens(left=blocks, right=piece)
    word = _seq(word, blocks)
    word = _seq(word, _perm_word(out_order))
    for g in K.closed_genera:
        piece = _block_word(0, g, 0)
        word = piece if word is None else Tens(left=word, right=piece)
    if word is None:
        word = Gen(name="id", params=(0,))
    text = print_term(word)
    found = _TOKEN.findall(text)
    tokens = len(found)
    number = max(map(int, filter(str.isdigit, found)), default=0)
    if tokens > MAX_TOKENS or number > MAX_NUMBER:
        raise ValueError(f"the word has {tokens} tokens and numbers up "
                         f"to {number}; parse takes {MAX_TOKENS} and "
                         f"{MAX_NUMBER}")
    return text
