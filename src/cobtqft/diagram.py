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
MAX_TOKENS tokens, which bounds the nesting depth the recursive parser
and elaborator meet, and every number in it is at most MAX_NUMBER.
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


# the connected generators, as the parameters m, k, n of E[m,k,n]
_BLOCKS = {"mu": (1, 0, 2), "eta": (1, 0, 0), "delta": (2, 0, 1),
           "eps": (0, 0, 1)}


MAX_TOKENS = 500
MAX_NUMBER = 64

# finditer skips the ASCII whitespace between tokens; any other character
# that starts no token is `bad`
_TOKEN = re.compile(r"(?P<name>[A-Za-z_]\w*)|(?P<int>\d+)|(?P<sym>[;*()\[\],])"
                    r"|(?P<bad>[^ \t\n\r\f\v])", re.ASCII)
# what an error says about a token it did not expect; never its text,
# which may be arbitrarily long
_KINDS = {"name": "a name", "int": "a number", "sym": "a symbol",
          "end": "the end of the input"}


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
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
    """Recursive descent that type-checks as it reads: `term`, `tens` and
    `atom` return a subterm with its ingoing and outgoing arity and the
    position of its first generator."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.fault: Optional[TermArityError] = None  # the first ill-typed ";"

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.next()
        if text != value:
            raise TermSyntaxError(f"expected {value!r}, found {_KINDS[kind]}",
                                  pos)

    def parse_int(self) -> int:
        kind, text, pos = self.next()
        if kind != "int":
            raise TermSyntaxError(f"expected a number, found {_KINDS[kind]}",
                                  pos)
        # counting digits first keeps int() off numbers of any length
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
                f"expected a generator, found {_KINDS[kind]}", pos)
        if text in _BLOCKS:
            m, _, n = _BLOCKS[text]
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


def parse(text: str) -> Term:
    """Parse and type-check a generator word.

    Syntax errors come first; then the first ill-typed ";" in reading
    order raises TermArityError at its right operand's first generator.
    """
    p = _Parser(text)
    t = p.term()[0]
    kind, _, pos = p.peek()
    if kind != "end":
        raise TermSyntaxError(f"trailing input: {_KINDS[kind]}", pos)
    if p.fault is not None:
        raise p.fault
    return t


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
        m, k, n = t.params if t.name == "E" else _BLOCKS[t.name]
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
        return Gen(name="eta")
    if n == 1:
        return None
    t: Term = Gen(name="mu")
    for _ in range(n - 2):
        t = Comp(left=Tens(left=t, right=Gen(name="id", params=(1,))),
                 right=Gen(name="mu"))
    return t


def _delta_tree(m: int) -> Optional[Term]:
    if m == 0:
        return Gen(name="eps")
    if m == 1:
        return None
    t: Term = Gen(name="delta")
    for _ in range(m - 2):
        t = Comp(left=Gen(name="delta"),
                 right=Tens(left=t, right=Gen(name="id", params=(1,))))
    return t


def _handle_word(k: int) -> Optional[Term]:
    t = None
    for _ in range(k):
        t = _seq(t, Comp(left=Gen(name="delta"), right=Gen(name="mu")))
    return t


def _swap_at(j: int, n: int) -> Term:
    t: Term = Gen(name="swap")
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

    Each component is rendered as a multiplication tree, genus-many
    handle loops ``delta ; mu``, then a comultiplication tree; the
    boundary circles are routed to their positions by words of adjacent
    transpositions, and closed pieces become ``eta ; ... ; eps``.

    The round trip holds iff the word keeps to the limits of `parse`:
    MAX_TOKENS tokens (eight a handle: genus 30 passes, genus 64 fails)
    and numbers up to MAX_NUMBER (a swap among 67 circles may need
    id[65]).  Beyond them this raises ValueError naming both limits.
    """
    # route the circles to and from the order in which the components,
    # taken in turn, list them
    in_order = [i for c in K.components for i in c.ingoing]
    word = _perm_word(sorted(range(K.n_in), key=in_order.__getitem__))
    blocks: Optional[Term] = None
    for c in K.components:
        piece = _seq(_mu_tree(len(c.ingoing)),
                     _seq(_handle_word(c.genus), _delta_tree(len(c.outgoing))))
        if piece is None:
            piece = Gen(name="id", params=(1,))
        blocks = piece if blocks is None else Tens(left=blocks, right=piece)
    word = _seq(word, blocks)
    word = _seq(word, _perm_word([j for c in K.components
                                  for j in c.outgoing]))
    for g in K.closed_genera:
        piece = _seq(Gen(name="eta"), _seq(_handle_word(g), Gen(name="eps")))
        word = piece if word is None else Tens(left=word, right=piece)
    if word is None:
        word = Gen(name="id", params=(0,))
    text = print_term(word)
    tokens = len(_TOKEN.findall(text))
    number = max(map(int, re.findall(r"\d+", text)), default=0)
    if tokens > MAX_TOKENS or number > MAX_NUMBER:
        raise ValueError(f"the word has {tokens} tokens and numbers up "
                         f"to {number}; parse takes {MAX_TOKENS} and "
                         f"{MAX_NUMBER}")
    return text
