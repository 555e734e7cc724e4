"""Normal forms for 2-dimensional cobordisms and their category operations.

A cobordism ``n -> m`` is stored by its complete classifying data:

* which ingoing/outgoing boundary circles lie on a common connected
  component, and the genus of each such component;
* the multiset of genera of closed (boundaryless) components.

Two cobordisms are equivalent iff these data agree, so structural
equality of the canonicalized representation decides equivalence.
`Cobordism` alone checks and orders circles, components and closed genera.

Orientation runs top to bottom: the ingoing circles are at the top,
and ``compose(K, L)`` glues the outgoing circles of ``K`` to the
ingoing circles of ``L`` ("K first, then L", diagrammatic order).

A boundary label is an integer naming one circle of an ``n_in -> n_out``
cobordism: label i is ingoing circle i, and label ``n_in + j`` outgoing
circle j.  Components are kept in the order of their least label, so
``Cobordism.owners`` is a canonical code for the boundary partition:
the index of every label's component.  Filling it is the partition
check: each label must be claimed by exactly one component.

Gluing bookkeeping goes through the Euler characteristic: gluing along
circles is additive (a circle has characteristic 0), so a merged
component with characteristic chi and b remaining boundary circles has
genus (2 - chi - b)/2.  This needs no special case for loops created
by gluing two components along several circles at once.  One kernel,
`_glue`, turns pieces, free circles and seams into the normal form;
`compose`, `tensor` (with no seams) and `diagram.elaborate` all reach
it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .exact import json_type

# The largest genus accepted from input (words, cobordism JSON and
# `invariant --genus`): evaluating a genus-k piece multiplies k handle
# operators, and under A a closed genus-k piece's value holds 2^(2k-1).
MAX_INPUT_GENUS = 64

# The most boundary circles per side a cobordism JSON file may have: the
# separation route may look at every pair of circles.
MAX_INPUT_CIRCLES = 64

# The most closed pieces a cobordism JSON file may have: the separation
# route multiplies one closed-surface invariant per piece.
MAX_INPUT_CLOSED = 64


def check_input_genus(genus: int) -> int:
    """`genus` itself, or ValueError when it exceeds MAX_INPUT_GENUS."""
    if genus > MAX_INPUT_GENUS:
        raise ValueError(f"a genus exceeds the input limit {MAX_INPUT_GENUS}")
    return genus


class Component(NamedTuple):
    """One connected component carrying at least one boundary circle."""

    ingoing: tuple[int, ...]
    outgoing: tuple[int, ...]
    genus: int


def component(ingoing: Iterable[int], outgoing: Iterable[int], genus: int) -> Component:
    """A piece, its circles as given: `Cobordism` checks and sorts them."""
    return Component(tuple(ingoing), tuple(outgoing), genus)


class Cobordism:
    """Canonical normal form of a 2-cobordism ``n_in -> n_out``.

    Components, and the circles of each, may be given in any order:
    this constructor alone checks each component, sorts the circles,
    keeps the components in the order of their least boundary label and
    sorts the closed genera descending, so ``==`` decides cobordism
    equivalence.  ``owners[x]`` is the index in ``components`` of the
    component of label x; filling it checks the partition of the labels.
    """

    __slots__ = ("n_in", "n_out", "components", "closed_genera", "owners",
                 "_key", "_hash")

    def __init__(self, n_in: int, n_out: int,
                 components: Iterable[Component] = (),
                 closed_genera: Iterable[int] = ()):
        pieces = []
        for c in components:
            if not (c.ingoing or c.outgoing):
                raise ValueError("component with no boundary circles (closed "
                                 "pieces live in closed_genera)")
            if type(c.genus) is not int:
                raise ValueError("a component has a genus that is not an int")
            if c.genus < 0:
                raise ValueError("a component has a negative genus")
            pieces.append(Component(tuple(sorted(c.ingoing)),
                                    tuple(sorted(c.outgoing)), c.genus))
        if n_in < 0 or n_out < 0:
            raise ValueError("negative arity")
        comps = tuple(sorted(pieces, key=lambda c: c.ingoing[0]
                             if c.ingoing else n_in + c.outgoing[0]))
        closed = tuple(closed_genera)
        if any(type(g) is not int for g in closed):
            raise ValueError("a closed genus is not an int")
        closed = tuple(sorted(closed, reverse=True))
        owners = [-1] * (n_in + n_out)
        for idx, c in enumerate(comps):
            for i in c.ingoing:
                if type(i) is not int or not 0 <= i < n_in or owners[i] >= 0:
                    raise _partition_error("ingoing", n_in)
                owners[i] = idx
            for j in c.outgoing:
                if (type(j) is not int or not 0 <= j < n_out
                        or owners[n_in + j] >= 0):
                    raise _partition_error("outgoing", n_out)
                owners[n_in + j] = idx
        if -1 in owners:
            if owners.index(-1) < n_in:
                raise _partition_error("ingoing", n_in)
            raise _partition_error("outgoing", n_out)
        if any(g < 0 for g in closed):
            raise ValueError("negative closed genus")
        self.n_in = n_in
        self.n_out = n_out
        self.components = comps
        self.closed_genera = closed
        self.owners = tuple(owners)
        self._key = (n_in, n_out, comps, closed)
        self._hash = hash(self._key)

    def key(self):
        """Sort key realizing the enumeration order of cobordisms."""
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cobordism):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = [f"{list(c.ingoing)}->{list(c.outgoing)}g{c.genus}"
                 for c in self.components]
        if self.closed_genera:
            parts.append(f"closed{list(self.closed_genera)}")
        return f"Cobordism({self.n_in}->{self.n_out}: {', '.join(parts) or 'empty'})"

    def max_genus(self) -> int:
        """The largest genus of any piece; 0 when there is none."""
        return max([c.genus for c in self.components]
                   + list(self.closed_genera) + [0])

    def to_json_obj(self) -> dict:
        return {"in": self.n_in, "out": self.n_out,
                "components": [{"in": list(c.ingoing), "out": list(c.outgoing),
                                "genus": c.genus} for c in self.components],
                "closed": list(self.closed_genera)}

    @classmethod
    def from_json_obj(cls, obj) -> "Cobordism":
        """Parse the JSON form; a malformed field, a genus above
        MAX_INPUT_GENUS, more than MAX_INPUT_CIRCLES circles on a side or
        more than MAX_INPUT_CLOSED closed pieces raises ValueError
        naming it."""
        if not isinstance(obj, dict):
            raise ValueError(f"a cobordism must be a JSON object, "
                             f"got {json_type(obj)}")
        comps = obj.get("components")
        if not (isinstance(comps, list)
                and all(isinstance(c, dict) for c in comps)):
            raise ValueError("cobordism field 'components' must be a list "
                             "of JSON objects")
        n_in, n_out = (_json_int(obj.get(f), f) for f in ("in", "out"))
        if max(n_in, n_out) > MAX_INPUT_CIRCLES:
            raise ValueError("a cobordism exceeds the input limit of "
                             f"{MAX_INPUT_CIRCLES} circles per side")
        closed = _json_ints(obj.get("closed"), "closed")
        if len(closed) > MAX_INPUT_CLOSED:
            raise ValueError("a cobordism exceeds the input limit of "
                             f"{MAX_INPUT_CLOSED} closed pieces")
        K = cls(n_in, n_out,
                [component(_json_ints(c.get("in"), f"components[{n}].in"),
                           _json_ints(c.get("out"), f"components[{n}].out"),
                           _json_int(c.get("genus"), f"components[{n}].genus"))
                 for n, c in enumerate(comps)],
                closed)
        check_input_genus(K.max_genus())
        return K


def _partition_error(side: str, n: int) -> ValueError:
    return ValueError(f"the {side} circles do not partition 0..{n - 1}")


def _json_int(value, field: str) -> int:
    if type(value) is not int:
        raise ValueError(f"cobordism field {field!r} must be an integer, "
                         f"got {json_type(value)}")
    return value


def _json_ints(value, field: str) -> list[int]:
    if not isinstance(value, list):
        raise ValueError(f"cobordism field {field!r} must be a list of "
                         f"integers, got {json_type(value)}")
    return [_json_int(v, field) for v in value]


def e_block(m: int, k: int, n: int) -> Cobordism:
    """The connected cobordism with n ingoing, m outgoing circles, genus k."""
    if m == 0 and n == 0:
        return Cobordism(0, 0, (), (k,))
    return Cobordism(n, m, [component(range(n), range(m), k)])


def identity(n: int) -> Cobordism:
    return Cobordism(n, n, [component((i,), (i,), 0) for i in range(n)])


def permutation(p: Sequence[int]) -> Cobordism:
    """n cylinders connecting ingoing circle i to outgoing circle p[i]."""
    n = len(p)
    if sorted(p) != list(range(n)):
        raise ValueError(f"{tuple(p)} is not a permutation of 0..{n - 1}")
    return Cobordism(n, n, [component((i,), (p[i],), 0) for i in range(n)])


def _characteristics(K: Cobordism) -> list[int]:
    """The Euler characteristic of every piece of K: its components in
    order, then its closed pieces."""
    return ([2 - 2 * c.genus - len(c.ingoing) - len(c.outgoing)
             for c in K.components]
            + [2 - 2 * g for g in K.closed_genera])


def check_gluable(first: tuple[int, int], second: tuple[int, int]) -> None:
    """ValueError unless the outgoing circles of an ``a -> b`` cobordism
    can be glued onto the ingoing circles of a ``c -> d`` one."""
    if first[1] != second[0]:
        raise ValueError(
            f"cannot glue {first[0]}->{first[1]} onto "
            f"{second[0]}->{second[1]}: boundary arities differ")


def _glue(chis: Sequence[int], ins: Sequence[int], outs: Sequence[int],
          seams: Iterable[tuple[int, int]]) -> Cobordism:
    """The normal form of pieces joined along seams.

    Piece p has Euler characteristic ``chis[p]``; ingoing circle i of
    the result lies on piece ``ins[i]`` and outgoing circle j on piece
    ``outs[j]``; each seam (p, q) joins pieces p and q along one circle.
    The pieces joined by seams merge into one component whose
    characteristic is their sum, and a merged class without a free
    circle is a closed piece.  Union-find with path halving merges the
    seams; the pass that sums the characteristics then points every
    piece straight at its root.
    """
    parent = list(range(len(chis)))
    for p, q in seams:
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        while parent[q] != q:
            parent[q] = q = parent[parent[q]]
        parent[p] = q
    chi: dict[int, int] = {}
    for p, c in enumerate(chis):
        r = parent[p]
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        parent[p] = r
        chi[r] = chi.get(r, 0) + c
    free: dict[int, tuple[list[int], list[int]]] = {}
    for side, owner in enumerate((ins, outs)):
        for circle, p in enumerate(owner):
            free.setdefault(parent[p], ([], []))[side].append(circle)

    components = []
    closed = []
    for r, total in chi.items():
        circles_in, circles_out = free.get(r, ((), ()))
        boundary = len(circles_in) + len(circles_out)
        twice_genus = 2 - total - boundary
        if twice_genus < 0 or twice_genus % 2:
            raise RuntimeError(f"glued piece has Euler characteristic {total} "
                               f"with {boundary} boundary circles")
        if boundary:
            components.append(Component(tuple(circles_in),
                                        tuple(circles_out), twice_genus // 2))
        else:
            closed.append(twice_genus // 2)
    return Cobordism(len(ins), len(outs), components, closed)


def _side_by_side(first: Cobordism, second: Cobordism):
    """The pieces of both operands in one list, first's then second's:
    their Euler characteristics, and the piece of every boundary label
    of `first` and of `second`."""
    chis = _characteristics(first)
    p = len(chis)
    chis += _characteristics(second)
    return chis, first.owners, tuple(p + idx for idx in second.owners)


def compose(first: Cobordism, second: Cobordism) -> Cobordism:
    """Glue outgoing circles of `first` to ingoing circles of `second`."""
    check_gluable((first.n_in, first.n_out), (second.n_in, second.n_out))
    chis, a, b = _side_by_side(first, second)
    return _glue(chis, a[:first.n_in], b[second.n_in:],
                 zip(a[first.n_in:], b[:second.n_in]))


def tensor(first: Cobordism, second: Cobordism) -> Cobordism:
    """Disjoint union, with `second`'s circles placed after `first`'s."""
    chis, a, b = _side_by_side(first, second)
    return _glue(chis, a[:first.n_in] + b[:second.n_in],
                 a[first.n_in:] + b[second.n_in:], ())
