"""Faithfulness machinery: number theory, separation, exhaustive scan.

The scan certifies, over stated bounds, that pairwise-distinct
cobordisms receive pairwise-distinct matrices under the faithful
15-dimensional algebra.  Every equal-arity pair is checked twice, by
independent routes:

* the matrix route evaluates both cobordisms and compares exactly;
* the separation route drives both through the same closing context
  (fill all holes except a separating one or two, stretch to a 1 -> 1
  shape, then close off) and compares the closed-surface genus
  multisets and their invariant products.

The invariant product separates genus multisets because each closed
genus-k surface contributes 5·(3/2)^(k-1)·(2^(2k-1)+1): the power of 5
counts components, the power of 2 in the denominator recovers the
total genus, and primitive prime divisors of 2^(2k-1)+1 (Zsigmondy)
pin down the individual genera.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from . import surface
from .surface import BoundaryLabel, Cobordism, INGOING, OUTGOING
from .tqft import closed_invariant, evaluate, load_algebra


class GenusMultiset(NamedTuple):
    """A multiset of closed-component genera, stored descending."""

    genera: tuple[int, ...]


def genus_multiset(genera) -> GenusMultiset:
    ks = tuple(sorted(genera, reverse=True))
    if any(k < 0 for k in ks):
        raise ValueError("negative genus")
    return GenusMultiset(ks)


# --- Zsigmondy witnesses ---------------------------------------------------

class ExceptionalTriple(Exception):
    """The one excluded case: 2^3 + 1^3 = 9 has no primitive prime divisor."""


def _prime_factors(n: int) -> list[int]:
    out = []
    for p in (2, 3):
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                out.append(p)
                while n % p == 0:
                    n //= p
        f += 6
    if n > 1:
        out.append(n)
    return out


# Trial division takes about 1 s on a prime near 2^48.
ZSIGMONDY_LIMIT = 2 ** 48


def zsigmondy_witness(a: int, b: int, n: int) -> int:
    """Least prime dividing a^n + b^n but no a^k + b^k with k < n.

    Requires coprime a > b >= 1, n >= 1 and a^n + b^n < ZSIGMONDY_LIMIT;
    raises :class:`ExceptionalTriple` for (n, a, b) = (3, 2, 1), the
    single triple without such a prime.
    """
    if not (a > b >= 1):
        raise ValueError(f"need a > b >= 1, got a={a}, b={b}")
    if math.gcd(a, b) != 1:
        raise ValueError(f"a={a} and b={b} are not coprime")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    # a >= 2, so n >= 48 already gives a^n >= 2^48
    if n >= 48 or a ** n + b ** n >= ZSIGMONDY_LIMIT:
        raise ValueError(f"{a}^{n} + {b}^{n} is at least 2^48, beyond "
                         f"trial division")
    if (n, a, b) == (3, 2, 1):
        raise ExceptionalTriple(
            "2^3 + 1^3 = 9: every prime divisor already divides 2^1 + 1^1")
    smaller = [a ** k + b ** k for k in range(1, n)]
    for p in _prime_factors(a ** n + b ** n):
        if all(s % p for s in smaller):
            return p
    raise AssertionError(f"no primitive prime divisor of {a}^{n}+{b}^{n}")


# --- genus-multiset invariants ---------------------------------------------

@lru_cache(maxsize=None)
def _product(genera: tuple[int, ...]) -> Fraction:
    value = Fraction(1)
    for k in genera:
        value *= closed_invariant("A", k)
    return value


def multiset_invariant(ks: GenusMultiset | Sequence[int]) -> Fraction:
    """Product of the closed-surface invariants of the multiset entries.

    Memoized per multiset: a scan meets a few hundred distinct multisets
    millions of times.
    """
    if not isinstance(ks, GenusMultiset):
        ks = genus_multiset(ks)
    return _product(ks.genera)


@dataclass(frozen=True)
class InjectivityReport:
    max_size: int
    max_genus: int
    multisets_checked: int
    injective: bool
    collision: Optional[tuple[GenusMultiset, GenusMultiset]]


def lemma4_injectivity(max_size: int, max_genus: int) -> InjectivityReport:
    """Exhaustively check that the invariant separates all genus
    multisets with at most `max_size` entries, each at most `max_genus`."""
    seen: dict[Fraction, GenusMultiset] = {}
    count = 0
    for size in range(max_size + 1):
        for combo in itertools.combinations_with_replacement(
                range(max_genus, -1, -1), size):
            ms = GenusMultiset(combo)
            count += 1
            value = multiset_invariant(ms)
            if value in seen:
                return InjectivityReport(max_size, max_genus, count, False,
                                         (seen[value], ms))
            seen[value] = ms
    return InjectivityReport(max_size, max_genus, count, True, None)


# --- the separating context pipeline ---------------------------------------

@lru_cache(maxsize=None)
def _labels(n_in: int, n_out: int):
    """The boundary labels, ingoing first, and their pairs in
    `itertools.combinations` order."""
    labels = (tuple(BoundaryLabel(i, INGOING) for i in range(n_in))
              + tuple(BoundaryLabel(j, OUTGOING) for j in range(n_out)))
    return labels, tuple(itertools.combinations(labels, 2))


class _LabelData(NamedTuple):
    """What the separation needs to know about one cobordism."""

    labels: tuple[BoundaryLabel, ...]
    pairs: tuple[tuple[BoundaryLabel, BoundaryLabel], ...]
    genera: tuple[int, ...]  # genus of each label's component
    same: tuple[bool, ...]   # per pair: do both labels share a component?
    max_genus: int
    filled: GenusMultiset    # closed genera once every hole is filled


@lru_cache(maxsize=None)
def _label_data(K: Cobordism) -> _LabelData:
    """Per-label data of K.  The `same` flags encode the boundary
    partition: two cobordisms have equal flags iff their partitions agree."""
    labels, pairs = _labels(K.n_in, K.n_out)
    owner = {}
    for c in K.components:
        owner.update((BoundaryLabel(i, INGOING), c) for i in c.ingoing)
        owner.update((BoundaryLabel(j, OUTGOING), c) for j in c.outgoing)
    return _LabelData(
        labels, pairs, tuple(owner[x].genus for x in labels),
        tuple(owner[x] is owner[y] for x, y in pairs),
        K.max_genus(),
        GenusMultiset(_fill_except(K, ()).closed_genera))


def _fill_except(K: Cobordism, kept: tuple) -> Cobordism:
    """Cap every boundary circle not in `kept`, ingoing first, ascending."""
    for side, arity in ((INGOING, K.n_in), (OUTGOING, K.n_out)):
        filled = 0
        for i in range(arity):
            if BoundaryLabel(i, side) not in kept:
                K = surface.fill_hole(K, BoundaryLabel(i - filled, side))
                filled += 1
    return K


# the move that stretches a cobordism with one or two holes left to 1 -> 1
_STRETCH = {(1, 0): surface.stretch1, (0, 1): surface.stretch1_dual,
            (2, 0): surface.stretch2, (0, 2): surface.stretch2_dual}


@lru_cache(maxsize=None)
def _closing_context(K: Cobordism, kept: tuple, a: int) -> GenusMultiset:
    """Fill every hole of K but `kept`, stretch to a loop, close off with
    genus-a caps, and return the closed genera."""
    loop = _fill_except(K, kept)
    if (loop.n_in, loop.n_out) != (1, 1):
        loop = _STRETCH[loop.n_in, loop.n_out](loop)
    return GenusMultiset(surface.closure(loop, a).closed_genera)


def _first_difference(xs: tuple, ys: tuple) -> int:
    """The first index at which two unequal tuples of one length differ."""
    for i, x in enumerate(xs):
        if x != ys[i]:
            return i


def separating_closure(K: Cobordism, L: Cobordism
                       ) -> tuple[GenusMultiset, GenusMultiset]:
    """Drive two distinct equal-arity cobordisms through one closing
    context, producing distinct closed genus multisets.

    Case analysis on how K and L differ: if their boundary partitions
    and all per-label genera agree, filling every hole already exposes
    differing closed multisets.  If some label's genus differs, keep
    that hole, fill the rest, stretch to a loop and close off.  If the
    partitions differ, keep a pair of labels related in exactly one of
    the two, fill the rest, stretch (same context on both sides) and
    close off.  The closing genus exceeds every genus present, so the
    resulting multisets always differ.  The first differing label, or
    label pair, is the one kept.
    """
    if (K.n_in, K.n_out) != (L.n_in, L.n_out):
        raise ValueError(f"arity mismatch: {K.n_in}->{K.n_out} vs "
                         f"{L.n_in}->{L.n_out}")
    if K == L:
        raise ValueError("the cobordisms are equal; nothing separates them")
    dk, dl = _label_data(K), _label_data(L)
    if dk.same == dl.same:
        if dk.genera == dl.genera:
            # only the closed parts differ: fill everything
            if dk.filled == dl.filled:
                raise RuntimeError(f"filling every hole leaves equal closed "
                                   f"genera {dk.filled.genera} for {K!r} "
                                   f"and {L!r}")
            return dk.filled, dl.filled
        kept = (dk.labels[_first_difference(dk.genera, dl.genera)],)
    else:
        kept = dk.pairs[_first_difference(dk.same, dl.same)]

    a = 1 + max(dk.max_genus, dl.max_genus)
    ms_k = _closing_context(K, kept, a)
    ms_l = _closing_context(L, kept, a)
    if ms_k == ms_l:
        raise RuntimeError(f"the closing context leaves equal closed genera "
                           f"{ms_k.genera} for {K!r} and {L!r}")
    return ms_k, ms_l


# --- enumeration and the scan ----------------------------------------------

@dataclass(frozen=True)
class ScanBounds:
    max_circles: int        # per side
    max_genus: int          # per component with boundary
    max_closed: int         # number of closed pieces
    max_closed_genus: int

    def __post_init__(self):
        for name, value in self.to_json_obj().items():
            if value < 0:
                raise ValueError(f"scan bound {name} must be >= 0, got {value}")
        if self.max_circles > 3:
            raise ValueError("more than 3 circles per side outgrows desk scale")

    def to_json_obj(self) -> dict:
        return {"max_circles": self.max_circles, "max_genus": self.max_genus,
                "max_closed": self.max_closed,
                "max_closed_genus": self.max_closed_genus}


def _set_partitions(items: Sequence):
    """All partitions of `items` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


@lru_cache(maxsize=None)
def enumerate_cobordisms(bounds: ScanBounds) -> tuple[Cobordism, ...]:
    """Every distinct cobordism within bounds, in the certificate order
    (lexicographic on arity, component list, closed multiset)."""
    out = []
    closed_options = [()]
    for count in range(1, bounds.max_closed + 1):
        closed_options.extend(itertools.combinations_with_replacement(
            range(bounds.max_closed_genus, -1, -1), count))
    genera = range(bounds.max_genus + 1)
    for n_in in range(bounds.max_circles + 1):
        for n_out in range(bounds.max_circles + 1):
            labels, _ = _labels(n_in, n_out)
            block: list[Cobordism] = []
            for part in _set_partitions(labels):
                for gs in itertools.product(genera, repeat=len(part)):
                    comps = [surface.component(
                        (x.index for x in blk if x.side == INGOING),
                        (x.index for x in blk if x.side == OUTGOING),
                        g) for blk, g in zip(part, gs)]
                    for closed in closed_options:
                        block.append(Cobordism(n_in, n_out, comps, closed))
            block.sort(key=Cobordism.key)
            out.extend(block)
    return tuple(out)


@dataclass(frozen=True)
class ScanCertificate:
    algebra: str
    bounds: ScanBounds
    enumerated: int
    pairs_checked: int
    verdict: str  # "distinct" or "collision"
    collision: Optional[tuple[Cobordism, Cobordism]] = None

    @property
    def distinct(self) -> bool:
        return self.verdict == "distinct"

    def to_json_obj(self) -> dict:
        obj = {"algebra": self.algebra, "bounds": self.bounds.to_json_obj(),
               "enumerated": self.enumerated,
               "pairs_checked": self.pairs_checked, "verdict": self.verdict}
        if self.collision is not None:
            obj["collision"] = {"left": self.collision[0].to_json_obj(),
                                "right": self.collision[1].to_json_obj()}
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


def faithfulness_scan(bounds: ScanBounds, algebra: str = "A"
                      ) -> ScanCertificate:
    """Certify pairwise distinctness of all cobordisms within bounds.

    `algebra` is a selector for :func:`tqft.load_algebra` and labels the
    certificate.  For an algebra with the structure matrices of the
    table's ``A``, every equal-arity pair is checked by both the matrix
    route and the separation route; for other algebras the scan runs the
    matrix route only.  Arity classes are scanned in enumeration order
    and the first collision is reported; cross-arity pairs differ by
    shape and are counted without further work.
    """
    a = load_algebra(algebra)
    reference = load_algebra("A")
    cross_check = all(getattr(a, name) == getattr(reference, name)
                      for name in ("mul", "unit", "comul", "counit"))
    every = enumerate_cobordisms(bounds)
    total = len(every)
    pairs = 0
    before = 0  # cobordisms in earlier arity classes
    for _, group in itertools.groupby(every, key=lambda K: (K.n_in, K.n_out)):
        cobs = tuple(group)
        seen: dict = {}
        for idx, K in enumerate(cobs):
            matrix_key = evaluate(a, K).matrix.key()
            # K differs by shape from everything in earlier classes
            pairs += before
            if matrix_key in seen:
                return ScanCertificate(algebra, bounds, total, pairs,
                                       "collision", (seen[matrix_key], K))
            pairs += idx  # K is now confirmed distinct from all before it
            seen[matrix_key] = K
        if cross_check:
            for K, L in itertools.combinations(cobs, 2):
                ms_k, ms_l = separating_closure(K, L)
                if multiset_invariant(ms_k) == multiset_invariant(ms_l):
                    return ScanCertificate(algebra, bounds, total, pairs,
                                           "collision", (K, L))
        before += len(cobs)
    if pairs != total * (total - 1) // 2:
        raise RuntimeError(f"scan counted {pairs} pairs among {total} "
                           f"cobordisms, expected {total * (total - 1) // 2}")
    return ScanCertificate(algebra, bounds, total, pairs, "distinct")
