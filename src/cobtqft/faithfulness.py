"""Faithfulness machinery: number theory, separation, exhaustive scan.

The scan certifies, over stated bounds, that pairwise-distinct
cobordisms receive pairwise-distinct matrices under the faithful
15-dimensional algebra.  Every equal-arity pair is checked twice, by
independent routes:

* the matrix route evaluates both cobordisms and compares exactly;
* the separation route drives both through the same closing context,
  one cobordism that caps every boundary circle with a disk, and
  compares the closed-surface genus multisets and their invariant
  products.  Circles are named by the integer boundary labels of
  :mod:`cobtqft.surface`.  Only the cap genera depend on the pair (see
  :func:`separating_closure`); they glue the paper's fill, stretch and
  close-off moves into one context.  No gluing is computed: Euler
  characteristics add along a circle, so a genus-g disk (1 - 2g) on a
  genus-h piece (2 - 2h - b) adds g to its genus, and caps on distinct
  circles never join two pieces.  Each cobordism has one separation
  record, which keeps the closing contexts built for it by int key.

The invariant product separates genus multisets because each closed
genus-k surface contributes 5·(3/2)^(k-1)·(2^(2k-1)+1): the power of 5
counts components, the power of 2 in the denominator recovers the
total genus, and primitive prime divisors of 2^(2k-1)+1 (Zsigmondy)
pin down the individual genera.  The value is read from ``A`` itself,
its 0 -> 0 block (:func:`tqft.closed_invariant`); the tests check it
against the formula through genus 300.
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
from .frobenius import faithful_algebra
from .surface import Cobordism
from .tqft import (check_matrix_size, closed_invariant, ensure_verified,
                   evaluate, load_algebra)


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


# Trial division takes about 0.6 s on the prime 2^48 - 59 (one shared
# Xeon core, Python 3.11.7).
ZSIGMONDY_LIMIT = 2 ** 48


def zsigmondy_witness(a: int, b: int, n: int) -> int:
    """Least prime dividing a^n + b^n but no a^k + b^k with k < n: the
    least prime factor of the primitive part of a^n + b^n.

    Requires coprime a > b >= 1, n >= 1 and a^n + b^n < ZSIGMONDY_LIMIT;
    raises :class:`ExceptionalTriple` for (n, a, b) = (3, 2, 1), the
    single triple without such a prime.
    """
    if not (a > b >= 1):
        raise ValueError("need a > b >= 1")
    if math.gcd(a, b) != 1:
        raise ValueError("a and b are not coprime")
    if n < 1:
        raise ValueError("need n >= 1")
    # a >= 2, n >= 1: n >= 48 or a >= 2^48 implies a^n >= 2^48, unpowered
    if n >= 48 or a >= ZSIGMONDY_LIMIT or a ** n + b ** n >= ZSIGMONDY_LIMIT:
        raise ValueError("a^n + b^n is at least 2^48, beyond trial division")
    if (n, a, b) == (3, 2, 1):
        raise ExceptionalTriple(
            "2^3 + 1^3 = 9: every prime divisor already divides 2^1 + 1^1")
    # the primitive part: a^n + b^n without the primes of any a^k + b^k
    part = a ** n + b ** n
    for k in range(1, n):
        g = math.gcd(part, a ** k + b ** k)
        while g > 1:
            part //= g
            g = math.gcd(part, g)
    if part == 1:
        raise AssertionError(f"no primitive prime divisor of {a}^{n}+{b}^{n}")
    if part % 2 == 0:
        return 2
    for f in range(3, math.isqrt(part) + 1, 2):
        if part % f == 0:
            return f
    return part


# --- genus-multiset invariants ---------------------------------------------

@lru_cache(maxsize=None)
def _product(genera: tuple[int, ...]) -> Fraction:
    value = Fraction(1)
    a = faithful_algebra()
    for k in genera:
        value *= closed_invariant(a, k)
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
def _label_data(K: Cobordism) -> tuple[tuple[int, ...], int, int,
                                       dict[int, GenusMultiset]]:
    """K's separation record: the genus of the component of each boundary
    label of K (see :mod:`cobtqft.surface`), the largest genus of K, K's
    boundary partition as a mask, and the one cache of K's closing
    contexts, a dict that :func:`separating_closure` fills by key.
    With n labels, bit ``x * n + y`` of the mask is set when labels
    x < y lie on one component of K.  Bits in ascending order are label
    pairs in ``itertools.combinations(range(n), 2)`` order, and
    ``divmod(bit, n)`` gives the pair back."""
    owners = K.owners
    n = len(owners)
    mask = 0
    for x, y in itertools.combinations(range(n), 2):
        if owners[x] == owners[y]:
            mask |= 1 << (x * n + y)
    return (tuple(K.components[idx].genus for idx in owners),
            K.max_genus(), mask, {})


def _closing_context(K: Cobordism, caps: tuple[int, ...]) -> GenusMultiset:
    """Cap each label x of K with a disk of genus ``caps[x]`` and return
    the closed genera: each piece adds its caps' genera to its own."""
    genera = [c.genus for c in K.components]
    for x, idx in enumerate(K.owners):
        genera[idx] += caps[x]
    return genus_multiset(genera + list(K.closed_genera))


def _caps(key: int, n: int) -> tuple[int, ...]:
    """The cap genera on n labels that a context key names."""
    a, rest = divmod(key, n * n + n + 1)
    caps = [0] * n
    if rest > n:
        x, y = divmod(rest - 1 - n, n)
        caps[x] = caps[y] = a
    elif rest:
        caps[rest - 1] = 2 * a
    return tuple(caps)


def separating_closure(K: Cobordism, L: Cobordism
                       ) -> tuple[GenusMultiset, GenusMultiset]:
    """Drive two distinct equal-arity cobordisms through one closing
    context, producing distinct closed genus multisets.

    The context caps every boundary circle with a disk; only the cap
    genera depend on how K and L differ.  A cap adds its genus to the
    piece it closes, as Euler characteristics add along a circle, and
    no cap joins two pieces.  Let ``a`` be one more than every genus in
    K and L: a piece that meets no cap of genus a or 2a stays below
    genus a.

    (a) Equal boundary partitions and per-label genera: every cap has
        genus 0, and the closed parts, which differ, stay apart.
    (b) Some label's genus differs: the first such label gets a cap of
        genus 2a, the rest genus 0.  The one closed piece of genus at
        least 2a has the label's genus plus 2a, which differs.
    (c) The partitions (their ``owners`` codes) differ: the first label
        pair on one component in exactly one of the two gets caps of
        genus a on both circles.
        That cobordism gets one piece of genus at least 2a, the other
        two of genus between a and 2a - 1.

    The partitions differ exactly when their masks (see
    :func:`_label_data`) do, and the first differing label pair of (c)
    is the lowest set bit of ``mask_K ^ mask_L``: the mask's bit order
    is the ``itertools.combinations`` order.  Only in (a) can K equal L,
    so ``K == L`` is tested only there.

    With n labels and ``R = n*n + n + 1``, one int key names the
    context: 0 in (a), ``a * R + 1 + x`` in (b) for label x, and
    ``a * R + 1 + n + bit`` in (c) for the pair at mask bit ``bit``.
    As ``1 + n + bit < R``, it gives a and the caps back for any genus.
    Both contexts are read by key from the records of :func:`_label_data`
    and built only when missing there.

    This is the paper's context (a disk filling each other circle, a
    stretch, and a closure with two genus-a caps) collapsed into one
    cobordism; ``tests/test_faithfulness.py`` glues it for real.  In (b)
    the stretch's comultiplication sends the kept circle into both
    genus-a caps: one disk of genus 2a.  In (c) the stretch's cup, if
    any, only routes the second circle to the second cap.
    """
    if K.n_in != L.n_in or K.n_out != L.n_out:
        raise ValueError(f"arity mismatch: {K.n_in}->{K.n_out} vs "
                         f"{L.n_in}->{L.n_out}")
    gk, max_k, mask_k, built_k = _label_data(K)
    gl, max_l, mask_l, built_l = _label_data(L)
    n = len(gk)
    a = 1 + (max_k if max_k > max_l else max_l)
    base = a * (n * n + n + 1)  # a * R
    differ = mask_k ^ mask_l
    key = 0
    if differ:  # 1 + n + bit, for the lowest differing bit
        key = base + n + (differ & -differ).bit_length()
    elif gk != gl:
        key = base + 1 + next(x for x, g in enumerate(gk) if g != gl[x])
    elif K == L:
        raise ValueError("the cobordisms are equal; nothing separates them")
    ms_k = built_k.get(key)
    if ms_k is None:
        ms_k = built_k[key] = _closing_context(K, _caps(key, n))
    ms_l = built_l.get(key)
    if ms_l is None:
        ms_l = built_l[key] = _closing_context(L, _caps(key, n))
    if ms_k == ms_l:
        raise RuntimeError(f"the closing context leaves equal closed genera "
                           f"{ms_k.genera} for {K!r} and {L!r}")
    return ms_k, ms_l


# --- enumeration and the scan ----------------------------------------------

# The most cobordisms a scan enumerates; (2,3,2,4) has 22 197.
MAX_SCAN_COBORDISMS = 25_000
# The most matrix entries a scan evaluates, summed over its cobordisms;
# under A, (3,0,0,0) has 2.4e9 and (3,1,0,0) 2.8e10.
MAX_SCAN_ENTRIES = 3 * 10 ** 9


@dataclass(frozen=True)
class ScanBounds:
    max_circles: int        # per side
    max_genus: int          # per component with boundary
    max_closed: int         # number of closed pieces
    max_closed_genus: int

    def __post_init__(self):
        for name, value in self.to_json_obj().items():
            if value < 0:
                raise ValueError(f"scan bound {name} must be >= 0")
        if self.max_circles > 3:
            raise ValueError("more than 3 circles per side outgrows desk scale")
        # C(n, k) >= 2^k for n >= 2k: closed parts with more than 64
        # pieces and genera alone pass the limit, and this test first
        # keeps math.comb cheap on huge bounds
        if (min(self.max_closed, self.max_closed_genus + 1) > 64
                or self.cobordism_count() > MAX_SCAN_COBORDISMS):
            raise ValueError(f"the scan bounds admit more than "
                             f"{MAX_SCAN_COBORDISMS} cobordisms")
        surface.check_input_genus(max(self.max_genus, self.max_closed_genus))

    def cobordism_count(self) -> int:
        """How many cobordisms the bounds admit, without enumerating them:
        under a 1-dimensional algebra every matrix has one entry."""
        return self.matrix_entries(1)

    def class_count(self, n_in: int, n_out: int) -> int:
        """How many n_in -> n_out cobordisms the bounds admit.

        n = n_in + n_out boundary circles split into k components in
        S(n, k) ways (the Stirling numbers of the second kind), each with
        x = max_genus + 1 genera; the sums t[n] = Σ_k S(n, k)·x^k obey the
        Touchard recurrence t[n+1] = x·Σ_i C(n, i)·t[i].  The closed
        multisets number C(max_closed_genus + 1 + max_closed, max_closed).
        """
        x = self.max_genus + 1
        t = [1]
        for n in range(n_in + n_out):
            t.append(x * sum(math.comb(n, i) * ti for i, ti in enumerate(t)))
        return t[-1] * math.comb(
            self.max_closed_genus + 1 + self.max_closed, self.max_closed)

    def matrix_entries(self, dim: int) -> int:
        """The entries of all the scan's matrices under a dim-dimensional
        algebra, summed without enumerating anything: an n_in -> n_out
        cobordism has a matrix of dim^(n_in + n_out) entries."""
        return sum(self.class_count(n_in, n_out) * dim ** (n_in + n_out)
                   for n_in in range(self.max_circles + 1)
                   for n_out in range(self.max_circles + 1))

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
            block: list[Cobordism] = []
            for part in _set_partitions(range(n_in + n_out)):
                for gs in itertools.product(genera, repeat=len(part)):
                    comps = [surface.component(
                        (x for x in blk if x < n_in),
                        (x - n_in for x in blk if x >= n_in),
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
    collision: Optional[tuple[Cobordism, Cobordism]] = None

    @property
    def verdict(self) -> str:
        return "distinct" if self.collision is None else "collision"

    @property
    def distinct(self) -> bool:
        return self.collision is None

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
    shape and are counted without further work.  Bounds whose largest
    matrices would exceed ``tqft.MAX_EVAL_ENTRIES``, or whose matrices
    together would exceed MAX_SCAN_ENTRIES, raise ValueError before the
    axioms are checked or anything is enumerated.  The enumeration is
    proved complete: RuntimeError unless every arity class holds exactly
    :meth:`ScanBounds.class_count` cobordisms, pairwise unequal.
    """
    a = load_algebra(algebra)
    check_matrix_size(a, bounds.max_circles, bounds.max_circles)
    if bounds.matrix_entries(a.dim) > MAX_SCAN_ENTRIES:
        raise ValueError(f"the scan's matrices under a {a.dim}-dimensional "
                         f"algebra hold more than {MAX_SCAN_ENTRIES} "
                         f"entries in all")
    ensure_verified(a)
    reference = faithful_algebra()  # compared, so it need not be verified
    cross_check = all(getattr(a, name) == getattr(reference, name)
                      for name in ("mul", "unit", "comul", "counit"))
    every = enumerate_cobordisms(bounds)
    total = len(every)
    if total != bounds.cobordism_count():
        raise RuntimeError(f"enumerated {total} cobordisms; the bounds "
                           f"admit {bounds.cobordism_count()}")
    pairs = 0
    before = 0  # cobordisms in earlier arity classes
    for arity, group in itertools.groupby(every,
                                          key=lambda K: (K.n_in, K.n_out)):
        cobs = tuple(group)
        expected = bounds.class_count(*arity)
        if not len(cobs) == len(set(cobs)) == expected:
            raise RuntimeError(f"the {arity[0]}->{arity[1]} class holds "
                               f"{len(cobs)} cobordisms, {len(set(cobs))} "
                               f"distinct; the bounds admit {expected}")
        seen: dict = {}
        for idx, K in enumerate(cobs):
            matrix_key = evaluate(a, K).matrix.key()
            # K differs by shape from everything in earlier classes
            pairs += before
            if matrix_key in seen:
                return ScanCertificate(algebra, bounds, total, pairs,
                                       (seen[matrix_key], K))
            pairs += idx  # K is now confirmed distinct from all before it
            seen[matrix_key] = K
        if cross_check:
            # read at scan time, so a replaced module attribute is seen
            closure, invariant = separating_closure, multiset_invariant
            for K, L in itertools.combinations(cobs, 2):
                ms_k, ms_l = closure(K, L)
                if invariant(ms_k) == invariant(ms_l):
                    return ScanCertificate(algebra, bounds, total, pairs,
                                           (K, L))
        before += len(cobs)
    if pairs != total * (total - 1) // 2:
        raise RuntimeError(f"scan counted {pairs} pairs among {total} "
                           f"cobordisms, expected {total * (total - 1) // 2}")
    return ScanCertificate(algebra, bounds, total, pairs)
