"""Inputs, timed work and output checks of the three workloads.

Every reference value a check compares against is computed here, apart
from the program: enumeration counts from Touchard polynomials, the
closed-surface value 5·(3/2)^(k-1)·(2^(2k-1)+1), and the arity and
Euler characteristic of a word summed over its generators.  Properties
the method must have (functoriality, an identical round trip) are
checked as such.  Nothing is compared against a stored copy of an
earlier output.

The program is reached only through module attributes (``tqft.evaluate``,
never a name imported from it), so that the tracer, which replaces those
attributes, sees every call made from here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from itertools import product

from cobtqft import cli, diagram, exact, faithfulness, surface, tqft

# ---------------------------------------------------------------------------
# certificate

# The shipped certificate is at (2, 2, 1, 3) and takes about 50 s, longer
# than one benchmark run may last.  These bounds keep every arity class
# and every case of the closing context (closed parts, genus, partition)
# while one scan takes a few seconds.
CERT_BOUNDS = (2, 1, 1, 1)
CERT_SAMPLE = 400


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of n items into k blocks."""
    row = [1] + [0] * k  # S(0, j)
    for i in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(i, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def touchard(n: int, x: int) -> int:
    """T_n(x) = sum_k S(n, k) x^k: set partitions weighted by x per block."""
    return sum(stirling2(n, k) * x ** k for k in range(n + 1))


def closed_options(max_closed: int, max_closed_genus: int) -> int:
    """Multisets of at most max_closed genera, each in 0..max_closed_genus."""
    kinds = max_closed_genus + 1
    return sum(math.comb(kinds + c - 1, c) for c in range(max_closed + 1))


def class_sizes(bounds) -> dict[tuple[int, int], int]:
    """Number of cobordisms n_in -> n_out within bounds, per arity class.

    The boundary circles of a class are partitioned into components, each
    component takes one of max_genus + 1 genera, and the closed part is
    one of the closed-piece options.
    """
    circles, max_genus, max_closed, max_closed_genus = bounds
    closed = closed_options(max_closed, max_closed_genus)
    return {(n, m): touchard(n + m, max_genus + 1) * closed
            for n in range(circles + 1) for m in range(circles + 1)}


def enumeration_count(bounds) -> int:
    return sum(class_sizes(bounds).values())


def equal_arity_pairs(bounds) -> int:
    return sum(math.comb(s, 2) for s in class_sizes(bounds).values())


def closed_value(k: int) -> Fraction:
    """Value of the closed genus-k surface under the 15-dimensional algebra."""
    return 5 * Fraction(3, 2) ** (k - 1) * (Fraction(2) ** (2 * k - 1) + 1)


def invariant(genera) -> Fraction:
    value = Fraction(1)
    for k in genera:
        value *= closed_value(k)
    return value


def scan_argv(bounds) -> list[str]:
    circles, genus, closed, closed_genus = bounds
    return ["scan", "--algebra", "A", "--max-circles", str(circles),
            "--max-genus", str(genus), "--max-closed", str(closed),
            "--max-closed-genus", str(closed_genus)]


def certificate_round(bounds):
    """Run the scan through the command line; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(scan_argv(bounds))
    return code, out.getvalue()


def sample_pairs(seed: int, cobordisms, count: int):
    """Seeded equal-arity pairs, each class drawn in proportion to its pairs."""
    rng = random.Random(seed)
    classes: dict[tuple[int, int], list] = {}
    for K in cobordisms:
        classes.setdefault((K.n_in, K.n_out), []).append(K)
    groups = [g for g in classes.values() if len(g) > 1]
    weights = [math.comb(len(g), 2) for g in groups]
    return [tuple(rng.sample(group, 2))
            for group in rng.choices(groups, weights, k=count)]


def check_certificate(bounds, code: int, text: str, cobordisms,
                      separated) -> list[str]:
    """Problems with one scan's output; an empty list means correct.

    `separated` holds, for each sampled pair, the two genus multisets
    that `separating_closure` produced and the invariant values the
    program gave them.
    """
    problems = []
    expected = enumeration_count(bounds)
    try:
        cert = json.loads(text)
    except json.JSONDecodeError:
        return [f"scan printed no certificate: {text[:200]!r}"]
    if code != 0 or cert.get("verdict") != "distinct":
        problems.append(f"verdict {cert.get('verdict')!r}, exit code {code}")
    if cert.get("enumerated") != expected:
        problems.append(f"enumerated {cert.get('enumerated')}, "
                        f"Touchard count {expected}")
    if cert.get("pairs_checked") != math.comb(expected, 2):
        problems.append(f"pairs_checked {cert.get('pairs_checked')}, "
                        f"expected {math.comb(expected, 2)}")
    found: dict[tuple[int, int], int] = {}
    for K in cobordisms:
        found[K.n_in, K.n_out] = found.get((K.n_in, K.n_out), 0) + 1
    if found != (sizes := class_sizes(bounds)):
        problems.append(f"class sizes {found} differ from the Touchard "
                        f"counts {sizes}")
    for (left, right, program_left, program_right) in separated:
        ours_left, ours_right = invariant(left), invariant(right)
        if ours_left == ours_right:
            problems.append(f"closures {left} and {right} share the "
                            f"invariant {ours_left}")
        if (program_left, program_right) != (ours_left, ours_right):
            problems.append(f"invariants of {left}, {right}: program gave "
                            f"{program_left}, {program_right}, formula "
                            f"{ours_left}, {ours_right}")
    return problems


def separate_sample(pairs):
    """Each pair's closing-context multisets and the program's invariants."""
    out = []
    for K, L in pairs:
        left, right = faithfulness.separating_closure(K, L)
        out.append((left.genera, right.genera,
                    faithfulness.multiset_invariant(left),
                    faithfulness.multiset_invariant(right)))
    return out


# ---------------------------------------------------------------------------
# functoriality

# A round holds every pairing of boundary partitions for every pattern of
# arities: composable pairs a -> b -> c, and tensor pairs whose combined
# sides have at most two circles.  The seed draws the genera and the
# closed pieces.  Drawing the partitions too would make the cost of a
# round depend on the seed: composing two connected 2 -> 2 blocks takes
# about 0.5 s, a hundred times the typical pair.
CIRCLES = 2
MAX_GENUS = 2


def compose_patterns(circles=CIRCLES):
    return list(product(range(circles + 1), repeat=3))


def tensor_patterns(circles=CIRCLES):
    return [(a, b, c, d) for a, b, c, d in product(range(circles + 1), repeat=4)
            if a + c <= circles and b + d <= circles]


def set_partitions(items: list) -> list[list[list]]:
    """Every partition of `items` into nonempty blocks."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for part in set_partitions(rest):
        out.append([[first]] + part)
        for i in range(len(part)):
            out.append(part[:i] + [[first] + part[i]] + part[i + 1:])
    return out


def boundary_partitions(n_in: int, n_out: int):
    return set_partitions([(0, i) for i in range(n_in)]
                          + [(1, j) for j in range(n_out)])


def seeded_cobordism(rng: random.Random, n_in: int, n_out: int, blocks):
    """The cobordism n_in -> n_out with these components, genus 0..2 each,
    and one closed piece of genus 0..2 with probability 1/3."""
    comps = [surface.component([i for side, i in b if side == 0],
                               [j for side, j in b if side == 1],
                               rng.randint(0, MAX_GENUS)) for b in blocks]
    closed = [rng.randint(0, MAX_GENUS)] if rng.random() < 1 / 3 else []
    return surface.Cobordism(n_in, n_out, comps, closed)


def functoriality_inputs(seed: int, circles=CIRCLES):
    rng = random.Random(seed)
    pairs = []
    for a, b, c in compose_patterns(circles):
        for first in boundary_partitions(a, b):
            for second in boundary_partitions(b, c):
                pairs.append(("compose", seeded_cobordism(rng, a, b, first),
                              seeded_cobordism(rng, b, c, second)))
    for a, b, c, d in tensor_patterns(circles):
        for first in boundary_partitions(a, b):
            for second in boundary_partitions(c, d):
                pairs.append(("tensor", seeded_cobordism(rng, a, b, first),
                              seeded_cobordism(rng, c, d, second)))
    return pairs


def functor_sides(algebra, kind: str, K, L):
    """Both sides of the functoriality law for one pair."""
    left = tqft.evaluate(algebra, K).matrix
    right = tqft.evaluate(algebra, L).matrix
    if kind == "compose":
        glued = tqft.evaluate(algebra, surface.compose(K, L)).matrix
        return glued, exact.mat_mul(right, left)
    joined = tqft.evaluate(algebra, surface.tensor(K, L)).matrix
    return joined, exact.kron(left, right)


def functoriality_round(algebra, pairs) -> list:
    """One outcome per pair: True when both sides agree, False when they
    differ, and the exception when the program raised."""
    outcomes = []
    for kind, K, L in pairs:
        try:
            whole, parts = functor_sides(algebra, kind, K, L)
        except Exception as err:  # counted as a failed operation
            outcomes.append(err)
            continue
        outcomes.append(whole == parts)
    return outcomes


def check_functoriality(pairs, outcomes) -> list[str]:
    return [f"{kind} functoriality fails on {K!r}, {L!r}"
            for (kind, K, L), ok in zip(pairs, outcomes) if ok is False][:5]


# ---------------------------------------------------------------------------
# words

WORDS_PER_ROUND = 800
WORD_LENGTH = 280  # characters, about
MAX_WIDTH = 4
ILL_TYPED_EVERY = 20  # one word in twenty is ill-typed

# name -> (ingoing, outgoing)
_ATOMS = {"mu": (2, 1), "delta": (1, 2), "eta": (0, 1), "eps": (1, 0),
          "swap": (2, 2), "id[1]": (1, 1), "id[2]": (2, 2)}


def atom_euler(text: str) -> int:
    """Euler characteristic of one generator: 2 - 2k - n - m when connected."""
    if text.startswith("E["):
        m, k, n = map(int, text[2:-1].split(","))
        return 2 - 2 * k - m - n
    if text.startswith("id[") or text == "swap":
        return 0  # cylinders
    n, m = _ATOMS[text]
    return 2 - n - m


def _random_atom(rng: random.Random, inputs: int, room: int) -> tuple[str, int, int]:
    """A generator with 1..inputs ingoing circles (0 when inputs == 0) and
    at most `room` outgoing ones."""
    choices = [(t, n, m) for t, (n, m) in _ATOMS.items()
               if (n >= 1 or inputs == 0) and n <= inputs and m <= room]
    if rng.random() < 0.15:
        n = rng.randint(1 if inputs else 0, min(inputs, 2))
        m = rng.randint(0, min(room, 2))
        choices = [(f"E[{m},{rng.randint(0, 2)},{n}]", n, m)]
    return rng.choice(choices)


def _layer(rng: random.Random, width: int) -> list[tuple[str, int, int]]:
    """Generators side by side taking `width` circles to at most MAX_WIDTH."""
    atoms = []
    outputs = 0
    left = width
    while left > 0 or not atoms:
        atom = _random_atom(rng, left, MAX_WIDTH - outputs)
        atoms.append(atom)
        left -= atom[1]
        outputs += atom[2]
        # mostly keep a circle open, or words would soon shrink to 0 -> 0
        if left == 0 and outputs == 0 and rng.random() < 0.7:
            atoms.append(("eta", 0, 1))
            outputs += 1
    return atoms


def _render(atoms) -> str:
    body = " * ".join(t for t, _, _ in atoms)
    return f"({body})" if len(atoms) > 1 else body


def make_word(rng: random.Random, ill_typed: bool):
    """A random word and what its checks expect.

    Returns (text, expected) where expected is ("ok", n_in, n_out, chi)
    for a well-typed word, and ("error", position) for an ill-typed one,
    position being the first character of the layer whose input arity
    does not match.
    """
    width = n_in = rng.randint(0, MAX_WIDTH)
    layers = []
    length = 0
    while length < WORD_LENGTH:
        atoms = _layer(rng, width)
        layers.append(atoms)
        width = sum(m for _, _, m in atoms)
        length += len(_render(atoms)) + len(" ; ")
    if ill_typed:
        # one more ingoing circle than the layer before provides
        bad = rng.randrange(1, len(layers))
        layers[bad] = layers[bad] + [("eps", 1, 0)]
    texts = [_render(atoms) for atoms in layers]
    text = " ; ".join(texts)
    if ill_typed:
        return text, ("error", len(" ; ".join(texts[:bad]) + " ; ("))
    chi = sum(atom_euler(t) for atoms in layers for t, _, _ in atoms)
    return text, ("ok", n_in, width, chi)


def words_inputs(seed: int, count=WORDS_PER_ROUND):
    rng = random.Random(seed)
    return [make_word(rng, ill_typed=(i % ILL_TYPED_EVERY
                                      == ILL_TYPED_EVERY - 1))
            for i in range(count)]


def words_round(words):
    """parse -> elaborate -> format -> parse -> elaborate for every word.

    Returns one outcome per word: ("ok", K, round-tripped K),
    ("error", position of the rejection), or ("failed", exception) when
    the program raised anything else.
    """
    outcomes = []
    for text, _ in words:
        try:
            try:
                K = diagram.elaborate(diagram.parse(text))
            except diagram.TermError as err:
                outcomes.append(("error", err.position))
                continue
            again = diagram.elaborate(
                diagram.parse(diagram.format_cobordism(K)))
        except Exception as err:  # counted as a failed operation
            outcomes.append(("failed", err))
            continue
        outcomes.append(("ok", K, again))
    return outcomes


def euler(K) -> int:
    """Euler characteristic of a normal form, summed over its pieces."""
    return (sum(2 - 2 * c.genus - len(c.ingoing) - len(c.outgoing)
                for c in K.components)
            + sum(2 - 2 * g for g in K.closed_genera))


def check_words(words, outcomes) -> list[str]:
    problems = []
    for (text, expected), outcome in zip(words, outcomes):
        if outcome[0] == "failed":
            continue
        if expected[0] == "error":
            if outcome != expected:
                problems.append(f"ill-typed word not rejected at position "
                                f"{expected[1]} ({outcome[:2]!r}): {text}")
            continue
        if outcome[0] != "ok":
            problems.append(f"well-typed word rejected ({outcome!r}): {text}")
            continue
        _, K, again = outcome
        _, n_in, n_out, chi = expected
        if again != K:
            problems.append(f"round trip changed {K!r} into {again!r}")
        if (K.n_in, K.n_out, euler(K)) != (n_in, n_out, chi):
            problems.append(f"{text}: arity {K.n_in}->{K.n_out} and Euler "
                            f"characteristic {euler(K)}, summed over the "
                            f"generators {n_in}->{n_out} and {chi}")
    if len(outcomes) != len(words):
        problems.append(f"{len(outcomes)} outcomes for {len(words)} words")
    return problems[:5]


# ---------------------------------------------------------------------------
# the workloads as the worker drives them: setup() before the timed phase,
# inputs(seed) untimed, run(algebra, inputs) timed and returning
# (outputs, failed operations), check(inputs, outputs) afterwards

class Workload:
    operations: int  # per round

    def setup(self) -> None:
        pass

    def check_trace(self, metrics) -> list[str]:
        return []


class Certificate(Workload):
    """`cobtqft scan` under the algebra A, both routes, via `cli.main`."""

    def __init__(self, bounds=CERT_BOUNDS, sample=CERT_SAMPLE):
        self.bounds = bounds
        self.sample = sample
        self.operations = equal_arity_pairs(bounds)

    def setup(self):
        self.cobordisms = faithfulness.enumerate_cobordisms(
            faithfulness.ScanBounds(*self.bounds))

    def inputs(self, seed: int):
        return sample_pairs(seed, self.cobordisms, self.sample)

    def run(self, algebra, pairs):
        return certificate_round(self.bounds), 0

    def check(self, pairs, outputs) -> list[str]:
        code, text = outputs
        return check_certificate(self.bounds, code, text, self.cobordisms,
                                 separate_sample(pairs))

    def check_trace(self, metrics) -> list[str]:
        """Both routes covered every cobordism and every equal-arity pair."""
        seen = (metrics["tqft.evaluate.calls"],
                metrics["faithfulness.separating_closure.calls"])
        wanted = (enumeration_count(self.bounds), self.operations)
        if seen != wanted:
            return [f"(evaluations, closures) traced {seen}, expected {wanted}"]
        return []


class Functoriality(Workload):
    """evaluate(compose) = mat_mul and evaluate(tensor) = kron, exactly."""

    def __init__(self, circles=CIRCLES):
        self.circles = circles

    def inputs(self, seed: int):
        pairs = functoriality_inputs(seed, self.circles)
        self.operations = len(pairs)
        return pairs

    def run(self, algebra, pairs):
        outcomes = functoriality_round(algebra, pairs)
        return outcomes, sum(isinstance(o, Exception) for o in outcomes)

    def check(self, pairs, outcomes) -> list[str]:
        return check_functoriality(pairs, outcomes)


class Words(Workload):
    """parse, elaborate, format and back, for seeded random words."""

    def __init__(self, count=WORDS_PER_ROUND):
        self.count = count
        self.operations = count

    def inputs(self, seed: int):
        return words_inputs(seed, self.count)

    def run(self, algebra, words):
        outcomes = words_round(words)
        return outcomes, sum(o[0] == "failed" for o in outcomes)

    def check(self, words, outcomes) -> list[str]:
        return check_words(words, outcomes)


WORKLOADS = {"certificate": Certificate, "functoriality": Functoriality,
             "words": Words}
