"""Command-line surface.

Subcommands::

    eval       evaluate a generator word under an algebra, emit matrix JSON
    invariant  value of the closed genus-k surface under an algebra
    verify     run the Frobenius axiom checks, exit 0 iff all pass
    golden     regenerate the fixed structure matrices and diff byte-exactly
    scan       exhaustive pairwise-distinctness scan, emit a certificate
    zsigmondy  least primitive prime divisor of a^n + b^n
    separate   closing-context separation of two cobordism JSON files

Exit codes: 0 success, 1 verification failure / collision / exceptional
triple, 2 usage or parse errors.

Composition in terms reads left to right: ``a ; b`` is "a first, then
b" (pictures run top to bottom).  Rationals are printed as ``p/q``,
never as floats.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import diagram, faithfulness, golden, surface, tqft
from .exact import format_rational
from .surface import Cobordism
from .tqft import AxiomFailure, load_algebra


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_eval(args) -> int:
    algebra = load_algebra(args.algebra)
    tqft.ensure_verified(algebra)  # an axiom failure comes before term errors
    K = diagram.elaborate(diagram.parse(args.term))
    surface.check_input_genus(K.max_genus())
    tqft.check_matrix_size(algebra, K.n_in, K.n_out)
    ev = tqft.evaluate(algebra, K)
    _emit(f'{{"in":{ev.n_in},"out":{ev.n_out},"dim":{algebra.dim},'
          f'"matrix":{ev.matrix.to_json()}}}', args.output)
    return 0


def cmd_invariant(args) -> int:
    genus = surface.check_input_genus(args.genus)
    value = tqft.closed_invariant(load_algebra(args.algebra), genus)
    _emit(format_rational(value), args.output)
    return 0


def cmd_verify(args) -> int:
    # a failing axiom raises AxiomFailure, which main reports with exit 1
    report = tqft.ensure_verified(load_algebra(args.algebra))
    for name, _ in report.results:
        print(f"pass  {name}")
    return 0


def cmd_golden(args) -> int:
    entries = golden.golden_report()
    bad = 0
    for entry in entries:
        print(f"{'pass' if entry.ok else 'FAIL'}  {entry.name}")
        if not entry.ok:
            bad += 1
            print(f"  produced: {entry.produced}")
            print(f"  expected: {entry.expected}")
    return 0 if bad == 0 else 1


def cmd_scan(args) -> int:
    bounds = faithfulness.ScanBounds(args.max_circles, args.max_genus,
                                     args.max_closed, args.max_closed_genus)
    cert = faithfulness.faithfulness_scan(bounds, args.algebra)
    _emit(cert.to_json(), args.output)
    return 0 if cert.distinct else 1


def cmd_zsigmondy(args) -> int:
    try:
        _emit(str(faithfulness.zsigmondy_witness(args.a, args.b, args.n)),
              args.output)
    except faithfulness.ExceptionalTriple as err:
        print(f"exceptional triple: {err}", file=sys.stderr)
        return 1
    return 0


def cmd_separate(args) -> int:
    K = Cobordism.from_json_obj(tqft.read_json(args.left))
    L = Cobordism.from_json_obj(tqft.read_json(args.right))
    ms_k, ms_l = faithfulness.separating_closure(K, L)
    invariant = faithfulness.multiset_invariant
    obj = {"left": {"genera": list(ms_k.genera),
                    "invariant": format_rational(invariant(ms_k))},
           "right": {"genera": list(ms_l.genera),
                     "invariant": format_rational(invariant(ms_l))}}
    _emit(json.dumps(obj, separators=(",", ":")), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobtqft",
        description="Exact evaluation of 2-cobordisms in commutative "
                    "Frobenius algebras, with faithfulness certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_algebra(p):
        p.add_argument("--algebra", default="A",
                       help="qz5 | zqs3 | A | file:<path> (default A)")

    def add_output(p):
        p.add_argument("--output", "-o", help="write the result to a file")

    p = sub.add_parser("eval", help="evaluate a generator word to a matrix")
    add_algebra(p)
    p.add_argument("--term", required=True,
                   help='for example "delta ; mu" (composition reads left '
                        "to right)")
    add_output(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("invariant",
                       help="value of the closed genus-k surface")
    add_algebra(p)
    p.add_argument("--genus", type=int, required=True)
    add_output(p)
    p.set_defaults(fn=cmd_invariant)

    p = sub.add_parser("verify", help="check the Frobenius axioms")
    add_algebra(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("golden",
                       help="regenerate the fixed structure matrices and diff")
    p.set_defaults(fn=cmd_golden)

    p = sub.add_parser("scan", help="pairwise-distinctness certificate")
    add_algebra(p)
    p.add_argument("--max-circles", type=int, default=2)
    p.add_argument("--max-genus", type=int, default=2)
    p.add_argument("--max-closed", type=int, default=1)
    p.add_argument("--max-closed-genus", type=int, default=3)
    add_output(p)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("zsigmondy",
                       help="least primitive prime divisor of a^n + b^n")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_output(p)
    p.set_defaults(fn=cmd_zsigmondy)

    p = sub.add_parser("separate",
                       help="separate two cobordism JSON files by closure")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    add_output(p)
    p.set_defaults(fn=cmd_separate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except AxiomFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
