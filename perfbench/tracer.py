"""Spans around calls into the program, recorded from outside it.

`Tracer.install` replaces each traced function by a timing wrapper in
every `cobtqft` module namespace that holds it.  Replacing the defining
module's attribute alone would miss calls through names imported with
``from .exact import mat_mul``, which `tqft`, `frobenius` and
`faithfulness` all do.  A recursive function (`diagram.elaborate`)
records only its outermost call.

Hot calls run into the millions on a scan, so each call is folded into
an aggregate per (name, parent): count, total and self seconds.  Self
time is a span's duration minus the time its traced children took.
Only the few calls marked `cold` keep a span each (start, end,
parent).  Everything stays in memory until `to_json_obj` is written at
the end of a run.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Callable, Optional

# (module, attribute, cold); "RationalMatrix.key" is a method
TARGETS = [
    ("cli", "main", True),
    ("frobenius", "faithful_algebra", True),
    ("frobenius", "verify_frobenius", True),
    ("faithfulness", "enumerate_cobordisms", True),
    ("faithfulness", "faithfulness_scan", True),
    ("faithfulness", "separating_closure", False),
    ("faithfulness", "multiset_invariant", False),
    ("tqft", "evaluate", False),
    ("exact", "mat_mul", False),
    ("exact", "kron", False),
    ("exact", "RationalMatrix.key", False),
    ("surface", "compose", False),
    ("surface", "tensor", False),
    ("diagram", "parse", False),
    ("diagram", "elaborate", False),
    ("diagram", "format_cobordism", False),
]

ARITY_CLASSES = [f"{n}-{m}" for n in range(3) for m in range(3)]


def metric_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute.split('.')[-1]}"


class Tracer:
    """Aggregated spans and per-call observations of one process."""

    def __init__(self):
        self.stack: list[list] = []          # [name, seconds in children]
        self.active: set[str] = set()
        self.aggregates: dict[tuple[str, Optional[str]], list] = {}
        self.spans: list[tuple[str, Optional[str], float, float]] = []
        self.evaluate_us: dict[str, list[float]] = {}
        self.nnz_out = 0
        self.invariant_args: set = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- observations made on the arguments and results of some calls

    def _observe_evaluate(self, args, result, seconds):
        K = args[1]
        self.evaluate_us.setdefault(f"{K.n_in}-{K.n_out}", []).append(
            seconds * 1e6)

    def _observe_mat_mul(self, args, result, seconds):
        self.nnz_out += len(result.entries)

    def _observe_invariant(self, args, result, seconds):
        ks = args[0]
        self.invariant_args.add(tuple(getattr(ks, "genera", ks)))

    def _wrap(self, name: str, original: Callable, cold: bool,
              observe: Optional[Callable]) -> Callable:
        stack, active, aggregates = self.stack, self.active, self.aggregates
        spans, clock = self.spans, time.perf_counter

        def traced(*args, **kwargs):
            if name in active:
                return original(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            active.add(name)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active.discard(name)
                seconds = end - start
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += seconds
                record = aggregates.get((name, parent))
                if record is None:
                    record = aggregates[name, parent] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += seconds
                record[2] += seconds - frame[1]
                if cold:
                    spans.append((name, parent, start, end))
            if observe is not None:
                observe(args, result, seconds)
            return result

        return traced

    def install(self) -> None:
        import cobtqft
        observers = {"tqft.evaluate": self._observe_evaluate,
                     "exact.mat_mul": self._observe_mat_mul,
                     "faithfulness.multiset_invariant": self._observe_invariant}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cobtqft" or n.startswith("cobtqft.")]
        for module_name, attribute, cold in TARGETS:
            module = getattr(cobtqft, module_name)
            name = metric_name(module_name, attribute)
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._replace(owner, method, self._wrap(
                    name, original, cold, observers.get(name)))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original, cold, observers.get(name))
            for namespace in modules:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._replace(namespace, key, wrapper)

    def _replace(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- results

    def totals(self, name: str) -> tuple[int, float, float]:
        """Calls, total seconds and self seconds of `name`, over all parents."""
        calls, total, own = 0, 0.0, 0.0
        for (span, _), (n, seconds, self_seconds) in self.aggregates.items():
            if span == name:
                calls += n
                total += seconds
                own += self_seconds
        return calls, total, own

    def metrics(self) -> dict[str, float]:
        """Per-layer figures: calls, total and self seconds of every
        traced function, evaluate's median per arity class, the nonzeros
        mat_mul produced, and the share of distinct invariant arguments."""
        out: dict[str, float] = {}
        for module_name, attribute, _ in TARGETS:
            name = metric_name(module_name, attribute)
            calls, total, own = self.totals(name)
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = own
        for arity in ARITY_CLASSES:
            samples = self.evaluate_us.get(arity)
            out[f"tqft.evaluate.{arity}.p50_us"] = (
                statistics.median(samples) if samples else 0.0)
        out["exact.mat_mul.nnz_out"] = self.nnz_out
        calls = out["faithfulness.multiset_invariant.calls"]
        out["faithfulness.multiset_invariant.distinct_ratio"] = (
            len(self.invariant_args) / calls if calls else 0.0)
        return out

    def to_json_obj(self) -> dict:
        return {
            "spans": [{"name": n, "parent": p, "start": s, "end": e}
                      for n, p, s, e in self.spans],
            "aggregates": [{"name": n, "parent": p, "calls": c,
                            "seconds": t, "self_seconds": own}
                           for (n, p), (c, t, own) in self.aggregates.items()],
        }
