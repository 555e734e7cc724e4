"""One round of one workload in a fresh interpreter.

Usage (run.py starts it; `src` must be on PYTHONPATH):

    python3 perfbench/worker.py --workload words --seed 7 --trace 0

The program keeps module-level caches (the `lru_cache`s on enumeration
and the closing contexts, and each algebra's `_caches`), so a round in a
process that already ran one would reuse the previous round's work.
Each round therefore gets its own process, and pays its own set-up.

Prints one JSON object on its last line: set-up and timed-phase
seconds, operations attempted and failed, peak RSS, the problems the
checks found and, with --trace 1, the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


WORKLOAD_NAMES = ("certificate", "functoriality", "words")


def measure(name: str, seed: int, traced: bool = False,
            trace_file: Path | None = None, **size) -> dict:
    """Set up, run one timed round, check it; returns the round's figures.

    `size` passes reduced input sizes to the workload, for tests.
    """
    start = time.perf_counter()
    import workloads  # imports cobtqft, which is part of set-up
    import_s = time.perf_counter() - start

    from cobtqft import frobenius, tqft
    from tracer import Tracer

    workload = workloads.WORKLOADS[name](**size)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        algebra = frobenius.faithful_algebra()
        tqft.ensure_verified(algebra)
        workload.setup()
        setup_s = import_s + time.perf_counter() - start

        inputs = workload.inputs(seed)
        start = time.perf_counter()
        outputs, failed = workload.run(algebra, inputs)
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = workload.check(inputs, outputs)
    result = {"setup_s": setup_s, "wall_s": wall_s,
              "attempted": workload.operations, "failed": failed,
              "peak_rss_mib": peak_rss_mib, "problems": problems}
    if tracer is not None:
        metrics = tracer.metrics()
        problems.extend(workload.check_trace(metrics))
        result["metrics"] = metrics
        if trace_file is not None:
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            trace_file.write_text(json.dumps(tracer.to_json_obj()))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, bool(args.trace),
                     args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
