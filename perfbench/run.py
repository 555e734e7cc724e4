"""Benchmark of cobtqft: one workload, measured for a fixed time.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload certificate --seed 1 --seconds 20 --trace 0

Runs rounds of the workload, each in a fresh `worker.py` process, until
the next round would end after --seconds.  With --trace 0 it reports
the end-to-end metrics of BENCHMARK.json: medians over the rounds of
set-up time, timed-phase wall time, operations per second and peak
RSS.  With --trace 1 untraced and traced rounds alternate, and it
reports the per-layer metrics, medians over the traced rounds, plus
`trace.overhead_s`, the median over pairs of adjacent rounds of the
traced minus the untraced wall time.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0
when every round ran and every check passed, 1 when a check failed or
a round crashed, and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"
WORKER = HERE / "worker.py"
TRACES = HERE / "traces"
MIN_ROUNDS = 3        # untraced rounds; a traced run also needs 2 traced
ROUND_TIMEOUT_S = 150


def run_round(workload: str, seed: int, traced: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCES)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if traced:
        cmd += ["--trace-file", str(TRACES / f"{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted(SOURCES.rglob("*.py")))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCES / "cobtqft" / "__init__.py").is_file():
        print(f"error: no program sources under {SOURCES}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    while True:
        minimum_met = (len(plain) >= (2 if args.trace else MIN_ROUNDS)
                       and len(traced) >= (2 if args.trace else 0))
        elapsed = time.perf_counter() - started
        if minimum_met and elapsed + statistics.median(durations) > args.seconds:
            break
        trace_this = bool(args.trace) and len(traced) < len(plain)
        begun = time.perf_counter()
        try:
            result = run_round(args.workload, args.seed, trace_this)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
            print(f"error: round {len(durations) + 1} of {args.workload}: "
                  f"{err}", file=sys.stderr)
            return 1
        durations.append(time.perf_counter() - begun)
        (traced if trace_this else plain).append(result)

    rounds = plain + traced
    problems = [p for r in rounds for p in r["problems"]]
    for problem in problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)

    wall_s = statistics.median(r["wall_s"] for r in plain)
    if args.trace:
        values = {name: statistics.median(r["metrics"][name] for r in traced)
                  for name in traced[0]["metrics"]}
        # each traced round follows an untraced one: pairing them keeps
        # drifts in machine speed out of the difference
        values["trace.overhead_s"] = statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "wall_s": wall_s,
            "ops_per_s": statistics.median(r["attempted"] / r["wall_s"]
                                           for r in plain),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"]
                                              for r in plain),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(f"# {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced rounds in "
          f"{time.perf_counter() - started:.1f} s")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# reference: Python {platform.python_version()}, "
          f"nproc {len(os.sched_getaffinity(0))}, src/ lines {src_line_count()}")
    print(json.dumps({"correct": not problems,
                      "attempted": sum(r["attempted"] for r in rounds),
                      "failed": sum(r["failed"] for r in rounds),
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
