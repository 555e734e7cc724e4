"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs end to end on small inputs, and each check is shown
to fail on a corrupted output.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import workloads  # noqa: E402
from cobtqft import exact, faithfulness, frobenius, surface, tqft  # noqa: E402
from worker import measure  # noqa: E402

SMALL_BOUNDS = (1, 1, 1, 1)
PER_LAYER = [m["name"] for m in json.loads(
    (HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]


# -- references computed by the benchmark

def test_touchard_counts_match_the_shipped_certificate():
    assert workloads.enumeration_count((2, 2, 1, 3)) == 2330
    assert workloads.equal_arity_pairs((2, 2, 1, 3)) == 1_279_210


@pytest.mark.parametrize("bounds", [(1, 1, 1, 1), (2, 0, 0, 0), (2, 1, 1, 2)])
def test_touchard_class_sizes_match_enumeration(bounds):
    cobordisms = faithfulness.enumerate_cobordisms(
        faithfulness.ScanBounds(*bounds))
    sizes: dict = {}
    for K in cobordisms:
        sizes[K.n_in, K.n_out] = sizes.get((K.n_in, K.n_out), 0) + 1
    assert sizes == workloads.class_sizes(bounds)


def test_closed_value_formula():
    assert workloads.closed_value(0) == 5
    assert workloads.closed_value(1) == 15
    assert workloads.closed_value(2) == Fraction(135, 2)
    assert workloads.invariant((2, 1)) == 15 * Fraction(135, 2)


def test_word_euler_characteristic_of_generators():
    assert [workloads.atom_euler(t) for t in
            ("mu", "delta", "eta", "eps", "swap", "id[2]", "E[2,1,1]",
             "E[0,2,0]")] == [-1, -1, 1, 1, 0, 0, -3, -2]


# -- every workload at a reduced size

def test_certificate_round():
    result = measure("certificate", 3, bounds=SMALL_BOUNDS, sample=40)
    assert result["problems"] == []
    assert result["failed"] == 0
    assert result["attempted"] == workloads.equal_arity_pairs(SMALL_BOUNDS)


def test_certificate_traced_round_reports_every_layer(tmp_path):
    trace_file = tmp_path / "trace.json"
    original = tqft.evaluate
    result = measure("certificate", 3, traced=True, trace_file=trace_file,
                     bounds=SMALL_BOUNDS, sample=40)
    assert result["problems"] == []  # includes the traced coverage check
    assert tqft.evaluate is original  # the tracer put everything back
    metrics = result["metrics"]
    assert set(PER_LAYER) - set(metrics) == {"trace.overhead_s"}
    assert (metrics["faithfulness.multiset_invariant.calls"]
            == 2 * workloads.equal_arity_pairs(SMALL_BOUNDS))
    assert 0 < metrics["faithfulness.multiset_invariant.distinct_ratio"] < 1
    assert metrics["cli.main.self_s"] > 0
    trace = json.loads(trace_file.read_text())
    assert {s["name"] for s in trace["spans"]} >= {
        "cli.main", "faithfulness.faithfulness_scan"}


def test_functoriality_round():
    result = measure("functoriality", 5, circles=1)
    assert result["problems"] == []
    assert result["failed"] == 0
    # every pairing of boundary partitions: 13 compose and 11 tensor pairs
    assert result["attempted"] == 24


def test_words_round_and_recursion_counts_outermost_calls():
    result = measure("words", 11, traced=True, count=40)
    assert result["problems"] == []
    assert result["failed"] == 0
    metrics = result["metrics"]
    typed = 40 - 40 // workloads.ILL_TYPED_EVERY
    assert metrics["diagram.parse.calls"] == 40 + typed
    assert metrics["diagram.elaborate.calls"] == 2 * typed
    assert metrics["diagram.format_cobordism.calls"] == typed


# -- every check fails on a corrupted output

def _certificate_output(bounds):
    code, text = workloads.certificate_round(bounds)
    cobordisms = faithfulness.enumerate_cobordisms(
        faithfulness.ScanBounds(*bounds))
    pairs = workloads.sample_pairs(1, cobordisms, 20)
    return code, text, cobordisms, workloads.separate_sample(pairs)


def test_certificate_check_fails_on_a_wrong_enumeration_count():
    code, text, cobordisms, separated = _certificate_output(SMALL_BOUNDS)
    assert workloads.check_certificate(SMALL_BOUNDS, code, text, cobordisms,
                                       separated) == []
    cert = json.loads(text)
    cert["enumerated"] += 1
    problems = workloads.check_certificate(
        SMALL_BOUNDS, code, json.dumps(cert), cobordisms, separated)
    assert any("enumerated" in p for p in problems)
    problems = workloads.check_certificate(
        SMALL_BOUNDS, code, text, cobordisms[1:], separated)
    assert any("class sizes" in p for p in problems)


def test_certificate_check_fails_on_a_collision_or_bad_invariants():
    code, text, cobordisms, separated = _certificate_output(SMALL_BOUNDS)
    cert = json.loads(text)
    cert["verdict"] = "collision"
    assert workloads.check_certificate(SMALL_BOUNDS, 1, json.dumps(cert),
                                       cobordisms, separated)
    left, _, value, _ = separated[0]
    same = [(left, left, value, value)]
    assert workloads.check_certificate(SMALL_BOUNDS, code, text, cobordisms,
                                       same)
    left, right, value_left, value_right = separated[0]
    wrong = [(left, right, value_left + 1, value_right)]
    assert workloads.check_certificate(SMALL_BOUNDS, code, text, cobordisms,
                                       wrong)


def _perturbed(op):
    def corrupt(a, b):
        m = op(a, b)
        (key, value), *_ = sorted(m.entries.items())
        return exact.RationalMatrix._adopt(m.rows, m.cols,
                                           {**m.entries, key: value + 1})
    return corrupt


@pytest.mark.parametrize("kind,op,K,L", [
    ("compose", "mat_mul", surface.e_block(2, 1, 1), surface.e_block(1, 0, 2)),
    ("tensor", "kron", surface.e_block(1, 1, 1), surface.e_block(0, 0, 1))])
def test_functoriality_check_fails_on_a_perturbed_matrix_entry(
        monkeypatch, kind, op, K, L):
    algebra = frobenius.faithful_algebra()
    pairs = [(kind, K, L)]
    assert workloads.check_functoriality(
        pairs, workloads.functoriality_round(algebra, pairs)) == []
    # tqft holds its own reference to the operation, so only the side
    # the benchmark computes is corrupted
    monkeypatch.setattr(exact, op, _perturbed(getattr(exact, op)))
    outcomes = workloads.functoriality_round(algebra, pairs)
    assert outcomes == [False]
    assert workloads.check_functoriality(pairs, outcomes)


def test_words_check_fails_on_a_round_trip_that_changes_a_genus():
    words = workloads.words_inputs(2, 20)
    outcomes = workloads.words_round(words)
    assert workloads.check_words(words, outcomes) == []
    index = next(i for i, o in enumerate(outcomes)
                 if o[0] == "ok" and o[1].components)
    _, K, again = outcomes[index]
    c = again.components[0]
    changed = surface.Cobordism(
        again.n_in, again.n_out,
        [c._replace(genus=c.genus + 1), *again.components[1:]],
        again.closed_genera)
    corrupted = list(outcomes)
    corrupted[index] = ("ok", K, changed)
    assert any("round trip" in p for p in workloads.check_words(words, corrupted))
    corrupted[index] = ("ok", changed, changed)
    assert any("Euler" in p for p in workloads.check_words(words, corrupted))


def test_words_check_fails_when_an_ill_typed_word_is_not_rejected():
    words = workloads.words_inputs(4, 20)
    outcomes = workloads.words_round(words)
    bad = next(i for i, (_, e) in enumerate(words) if e[0] == "error")
    position = outcomes[bad][1]
    assert position == words[bad][1][1] and position > 0
    moved = list(outcomes)
    moved[bad] = ("error", position + 1)
    assert workloads.check_words(words, moved)
    accepted = list(outcomes)
    accepted[bad] = outcomes[0]
    assert workloads.check_words(words, accepted)


# -- the command

def test_run_prints_the_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "words",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * workloads.WORDS_PER_ROUND
    assert {name: m["value"] > 0 for name, m in result["metrics"].items()} \
        == {"setup_s": True, "wall_s": True, "ops_per_s": True,
            "peak_rss_mib": True}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "words",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
