import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from cobtqft.cli import build_parser, main
from cobtqft.faithfulness import ScanBounds
from cobtqft.frobenius import (MAX_INPUT_DIM, FiniteGroup,
                               FrobeniusAlgebra, group_algebra, qz5, zqs3)
from cobtqft.surface import (MAX_INPUT_CIRCLES, MAX_INPUT_CLOSED,
                             MAX_INPUT_GENUS, Cobordism, component, e_block,
                             identity, tensor)


# an error is one line, and never echoes an input value at length
MAX_ERROR_BYTES = 300


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant(capsys):
    code, out, _ = run(capsys, "invariant", "--algebra", "A", "--genus", "1")
    assert code == 0 and out.strip() == "15"
    code, out, _ = run(capsys, "invariant", "--algebra", "A", "--genus", "2")
    assert code == 0 and out.strip() == "135/2"
    code, out, err = run(capsys, "invariant", "--algebra", "A", "--genus", "-1")
    assert code == 2 and out == "" and "negative genus" in err
    assert len(err.splitlines()) == 1
    code, out, err = run(capsys, "invariant", "--algebra", "file:x", "--genus", "1")
    assert code == 2 and out == "" and "No such file" in err
    assert len(err.splitlines()) == 1


def test_invariant_reads_a_file_algebra(capsys, tmp_path):
    path = tmp_path / "zqs3.json"
    path.write_text(zqs3().to_json())
    for genus in range(MAX_INPUT_GENUS + 1):
        expected = run(capsys, "invariant", "--algebra", "zqs3",
                       "--genus", str(genus))
        assert run(capsys, "invariant", "--algebra", f"file:{path}",
                   "--genus", str(genus)) == expected
        assert expected[0] == 0
    z = zqs3()
    broken = FrobeniusAlgebra(3, z.mul, z.unit, z.comul, z.counit.scale(0))
    path.write_text(broken.to_json())
    code, out, err = run(capsys, "invariant", "--algebra", f"file:{path}",
                         "--genus", "1")
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert "fails Frobenius axioms" in err


def test_eval_emits_header_and_matrix(capsys):
    code, out, _ = run(capsys, "eval", "--algebra", "zqs3",
                       "--term", "delta ; mu")
    assert code == 0
    obj = json.loads(out)
    assert (obj["in"], obj["out"], obj["dim"]) == (1, 1, 3)
    assert obj["matrix"]["rows"] == 3
    assert [0, 0, "3"] in obj["matrix"]["entries"]
    assert [2, 0, "3/2"] in obj["matrix"]["entries"]


# One word per arity class up to 2 -> 2, genera 0 to 2, closed pieces
# beside boundary components; E[m,k,n] is n -> m.
EVAL_WORDS = ("E[0,2,0]", "E[0,1,1] * E[0,0,0]", "E[0,2,2]",
              "(eta * eta) ; mu ; eps", "E[1,2,0]", "delta ; mu",
              "E[1,1,2] * E[0,1,0]", "E[0,1,1] * E[1,2,0]", "E[2,1,0]",
              "E[2,0,1]", "E[2,2,2]", "swap ; E[2,1,2]",
              "(delta * id[1]) ; (id[1] * E[1,2,1] * eps)")

# SHA-256 prefixes of `eval` stdout for EVAL_WORDS, in order
EVAL_DIGESTS = {
    "A": ("94218af33197", "6a0e10a989ac", "71f968c9e97b", "f8efb620d4f0",
          "82d0c7dc3fe1", "e165412d688f", "8af0314462a6", "b32a9a5b88cb",
          "831ee2b3e846", "7dab4d74ddbc", "ae6fa39c579b", "e0ff4f42f233",
          "5ccc7eab28b6"),
    "zqs3": ("5b7dcfcccd60", "d6413bafa7ee", "c9eb8f7fea10", "ca67a731b9ee",
             "fe1412e71c97", "cf34544c93c3", "b4976b8d31a4", "24e4f95f1af1",
             "0074fbcfff95", "31dec804ecad", "346c51c407ff", "afb2ab724958",
             "4f29015c7e78"),
    "qz5": ("bf6197692148", "93beaa778638", "baecf93e1357", "bf6197692148",
            "b23d83a2100d", "f0accb2b3235", "11eaf02f90a2", "de7ec02e1146",
            "e33007268f62", "e12a76e73686", "90938f914186", "90938f914186",
            "208a6919b738"),
}


@pytest.mark.parametrize("algebra", sorted(EVAL_DIGESTS))
def test_eval_output_is_pinned(capsys, algebra):
    digests = []
    for word in EVAL_WORDS:
        code, out, _ = run(capsys, "eval", "--algebra", algebra,
                           "--term", word)
        assert code == 0, word
        digests.append(hashlib.sha256(out.encode()).hexdigest()[:12])
    assert tuple(digests) == EVAL_DIGESTS[algebra]


def test_eval_of_a_two_by_two_block_is_pinned(capsys):
    # 79 781 bytes of a 2 -> 2 matrix printed from its flat positions
    code, out, _ = run(capsys, "eval", "--algebra", "A", "--term", "E[2,1,2]")
    assert code == 0 and len(out) == 79781
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e0ff4f42f2337e1ecfcfe215d9167e097916bbfb569fa55136b240920e96b5d2")


# Q[x]/(x^2) on the basis (1, x) with counit 1 on x and 0 on 1: the
# sphere evaluates to 0 and the torus to counit(2x) = 2
DUAL_NUMBERS = {
    "dim": 2, "basis": ["1", "x"],
    "mul": {"rows": 2, "cols": 4,
            "entries": [[0, 0, "1"], [1, 1, "1"], [1, 2, "1"]]},
    "unit": {"rows": 2, "cols": 1, "entries": [[0, 0, "1"]]},
    "comul": {"rows": 4, "cols": 2,
              "entries": [[1, 0, "1"], [2, 0, "1"], [3, 1, "1"]]},
    "counit": {"rows": 1, "cols": 2, "entries": [[0, 1, "1"]]},
}


def test_eval_with_a_zero_closed_scalar(capsys, tmp_path):
    path = tmp_path / "dual_numbers.json"
    path.write_text(json.dumps(DUAL_NUMBERS))

    def evaluated(term):
        code, out, err = run(capsys, "eval", "--algebra", f"file:{path}",
                             "--term", term)
        assert code == 0 and err == ""
        return out

    assert '"entries":[]' in evaluated("eta ; eps")
    assert json.loads(evaluated("(eta ; eps) * id[1]"))["matrix"] \
        == {"rows": 2, "cols": 2, "entries": []}
    assert json.loads(evaluated("E[0,1,0]"))["matrix"] \
        == {"rows": 1, "cols": 1, "entries": [[0, 0, "2"]]}


def test_eval_rejects_bad_terms_with_position(capsys):
    code, _, err = run(capsys, "eval", "--term", "mu ; mu")
    assert code == 2 and "position" in err
    code, _, err = run(capsys, "eval", "--term", "mu @")
    assert code == 2 and "position" in err


def test_verify_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--algebra", "qz5")
    assert code == 0
    assert out.count("pass") == 9
    # a broken algebra file is a verification failure, exit 1
    z = zqs3()
    broken = z.to_json_obj()
    broken["counit"] = {"rows": 1, "cols": 3, "entries": []}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    code, _, err = run(capsys, "verify", "--algebra", f"file:{path}")
    assert code == 1 and "counit" in err


@pytest.fixture
def verify_calls(monkeypatch):
    """The algebras passed to verify_frobenius, wherever it is called from,
    counted from an empty axiom-report cache."""
    from cobtqft import frobenius, tqft
    tqft.ensure_verified.cache_clear()
    calls = []
    original = frobenius.verify_frobenius

    def counting(a):
        calls.append(a)
        return original(a)

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("cobtqft")
                and getattr(module, "verify_frobenius", None) is original):
            monkeypatch.setattr(module, "verify_frobenius", counting)
    return calls


def test_file_algebra_verified_once_per_eval(capsys, tmp_path, verify_calls):
    path = tmp_path / "zqs3.json"
    path.write_text(zqs3().to_json())
    code, _, _ = run(capsys, "eval", "--algebra", f"file:{path}",
                     "--term", "delta ; mu")
    assert code == 0
    assert len(verify_calls) == 1


def test_file_algebra_verified_once_per_verify(capsys, tmp_path, verify_calls):
    path = tmp_path / "zqs3.json"
    path.write_text(zqs3().to_json())
    code, out, _ = run(capsys, "verify", "--algebra", f"file:{path}")
    assert code == 0
    assert out.count("pass") == 9 and "FAIL" not in out
    assert len(verify_calls) == 1


def test_scan_verifies_only_the_scanned_algebra(capsys, tmp_path,
                                                verify_calls):
    # A's matrices are compared with the scanned algebra's, not verified
    code, _, _ = run(capsys, "scan", "--algebra", "qz5", "--max-circles",
                     "1", "--max-genus", "1", "--max-closed", "1",
                     "--max-closed-genus", "1")
    assert code == 1
    assert [a.dim for a in verify_calls] == [5]
    # the matrix-size limit refuses before the axioms are checked
    verify_calls.clear()
    path = tmp_path / "c16.json"
    path.write_text(group_algebra(FiniteGroup.cyclic(16)).to_json())
    code, _, err = run(capsys, "scan", "--algebra", f"file:{path}",
                       "--max-circles", "3", "--max-genus", "0",
                       "--max-closed", "0", "--max-closed-genus", "0")
    assert code == 2 and "matrix entries" in err
    assert verify_calls == []


def test_verify_file_algebra_round_trip(capsys, tmp_path):
    path = tmp_path / "zqs3.json"
    path.write_text(zqs3().to_json())
    code, out, _ = run(capsys, "verify", "--algebra", f"file:{path}")
    assert code == 0


def test_golden(capsys):
    code, out, _ = run(capsys, "golden")
    assert code == 0
    assert out.count("pass") == 12 and "FAIL" not in out


def test_zsigmondy(capsys):
    code, out, _ = run(capsys, "zsigmondy", "--a", "2", "--b", "1", "--n", "7")
    assert code == 0 and out.strip() == "43"
    code, _, err = run(capsys, "zsigmondy", "--a", "2", "--b", "1", "--n", "3")
    assert code == 1 and "exceptional" in err
    code, _, err = run(capsys, "zsigmondy", "--a", "4", "--b", "2", "--n", "2")
    assert code == 2 and "coprime" in err


def test_scan_and_output_file(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "scan", "--max-circles", "1", "--max-genus", "1",
                     "--max-closed", "1", "--max-closed-genus", "1",
                     "--output", str(out_path))
    assert code == 0
    cert = json.loads(out_path.read_text())
    assert cert["verdict"] == "distinct"
    code, out, _ = run(capsys, "scan", "--algebra", "qz5", "--max-circles",
                       "1", "--max-genus", "1", "--max-closed", "1",
                       "--max-closed-genus", "1")
    assert code == 1
    assert json.loads(out)["verdict"] == "collision"


def test_scan_rejects_negative_bounds(capsys):
    code, out, err = run(capsys, "scan", "--max-circles", "-1")
    assert code == 2 and out == "" and "max_circles" in err


def test_separate(capsys, tmp_path):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps(e_block(1, 1, 1).to_json_obj()))
    right.write_text(json.dumps(e_block(1, 0, 1).to_json_obj()))
    code, out, _ = run(capsys, "separate", "--left", str(left),
                       "--right", str(right))
    assert code == 0
    obj = json.loads(out)
    assert obj["left"]["genera"] == [5]
    assert obj["right"]["genera"] == [4]
    assert obj["left"]["invariant"] != obj["right"]["invariant"]


def test_json_errors_name_their_file(capsys, tmp_path):
    # the left file is good, so only the path says which file is bad
    left = tmp_path / "left.json"
    left.write_text(json.dumps(e_block(1, 0, 1).to_json_obj()))
    malformed, binary = tmp_path / "malformed.json", tmp_path / "binary.json"
    malformed.write_text('{"components": [')
    binary.write_bytes(b"\xff\xfe{}")
    for right, message in ((malformed, "Expecting value"),
                           (binary, "can't decode byte 0xff")):
        code, out, err = run(capsys, "separate", "--left", str(left),
                             "--right", str(right))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {right}: ") and message in err
        assert len(err.encode()) < MAX_ERROR_BYTES, err


def test_separate_rejects_a_non_integer_genus(capsys, tmp_path):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    bad = e_block(1, 1, 1).to_json_obj()
    bad["components"][0]["genus"] = "x"
    left.write_text(json.dumps(bad))
    right.write_text(json.dumps(e_block(1, 0, 1).to_json_obj()))
    code, out, err = run(capsys, "separate", "--left", str(left),
                         "--right", str(right))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "genus" in err


def test_errors_do_not_echo_long_input_values(capsys, tmp_path):
    cases = []
    path = tmp_path / "dim.json"
    path.write_text(json.dumps({"dim": "x" * 10 ** 6}))
    cases.append((["verify", "--algebra", f"file:{path}"],
                  "'dim' must be an integer, got string"))
    ok, bad = tmp_path / "ok.json", tmp_path / "genus.json"
    ok.write_text(json.dumps(e_block(1, 0, 1).to_json_obj()))
    obj = e_block(1, 1, 1).to_json_obj()
    obj["components"][0]["genus"] = "y" * 10 ** 6
    bad.write_text(json.dumps(obj))
    cases.append((["separate", "--left", str(bad), "--right", str(ok)],
                  "'components[0].genus' must be an integer, got string"))
    circles = tmp_path / "circles.json"
    obj = e_block(1, 1, 1).to_json_obj()
    obj["components"][0]["in"] = [0] * 10 ** 6
    circles.write_text(json.dumps(obj))
    cases.append((["separate", "--left", str(circles), "--right", str(ok)],
                  "ingoing circles do not partition 0..0"))
    path = tmp_path / "row.json"
    obj = zqs3().to_json_obj()
    obj["mul"]["entries"][0][0] = "z" * 10 ** 6
    path.write_text(json.dumps(obj))
    cases.append((["verify", "--algebra", f"file:{path}"],
                  "matrix entry 0 must be [integer row, integer col, "
                  '"p/q" string], got [string, integer, string]'))
    # Fraction() would read the exponent and build a 10^10-digit integer
    exponent, repeated = zqs3().to_json_obj(), zqs3().to_json_obj()
    exponent["counit"]["entries"][0][2] = "1e10000000000"
    repeated["mul"]["entries"][1][:2] = repeated["mul"]["entries"][0][:2]
    for name, obj, message in (
            ("exponent", exponent,
             "'counit': matrix entry 0: the value is not a rational"),
            ("repeated", repeated,
             "'mul': matrix entry 1 repeats the position")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        cases.append((["verify", "--algebra", f"file:{path}"], message))
    # the longest integers that JSON and the command line parse
    big = 10 ** 4299

    def edited(obj, keys, value):
        inner = obj
        for key in keys[:-1]:
            inner = inner[key]
        inner[keys[-1]] = value
        path = tmp_path / f"big{len(cases)}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    for keys, value, message in (
            (("dim",), big, "'dim' exceeds the input limit 20"),
            (("mul", "rows"), big, "mul must be 3x9, and its shape differs"),
            (("mul", "rows"), -big, "a matrix shape must be nonnegative"),
            (("mul", "entries", 0, 0), big, "an entry lies outside")):
        path = edited(zqs3().to_json_obj(), keys, value)
        cases.append((["verify", "--algebra", f"file:{path}"], message))
    genus = ("components", 0, "genus")
    for keys, value, message in (
            (genus, big, "a genus exceeds the input limit 64"),
            (genus, -big, "a component has a negative genus"),
            (("in",), big, "64 circles per side"),
            (("in",), -big, "negative arity"),
            (("out",), big, "64 circles per side")):
        path = edited(e_block(1, 1, 1).to_json_obj(), keys, value)
        cases.append((["separate", "--left", path, "--right", str(ok)],
                      message))
    cases += [
        (["invariant", "--genus", str(big)],
         "a genus exceeds the input limit 64"),
        (["invariant", "--genus", str(-big)], "negative genus"),
        (["scan", "--max-circles", str(-big)], "max_circles must be >= 0"),
        (["zsigmondy", "--a", str(big), "--b", "1", "--n", "1"], "2^48"),
        (["zsigmondy", "--a", "3", "--b", str(-big), "--n", "1"],
         "need a > b >= 1"),
    ]
    # a term error names the token's kind and position, never its text
    name, digits = "a" * 100_000, "9" * 100_000
    for term, message in ((name, "unknown generator"),
                          (f"mu {name}", "trailing input: a name"),
                          (f"id[{name}]", "expected a number, found a name"),
                          (f"(mu {name}", "expected ')', found a name"),
                          (digits, "expected a generator, found a number"),
                          (f"id[{digits}]", "a number exceeds the limit 64"),
                          ("E[1,\u0663,1]", "unexpected character")):
        cases.append((["eval", "--term", term], message))
    for argv, message in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5, message
        assert code == 2 and out == "", argv[0]
        assert len(err.splitlines()) == 1 and message in err
        assert len(err.encode()) < MAX_ERROR_BYTES, err[:MAX_ERROR_BYTES]


def test_file_algebra_must_be_a_json_object(capsys, tmp_path):
    path = tmp_path / "array.json"
    path.write_text(json.dumps([zqs3().to_json_obj()]))
    code, out, err = run(capsys, "verify", "--algebra", f"file:{path}")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "JSON object" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["eval"])  # missing --term
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["scan", "--workers", "2"])  # no such option
    assert err.value.code == 2


def test_unknown_algebra_selector(capsys):
    code, _, err = run(capsys, "verify", "--algebra", "nope")
    assert code == 2 and "unknown algebra" in err


def test_eval_limits(capsys):
    cases = [
        ("zqs3", "E[1,1200,1]", "limit 64"),                 # number
        ("zqs3", "E[1,60,2] ; E[2,60,1]", "a genus exceeds"),  # genus 120
        ("zqs3", " ; ".join(["id[1]"] * 991), "500 tokens"),
        ("zqs3", "(" * 330 + "mu" + ")" * 330, "500 tokens"),
        ("A", " * ".join(["eta"] * 7), "matrix entries"),    # 15^7 entries
        ("zqs3", " * ".join(["eta"] * 15), "matrix entries"),
    ]
    for algebra, term, message in cases:
        code, out, err = run(capsys, "eval", "--algebra", algebra,
                             "--term", term)
        assert code == 2 and out == "" and message in err, term[:40]
        assert len(err.splitlines()) == 1
    # at the limits: genus 64, and 15^6 entries under A
    for algebra, term, arity in (("zqs3", "E[1,32,1] ; E[1,32,1]", (1, 1)),
                                 ("A", " * ".join(["eta"] * 6), (0, 6))):
        code, out, _ = run(capsys, "eval", "--algebra", algebra,
                           "--term", term)
        assert code == 0
        assert (json.loads(out)["in"], json.loads(out)["out"]) == arity


def test_genus_limit_of_invariant_and_separate(capsys, tmp_path):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps(e_block(1, 65, 1).to_json_obj()))
    right.write_text(json.dumps(e_block(1, 0, 1).to_json_obj()))
    code, out, err = run(capsys, "separate", "--left", str(left),
                         "--right", str(right))
    assert code == 2 and out == "" and "a genus exceeds the input limit 64" in err
    assert len(err.splitlines()) == 1
    code, out, _ = run(capsys, "invariant", "--algebra", "zqs3",
                       "--genus", "64")
    assert code == 0 and out.strip().endswith("/9223372036854775808")
    for genus in ("65", str(10 ** 9)):
        code, out, err = run(capsys, "invariant", "--genus", genus)
        assert code == 2 and out == "" and "exceeds the input limit" in err


def test_separate_circle_limit(capsys, tmp_path):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    for n, code_wanted in ((MAX_INPUT_CIRCLES, 0), (MAX_INPUT_CIRCLES + 1, 2)):
        left.write_text(json.dumps(identity(n).to_json_obj()))
        right.write_text(json.dumps(
            tensor(identity(n), e_block(0, 0, 0)).to_json_obj()))
        code, out, err = run(capsys, "separate", "--left", str(left),
                             "--right", str(right))
        assert code == code_wanted
        if code == 0:
            assert json.loads(out)["right"]["genera"] == [0] * (n + 1)
        else:
            assert out == "" and len(err.splitlines()) == 1
            assert "64 circles per side" in err


def test_eval_refuses_a_value_beyond_the_digit_limit(capsys, tmp_path):
    # qz5 with the counit scaled by 10^-4000 and the comultiplication by
    # 10^4000 is still Frobenius; each handle multiplies by 10^4000
    algebra = qz5()
    algebra = FrobeniusAlgebra(algebra.dim, algebra.mul, algebra.unit,
                               algebra.comul.scale(10 ** 4000),
                               algebra.counit.scale(F(1, 10 ** 4000)))
    path = tmp_path / "scaled.json"
    path.write_text(algebra.to_json())
    code, out, _ = run(capsys, "eval", "--algebra", f"file:{path}",
                       "--term", "delta ; mu")
    assert code == 0 and len(out) == 20116
    code, out, err = run(capsys, "eval", "--algebra", f"file:{path}",
                         "--term", "delta ; mu ; delta ; mu")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "limit of 4300 digits" in err


def test_separate_refuses_an_invariant_beyond_the_digit_limit(capsys,
                                                               tmp_path):
    # every circle on its own genus-64 piece; one side has an extra sphere
    K = Cobordism(MAX_INPUT_CIRCLES, MAX_INPUT_CIRCLES,
                  [component(ins, outs, MAX_INPUT_GENUS)
                   for i in range(MAX_INPUT_CIRCLES)
                   for ins, outs in (((i,), ()), ((), (i,)))])
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps(K.to_json_obj()))
    right.write_text(json.dumps(
        tensor(K, e_block(0, 0, 0)).to_json_obj()))
    code, out, err = run(capsys, "separate", "--left", str(left),
                         "--right", str(right))
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "limit of 4300 digits" in err


def _inputs_beyond_the_digit_limit(tmp_path):
    """Two command lines, each reading one number of 4 301 digits: qz5
    with the comultiplication scaled by 10^4400 and the counit by
    10^-4400, which is still Frobenius, and a closed genus."""
    obj = json.loads(qz5().to_json())
    for name, scale in (("comul", "{p}{z}/{q}"), ("counit", "{p}/{q}{z}")):
        for entry in obj[name]["entries"]:
            p, _, q = entry[2].partition("/")
            entry[2] = scale.format(p=p, q=q or 1, z="0" * 4400)
    algebra = tmp_path / "scaled.json"
    algebra.write_text(json.dumps(obj))
    big = tmp_path / "big.json"
    big.write_text('{"in": 0, "out": 0, "components": [], "closed": [1'
                   + "0" * 4300 + "]}")
    sphere = tmp_path / "sphere.json"
    sphere.write_text(json.dumps(e_block(0, 0, 0).to_json_obj()))
    return (("verify", "--algebra", f"file:{algebra}"),
            ("separate", "--left", str(big), "--right", str(sphere)))


def test_inputs_beyond_the_digit_limit_are_refused(capsys, tmp_path):
    for argv in _inputs_beyond_the_digit_limit(tmp_path):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert "4300 digits" in err and "int_max_str" not in err


def _package_env(**overrides: str) -> dict:
    """The environment for running the package in a subprocess, with
    `overrides` set."""
    import cobtqft
    src = os.path.dirname(os.path.dirname(cobtqft.__file__))
    return dict(os.environ, **overrides,
                PYTHONPATH=os.pathsep.join(
                    [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def test_scan_at_three_circles_per_side_is_pinned():
    # the one bound that evaluates 3 -> 3 matrices under A; a subprocess,
    # so the 1.1 M-entry block does not stay cached in this process
    proc = subprocess.run(
        [sys.executable, "-m", "cobtqft", "scan", "--max-circles", "3",
         "--max-genus", "0", "--max-closed", "0", "--max-closed-genus", "0"],
        env=_package_env(), capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        "dfa159553749bb3128b1a478c9dab29b5058eb45aa0c1d2db3983a95bce9bc6d"


def test_the_digit_limit_does_not_rest_on_the_interpreter(tmp_path):
    # with the interpreter's int-string limit switched off, the program's
    # own limit still refuses both inputs
    env = _package_env(PYTHONINTMAXSTRDIGITS="0")
    if hasattr(sys, "get_int_max_str_digits"):
        limit = subprocess.run(
            [sys.executable, "-c",
             "import sys; print(sys.get_int_max_str_digits())"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert limit.strip() == "0"
    for argv in _inputs_beyond_the_digit_limit(tmp_path):
        proc = subprocess.run([sys.executable, "-m", "cobtqft", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert "4300 digits" in proc.stderr


def test_invariant_refuses_a_value_beyond_the_digit_limit(tmp_path):
    # qz5 with the counit scaled by 10^4000 and the comultiplication by
    # 10^-4000 is still Frobenius; its closed genus-3 surface is
    # 5/10^8000, whose denominator passes the limit
    q = qz5()
    scaled = FrobeniusAlgebra(q.dim, q.mul, q.unit,
                              q.comul.scale(F(1, 10 ** 4000)),
                              q.counit.scale(10 ** 4000))
    path = tmp_path / "scaled.json"
    path.write_text(scaled.to_json())
    for limit in ("4300", "0"):
        proc = subprocess.run(
            [sys.executable, "-m", "cobtqft", "invariant", "--algebra",
             f"file:{path}", "--genus", "3"],
            env=_package_env(PYTHONINTMAXSTRDIGITS=limit),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert "limit of 4300 digits" in proc.stderr
        assert "int_max_str" not in proc.stderr


def test_separate_closed_piece_limit(capsys, tmp_path):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    right.write_text(json.dumps(identity(0).to_json_obj()))
    # 64 closed pieces of genus 64 already pass the digit limit
    for n, genus, code_wanted in ((MAX_INPUT_CLOSED, 1, 0),
                                  (MAX_INPUT_CLOSED + 1, 1, 2),
                                  (20_000, MAX_INPUT_GENUS, 2)):
        left.write_text(json.dumps(
            Cobordism(0, 0, (), [genus] * n).to_json_obj()))
        start = time.perf_counter()
        code, out, err = run(capsys, "separate", "--left", str(left),
                             "--right", str(right))
        assert code == code_wanted
        if code == 2:
            assert out == "" and len(err.splitlines()) == 1
            assert "64 closed pieces" in err
            assert time.perf_counter() - start < 1


def test_file_algebra_dim_limit(capsys, tmp_path):
    path = tmp_path / "big.json"
    obj = zqs3().to_json_obj()
    obj["dim"] = MAX_INPUT_DIM + 1
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--algebra", f"file:{path}")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "'dim' exceeds the input limit 20" in err


def test_scan_refuses_oversized_enumeration(capsys):
    code, out, err = run(capsys, "scan", "--max-closed", "100")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "more than 25000" in err


def test_scan_refuses_genus_bounds_above_the_limit(capsys):
    code, out, err = run(capsys, "scan", "--max-circles", "0",
                         "--max-genus", "0", "--max-closed", "1",
                         "--max-closed-genus", "6000")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "a genus exceeds the input limit 64" in err


def test_scan_refuses_matrices_above_the_eval_limit(capsys, tmp_path):
    # 16^6 entries pass the 15^6 limit of eval; the scan refuses before
    # it enumerates the 3 -> 3 class, and scans at two circles
    path = tmp_path / "c16.json"
    path.write_text(group_algebra(FiniteGroup.cyclic(16)).to_json())
    bounds = ["--max-genus", "0", "--max-closed", "0",
              "--max-closed-genus", "0"]
    code, out, err = run(capsys, "scan", "--algebra", f"file:{path}",
                         "--max-circles", "3", *bounds)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "a 3 -> 3 matrix under a 16-dimensional algebra" in err
    assert "11390625 matrix entries" in err
    code, out, _ = run(capsys, "scan", "--algebra", f"file:{path}",
                       "--max-circles", "2", *bounds)
    assert code in (0, 1) and json.loads(out)["enumerated"] == 34


def test_scan_refuses_bounds_whose_matrices_exceed_the_summed_limit(capsys):
    # each limit alone admits (3,1,0,0), but its matrices under A would
    # hold 2.8e10 entries in all; the scan refuses before it evaluates
    start = time.perf_counter()
    code, out, err = run(capsys, "scan", "--max-circles", "3",
                         "--max-genus", "1", "--max-closed", "0",
                         "--max-closed-genus", "0")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "hold more than 3000000000 entries in all" in err


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    for argv in (["separate", "--left", str(path), "--right", str(path)],
                 ["verify", "--algebra", f"file:{path}"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert len(err.splitlines()) == 1 and "nested too deeply" in err


def test_zsigmondy_limit(capsys):
    code, out, err = run(capsys, "zsigmondy", "--a", "2", "--b", "1",
                         "--n", "61")
    assert code == 2 and out == "" and "2^48" in err


# --- property test: every input exits 0, 1 or 2, errors on one line -----

def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    if code:
        assert len(err.splitlines()) == 1, err
        assert len(err.encode()) < MAX_ERROR_BYTES, err


ATOMS = st.one_of(
    st.sampled_from(["mu", "eta", "delta", "eps", "swap", "id", "E[1,1]",
                     "nu", "id[65]", "E[1,70,1]"]),
    st.builds("id[{}]".format, st.integers(0, 2)),
    st.builds("E[{},{},{}]".format, st.integers(0, 2), st.integers(0, 40),
              st.integers(0, 2)))
TERMS = st.recursive(ATOMS, lambda t: st.one_of(
    st.builds("{} ; {}".format, t, t), st.builds("{} * {}".format, t, t),
    st.builds("({})".format, t)), max_leaves=3)
# long names and digit runs, which an echoing error would copy whole, and
# digits and letters outside ASCII
RUNS = st.builds(str.__mul__, st.sampled_from(["a", "9", "x_1", "\u0663",
                                               "\uff19", "\u03bc"]),
                 st.integers(1, 10_000))
TERM_TEXT = st.one_of(TERMS, st.text("mutaeldsiwpE[],;*() 0123456789@",
                                     max_size=30),
                      st.builds("{}{}{}".format,
                                st.sampled_from(["", "mu ", "id[", "E[1,",
                                                 "(eta ; "]),
                                RUNS, st.sampled_from(["", "]", ",1]", ")"])))

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                 st.text(max_size=3), st.lists(st.integers(-1, 3), max_size=3),
                 st.dictionaries(st.text(max_size=2), st.integers(),
                                 max_size=2))


# mostly small, sometimes at or just above the genus limit
GENERA = st.integers(0, 19).map(lambda g: {18: 64, 19: 65}.get(g, g))


@st.composite
def cobordism_json(draw, n_in, n_out):
    labels = [("in", i) for i in range(n_in)] + [("out", j)
                                                  for j in range(n_out)]
    blocks = draw(st.lists(st.integers(0, 3), min_size=len(labels),
                           max_size=len(labels)))
    components = [{"in": [i for (side, i), b in zip(labels, blocks)
                          if side == "in" and b == block],
                   "out": [j for (side, j), b in zip(labels, blocks)
                           if side == "out" and b == block],
                   "genus": draw(GENERA)}
                  for block in sorted(set(blocks))]
    obj = {"in": n_in, "out": n_out, "components": components,
           "closed": draw(st.lists(GENERA, max_size=2))}
    if draw(st.integers(0, 3)) == 0:  # break one field, or a component's
        target = obj
        if components and draw(st.booleans()):
            target = draw(st.sampled_from(components))
        target[draw(st.sampled_from(sorted(target)))] = draw(JUNK)
    return obj


@st.composite
def cobordism_pair(draw):
    arities = [draw(st.integers(0, 2)) for _ in range(2)]
    if draw(st.integers(0, 3)) == 0:  # different arities
        return (draw(cobordism_json(*arities)),
                draw(cobordism_json(*reversed(arities))))
    return draw(cobordism_json(*arities)), draw(cobordism_json(*arities))


RATIONALS = st.one_of(st.integers(-3, 3).map(str),
                      st.builds("{}/{}".format, st.integers(-3, 3),
                                st.integers(1, 3)))


@st.composite
def algebra_json(draw):
    if draw(st.booleans()):
        obj = zqs3().to_json_obj()
    else:
        d = draw(st.integers(0, 4))
        obj = {"dim": d}
        for field, (rows, cols) in (("mul", (d, d * d)), ("unit", (d, 1)),
                                    ("comul", (d * d, d)),
                                    ("counit", (1, d))):
            cells = st.tuples(st.integers(0, max(rows - 1, 0)),
                              st.integers(0, max(cols - 1, 0)), RATIONALS)
            obj[field] = {"rows": rows, "cols": cols,
                          "entries": [list(c) for c in draw(
                              st.lists(cells, max_size=6))]}
    if draw(st.booleans()):  # break one field, or one matrix field
        target = obj
        if draw(st.booleans()):
            target = obj[draw(st.sampled_from(["mul", "unit", "comul",
                                               "counit"]))]
        target[draw(st.sampled_from(sorted(target)))] = draw(JUNK)
    return obj


@settings(max_examples=150, deadline=None, derandomize=True)
@given(TERM_TEXT)
def test_fuzz_eval_terms(term):
    assert_clean_exit(*run_quietly(["eval", "--algebra", "zqs3",
                                    "--term", term]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cobordism_pair())
def test_fuzz_separate_json(tmp_path_factory, pair):
    left, right = pair
    folder = tmp_path_factory.mktemp("separate")
    paths = []
    for name, obj in (("left", left), ("right", right)):
        paths.append(folder / f"{name}.json")
        paths[-1].write_text(json.dumps(obj))
    code, err = run_quietly(["separate", "--left", str(paths[0]),
                             "--right", str(paths[1])])
    assert_clean_exit(code, err)
    if code == 0:  # both files were within the genus limit
        assert all(c["genus"] <= MAX_INPUT_GENUS
                   for obj in (left, right) for c in obj["components"])
        assert max(left["closed"] + right["closed"] + [0]) <= MAX_INPUT_GENUS


@settings(max_examples=150, deadline=None, derandomize=True)
@given(algebra_json())
def test_fuzz_verify_file_algebras(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("verify") / "algebra.json"
    path.write_text(json.dumps(obj))
    assert_clean_exit(*run_quietly(["verify", "--algebra", f"file:{path}"]))


# --- property test: argv built from each subcommand's flags --------------

# each flag draws a good value or a bad one: a number out of range or
# malformed, an unknown algebra, a file that is missing, a directory or
# not the JSON the flag wants.  File values are names that `argv_files`
# resolves.
def numbers(good, out_of_range):
    return (st.sampled_from(good), st.sampled_from(
        out_of_range + ["x", "", "1.5", "0x10", "-v"]))


HUGE = str(10 ** 30)
NUMBERS = numbers(["0", "1", "2", "3"], ["-1", "65", HUGE])
# two or three circles only through the default, which `_costly_scan`
# mostly filters out
CIRCLES = numbers(["0", "1"], ["4", "-1", HUGE])
ALGEBRA = (st.sampled_from(["A", "qz5", "zqs3", "file:algebra"]),
           st.sampled_from(["nope", "", "file:", "file:missing", "file:dir",
                            "file:deep", "file:text", "file:cobordism"]))
TERM = (st.sampled_from(["delta ; mu", "mu", "eta * eta", "swap",
                         "E[2,1,2]", "delta ; swap ; mu"]),
        st.sampled_from(["id[6]", "E[1,65,1]", "mu @", "", "mu ; mu"]))
OUTPUT = (st.just("result.json"),
          st.sampled_from(["dir", "missing/result.json"]))
COBORDISM_FILE = (st.sampled_from(["cobordism", "other"]),
                  st.sampled_from(["algebra", "deep", "dir", "missing",
                                   "text"]))

# each subcommand's flags; scan bounds must either break a limit or
# admit few cobordisms (see `_costly_scan`), and zsigmondy exponents stay
# below 30 to keep trial division cheap
SUBCOMMANDS = {
    "eval": {"--algebra": ALGEBRA, "--term": TERM, "--output": OUTPUT},
    "invariant": {"--algebra": ALGEBRA, "--genus": NUMBERS,
                  "--output": OUTPUT},
    "verify": {"--algebra": ALGEBRA},
    "golden": {},
    "scan": {"--algebra": ALGEBRA, "--max-circles": CIRCLES,
             "--max-genus": NUMBERS, "--max-closed": NUMBERS,
             "--max-closed-genus": NUMBERS, "--output": OUTPUT},
    "zsigmondy": {"--a": numbers(["2", "3", "5"], ["1", "-1", HUGE]),
                  "--b": numbers(["1", "2"], ["0", "-1", HUGE]),
                  "--n": numbers([str(n) for n in range(1, 30)],
                                 ["0", "-2"]),
                  "--output": OUTPUT},
    "separate": {"--left": COBORDISM_FILE, "--right": COBORDISM_FILE,
                 "--output": OUTPUT},
}

FLAG_KINDS = st.sampled_from(["good"] * 6 + ["bad"] * 3 + ["bare", "missing"])


@st.composite
def argv_of_flags(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command]
    for flag, (good, bad) in SUBCOMMANDS[command].items():
        kind = draw(FLAG_KINDS)
        if kind != "missing":
            argv.append(flag)
        if kind in ("good", "bad"):
            argv.append(draw(good if kind == "good" else bad))
    if draw(st.integers(0, 9)) == 0:  # a stray argument
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--nope", "-x", "7", "--"])))
    return argv


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("argv")
    for name, text in (
            ("cobordism", json.dumps(e_block(1, 1, 1).to_json_obj())),
            ("other", json.dumps(e_block(1, 0, 2).to_json_obj())),
            ("algebra", zqs3().to_json()), ("deep", "[" * 200_000),
            ("text", "not json")):
        (folder / name).write_text(text)
    (folder / "dir").mkdir()
    return folder


def _resolve(argv, folder):
    """Point the symbolic file values of argv into `folder`."""
    names = {"cobordism", "other", "algebra", "deep", "dir", "missing",
             "text", "result.json", "missing/result.json"}
    out = []
    for value in argv:
        if value in names:
            value = str(folder / value)
        elif value.startswith("file:") and value[5:] in names:
            value = f"file:{folder / value[5:]}"
        out.append(value)
    return out


def _costly_scan(argv) -> bool:
    """Whether argv is a valid scan over more than 100 cobordisms."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            return False
    if args.command != "scan":
        return False
    try:
        bounds = ScanBounds(args.max_circles, args.max_genus,
                            args.max_closed, args.max_closed_genus)
    except ValueError:
        return False
    return bounds.cobordism_count() > 100


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv_of_flags())
def test_fuzz_cli_arguments(argv_files, argv):
    argv = _resolve(argv, argv_files)
    assume(not _costly_scan(argv))
    try:
        code, err = run_quietly(argv)
    except SystemExit as exit_:  # argparse: a usage error
        assert exit_.code == 2, argv
        event(f"{argv[0]}: usage error")
        return
    event(f"{argv[0]}: exit {code}")
    assert_clean_exit(code, err)
