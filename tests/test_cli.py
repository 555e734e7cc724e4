import json
import sys

import pytest

from cobtqft.cli import main
from cobtqft.frobenius import zqs3
from cobtqft.surface import e_block


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
    assert code == 2 and out == "" and "genus -1" in err
    assert len(err.splitlines()) == 1
    code, out, err = run(capsys, "invariant", "--algebra", "file:x", "--genus", "1")
    assert code == 2 and "closed form" in err


def test_eval_emits_header_and_matrix(capsys):
    code, out, _ = run(capsys, "eval", "--algebra", "zqs3",
                       "--term", "delta ; mu")
    assert code == 0
    obj = json.loads(out)
    assert (obj["in"], obj["out"], obj["dim"]) == (1, 1, 3)
    assert obj["matrix"]["rows"] == 3
    assert [0, 0, "3"] in obj["matrix"]["entries"]
    assert [2, 0, "3/2"] in obj["matrix"]["entries"]


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
    """The algebras passed to verify_frobenius, wherever it is called from."""
    from cobtqft import frobenius
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
