import ast
import hashlib
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cobtqft"
PERFBENCH = ROOT / "perfbench"


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements, so checks must raise explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py"))
    assert found == []


def test_optimized_command_line_keeps_the_certificate():
    # the same certificate bytes, and a passing golden check, with the
    # assert statements stripped; this also runs `python -m cobtqft`
    env = {**os.environ, "PYTHONPATH": "src"}

    def run(*argv):
        return subprocess.run([sys.executable, "-O", "-m", "cobtqft", *argv],
                              cwd=ROOT, env=env, capture_output=True,
                              timeout=300)

    scan = run("scan", "--max-circles", "2", "--max-genus", "1",
               "--max-closed", "1", "--max-closed-genus", "1")
    assert scan.returncode == 0, scan.stderr
    assert hashlib.sha256(scan.stdout).hexdigest() == (
        "e266bb0a569a6161e06ac854de576bce58455c605019377b7e8a8a2bcc62270d")
    golden = run("golden")
    assert golden.returncode == 0, golden.stdout


def test_no_floats_in_src():
    # exact rationals only: no float literal and no use of `float`
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if (isinstance(node, ast.Constant)
                      and isinstance(node.value, (float, complex)))
                  or (isinstance(node, ast.Name) and node.id == "float")]
    assert sorted(SRC.glob("*.py"))
    assert found == []


def test_benchmark_hooks_resolve(monkeypatch):
    # the benchmark traces these names and calls these attributes; a
    # deletion in src/ that breaks it should fail here too
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooks = [(module, attribute) for module, attribute, _ in tracer.TARGETS]
    assert ("exact", "RationalMatrix.key") in hooks

    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "cobtqft" for alias in node.names}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported}
    assert ("tqft", "evaluate") in used

    missing = []
    for module, attribute in hooks + sorted(used):
        owner = importlib.import_module(f"cobtqft.{module}")
        for name in attribute.split("."):
            owner = getattr(owner, name, None)
        if owner is None:
            missing.append(f"{module}.{attribute}")
    assert missing == []


def test_src_imports_only_the_standard_library():
    # runtime dependencies stay empty: every import in src/ is relative
    # or names a standard-library module
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert sorted(SRC.glob("*.py"))
    assert found == []
