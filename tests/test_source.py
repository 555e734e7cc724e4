import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cobtqft"


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements, so checks must raise explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py"))
    assert found == []


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
