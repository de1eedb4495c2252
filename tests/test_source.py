import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "graphmub"


def test_no_bare_assert_in_package():
    # invariants must still be checked under `python -O`, which strips asserts
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
