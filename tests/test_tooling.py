import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kerrpol"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no runtime check may be one
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert sorted(p.name for p in SRC.glob("*.py"))   # the walk saw files
    assert found == []
