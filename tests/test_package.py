import ast
import pathlib

import toeplitz_unitary


def test_all_names_resolve():
    missing = [name for name in toeplitz_unitary.__all__
               if not hasattr(toeplitz_unitary, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(set(toeplitz_unitary.__all__)) == len(toeplitz_unitary.__all__)


def test_no_test_module_imports_another():
    """Shared test code lives in helpers.py; test modules import only it."""
    offenders = []
    for path in sorted(pathlib.Path(__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {m}" for m in modules
                          if m.split(".")[-1].startswith("test_")]
    assert offenders == []
