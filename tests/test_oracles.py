"""The brute-force oracles stay independent of the package they check."""
import ast
from pathlib import Path


def test_oracles_import_nothing_from_tgkit():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # importlib.import_module("tgkit...") or __import__("tgkit...")
            if node.value.split(".")[0] == "tgkit":
                imported.append(node.value)
    assert [name for name in imported
            if name.split(".")[0] == "tgkit" or name.startswith(".")] == []
