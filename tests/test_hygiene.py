"""Source hygiene: every module-level private function has a caller."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "specalt"


def _references(node) -> Counter:
    """Names used in ``node``: bare names and attribute names."""
    refs: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
    return refs


def test_every_private_function_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            # calls from inside its own body (recursion) do not count
            if used[name] - _references(node)[name] <= 0:
                unused.append(f"{module}:{node.lineno} {name}")
    assert unused == []
