"""Source hygiene: every module-level private function has a caller,
every public name of the package has a reader outside the tests, every
parameter of a function in the package is read by its body, no check
in the package or its scripts is an ``assert`` (``python -O`` strips
those), nothing in the package, its tests or its scripts reads the
environment, the Seifert oracle stays off the pipeline, nothing in the
package imports ``fractions``, and a serial table run loads no process
pool."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "specalt"


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


# Public names kept although only the tests read them today, with the reason.
TEST_ONLY_PUBLIC = {
    # Reads back the move logs that ``Move.to_json`` emits; the checker that
    # replays emitted certificates without search (ROADMAP.md, item 5) is
    # its first caller outside the tests.
    "move_from_json",
}


def test_every_public_name_has_a_reader_outside_tests():
    """Every public module-level function and class of the package, and
    every public method, is referenced by name from the package outside
    its own body, from ``scripts/`` or from ``perfbench/``: nothing ships
    that only a test reads.  Re-exports in ``__init__`` do not count."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            used += _references(ast.parse(path.read_text(), filename=str(path)))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for sub in [node, *members]:
                # uses inside its own body (recursion, a class naming itself)
                # do not count
                if (isinstance(sub, kinds) and not sub.name.startswith("_")
                        and sub.name not in TEST_ONLY_PUBLIC
                        and used[sub.name] - _references(sub)[sub.name] <= 0):
                    unread.append(f"{module}:{sub.lineno} {sub.name}")
    assert unread == []


def test_every_parameter_is_read():
    """Every parameter of every function and lambda in the package, the
    ``self`` or ``cls`` of a method aside, is read in its body (nested
    functions included): no argument is passed only to be dropped."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                      *(p for p in (a.vararg, a.kwarg) if p is not None)]
            body = node.body if isinstance(node.body, list) else [node.body]
            reads = {sub.id for stmt in body for sub in ast.walk(stmt)
                     if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.name}:{node.lineno} {name}({p.arg})" for p in params
                       if p.arg not in reads and p.arg not in ("self", "cls")]
    assert unread == []


def test_no_assert_statements():
    """No check in the package or its scripts is an ``assert``."""
    paths = [path for folder in (SRC, ROOT / "scripts")
             for path in sorted(folder.glob("*.py"))]
    asserts = [f"{path.relative_to(ROOT)}:{node.lineno}"
               for path in paths
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.Assert)]
    assert asserts == []


def test_no_environment_reads():
    """Settings come from arguments only; no module, test or script reads
    the environment."""
    paths = [path for folder in (SRC, ROOT / "tests", ROOT / "scripts")
             for path in sorted(folder.glob("*.py"))]
    reads = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
             or (isinstance(node, ast.Name) and node.id in ("environ", "getenv"))]
    assert reads == []


def _imported_modules(tree) -> set[str]:
    """Dotted names of the modules a tree imports, relative imports
    resolved inside the package: ``from . import seifert`` and
    ``from .seifert import x`` both name ``specalt.seifert``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ("specalt." + (node.module or "") if node.level
                    else node.module or "").rstrip(".")
            out.add(base)
            out |= {f"{base}.{alias.name}" for alias in node.names}
    return out


def test_only_package_init_imports_seifert():
    """The Seifert-matrix oracle is the tests' reference route: no module
    of the package but ``__init__`` imports it, so the pipeline cannot
    call it."""
    importers = [path.name for path in sorted(SRC.glob("*.py"))
                 if path.name != "__init__.py"
                 and "specalt.seifert" in _imported_modules(
                     ast.parse(path.read_text(), filename=str(path)))]
    assert importers == []


def test_no_module_imports_fractions():
    """Every number the package computes is an integer: no module of it
    imports ``fractions``."""
    importers = [path.name for path in sorted(SRC.glob("*.py"))
                 if "fractions" in _imported_modules(
                     ast.parse(path.read_text(), filename=str(path)))]
    assert importers == []


def test_serial_table_run_loads_no_process_pool():
    """``analyze_all(jobs=1)`` imports neither ``concurrent.futures`` nor
    ``multiprocessing``: only ``jobs > 1`` pays for the pool."""
    code = f"""
import sys
sys.path.insert(0, {str(ROOT / "src")!r})
import specalt
from specalt.tables import analyze_all, load_bundled_fixtures
records, errors = load_bundled_fixtures()
rows = analyze_all(records[:2], jobs=1)
print(len(rows), all(row.ok for row in rows))
print(sorted(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True).stdout.split("\n")
    assert out[:2] == ["2 True", "[]"]
