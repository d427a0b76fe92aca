"""``src/`` holds only what the product uses.

Every public function, class and method defined under ``src/`` must be
named somewhere the product runs: elsewhere in ``src/`` (its own
definition and ``__init__.py`` re-exports do not count), or anywhere
under ``examples/`` or ``benchmarks/``. A definition that only tests
name is test code; it belongs in ``tests/`` or nowhere.

The scan is one ``ast`` parse per source file for the definitions and
one identifier count per file for the uses, so docstrings and comments
that name a definition count as uses too.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORD = re.compile(r"[A-Za-z_]\w*")

#: Public definitions allowed to be named only by tests, with why.
ALLOWLIST = {
    "validate_workload": "a check on outside input (a workload against "
                         "the factory it runs on) that no caller wires "
                         "yet; repro simulate builds its workloads from "
                         "the topology itself",
}


def _usage_text(path: Path, tree: ast.Module, text: str) -> str:
    """*text* without an ``__init__.py``'s import lines and ``__all__``."""
    if path.name != "__init__.py":
        return text
    lines = text.splitlines()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "__all__"
                        for target in node.targets)):
            for index in range(node.lineno - 1, node.end_lineno):
                lines[index] = ""
    return "\n".join(lines)


def _definitions():
    """Per src/ file: its path, tree, text and public definitions."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        yield path, tree, text, [
            (f"{path.relative_to(ROOT)}:{node.lineno}", node.name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def _scan() -> list[str]:
    definitions = []
    used = Counter()
    for path, tree, text, found in _definitions():
        definitions += found
        used.subtract(name for _, name in found)  # their own ``def`` lines
        used.update(WORD.findall(_usage_text(path, tree, text)))
    for directory in ("examples", "benchmarks"):
        for path in (ROOT / directory).rglob("*.py"):
            used.update(WORD.findall(path.read_text()))
    named_by_tests = Counter()
    for path in (ROOT / "tests").rglob("*.py"):
        named_by_tests.update(WORD.findall(path.read_text()))
    return [f"{where} {name}" for where, name in definitions
            if used[name] <= 0 and named_by_tests[name]
            and name not in ALLOWLIST]


def test_no_public_src_definition_is_used_only_by_tests():
    offenders = _scan()
    assert not offenders, (
        "public src/ definitions named only under tests/ (delete them, "
        "move them into the test that uses them, or allowlist them with "
        "a reason):\n" + "\n".join(offenders))


def test_allowlist_stays_short_and_current():
    assert len(ALLOWLIST) <= 5
    assert all(reason.strip() for reason in ALLOWLIST.values())
    defined = {name for *_, found in _definitions() for _, name in found}
    assert set(ALLOWLIST) <= defined
