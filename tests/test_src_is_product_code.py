"""``src/`` holds only what the product uses.

Every public function, class and method defined under ``src/`` must be
used somewhere the product runs: in ``src/``, ``examples/`` or
``benchmarks/``, outside its own definition. Tests do not count. A
definition that only tests use is test code; it belongs in ``tests/``
or nowhere.

Only identifiers count as uses: a ``Name`` or ``Attribute`` node, a
keyword argument's name, and a ``from m import name`` outside an
``__init__.py`` (whose re-exports only publish a name). Docstrings,
comments and ``__all__`` strings do not. A method of a class derived
from a class defined outside ``src/`` counts as used: the outside base
(``BaseHTTPRequestHandler`` calling ``do_GET``, say) may call it by
name.

A name imported into a ``src/`` module other than an ``__init__.py``
must also be used in that module: as a ``Name`` node, or inside a
quoted annotation (the one use a ``TYPE_CHECKING`` import gets).
"""

import ast
from collections import Counter
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Public definitions allowed to go unused by the product, with why.
ALLOWLIST = {
    "validate_workload": "a check on outside input (a workload against "
                         "the factory it runs on) that no caller wires "
                         "yet; repro simulate builds its workloads from "
                         "the topology itself",
    "install_plan": "the seam through which tests/service/"
                    "test_resilience.py installs a fault plan in the "
                    "server threads that a running service starts",
    "uninstall_plan": "removes what install_plan installed; the same "
                      "seam for tests/service/test_resilience.py",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST, in_init: bool) -> list[str]:
    """The identifiers *node* itself uses (not its children)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.keyword) and node.arg:
        return [node.arg]
    if isinstance(node, ast.ImportFrom) and not in_init:
        return [alias.name for alias in node.names]
    return []


def _base_name(base: ast.expr) -> str | None:
    """The class name a base expression ends in (``Generic[T]`` → Generic)."""
    if isinstance(base, ast.Subscript):
        base = base.value
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None


@cache
def _scan(root: Path = ROOT) -> tuple[str, ...]:
    """``path:line name`` for each public src/ definition nothing uses."""
    definitions = []  # (path, node) for every src/ definition
    used = Counter()  # identifier -> uses anywhere
    own = Counter()  # id(definition) -> uses of its name inside itself

    def visit(node, enclosing, in_init, in_src, path):
        for name in _names(node, in_init):
            used[name] += 1
            for definition in enclosing:
                if definition.name == name:
                    own[id(definition)] += 1
        if isinstance(node, _DEFINITIONS):
            if in_src:
                definitions.append((path, node))
            enclosing = (*enclosing, node)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, in_init, in_src, path)

    for directory in ("src", "examples", "benchmarks"):
        for path in sorted((root / directory).rglob("*.py")):
            visit(ast.parse(path.read_text()), (), path.name == "__init__.py",
                  directory == "src", path)

    class_defs = [node for _, node in definitions
                  if isinstance(node, ast.ClassDef)]
    classes = {node.name: node for node in class_defs}

    def derives_from_outside(cls: ast.ClassDef, seen=()) -> bool:
        for base in map(_base_name, cls.bases):
            if base in seen or base == "object":
                continue
            if base not in classes or derives_from_outside(
                    classes[base], (*seen, cls.name)):
                return True
        return False

    hooks = {id(child) for cls in class_defs if derives_from_outside(cls)
             for child in cls.body if isinstance(child, _DEFINITIONS)}
    return tuple(f"{path.relative_to(root)}:{node.lineno} {node.name}"
                 for path, node in definitions
                 if not node.name.startswith("_") and id(node) not in hooks
                 and used[node.name] - own[id(node)] <= 0)


def test_no_public_src_definition_is_used_only_by_tests():
    offenders = [entry for entry in _scan()
                 if entry.split()[-1] not in ALLOWLIST]
    assert not offenders, (
        "public src/ definitions that nothing outside tests/ uses "
        "(delete them, move them into the test that uses them, or "
        "allowlist them with a reason):\n" + "\n".join(offenders))


def test_allowlist_stays_short_and_current():
    assert len(ALLOWLIST) <= 5
    assert all(reason.strip() for reason in ALLOWLIST.values())
    assert set(ALLOWLIST) <= {entry.split()[-1] for entry in _scan()}


def _tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def _flagged(root: Path) -> set[str]:
    return {entry.split()[-1] for entry in _scan(root)}


def test_scan_flags_a_definition_named_only_in_prose(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py":
            '"""Call ``helper`` and ``unnamed``."""\n'
            "from pkg.mod import helper, unnamed\n"
            "__all__ = ['helper', 'unnamed']\n",
        "src/pkg/mod.py":
            "def helper():\n"
            "    return helper  # its own name inside its def\n"
            "def unnamed():\n"
            "    pass\n"
            "def main():\n"
            "    # helper() is only named in this comment\n"
            "    return 'helper'\n",
        "examples/run.py": "import pkg.mod\npkg.mod.main()\n",
    })
    assert _flagged(root) == {"helper", "unnamed"}


def test_scan_counts_identifier_uses_and_outside_hooks(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/mod.py":
            "from http.server import BaseHTTPRequestHandler\n"
            "class Base(BaseHTTPRequestHandler):\n"
            "    pass\n"
            "class Handler(Base):\n"
            "    def do_GET(self):\n"
            "        pass\n"
            "class Local:\n"
            "    def unused(self):\n"
            "        pass\n"
            "class Child(Local):\n"
            "    def also_unused(self):\n"
            "        pass\n"
            "def imported():\n"
            "    pass\n"
            "def keyword_target(value):\n"
            "    pass\n",
        "src/pkg/other.py":
            "from pkg.mod import imported, Handler, Child\n"
            "def main():\n"
            "    return Child, Handler\n"
            "def call(f):\n"
            "    return f(keyword_target=1)\n",
        "benchmarks/bench.py": "from pkg.other import main, call\n",
    })
    assert _flagged(root) == {"unused", "also_unused"}


def _quoted_names(tree: ast.AST) -> set[str]:
    """Names inside the string annotations of *tree* (``"FaultPlan"``,
    ``Callable[["QueuedJob"], tuple]``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Subscript):
            annotations.append(node.slice)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    expression = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(name.id for name in ast.walk(expression)
                             if isinstance(name, ast.Name))
    return names


def _unused_imports(root: Path = ROOT) -> list[str]:
    """``path:line name`` for each name imported into a src/ module other
    than an ``__init__.py`` and not used there."""
    offenders = []
    for path in sorted((root / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)} | _quoted_names(tree)
        offenders += [f"{path.relative_to(root)}:{line} {name}"
                      for name, line in imported.items() if name not in used]
    return offenders


def test_no_src_module_imports_a_name_it_does_not_use():
    offenders = _unused_imports()
    assert not offenders, (
        "names imported into src/ modules and never used there:\n"
        + "\n".join(offenders))


def test_import_scan_reads_quoted_annotations(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/__init__.py": "from pkg.mod import unused\n",
        "src/pkg/mod.py":
            "from __future__ import annotations\n"
            "import os.path\n"
            "import json as codec\n"
            "from typing import TYPE_CHECKING, Callable\n"
            "if TYPE_CHECKING:\n"
            "    from pkg.other import Quoted, Aliased, Unused\n"
            "Key = Callable[['Aliased'], tuple]\n"
            "def f(x: 'Quoted') -> None:\n"
            "    return os.path.join('Unused', 'codec')\n",
    })
    assert _unused_imports(root) == [
        "src/pkg/mod.py:3 codec", "src/pkg/mod.py:6 Unused"]
