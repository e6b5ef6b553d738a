"""Static reachability: every module under ``src/repro`` is one a user run
loads, and the import graph is narrow enough to show it.

The roots are the runs users make: the ``repro`` command
(``repro.cli``, ``repro.__main__``), the figure registry, the fuzz
oracle map, every example (CI runs them) and every ``perfbench/``
script. ``tests/`` and ``benchmarks/`` are not roots: a module only
they import is dead code with tests.

The walk parses source and imports nothing. Its edges are:

* every ``import``/``from ... import`` at any depth, inside functions
  too; ``import a.b.c`` reaches ``a``, ``a.b`` and ``a.b.c``, and
  ``from a.b import c`` reaches ``a.b.c`` when that is a module;
* any string literal equal to a module name, such as the lazy export
  tables of ``repro/__init__.py``, ``repro/runner/__init__.py`` and
  ``repro/fleet/__init__.py``.

A package ``__init__``'s own imports are not edges: importing
``repro.fleet.events`` should load what that module names, not every
sibling. ``test_package_inits_import_no_repro_module`` keeps the
``__init__`` files free of them, and the fresh-interpreter test checks
that a real import loads nothing outside the walker's closure.

A module outside the closure must be on the keep-list table in
``docs/architecture.md`` ("Reachability"), whose rows name the open
ROADMAP item that will reach each one. A keep-listed module that is
reached, or no longer exists, fails too, so the list only shrinks.

The same walker guards the shape of the graph: package ``__init__``
files import no ``repro`` module, every name is imported from the
module that defines it, imports sit at module level (``repro.cli``
alone defers its command modules, to keep ``repro --help`` light), the
graph of import statements has no cycle, and a fresh interpreter that
imports a module loads nothing outside its static closure.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Set

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
ARCHITECTURE = REPO_ROOT / "docs" / "architecture.md"


def module_files(src_root: Path) -> Dict[str, Path]:
    """Dotted module name -> source file, for every ``.py`` under ``src_root``."""
    modules = {}
    for path in sorted(src_root.rglob("*.py")):
        parts = list(path.relative_to(src_root).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _is_package(path: Path) -> bool:
    return path.name == "__init__.py"


def _prefixes(dotted: str) -> List[str]:
    parts = dotted.split(".")
    return [".".join(parts[: i + 1]) for i in range(len(parts))]


def _source(node: ast.ImportFrom, path: Path) -> str:
    """The module an ``ImportFrom`` reads from; relative imports are not resolved."""
    assert not node.level, f"{path}:{node.lineno}: relative import"
    return node.module or ""


def _import_edges(tree: ast.AST, path: Path, modules: Dict[str, Path]) -> Set[str]:
    """Modules the import statements of ``tree`` name, at any depth."""
    found: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.update(p for p in _prefixes(alias.name) if p in modules)
        elif isinstance(node, ast.ImportFrom):
            source = _source(node, path)
            found.update(p for p in _prefixes(source) if p in modules)
            found.update(
                f"{source}.{alias.name}"
                for alias in node.names
                if f"{source}.{alias.name}" in modules
            )
    return found


def _edges(path: Path, modules: Dict[str, Path]) -> Set[str]:
    """Modules that loading the file at ``path`` reaches."""
    tree = ast.parse(path.read_text())
    found = set() if _is_package(path) else _import_edges(tree, path, modules)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value in modules:
                found.add(node.value)
    return found


def reachable(src_root: Path, roots: Iterable[Path]) -> Set[str]:
    """Modules under ``src_root`` that the ``roots`` files reach."""
    modules = module_files(src_root)
    names = {path.resolve(): name for name, path in modules.items()}
    reached: Set[str] = set()
    todo = []
    for root in roots:
        name = names.get(Path(root).resolve())
        if name is not None:
            reached.add(name)
        todo.extend(_edges(Path(root), modules))
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_edges(modules[name], modules))
    return reached


def reachability_problems(
    src_root: Path, roots: Iterable[Path], keep_list: Iterable[str]
) -> List[str]:
    """One line per unreached, unlisted module and per stale keep-list row."""
    modules = module_files(src_root)
    reached = reachable(src_root, roots)
    keep = set(keep_list)
    problems = []
    for name, path in sorted(modules.items()):
        if _is_package(path):
            continue
        if name in keep and name in reached:
            problems.append(f"{name}: keep-listed but reached; delete its row")
        elif name not in keep and name not in reached:
            problems.append(f"{name}: reached by no root; delete it or keep-list it")
    for name in sorted(keep - set(modules)):
        problems.append(f"{name}: keep-listed but no longer exists; delete its row")
    return problems


def repo_roots() -> List[Path]:
    """The entry points of the runs users make."""
    package = SRC_ROOT / "repro"
    return [
        package / "cli.py",
        package / "__main__.py",
        package / "runner" / "registry.py",
        package / "fuzz" / "oracles.py",
        *sorted((REPO_ROOT / "examples").glob("*.py")),
        *sorted((REPO_ROOT / "perfbench").glob("*.py")),
    ]


def import_graph(src_root: Path) -> Dict[str, Set[str]]:
    """Module -> the modules its import statements name, at any depth.

    Package ``__init__`` files count like any module; string literals
    are not imports, so the lazy export tables add no edge.
    """
    modules = module_files(src_root)
    return {
        name: _import_edges(ast.parse(path.read_text()), path, modules) - {name}
        for name, path in modules.items()
    }


def import_cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """The strongly connected components of ``graph`` with two or more
    modules (Tarjan's algorithm), each sorted."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    stack: List[str] = []
    cycles: List[List[str]] = []

    def visit(name: str) -> None:
        index[name] = low[name] = len(index)
        stack.append(name)
        for target in sorted(graph[name]):
            if target not in index:
                visit(target)
                low[name] = min(low[name], low[target])
            elif target in stack:
                low[name] = min(low[name], index[target])
        if low[name] == index[name]:
            component = []
            while not component or component[-1] != name:
                component.append(stack.pop())
            if len(component) > 1:
                cycles.append(sorted(component))

    for name in sorted(graph):
        if name not in index:
            visit(name)
    return cycles


def _names_repro(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "repro" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "repro"
    return False


def nested_imports(path: Path) -> List[int]:
    """Lines of ``repro`` imports that are not statements of the module
    body: inside a function, a class, an ``if`` or a ``try``."""
    tree = ast.parse(path.read_text())
    top = {id(node) for node in tree.body}
    return [
        node.lineno
        for node in ast.walk(tree)
        if _names_repro(node) and id(node) not in top
    ]


def _definitions(path: Path) -> Set[str]:
    """Names the module at ``path`` binds itself: defs, classes and
    assignments, not imports."""
    names: Set[str] = set()
    todo = list(ast.parse(path.read_text()).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                )
        elif isinstance(node, (ast.If, ast.Try)):
            todo.extend(node.body + node.orelse + getattr(node, "finalbody", []))
    return names


def imports_not_from_definer(
    src_root: Path, files: Iterable[Path]
) -> List[str]:
    """One line per ``from repro.m import name`` whose ``name`` is
    neither a submodule of ``m`` nor defined by ``m`` itself."""
    modules = module_files(src_root)
    defined: Dict[str, Set[str]] = {}
    problems = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.module in modules):
                continue
            if node.module not in defined:
                defined[node.module] = _definitions(modules[node.module])
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}" in modules
                if not submodule and alias.name not in defined[node.module]:
                    problems.append(
                        f"{path}:{node.lineno}: {alias.name} is not defined "
                        f"in {node.module}"
                    )
    return problems


_KEEP_ROW = re.compile(r"^\|\s*`(repro(?:\.\w+)+)`\s*\|")


def _keep_rows() -> List[str]:
    """Table rows of the "Reachability" section of the architecture doc."""
    section = ARCHITECTURE.read_text().split("\n## Reachability\n", 1)[1]
    lines = section.split("\n## ", 1)[0].splitlines()
    return [line for line in lines if _KEEP_ROW.match(line)]


def test_every_module_is_reached_or_keep_listed():
    keep = [_KEEP_ROW.match(row).group(1) for row in _keep_rows()]
    problems = reachability_problems(SRC_ROOT, repo_roots(), keep)
    assert not problems, "\n".join(problems)


def test_keep_list_rows_name_a_roadmap_item():
    rows = _keep_rows()
    assert rows
    for row in rows:
        assert re.search(r"item \d+", row), row


# The shape of the import graph.


def test_import_graph_has_no_cycle():
    assert import_cycles(import_graph(SRC_ROOT)) == []


def test_package_inits_import_no_repro_module():
    inits = [path for path in module_files(SRC_ROOT).values() if _is_package(path)]
    assert inits
    offenders = [
        f"{path}:{node.lineno}"
        for path in inits
        for node in ast.walk(ast.parse(path.read_text()))
        if _names_repro(node)
    ]
    assert offenders == []


def test_nested_repro_imports_only_in_cli():
    """``repro.cli`` defers its command modules so that ``repro --help``
    and argument errors stay light; every other import is at module
    level, so each module's imports are its first lines."""
    offenders = {
        name: lines
        for name, path in module_files(SRC_ROOT).items()
        if name != "repro.cli" and (lines := nested_imports(path))
    }
    assert offenders == {}


def test_every_name_is_imported_from_its_defining_module():
    """One import path per name. ``perfbench/`` is exempt: it reads the
    lazy tables of ``repro.runner`` and ``repro.fleet`` (ROADMAP item 7
    moves its imports)."""
    files = [
        path
        for root in (SRC_ROOT, REPO_ROOT / "tests", REPO_ROOT / "benchmarks",
                     REPO_ROOT / "examples")
        for path in sorted(root.rglob("*.py"))
    ]
    assert imports_not_from_definer(SRC_ROOT, files) == []


@pytest.mark.parametrize(
    "module",
    [
        "repro.fleet.events",
        # The modules of every registry job callable.
        "repro.core.lotecc_arcc",
        "repro.fleet.engine",
        "repro.fuzz.campaign",
        "repro.perf.engine",
        "repro.reliability.montecarlo",
    ],
)
def test_fresh_import_loads_only_its_static_closure(module):
    code = (
        f"import sys, {module}\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    path = os.pathsep.join(filter(None, [str(SRC_ROOT), os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    modules = module_files(SRC_ROOT)
    closure = reachable(SRC_ROOT, [modules[name] for name in _prefixes(module)])
    assert module in loaded
    assert sorted(set(loaded) - closure) == []


# The walker on throwaway package trees: each case below decides the result.


def _tree(tmp_path: Path, files: Dict[str, str]) -> Path:
    src = tmp_path / "src"
    for relative, text in files.items():
        path = src / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return src


def _problems(src: Path, roots: List[str], keep=()) -> List[str]:
    return reachability_problems(src, [src / root for root in roots], keep)


def test_module_nothing_imports_is_reported(tmp_path):
    src = _tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/cli.py": "import pkg.used\n",
        "pkg/used.py": "",
        "pkg/orphan.py": "",
    })
    assert _problems(src, ["pkg/cli.py"]) == [
        "pkg.orphan: reached by no root; delete it or keep-list it"
    ]
    assert _problems(src, ["pkg/cli.py"], keep=["pkg.orphan"]) == []


def test_import_inside_a_function_is_an_edge(tmp_path):
    src = _tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/cli.py": "def main():\n    from pkg import lazy\n    return lazy\n",
        "pkg/lazy.py": "",
    })
    assert _problems(src, ["pkg/cli.py"]) == []
    (src / "pkg/cli.py").write_text("def main():\n    return None\n")
    assert _problems(src, ["pkg/cli.py"]) == [
        "pkg.lazy: reached by no root; delete it or keep-list it"
    ]


def test_string_literal_module_name_is_an_edge(tmp_path):
    src = _tree(tmp_path, {
        "pkg/__init__.py": '_LAZY = {"Thing": ("pkg.thing", "Thing")}\n',
        "pkg/cli.py": "import pkg\n",
        "pkg/thing.py": "class Thing: pass\n",
    })
    assert _problems(src, ["pkg/cli.py"]) == []
    (src / "pkg/__init__.py").write_text('_LAZY = {"Thing": ("pkg.gone", "Thing")}\n')
    assert _problems(src, ["pkg/cli.py"]) == [
        "pkg.thing: reached by no root; delete it or keep-list it"
    ]


def test_stale_keep_list_rows_are_reported(tmp_path):
    src = _tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/cli.py": "import pkg.used\n",
        "pkg/used.py": "",
    })
    assert _problems(src, ["pkg/cli.py"], keep=["pkg.used", "pkg.gone"]) == [
        "pkg.used: keep-listed but reached; delete its row",
        "pkg.gone: keep-listed but no longer exists; delete its row",
    ]


def test_roots_outside_the_source_tree(tmp_path):
    src = _tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/used.py": "",
    })
    example = tmp_path / "examples" / "demo.py"
    example.parent.mkdir()
    example.write_text("import sys\nfrom pkg import used\n")
    assert reachability_problems(src, [example], ()) == []
    assert reachable(src, [example]) == {"pkg", "pkg.used"}


def test_import_cycle_is_reported(tmp_path):
    src = _tree(tmp_path, {
        "pkg/__init__.py": '_LAZY = {"Thing": ("pkg.a", "Thing")}\n',
        "pkg/a.py": "import pkg.b\n",
        "pkg/b.py": "def later():\n    from pkg import c\n",
        "pkg/c.py": "from pkg.a import Thing\n",
    })
    assert import_cycles(import_graph(src)) == [["pkg.a", "pkg.b", "pkg.c"]]
    (src / "pkg/c.py").write_text("")
    assert import_cycles(import_graph(src)) == []


def test_import_from_a_module_that_only_imports_the_name(tmp_path):
    src = _tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/defs.py": "class Thing: pass\nif True:\n    LIMIT = 1\n",
        "pkg/user.py": "from pkg.defs import LIMIT, Thing\n",
        "pkg/cli.py": "from pkg.user import Thing\nfrom pkg import defs\n",
    })
    files = sorted(src.rglob("*.py"))
    assert imports_not_from_definer(src, files) == [
        f"{src / 'pkg/cli.py'}:1: Thing is not defined in pkg.user"
    ]
