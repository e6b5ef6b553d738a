"""Static reachability: every module under ``src/repro`` is one a user run loads.

The roots are the runs users make: the ``repro`` command
(``repro.cli``, ``repro.__main__``), the figure registry, the fuzz
oracle map, every example (CI runs them) and every ``perfbench/``
script. ``tests/`` and ``benchmarks/`` are not roots: a module only
they import is dead code with tests.

The walk parses source and imports nothing. Its edges are:

* every ``import``/``from ... import`` at any depth, inside functions
  too; ``import a.b.c`` reaches ``a``, ``a.b`` and ``a.b.c``;
* a name imported from a package resolves to the submodule the
  package ``__init__`` re-exports it from, so an eager ``__init__``
  does not make all of its submodules reachable (an ``__init__``'s own
  imports are not edges);
* any string literal equal to a module name, such as the lazy export
  table of ``repro/__init__.py``.

A module outside the closure must be on the keep-list table in
``docs/architecture.md`` ("Reachability"), whose rows name the open
ROADMAP item that will reach each one. A keep-listed module that is
reached, or no longer exists, fails too, so the list only shrinks.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Set

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


def _reexports(package: str, modules: Dict[str, Path]) -> Dict[str, str]:
    """Name -> submodule that the package ``__init__`` imports it from."""
    path = modules[package]
    table = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                table[alias.asname or alias.name] = _source(node, path)
    return table


def _resolve(package: str, name: str, modules: Dict[str, Path]) -> Set[str]:
    """Modules that ``from package import name`` needs besides ``package``."""
    if f"{package}.{name}" in modules:
        return {f"{package}.{name}"}
    source = _reexports(package, modules).get(name)
    if source is None:
        return set()
    found = {p for p in _prefixes(source) if p in modules}
    if source in modules and _is_package(modules[source]) and source != package:
        found |= _resolve(source, name, modules)
    return found


def _edges(path: Path, modules: Dict[str, Path]) -> Set[str]:
    """Modules that loading the file at ``path`` reaches."""
    package_init = _is_package(path)
    found: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value in modules:
                found.add(node.value)
        elif package_init:
            continue
        elif isinstance(node, ast.Import):
            for alias in node.names:
                found.update(p for p in _prefixes(alias.name) if p in modules)
        elif isinstance(node, ast.ImportFrom):
            source = _source(node, path)
            found.update(p for p in _prefixes(source) if p in modules)
            if source in modules and _is_package(modules[source]):
                for alias in node.names:
                    found |= _resolve(source, alias.name, modules)
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


def test_package_reexport_reaches_only_its_source(tmp_path):
    src = _tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/cli.py": "from pkg.sub import Used\n",
        "pkg/sub/__init__.py": (
            "from pkg.sub.used import Used\nfrom pkg.sub.other import Other\n"
        ),
        "pkg/sub/used.py": "class Used: pass\n",
        "pkg/sub/other.py": "class Other: pass\n",
    })
    assert _problems(src, ["pkg/cli.py"]) == [
        "pkg.sub.other: reached by no root; delete it or keep-list it"
    ]
    (src / "pkg/cli.py").write_text("from pkg.sub import Used, Other\n")
    assert _problems(src, ["pkg/cli.py"]) == []


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
