"""The public surface is a contract: every name in a ``src/repro``
``__all__`` needs a caller outside the module that defines it.

A name counts as used when a ``.py`` file under ``src/``, ``benchmarks/``,
``perfbench/`` or ``examples/`` other than its defining module and the
package ``__init__`` files that re-export it names it: as an
``ast.Name``, as the attribute of an ``ast.Attribute``, or as a string
constant outside ``import`` statements and ``__all__`` (``perfbench``
wraps functions by name).  The CI workflow counts too, by a word match,
because its smoke steps call the package from inline scripts.  Tests do
not count: a name only tests call is either deleted or listed in
``ALLOWED`` with a one-line reason.  A subpackage or submodule named in
a package ``__all__`` is skipped; its own ``__all__`` is checked.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "perfbench", "examples")
CALLER_TEXTS = (".github/workflows/ci.yml",)

# Exported names without a caller in the searched files, each with the
# reason it stays public.  A stale entry (no longer exported, or now
# used) fails ``test_allowlist_is_current``.
ALLOWED: dict[str, str] = {
    "ExperimentResult": "return type of `run_experiment`",
    "PredictResult": "return type of `InferenceEngine.predict`",
    "PlacementResult": "return type of `place`",
    "RoutingResult": "return type of `GlobalRouter.run`",
    "BookshelfError": "exception `read_design` raises on a malformed file",
    "StoreDegradedWarning": "warning category callers filter; "
                            "docs/reliability.md",
    "density_map": "test oracle for `compute_bin_density`",
    "overlap_count": "test oracle for `legalize`",
    "path_cells": "test oracle for the router's flat edge-id paths",
    "FaultRule": "fault plan entry of the chaos tests; docs/reliability.md",
    "install_faults": "installs a fault plan in the chaos tests",
    "clear_faults": "removes the fault plan between chaos tests",
}


def _literal_all(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "__all__"):
            return [elt.value for elt in node.value.elts]
    return None


def _module_file(package_dir: Path, relative: str) -> Path | None:
    """File of the submodule ``relative`` (dotted, no leading dot)."""
    base = package_dir.joinpath(*relative.split("."))
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def _defining_file(path: Path, name: str,
                   trees: dict[Path, ast.Module]) -> Path:
    """Follow ``from .x import name`` in a package ``__init__`` down to
    the module that defines ``name``."""
    if path.name != "__init__.py":
        return path
    for node in trees[path].body:
        if (isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module
                and any((a.asname or a.name) == name for a in node.names)):
            target = _module_file(path.parent, node.module)
            if target is not None and target in trees:
                return _defining_file(target, name, trees)
    return path


def _names_used(tree: ast.Module) -> set[str]:
    """Every name ``tree`` refers to, outside imports and ``__all__``."""
    skip: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skip.update(id(child) for child in ast.walk(node))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            skip.update(id(child) for child in ast.walk(node.value))
    used: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def unused_exports(root: Path, package: str = "src/repro",
                   caller_dirs=CALLER_DIRS, caller_texts=CALLER_TEXTS
                   ) -> dict[str, set[str]]:
    """Map ``module path -> exported names`` that nothing outside their
    defining module and re-exporting ``__init__`` files names."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for directory in caller_dirs
             for path in sorted((root / directory).rglob("*.py"))}
    uses = {path: _names_used(tree) for path, tree in trees.items()}
    texts = "\n".join((root / p).read_text() for p in caller_texts
                      if (root / p).is_file())

    owners: dict[tuple[str, Path], set[Path]] = {}
    for path, tree in trees.items():
        if not path.is_relative_to(root / package):
            continue
        for name in _literal_all(tree) or ():
            if path.name == "__init__.py" and _module_file(path.parent, name):
                continue  # a submodule: its own ``__all__`` is checked
            defining = _defining_file(path, name, trees)
            owners.setdefault((name, defining), {defining}).add(path)

    unused: dict[str, set[str]] = {}
    for (name, defining), exporters in owners.items():
        if any(name in names for path, names in uses.items()
               if path not in exporters):
            continue
        if re.search(rf"\b{re.escape(name)}\b", texts):
            continue
        module = defining.relative_to(root).as_posix()
        unused.setdefault(module, set()).add(name)
    return unused


def test_every_export_has_a_caller():
    unused = {module: sorted(names - ALLOWED.keys())
              for module, names in unused_exports(ROOT).items()}
    unused = {module: names for module, names in unused.items() if names}
    assert not unused, (
        "exported names with no caller outside their module (delete them, "
        f"drop them from __all__, or allowlist them with a reason): {unused}")


def test_allowlist_is_current():
    unused = set().union(*unused_exports(ROOT).values())
    stale = sorted(ALLOWED.keys() - unused)
    assert not stale, (
        f"allowlisted names that are no longer exported or now have a "
        f"caller; remove them from ALLOWED: {stale}")


def test_checker_reports_a_planted_unused_export(tmp_path):
    package = tmp_path / "src" / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .core import used, unused\n"
        "from . import sub\n"
        '__all__ = ["used", "unused", "sub"]\n')
    (package / "core.py").write_text(
        '__all__ = ["used", "unused", "helper"]\n'
        "def helper(): return 1\n"
        "def used(): return helper()\n"
        "def unused(): return helper()\n")
    (package / "sub" / "__init__.py").write_text(
        '__all__ = ["by_name"]\n'
        "def by_name(): pass\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "run.py").write_text(
        "from pkg import used, unused\n"
        "used()\n"
        'getattr(__import__("pkg.sub"), "by_name")\n')
    assert unused_exports(tmp_path, package="src/pkg",
                          caller_dirs=("src", "examples"),
                          caller_texts=()) == {
        "src/pkg/core.py": {"unused", "helper"}}
