"""Every module under ``src/repro`` is imported from an entry point.

The entry points are the CLI (``repro.cli`` and ``python -m repro``),
``examples/``, ``bench/`` and ``benchmarks/``.  The walk reads files with
``ast`` and runs none of them.  It follows ``import`` and
``from ... import`` statements through ``src/repro``:

- a package ``__init__`` only re-exports, so importing a name from a
  package reaches the submodule that defines that name;
- a bare ``import repro.x`` (or ``from repro import x``) reaches every
  submodule the package re-exports;
- a package's own re-exports are not a use.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_MODULES = ("repro.cli", "repro.__main__")
ENTRY_DIRS = ("examples", "bench", "benchmarks")

ALLOWLIST = {
    # Provenance of the frozen DEVICE_PROFILES coefficients; TestCalibration
    # checks its anchor table and a re-fit starts from its least squares.
    "repro.latency.calibration",
    # The finite-difference gradient oracle the tensor tests compare against.
    "repro.tensor.grad_check",
}


def _module_paths() -> tuple[dict[str, Path], set[str]]:
    modules: dict[str, Path] = {}
    packages: set[str] = set()
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
            packages.add(".".join(parts))
        modules[".".join(parts)] = path
    return modules, packages


MODULES, PACKAGES = _module_paths()


def _imports(path: Path) -> list[tuple[str, str | None, str]]:
    """``(module, name, bound name)`` per imported name; ``name`` is None
    for a bare ``import module``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(alias.name, None, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found += [(node.module, alias.name, alias.asname or alias.name) for alias in node.names]
    return found


def _reached_by(module: str, name: str | None) -> set[str]:
    """Modules that importing ``name`` from ``module`` (or all of it) reaches."""
    if name is not None and f"{module}.{name}" in MODULES:
        return {f"{module}.{name}"}
    if module not in MODULES:
        return set()
    if module not in PACKAGES or name is None:
        return {module}
    reached: set[str] = set()
    for source, source_name, bound in _imports(MODULES[module]):
        if bound == name:
            reached |= _reached_by(source, source_name)
    return reached


def reachable_modules() -> set[str]:
    """Every module an entry point imports, directly or transitively."""
    entry_files = [path for d in ENTRY_DIRS for path in sorted((ROOT / d).rglob("*.py"))]
    queue = list(ENTRY_MODULES)
    for path in entry_files:
        queue += [m for module, name, _ in _imports(path) for m in _reached_by(module, name)]
    seen: set[str] = set()
    while queue:
        module = queue.pop()
        if module not in seen:
            seen.add(module)
            for source, name, _ in _imports(MODULES[module]):
                queue += _reached_by(source, name)
    return seen


def test_every_module_is_reached_from_an_entry_point():
    reached = reachable_modules()
    unreached = sorted(set(MODULES) - PACKAGES - reached - ALLOWLIST)
    assert not unreached, f"no entry point imports: {', '.join(unreached)}"
    stale = sorted(ALLOWLIST & reached)
    assert not stale, f"allowlisted but reached, drop from ALLOWLIST: {', '.join(stale)}"
