"""Every name a package module exports in ``__all__`` exists in it and is read.

A deleted or renamed symbol left in an export list breaks
``from charged_extensions.<module> import *`` only at that import; this
catches it when the symbol goes.  An exported name that nothing reads but
the tests is public code kept alive by its own tests, so each exported name
must be defined in its module and referenced, as a name or an attribute in
code (docstrings do not count), by

- another package module, or its own module outside its definition,
- ``bench/`` or ``BENCHMARK.json``, or
- ``ORACLES``: the few independent references the tests check results
  against.

A reference from inside the definition of an exported name that is itself
unreferenced does not count, so a type returned only by dead code is dead
too.
"""

from __future__ import annotations

import ast
import functools
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import charged_extensions

SRC = Path(charged_extensions.__file__).resolve().parent
ROOT = SRC.parent.parent

EXPORTING = [
    module
    for module in (
        importlib.import_module(f"charged_extensions.{info.name}")
        for info in pkgutil.iter_modules(charged_extensions.__path__)
    )
    if hasattr(module, "__all__")
]

# (module, name, what the oracle checks): public names only tests call,
# kept because they compute a result by a second, independent route.
ORACLES = (
    ("quasilocal", "hawking_mass",
     "m_o and hawking_rotsym, by the general area and mean-curvature formula"),
    ("quasilocal", "SphereData", "the sphere data hawking_mass reads"),
    ("lambda_rn", "critical_mass",
     "the classify trichotomy, by the mass at the root of h"),
)


def _identifiers(node) -> set[str]:
    """Names read and attributes taken anywhere under node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _scopes(path: Path) -> list[tuple[str | None, set[str]]]:
    """(top-level definition name or None for other statements, identifiers)."""
    scopes = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        defined = isinstance(node, (ast.FunctionDef, ast.ClassDef))
        scopes.append((node.name if defined else None, _identifiers(node)))
    return scopes


@functools.cache
def _unreferenced() -> dict[str, list[str]]:
    """Exported names per module that nothing outside the tests reads."""
    scopes = {
        module.__name__.rsplit(".", 1)[1]: _scopes(Path(module.__file__))
        for module in EXPORTING
    }
    outside = set(re.findall(r"\w+", (ROOT / "BENCHMARK.json").read_text()))
    for path in sorted((ROOT / "bench").glob("*.py")):
        outside |= {name for _, ids in _scopes(path) for name in ids}
    outside |= {(module, name) for module, name, _ in ORACLES}

    exported = {
        (module.__name__.rsplit(".", 1)[1], name)
        for module in EXPORTING
        for name in module.__all__
    }
    dead: set[tuple[str, str]] = set()
    while True:
        live_ids = {
            (layer, scope): ids
            for layer, module_scopes in scopes.items()
            for scope, ids in module_scopes
            if (layer, scope) not in dead
        }
        now_dead = {
            (layer, name)
            for layer, name in exported
            if name not in outside
            and (layer, name) not in outside
            and not any(
                name in ids
                for (other, scope), ids in live_ids.items()
                if (other, scope) != (layer, name)
            )
        }
        if now_dead == dead:
            break
        dead = now_dead
    found: dict[str, list[str]] = {}
    for layer, name in sorted(dead):
        found.setdefault(layer, []).append(name)
    return found


def test_layer_modules_export():
    assert len(EXPORTING) >= 8


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_exported_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], f"{module.__name__}.__all__ names missing symbols"
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_exported_names_are_defined_here(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    reexported = [name for name in module.__all__ if name not in defined]
    assert reexported == [], f"{module.__name__} re-exports names of other modules"


def test_oracles_are_exported():
    for layer, name, checks in ORACLES:
        module = importlib.import_module(f"charged_extensions.{layer}")
        assert name in module.__all__ and checks


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_exported_names_are_read_outside_the_tests(module):
    unread = _unreferenced().get(module.__name__.rsplit(".", 1)[1], [])
    assert unread == [], f"{module.__name__} exports names only tests read"
