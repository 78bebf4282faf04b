"""Every name a package module exports in ``__all__`` exists in it.

A deleted or renamed symbol left in an export list breaks
``from charged_extensions.<module> import *`` only at that import; this
catches it when the symbol goes.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import charged_extensions

EXPORTING = [
    module
    for module in (
        importlib.import_module(f"charged_extensions.{info.name}")
        for info in pkgutil.iter_modules(charged_extensions.__path__)
    )
    if hasattr(module, "__all__")
]


def test_layer_modules_export():
    assert len(EXPORTING) >= 8


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_exported_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], f"{module.__name__}.__all__ names missing symbols"
    assert len(set(module.__all__)) == len(module.__all__)
