"""BENCHMARK.json's per-layer metrics name public functions of the package.

A per-layer name ``layer.function.field`` (or ``layer.Class.method.field``)
is measured by wrapping that public function, so a rename or deletion in
the package must show up here rather than when a traced benchmark run
stops.
"""

from __future__ import annotations

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Per-layer names that are not about one function: layer totals, failure
# counts by stage, and whole-run figures.
NOT_FUNCTIONS = ("pipeline.failed_op_s", "cli_io.bytes_written_per_op",
                 "trace.overhead_ratio")


def function_names():
    names = [entry["name"] for entry in json.loads(BENCHMARK.read_text())["per_layer"]]
    return [
        name for name in names
        if name.count(".") >= 2
        and not name.startswith("pipeline.fail.")
        and name not in NOT_FUNCTIONS
    ]


def test_some_names_are_checked():
    assert len(function_names()) >= 30


@pytest.mark.parametrize("name", function_names())
def test_per_layer_name_is_a_public_function(name):
    layer, *path, _field = name.split(".")
    module = importlib.import_module(f"charged_extensions.{layer}")
    target = module
    for part in path:
        assert not part.startswith("_"), f"{name}: {part} is private"
        target = vars(target).get(part)
        assert target is not None, f"{name}: no {part} in {layer}"
    assert inspect.isfunction(target), f"{name}: not a function"
    owner = vars(module)[path[0]]
    assert owner.__module__ == module.__name__, f"{name}: defined outside {layer}"
