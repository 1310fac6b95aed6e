"""The names the benchmark wraps and the names the package exports resolve.

`perfbench/spans.py` looks up every function in its `LAYERS` table when a
tracer is created, so deleting or renaming one breaks the benchmark; these
tests fail first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import catledger

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_layers() -> dict[str, tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves():
    layers = _traced_layers()
    assert layers
    missing = [
        f"{module}.{function}"
        for module, function in layers.values()
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert missing == []


def test_every_exported_name_resolves():
    assert [name for name in catledger.__all__ if not hasattr(catledger, name)] == []
