"""Every callable the benchmark's tracer wraps exists under its name.

``perfbench/spans.py`` names what it wraps in ``LAYERS``; a rename in the
package would only surface when a traced benchmark run installs the
tracer. This resolves each name the way ``Tracer.install`` does, without
installing it.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def traced_layers() -> dict[str, list[str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


@pytest.mark.parametrize("layer,names", sorted(traced_layers().items()))
def test_every_traced_name_resolves_to_a_callable(layer, names):
    home = importlib.import_module(f"microbuild.{layer}")
    for name in names:
        target = home
        for part in name.split("."):
            assert hasattr(target, part), f"{layer}.{name}: {target!r} has no {part!r}"
            target = getattr(target, part)
        assert callable(target), f"{layer}.{name}"
