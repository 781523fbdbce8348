"""The benchmark's tracer wraps homspace callables by name (``bench/tracing.py``,
``SPANS`` and ``COUNTS``); ``--trace 1`` fails with AttributeError when one of
them is renamed or deleted, so every target must resolve."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [target for table in (tracing.SPANS, tracing.COUNTS)
            for targets in table.values() for target in targets]


@pytest.mark.parametrize("target", _targets())
def test_traced_name_resolves(target):
    module, qualname = target.split(":")
    obj = importlib.import_module(f"homspace.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
