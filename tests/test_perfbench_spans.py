"""The traced benchmark wraps named functions of the package; every one must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """perfbench/spans.py as a module, loaded by file path (it imports only the standard library)."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", sorted(load_spans().TARGETS), ids=".".join)
def test_target_resolves(target):
    # A dotted attribute is a method looked up on its class.
    module, attr = target
    obj = importlib.import_module(f"abelcentral.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
