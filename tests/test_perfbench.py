"""The benchmark's tracer wraps program attributes by name; these must exist."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _current(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_name_the_tracer_wraps_exists_and_is_restored(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays as committed
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    tracer = spans.Tracer()
    try:
        tracer.install()  # raises KeyError or AttributeError for a missing name
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert _current(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, (owner, attr)
