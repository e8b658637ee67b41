"""Every wrap point of the traced benchmark names a routine the library
still has.

The tracer skips a wrap point whose attribute is gone and reports only the
metrics fed by no point at all as absent, so deleting one of several points
that feed the same span would otherwise pass unnoticed.
"""

from __future__ import annotations

import importlib
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_every_wrap_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    tracer = importlib.import_module("tracer")
    tracing = tracer.Tracer()
    tracing.install()
    try:
        assert tracing.missing == []
    finally:
        tracing.restore()
