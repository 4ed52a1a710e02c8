"""The benchmark's tracer wraps names of curlab; each must exist and come back.

perfbench/tracing.py replaces public module attributes and class methods by
timing wrappers and restores them afterwards. A refactor that removes or
renames one of them would only surface as a KeyError or AttributeError in a
traced benchmark run, so the round trip is checked here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_existing_names_and_restores_them():
    tracer = tracing.Tracer()
    tracer.install()  # raises on a wrapped name that does not exist
    try:
        saved = list(tracer._saved)
        wrapped = [_current(owner, attr) is not orig for owner, attr, orig in saved]
    finally:
        tracer.uninstall()
    assert len(saved) == 44
    assert all(wrapped)
    assert all(_current(owner, attr) is orig for owner, attr, orig in saved)
    assert not tracer._saved
