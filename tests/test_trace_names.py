"""The benchmark's tracer wraps names of curlab; each must exist and come back.

perfbench/tracing.py replaces public module attributes and class methods by
timing wrappers and restores them afterwards. A refactor that removes or
renames one of them would only surface as a KeyError or AttributeError in a
traced benchmark run, so the round trip is checked here, and so is that a
traced call returns what an untraced one does.
"""

import sys
from pathlib import Path

import numpy as np

from curlab import currents as cur
from curlab import examples as ex

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


def test_traced_masses_and_integrals_keep_their_bits():
    """The wrappers pass every call through unchanged: on a dilated disk,
    mass, both ladders and integrate give the same bits traced as untraced.
    `integrate`'s wrapper wraps fn in a caller, so a mass that reached it
    by its public name with fn None would fail here."""
    D = cur.dilate(ex.flat_disk(h=0.2), [0.05, 0.0, 0.0, 0.0], 0.4)
    z, radii = np.zeros(4), [0.3, 0.7, 1.0, 1.4]

    def fn(points, tangents):
        return np.sum(points * points, axis=-1) + tangents[:, None, 0]

    def values():
        return [cur.mass(D), cur.mass(D, cur.Region.ball([0.1, 0, 0, 0], 0.5)),
                cur.mass(D, cur.Region.annulus(z, 0.2, 0.8)),
                *cur.mass_ladder(D, z, radii), *cur.mass_ladder(D, z, radii, axes=(0, 1)),
                cur.integrate(D, fn), cur.integrate(D, fn, cur.Region.ball(z, 0.6)),
                *cur.integrate_ladder(D, fn, z, radii)]

    want = values()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        got = values()
    finally:
        tracer.uninstall()
    assert [float(g).hex() for g in got] == [float(w).hex() for w in want]
    assert any(span[0] == "integrate.fn" for span in tracer.spans)
