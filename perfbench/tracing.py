"""Spans around the calls into curlab's modules, recorded from outside them.

`Tracer.install` replaces the public names that curlab's modules call
(module attributes and class methods) by wrappers that append one span each:
`[name, parent, start, end, attrs]`, with `parent` the index of the span
that was open when the call began. `Tracer.uninstall` puts the originals
back, so untraced passes run the program unchanged. Spans stay in memory
until the run writes them out; `layer_metrics` turns one pass's spans into
the per-layer figures named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path

import numpy as np
from curlab import blowup as bl
from curlab import calibrations as cal
from curlab import cli
from curlab import currents as cur
from curlab import examples as ex
from curlab import jholo as jh


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._saved = []

    def open(self, name: str, attrs=None) -> int:
        sid = len(self.spans)
        self.spans.append([name, self._stack[-1], time.perf_counter(), 0.0, attrs])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def _replace(self, owner, attr, wrapper_of):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, functools.wraps(orig)(wrapper_of(orig)))
        self._saved.append((owner, attr, orig))

    def wrap(self, owner, attr, name, note=None):
        """Record a span around every call of `owner.attr`.

        note(args, kwargs, result) -> attrs dict, stored on the span.
        """

        def wrapper_of(orig):
            def traced(*args, **kwargs):
                sid = self.open(name)
                try:
                    out = orig(*args, **kwargs)
                finally:
                    self.close(sid)
                if note is not None:
                    self.spans[sid][4] = note(args, kwargs, out)
                return out

            return traced

        self._replace(owner, attr, wrapper_of)

    def wrap_integrate(self, owner):
        """Span `currents.integrate`, and a child span per call of its fn."""

        def wrapper_of(orig):
            def traced(C, fn, R=None, *args, **kwargs):
                module = getattr(fn, "__module__", None) or ""

                def traced_fn(points, tangents):
                    fid = self.open("integrate.fn", {"points": len(points), "module": module})
                    try:
                        return fn(points, tangents)
                    finally:
                        self.close(fid)

                sid = self.open("currents.integrate", {"region": region_kind(C, R)})
                try:
                    return orig(C, traced_fn, R, *args, **kwargs)
                finally:
                    self.close(sid)

            return traced

        self._replace(owner, "integrate", wrapper_of)

    def install(self):
        tris = lambda a, k, out: {"triangles": len(out)}
        for name in ("flat_disk", "holomorphic_graph", "cusp", "two_lines",
                     "nonholo_graph", "generate_example"):
            self.wrap(ex, name, "examples." + name, tris)

        self.wrap(cur, "tri_disk_area", "clip.tri_disk_area",
                  lambda a, k, out: {"zero": bool(out == 0.0)})
        self.wrap(cur, "mass", "currents.mass", _mass_note)
        self.wrap_integrate(cur)
        self.wrap(cur, "slice_sphere", "currents.slice_sphere",
                  lambda a, k, out: {"chords": len(out)})
        self.wrap(cur, "decompose_cycle", "currents.decompose_cycle")
        self.wrap(cur, "dilate", "currents.dilate")

        for name in ("density_trace", "monotonicity_check", "conical_defect",
                     "hopf_projection_mass", "tangent_directions", "uniqueness_gap",
                     "cone_concentration", "goodslice_search", "dirichlet_iteration",
                     "rate_fit"):
            self.wrap(bl, name, "blowup." + name)
        self.wrap(bl, "plane_basis", "exterior.plane_basis")

        self.wrap(cal.TubularField, "__init__", "calibrations.TubularField")
        self.wrap(cal.TubularField, "evaluate_many", "calibrations.tubular_eval",
                  lambda a, k, out: {"points": len(out)})
        self.wrap(cal.TubularField, "evaluate", "calibrations.tubular_eval",
                  lambda a, k, out: {"points": 1})
        for name in ("calibration_defect", "exterior_derivative_fd"):
            self.wrap(cal, name, "calibrations." + name)
        self.wrap(cal, "comass2", "exterior.comass2")

        self.wrap(jh.SampledMap, "__init__", "jholo.SampledMap")
        for name in ("frame_partials", "energy_density", "radial_density",
                     "gradient", "ball_integral"):
            self.wrap(jh.SampledMap, name, "jholo." + name)
        self.wrap(jh.AlmostComplexField, "matrix_many", "jholo.matrix_many",
                  lambda a, k, out: {"points": len(out)})
        for name in ("scaled_energy", "radial_energy", "map_monotonicity_check",
                     "inner_variation_residual", "coarea_slice_check",
                     "tangent_map_gap", "map_rate_fit"):
            self.wrap(jh, name, "jholo." + name)

        self.wrap(cli, "run", "cli.run", _cli_note)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def write(self, path: Path, phases: dict) -> None:
        """Spans as JSON lines; times in microseconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"phases": phases}) + "\n")
            for sid, (name, parent, a, b, attrs) in enumerate(self.spans):
                row = [sid, name, parent, round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1)]
                if attrs:
                    row.append(attrs)
                fh.write(json.dumps(row) + "\n")


def region_kind(C, R) -> str:
    """The region kind currents.mass and integrate act on, after clipping
    to the clip ball a dilated current carries."""
    kind = "full" if R is None else R.kind
    clip = C.clip_radius
    if clip is None:
        return kind
    if kind == "full":
        return "ball"
    if kind == "ball" and not np.any(R.center) and R.radius <= clip:
        return "ball"
    if kind == "annulus" and not np.any(R.center) and R.outer <= clip:
        return "annulus"
    return "intersect"


def _mass_note(args, kwargs, out):
    C = args[0]
    R = args[1] if len(args) > 1 else kwargs.get("R")
    kind = region_kind(C, R)
    return {"triangles": len(C), "subdiv": kind not in ("full", "ball", "annulus", "cylinder")}


def _cli_note(args, kwargs, out):
    argv = list(args[0] if args else kwargs["argv"])
    if out != 0 or "--out" not in argv:
        return {"csv_bytes": 0}
    path = Path(argv[argv.index("--out") + 1]) / (argv[0].replace("-", "_") + ".csv")
    return {"csv_bytes": path.stat().st_size}


PER_PASS = (
    "clip.calls", "clip.s", "clip.zero_fraction",
    "mass.calls", "mass.self_s", "mass.triangles_per_s", "mass.subdiv_s",
    "integrate.calls", "integrate.region.self_s", "integrate.full.self_s",
    "integrate.fn_points", "integrate.fn_s",
    "slice.calls", "slice.s", "slice.chords", "loops.s",
    "blowup.integrand_s", "blowup.plane_basis_calls", "blowup.frame_hit_ratio",
    "blowup.directions.self_s", "blowup.gap.self_s", "blowup.self_s",
    "tubular.eval_points", "tubular.eval_s", "tubular.points_per_s",
    "exterior.comass2_calls",
    "jholo.structure_points", "jholo.structure_s", "jholo.ball_integral_calls",
    "jholo.ball_integral_s", "jholo.energy_density_calls", "jholo.self_s",
    "cli.self_s", "cli.csv_bytes",
)
SETUP = ("examples.build_s", "examples.triangles", "tubular.build_s", "jholo.map_build_s")
FIRST_PASS = ("jholo.partials_s",)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, lo: int, hi: int) -> dict:
    """Per-layer figures from spans[lo:hi], one pass or the set-up.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time sums that over the layer's spans.
    """
    child = {}
    for sid in range(lo, hi):
        name, parent, a, b, _ = spans[sid]
        child[parent] = child.get(parent, 0.0) + (b - a)
    count, total, own, attr_sum = {}, {}, {}, {}
    mass_subdiv = 0.0
    region_self = {"full": 0.0, "region": 0.0}
    mass_tris = 0
    clip_zero = 0
    blowup_fn = set()
    blowup_fn_points = 0
    blowup_fn_s = 0.0
    frames_in_fn = 0
    top_examples_s = 0.0
    top_examples_tris = 0
    for sid in range(lo, hi):
        name, parent, a, b, attrs = spans[sid]
        dur = b - a
        selft = dur - child.get(sid, 0.0)
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + selft
        attrs = attrs or {}
        for key in ("points", "chords", "csv_bytes"):
            if key in attrs:
                attr_sum[(name, key)] = attr_sum.get((name, key), 0) + attrs[key]
        if name == "clip.tri_disk_area" and attrs.get("zero"):
            clip_zero += 1
        elif name == "currents.mass":
            mass_tris += attrs["triangles"]
            if attrs["subdiv"]:
                mass_subdiv += dur
        elif name == "currents.integrate":
            region_self["full" if attrs["region"] == "full" else "region"] += selft
        elif name == "integrate.fn" and attrs["module"] == "curlab.blowup":
            blowup_fn.add(sid)
            blowup_fn_points += attrs["points"]
            blowup_fn_s += dur
        elif name == "exterior.plane_basis" and parent in blowup_fn:
            frames_in_fn += 1
        elif name.startswith("examples.") and not (
            parent >= lo and spans[parent][0].startswith("examples.")
        ):
            top_examples_s += dur
            top_examples_tris += attrs["triangles"]

    def pts(name):
        return attr_sum.get((name, "points"), 0)

    blowup_names = [n for n in own if n.startswith("blowup.")]
    jholo_names = [n for n in own if n.startswith("jholo.")]
    return {
        "clip.calls": count.get("clip.tri_disk_area", 0),
        "clip.s": total.get("clip.tri_disk_area", 0.0),
        "clip.zero_fraction": _ratio(clip_zero, count.get("clip.tri_disk_area", 0)),
        "mass.calls": count.get("currents.mass", 0),
        "mass.self_s": own.get("currents.mass", 0.0),
        "mass.triangles_per_s": _ratio(mass_tris, total.get("currents.mass", 0.0)),
        "mass.subdiv_s": mass_subdiv,
        "integrate.calls": count.get("currents.integrate", 0),
        "integrate.region.self_s": region_self["region"],
        "integrate.full.self_s": region_self["full"],
        "integrate.fn_points": pts("integrate.fn"),
        "integrate.fn_s": total.get("integrate.fn", 0.0),
        "slice.calls": count.get("currents.slice_sphere", 0),
        "slice.s": total.get("currents.slice_sphere", 0.0),
        "slice.chords": attr_sum.get(("currents.slice_sphere", "chords"), 0),
        "loops.s": total.get("currents.decompose_cycle", 0.0),
        "blowup.integrand_s": blowup_fn_s,
        "blowup.plane_basis_calls": count.get("exterior.plane_basis", 0),
        "blowup.frame_hit_ratio": (1.0 - frames_in_fn / blowup_fn_points) if blowup_fn_points else 0.0,
        "blowup.directions.self_s": own.get("blowup.tangent_directions", 0.0),
        "blowup.gap.self_s": own.get("blowup.uniqueness_gap", 0.0),
        "blowup.self_s": sum(own[n] for n in blowup_names),
        "tubular.eval_points": pts("calibrations.tubular_eval"),
        "tubular.eval_s": total.get("calibrations.tubular_eval", 0.0),
        "tubular.points_per_s": _ratio(pts("calibrations.tubular_eval"),
                                       total.get("calibrations.tubular_eval", 0.0)),
        "exterior.comass2_calls": count.get("exterior.comass2", 0),
        "jholo.structure_points": pts("jholo.matrix_many"),
        "jholo.structure_s": total.get("jholo.matrix_many", 0.0),
        "jholo.ball_integral_calls": count.get("jholo.ball_integral", 0),
        "jholo.ball_integral_s": total.get("jholo.ball_integral", 0.0),
        "jholo.energy_density_calls": count.get("jholo.energy_density", 0),
        "jholo.self_s": sum(own[n] for n in jholo_names),
        "jholo.partials_s": total.get("jholo.frame_partials", 0.0),
        "jholo.map_build_s": total.get("jholo.SampledMap", 0.0),
        "tubular.build_s": total.get("calibrations.TubularField", 0.0),
        "cli.self_s": own.get("cli.run", 0.0),
        "cli.csv_bytes": attr_sum.get(("cli.run", "csv_bytes"), 0),
        "examples.build_s": top_examples_s,
        "examples.triangles": top_examples_tris,
    }


def per_layer(spans, setup, first, warm) -> dict:
    """Combine set-up, cold first pass and warm traced passes into one row.

    setup, first: (lo, hi) span ranges; warm: list of (lo, hi). Warm-pass
    figures are medians over the warm traced passes.
    """
    out = {}
    s = layer_metrics(spans, *setup)
    for key in SETUP:
        out[key] = s[key]
    f = layer_metrics(spans, *first)
    for key in FIRST_PASS:
        out[key] = f[key]
    rows = [layer_metrics(spans, lo, hi) for lo, hi in warm]
    for key in PER_PASS:
        out[key] = statistics.median(r[key] for r in rows)
    return out
