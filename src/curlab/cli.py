"""Command line front end.

Subcommands run one analysis pipeline each and write a CSV trace. Exit
status 0 means every built-in assertion of the pipeline passed, 2 means an
assertion failed, 1 means the input was unusable. CSV files open with a
provenance header (tool version, config echo, seed); the only
non-deterministic header line is the one starting with `# generated`, so
two runs with the same configuration agree byte for byte below it.

Config files are line-oriented `key = value` text; `#` starts a comment.
Each entry is parsed as its flag, with the same type and choices; command
line flags override config file entries.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import blowup as bl
from . import calibrations as cal
from . import currents as cur
from . import examples as ex
from . import jholo as jh

__all__ = ["main", "run", "read_config", "CliError", "CheckFailure"]


class CliError(Exception):
    """Unusable input: unknown example, bad mesh, bad parameter."""


class CheckFailure(Exception):
    """A pipeline assertion did not hold."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; here 2 is reserved for
    # assertion failures, so remap parse errors to the input-error status.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def read_config(path) -> dict:
    """Parse a `key = value` config file into a flat string dict."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _finite_float(text: str) -> float:
    """The type of every float setting: argparse names the flag when it
    raises, for a config entry as for a command line flag."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


# One row per setting: config key (its flag is the key with `_` written
# `-`), default, type, choices, help. The one parser is built from it, and
# config entries are parsed by it too.
_SETTINGS = (
    ("example", None, str, None, "built-in example name"),
    ("mesh", None, str, None, "mesh file (dim/vertex/tri lines)"),
    ("out", ".", str, None, "output directory (default .)"),
    ("h", None, _finite_float, None, "mesh refinement parameter"),
    ("seed", 0, int, None, "seed echoed into outputs"),
    ("center", "0,0,0,0", str, None, "comma-separated center coordinates"),
    ("r_max", 0.8, _finite_float, None, "outermost ladder radius"),
    ("n", 8, int, None, "number of ladder radii"),
    ("q", 0.7, _finite_float, None, "ladder ratio in (0,1)"),
    ("gauge", "ball", str, ("ball", "cylinder"),
     "ambient ball or graph parameter cylinder"),
    ("delta", 0.05, _finite_float, None, "tube radius for defect"),
    ("threshold", 0.1, _finite_float, None, "angular clustering threshold"),
    ("theta_hat", None, _finite_float, None, "analytic density limit for mode A fits"),
    ("mode", "B", str, ("A", "B"), "rate fit mode"),
    ("radius", None, _finite_float, None, "single analysis radius (directions)"),
)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _config_argv(path) -> list:
    """A config file's entries as `--key=value` flags; placed before the
    command line, they lose to its explicit flags."""
    cfg = read_config(path)
    unknown = set(cfg) - {key for key, *_ in _SETTINGS}
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    return [f"{_flag(key)}={value}" for key, value in cfg.items()]


def _settings(args) -> dict:
    s = {key: getattr(args, key) for key, *_ in _SETTINGS}
    if not 0 < s["q"] < 1:
        raise CliError("ladder ratio q must lie in (0, 1)")
    if s["n"] < 4:
        raise CliError("ladder length n must be at least 4")
    return s


def _center(settings, m: int) -> np.ndarray:
    """The center setting as m finite coordinates."""
    text = str(settings["center"])
    try:
        x0 = np.array([float(t) for t in text.split(",")])
    except ValueError:
        x0 = np.array([math.nan])
    if len(x0) != m or not np.all(np.isfinite(x0)):
        raise CliError(f"center must be {m} finite comma-separated coordinates, "
                       f"got {text!r}")
    return x0


def _load_current(s) -> cur.TriCurrent:
    if s["mesh"]:
        try:
            return cur.read_mesh(s["mesh"])
        except (OSError, ValueError) as e:
            raise CliError(f"cannot load mesh {s['mesh']}: {e}") from None
    if not s["example"]:
        raise CliError("need --example or --mesh")
    params = {}
    if s["h"] is not None:
        params["h"] = s["h"]
    try:
        return ex.generate_example(s["example"], **params)
    except TypeError:
        # the one keyword passed is h, and some generators take no mesh size
        raise CliError(f"example {s['example']!r} takes no --h") from None
    except ValueError as e:
        raise CliError(str(e)) from None


def _load_map(s) -> jh.SampledMap:
    # a map is sampled on its own grid: no mesh file and no mesh size
    for key in ("mesh", "h"):
        if s[key] is not None:
            raise CliError(f"map pipelines take no {_flag(key)}")
    name = s["example"]
    if name not in jh.MAP_EXAMPLE_NAMES:
        raise CliError(
            f"unknown map example {name!r}; choose from {jh.MAP_EXAMPLE_NAMES}"
        )
    u = jh.map_example(name)
    return u[0] if isinstance(u, tuple) else u


def _ladder(s) -> np.ndarray:
    return s["r_max"] * s["q"] ** np.arange(s["n"])


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    return str(v)


def _write_csv(path, s, subcommand, columns, rows, extra=None):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    echo = " ".join(
        f"{k}={s[k]}" for k in sorted(s) if s[k] is not None and k != "out"
    )
    with open(path, "w", newline="") as f:
        f.write(f"# curlab {__version__} {subcommand}\n")
        f.write(f"# config: {echo}\n")
        f.write(f"# seed: {s['seed']}\n")
        for line in extra or []:
            f.write(f"# {line}\n")
        stamp = datetime.now(timezone.utc).isoformat()
        f.write(f"# generated: {stamp}\n")
        w = csv.writer(f)
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    return path


# ---------------------------------------------------------------------------
# subcommands; each returns (columns, rows, extra header lines) and raises
# CheckFailure when a built-in assertion fails


def _cmd_mass(s):
    C = _load_current(s)
    x0 = _center(s, C.m)
    radii = _ladder(s)
    rows = list(zip(radii, cur.mass_ladder(C, x0, radii)))
    total = cur.mass(C)
    rows.append((math.inf, total))
    return ("r", "mass"), rows, [f"total_mass: {_fmt(total)}"]


def _cmd_density_sweep(s):
    C = _load_current(s)
    x0 = _center(s, C.m)
    trace = bl.density_trace(C, x0, s["r_max"], N=s["n"], q=s["q"],
                             region_kind=s["gauge"])
    rows = list(zip(trace.radii, trace.masses, trace.theta, trace.normalized))
    return ("r", "mass", "theta", "normalized"), rows, []


def _cmd_monotonicity(s):
    C = _load_current(s)
    x0 = _center(s, C.m)
    trace = bl.density_trace(C, x0, s["r_max"], N=s["n"], q=s["q"],
                             region_kind=s["gauge"])
    c1, passed = bl.monotonicity_check(trace)
    rows = [(r, th, c1, passed) for r, th in zip(trace.radii, trace.theta)]
    if not passed:
        raise CheckFailure(
            f"no drift constant up to 1e3 makes the trace monotone (best {c1})"
        )
    return ("r", "theta", "c1", "passed"), rows, [f"c1: {_fmt(c1)}"]


def _cmd_defect(s):
    # whole-surface certificate: ball restrictions would push quadrature
    # points of clipped triangles into the tangent blending band
    C = _load_current(s)
    field = cal.tubular_calibration(C, s["delta"])
    m = cur.mass(C)
    d = cal.calibration_defect(C, field)
    ratio = d / m if m > 0 else 0.0
    rows = [(m, d, ratio)]
    cols = ("mass", "defect", "defect_over_mass")
    if ratio > 1e-6:
        raise CheckFailure(f"defect/mass is {ratio:.3g} > 1e-6")
    return cols, rows, []


def _cmd_hopf_mass(s):
    C = _load_current(s)
    x0 = _center(s, C.m)
    rows = []
    for r in _ladder(s):
        rows.append((s["q"] * r, r, bl.hopf_projection_mass(C, x0, s["q"] * r, r)))
    return ("r_inner", "r_outer", "hopf_mass"), rows, []


def _cmd_directions(s):
    C = _load_current(s)
    x0 = _center(s, C.m)
    r = s["radius"] if s["radius"] is not None else s["r_max"]
    D = bl.tangent_directions(C, x0, r, threshold=s["threshold"])
    rows = []
    for k in range(len(D)):
        rep = D.representatives[k]
        rows.append(
            (k, D.weights[k], D.diameters[k])
            + tuple(x for z in rep for x in (z.real, z.imag))
        )
    ncoord = D.representatives.shape[1]
    cols = ("index", "weight", "diameter") + tuple(
        f"rep{a}_{p}" for a in range(ncoord) for p in ("re", "im")
    )
    extra = [f"scale: {_fmt(D.scale)}", f"threshold: {_fmt(D.threshold)}",
             f"stable: {_fmt(D.stable)}"]
    return cols, rows, extra


def _cmd_uniqueness_gap(s):
    C = _load_current(s)
    x0 = _center(s, C.m)
    rows = [(r, bl.uniqueness_gap(C, x0, r)) for r in _ladder(s)]
    return ("r", "gap"), rows, []


def _cmd_goodslice(s):
    C = _load_current(s)
    x0 = _center(s, C.m)
    rows = []
    for r in _ladder(s):
        try:
            rho, smass, senergy = bl.goodslice_search(C, x0, r)
        except ValueError as e:
            raise CheckFailure(str(e)) from None
        rows.append((r, rho, smass, senergy))
    return ("r", "rho0", "slice_mass", "slice_energy"), rows, []


def _cmd_dirichlet(s):
    C = _load_current(s)
    x0 = _center(s, C.m)
    ladder = _ladder(s)
    energies, factors, pole = bl.dirichlet_iteration(C, x0, ladder)
    rows = [
        (r, e, factors[k - 1] if k else math.nan)
        for k, (r, e) in enumerate(zip(ladder, energies))
    ]
    extra = ["pole: " + ",".join(_fmt(x) for z in pole
                                 for x in (z.real, z.imag))]
    return ("r", "energy", "factor"), rows, extra


def _cmd_rate_fit(s):
    C = _load_current(s)
    x0 = _center(s, C.m)
    trace = bl.density_trace(C, x0, s["r_max"], N=max(s["n"], 6), q=s["q"],
                             region_kind=s["gauge"])
    return _fit_table(bl.rate_fit(trace, mode=s["mode"],
                                  theta_hat=s["theta_hat"]))


def _fit_table(fit: bl.RateFit):
    """The one-row table of a power-law fit."""
    rows = [(fit.theta_hat, fit.amplitude, fit.exponent, fit.residual_rms,
             fit.exact_cone)]
    cols = ("theta_hat", "amplitude", "exponent", "residual_rms", "exact_cone")
    return cols, rows, []


def _map_ladder(u, s):
    # map integrals live on the fixed radial grid; snap the requested
    # ladder to the nearest grid radii and drop duplicates
    want = _ladder(s)
    if want[0] > u.radii[-1] + 1e-12:
        raise CliError(
            f"r_max {want[0]} exceeds the map grid radius {u.radii[-1]}"
        )
    idx = sorted({int(np.argmin(np.abs(u.radii - r))) for r in want},
                 reverse=True)
    if len(idx) < min(len(want), 5):
        raise CliError("ladder collapses on the grid; use a smaller q")
    return u.radii[idx]


def _cmd_jholo_energy(s):
    u = _load_map(s)
    rows = [(r, jh.scaled_energy(u, r)) for r in _map_ladder(u, s)]
    return ("r", "scaled_energy"), rows, []


def _cmd_jholo_monotonicity(s):
    u = _load_map(s)
    lad = _map_ladder(u, s)
    if len(lad) < 5:
        raise CliError("jholo-monotonicity needs n >= 5 ladder scales")
    c, passed = jh.map_monotonicity_check(u, lad)
    if not passed:
        raise CheckFailure("no drift constant up to 1e3 restores monotonicity")
    E = [jh.scaled_energy(u, r) for r in sorted(lad, reverse=True)]
    rows = [(r, e, c, passed)
            for r, e in zip(sorted(lad, reverse=True), E)]
    return ("r", "scaled_energy", "c", "passed"), rows, [f"c: {_fmt(c)}"]


def _cmd_jholo_rate(s):
    u = _load_map(s)
    # a fit needs six scales, as in rate-fit
    ladder = _map_ladder(u, {**s, "n": max(s["n"], 6)})
    return _fit_table(jh.map_rate_fit(u, ladder, mode=s["mode"],
                                      theta_hat=s["theta_hat"]))


_COMMANDS = {
    "mass": _cmd_mass,
    "defect": _cmd_defect,
    "density-sweep": _cmd_density_sweep,
    "monotonicity": _cmd_monotonicity,
    "hopf-mass": _cmd_hopf_mass,
    "directions": _cmd_directions,
    "uniqueness-gap": _cmd_uniqueness_gap,
    "goodslice": _cmd_goodslice,
    "dirichlet": _cmd_dirichlet,
    "rate-fit": _cmd_rate_fit,
    "jholo-energy": _cmd_jholo_energy,
    "jholo-monotonicity": _cmd_jholo_monotonicity,
    "jholo-rate": _cmd_jholo_rate,
}


def _build_parser() -> _Parser:
    p = _Parser(prog="curlab",
                description="numerical laboratory for calibrated 2-currents")
    p.add_argument("--version", action="version",
                   version=f"curlab {__version__}")
    p.add_argument("subcommand", nargs="?", choices=_COMMANDS,
                   metavar="subcommand",
                   help="pipeline to run: " + ", ".join(_COMMANDS))
    p.add_argument("--config", help="key = value config file")
    for key, default, type_, choices, help_ in _SETTINGS:
        p.add_argument(_flag(key), default=default, type=type_,
                       choices=choices, help=help_)
    return p


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.subcommand:
        print("usage: curlab <subcommand> [flags]; see curlab --help",
              file=sys.stderr)
        return 1
    try:
        if args.config:
            args = parser.parse_args(_config_argv(args.config) + argv)
        s = _settings(args)
        cols, rows, extra = _COMMANDS[args.subcommand](s)
    except CheckFailure as e:
        print(f"curlab {args.subcommand}: check failed: {e}", file=sys.stderr)
        return 2
    except (CliError, ValueError) as e:
        print(f"curlab {args.subcommand}: {e}", file=sys.stderr)
        return 1
    out = Path(s["out"]) / f"{args.subcommand.replace('-', '_')}.csv"
    path = _write_csv(out, s, args.subcommand, cols, rows, extra)
    print(path)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
