"""The three benchmark workloads: their inputs and the checked operations of
one pass.

A workload is a set of inputs built once (`build`, which may write input
files into the run's working directory) and a list of operations
that one pass runs in order, each a closed-loop call into curlab followed by
checks against `oracles` or against properties the method must have. Steps
that a CLI subcommand covers run through `curlab.cli.run` in-process and are
checked on the CSV rows they write; the rest call the library. `--seed`
only picks the random sample points (tube points, slice radii, structure
samples) and the coarea lines; the meshes and maps are the same for every
seed, so every seed times the same work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math

import numpy as np
from curlab import blowup as bl
from curlab import calibrations as cal
from curlab import cli
from curlab import currents as cur
from curlab import examples as ex
from curlab import jholo as jh

import oracles as O

X0 = np.zeros(4)


class Pass:
    """Outputs and oracle mismatches of one pass."""

    def __init__(self, seed: int, csv_dir):
        self.seed = seed
        self.csv_dir = csv_dir
        self.outputs = []
        self.errors = []

    def record(self, key: str, value) -> None:
        """Keep an output for the bit-for-bit comparison between passes."""
        if isinstance(value, str):
            self.outputs.append((key, value.encode()))
        else:
            self.outputs.append((key, np.asarray(value).tobytes()))

    def check(self, ok, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def near(self, got, want, rel: float, what: str) -> None:
        got, want = float(got), float(want)
        self.check(abs(got - want) <= rel * abs(want),
                   f"{what}: got {got!r}, want {want!r} within rel {rel}")

    def cli(self, *argv):
        """Run one subcommand in-process; return its CSV rows and header."""
        argv = [*argv, "--out", str(self.csv_dir), "--seed", str(self.seed)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        if rc != 0:
            raise RuntimeError(f"curlab {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
        text = (self.csv_dir / (argv[0].replace("-", "_") + ".csv")).read_text()
        # the config line echoes input paths, which lie in this run's directory
        text = text.replace(str(self.csv_dir), "<work>")
        lines = text.splitlines()
        header = [ln for ln in lines if ln.startswith("#") and not ln.startswith("# generated")]
        body = [ln for ln in lines if not ln.startswith("#")]
        self.record(argv[0], "\n".join(header + body))
        return list(csv.DictReader(body)), header


def col(rows, name) -> np.ndarray:
    return np.array([float(row[name]) for row in rows])


class Workload:
    def __init__(self, name: str, build, ops):
        self.name = name
        self.build = build
        self.ops = ops


# --- density ladders and rate fits (density-defect) ---------------------

def _density_build(seed, work_dir):
    return {
        "graph": ex.holomorphic_graph(k=2, h=0.01),
        "cusp": ex.cusp(),
        "lines": ex.two_lines(h=0.08),
        "disk": ex.flat_disk(h=0.05),
    }


def _graph_cylinder_sweep(inp, p):
    rows, _ = p.cli("density-sweep", "--example", "graph-z2", "--h", "0.01",
                    "--gauge", "cylinder", "--r-max", "0.8", "--n", "4", "--q", "0.7")
    r, theta = col(rows, "r"), col(rows, "theta")
    for ri, ti in zip(r, theta):
        p.near(ti, O.graph_theta_cylinder(ri), 5e-3, f"graph cylinder theta at r={ri:.4g}")
    c1, passed = bl.monotonicity_check(bl.DensityTrace(X0, r, col(rows, "mass")))
    p.check(passed and c1 == 0.0, f"graph cylinder monotonicity drift {c1} (want 0)")


def _graph_ball_ladder(inp, p):
    tr = bl.density_trace(inp["graph"], X0, 0.8, N=4, q=0.7)
    p.record("graph ball", tr.masses)
    for ri, ti in zip(tr.radii, tr.theta):
        p.near(ti, O.graph_theta_ball(ri), 5e-3, f"graph ball theta at r={ri:.4g}")
    c1, passed = bl.monotonicity_check(tr)
    p.check(passed and c1 == 0.0, f"graph ball monotonicity drift {c1} (want 0)")


def _graph_rate_fit(inp, p):
    rows, _ = p.cli("rate-fit", "--example", "graph-z2", "--h", "0.01", "--gauge", "cylinder",
                    "--mode", "A", "--theta-hat", repr(math.pi), "--r-max", "0.8", "--n", "4")
    p.near(col(rows, "exponent")[0], 2.0, 0.05, "graph mode-A exponent")
    p.near(col(rows, "amplitude")[0], 2.0 * math.pi, 0.05, "graph mode-A amplitude")


def _lines_monotonicity(inp, p):
    rows, _ = p.cli("monotonicity", "--example", "two-lines", "--h", "0.08",
                    "--r-max", "0.8", "--n", "8", "--q", "0.7")
    for ti in col(rows, "theta"):
        p.near(ti / math.pi, 2.0, 1e-9, "two-lines theta/pi")
    p.check(np.all(col(rows, "c1") == 0.0), "two-lines monotonicity drift is not 0")


def _disk_mass(inp, p):
    rows, _ = p.cli("mass", "--example", "flat-disk", "--h", "0.05",
                    "--r-max", "0.8", "--n", "8", "--q", "0.7")
    r, m = col(rows, "r"), col(rows, "mass")
    for ri, mi in zip(r[:-1], m[:-1]):
        p.near(mi, math.pi * ri * ri, 1e-9, f"flat-disk mass at r={ri:.4g}")
    p.near(m[-1], O.polygon_area(126), 1e-10, "flat-disk total mass")


def _cusp_density(inp, p):
    tr = bl.density_trace(inp["cusp"], X0, 0.05, N=4)
    p.record("cusp small ladder", tr.masses)
    for ri, got in zip(tr.radii, tr.normalized):
        p.near(got, O.cusp_theta(ri) / math.pi, 3e-3, f"cusp theta/pi at r={ri:.4g}")
    p.check(np.all(np.diff(tr.normalized) < 0) and tr.normalized[-1] > 2.0,
            "cusp density does not come down toward 2 from above")
    tr = bl.density_trace(inp["cusp"], X0, 0.3, N=8)
    p.record("cusp ladder", tr.masses)
    c1, passed = bl.monotonicity_check(tr)
    p.check(passed and c1 == 0.0, f"cusp monotonicity drift {c1} (want 0)")
    fit = bl.rate_fit(tr, mode="A", theta_hat=2.0 * math.pi)
    want = O.loglog_fit(tr.radii, [O.cusp_theta(ri) - 2.0 * math.pi for ri in tr.radii])
    p.near(fit.exponent, want[0], 0.05, "cusp mode-A exponent")
    p.near(fit.amplitude, want[1], 0.1, "cusp mode-A amplitude")


def _flat_densities(inp, p):
    for key, want in (("disk", 1.0), ("lines", 2.0)):
        tr = bl.density_trace(inp[key], X0, 0.8)
        p.record(key, tr.masses)
        for got in tr.normalized:
            p.near(got, want, 1e-6, f"{key} theta/pi")
        c1, passed = bl.monotonicity_check(tr)
        p.check(passed and c1 == 0.0, f"{key} monotonicity drift {c1} (want 0)")
    fit = bl.rate_fit(bl.density_trace(inp["disk"], X0, 0.8), mode="B")
    p.check(fit.exact_cone, "flat disk rate fit is not an exact cone")


DENSITY_OPS = [
    ("cli density-sweep graph-z2 cylinder", _graph_cylinder_sweep),
    ("graph-z2 ball ladder", _graph_ball_ladder),
    ("cli rate-fit graph-z2", _graph_rate_fit),
    ("cli monotonicity two-lines", _lines_monotonicity),
    ("cli mass flat-disk", _disk_mass),
    ("cusp ladders and fit", _cusp_density),
    ("flat-disk and two-lines ladders", _flat_densities),
]


# --- tangent-cone -------------------------------------------------------

def _cone_build(seed, work_dir):
    rng = np.random.default_rng(seed)
    # the CLI builds no graded graph, so `dirichlet` reads it from a mesh file
    graded_mesh = work_dir / "graph-z2-graded.mesh"
    cur.write_mesh(graded_mesh, ex.holomorphic_graph(k=2, graded=True))
    return {
        "cusp": ex.cusp(),
        "cusp_fine": ex.cusp(n_theta=128, factor=0.9),
        "disk": ex.flat_disk(h=0.05),
        "lines_coarse": ex.two_lines(h=0.4),
        "graded_mesh": graded_mesh,
        "slice_radii": rng.uniform(0.05, 0.4, 3),
    }


def _lines_directions(inp, p):
    rows, header = p.cli("directions", "--example", "two-lines", "--h", "0.08", "--radius", "0.5")
    p.check(len(rows) == 2, f"two-lines: {len(rows)} directions (want 2)")
    p.check("# stable: true" in header, "two-lines directions not stable")
    if len(rows) == 2:
        for w in col(rows, "weight"):
            p.near(w, 1.0, 0.02, "two-lines direction weight")
        reps = [np.array([float(row["rep0_re"]) + 1j * float(row["rep0_im"]),
                          float(row["rep1_re"]) + 1j * float(row["rep1_im"])]) for row in rows]
        p.near(O.fs_distance(*reps), math.pi / 2, 0.02 / (math.pi / 2),
               "two-lines direction distance")


def _lines_hopf(inp, p):
    rows, _ = p.cli("hopf-mass", "--example", "two-lines", "--h", "0.3",
                    "--r-max", "0.6", "--n", "4", "--q", "0.7")
    p.check(np.all(np.abs(col(rows, "hopf_mass")) <= 1e-8), "two-lines Hopf mass is not 0")


def _lines_concentration(inp, p):
    D = bl.tangent_directions(inp["lines_coarse"], X0, 0.25)
    p.check(len(D) == 2, f"coarse two-lines: {len(D)} directions (want 2)")
    one = bl.DirectionCluster(D.representatives[:1], D.weights[:1], D.scale, D.threshold)
    c = bl.cone_concentration(inp["lines_coarse"], X0, 0.25, one, 0.1)
    p.record("lines concentration", c)
    p.near(c, 0.5, 2e-3, "two-lines cone concentration with one direction")


def _disk_cone(inp, p):
    disk = inp["disk"]
    vals = [
        bl.conical_defect(disk, X0, 0.2, 0.7),
        bl.hopf_projection_mass(disk, X0, 0.3, 0.6),
        bl.uniqueness_gap(disk, X0, 0.5),
        bl.cone_concentration(disk, X0, 0.5, bl.tangent_directions(disk, X0, 0.5), 0.1),
    ]
    p.record("disk cone", vals)
    for what, v, tol in zip(("conical defect", "Hopf mass", "uniqueness gap",
                             "cone concentration"), vals, (1e-10, 1e-8, 1e-6, 1e-12)):
        p.check(abs(v) <= tol, f"flat disk {what} {v} (want 0)")


def _cusp_gaps(inp, p):
    rows, _ = p.cli("uniqueness-gap", "--example", "cusp", "--r-max", "0.4", "--q", "0.7", "--n", "6")
    r, gap = col(rows, "r"), col(rows, "gap")
    p.check(np.all(gap > 0), "cusp uniqueness gaps are not all positive")
    if np.all(gap > 0):
        slope, _ = O.loglog_fit(r, gap)
        p.check(slope > 0, f"cusp gap log-log slope {slope} (want > 0)")


def _cusp_directions(inp, p):
    for r in (0.05, 0.025):
        D = bl.tangent_directions(inp["cusp"], X0, r)
        p.record(f"cusp directions {r}", D.weights)
        p.check(len(D) == 1, f"cusp at r={r}: {len(D)} directions (want 1)")
        p.near(D.weights[0], 2.0, 0.05, f"cusp direction weight at r={r}")


def _cusp_defects(inp, p):
    s, r = 0.1, 0.2
    gap = O.cusp_theta(r) - O.cusp_theta(s)
    cd = bl.conical_defect(inp["cusp_fine"], X0, s, r)
    hm = bl.hopf_projection_mass(inp["cusp"], X0, s, r)
    p.record("cusp defects", [cd, hm])
    p.near(cd, gap, 2e-2, "cusp conical defect against theta(r) - theta(s)")
    p.check(0.0 <= hm <= 8.0 * gap / math.pi, f"cusp Hopf mass {hm} above 8 (theta(r) - theta(s))/pi")


def _cusp_slices(inp, p):
    for rho in inp["slice_radii"]:
        S = cur.slice_sphere(inp["cusp"], X0, rho)
        loops = cur.decompose_cycle(S)
        total = sum(L.mass() for L in loops)
        p.record(f"slice {rho}", [S.mass(), total])
        p.near(S.mass(), O.cusp_slice_length(rho), 2e-2, f"cusp slice length at rho={rho:.4g}")
        p.near(total, S.mass(), 1e-12, "loop masses against slice mass")
        p.check(all(L.is_cycle() for L in loops), "a decomposed loop is not closed")


def _lines_goodslice(inp, p):
    rows, _ = p.cli("goodslice", "--example", "two-lines", "--h", "0.3",
                    "--r-max", "0.8", "--q", "0.7", "--n", "4")
    for r, rho, smass in zip(col(rows, "r"), col(rows, "rho0"), col(rows, "slice_mass")):
        p.check(r / 2 <= rho <= r, f"good slice radius {rho} outside [{r / 2}, {r}]")
        # two great circles of radius rho, one in each line
        p.near(smass, 4.0 * math.pi * rho, 2e-2, f"two-lines good slice length at rho={rho:.4g}")


def _graded_dirichlet(inp, p):
    rows, _ = p.cli("dirichlet", "--mesh", str(inp["graded_mesh"]),
                    "--r-max", "0.4", "--q", "0.7", "--n", "4")
    r, e, f = col(rows, "r"), col(rows, "energy"), col(rows, "factor")
    want = np.array([O.graph_projection_energy(ri) for ri in r])
    for ri, ei, wi in zip(r, e, want):
        p.near(ei, wi, 3e-2, f"graded graph projection energy at r={ri:.4g}")
    for ri, fi, wi in zip(r[1:], f[1:], want[1:] / want[:-1]):
        p.near(fi, wi, 2e-2, f"graded graph energy decay factor at r={ri:.4g}")


TANGENT_CONE = Workload("tangent-cone", _cone_build, [
    ("cli directions two-lines", _lines_directions),
    ("cli hopf-mass two-lines", _lines_hopf),
    ("two-lines cone concentration", _lines_concentration),
    ("flat-disk certificates", _disk_cone),
    ("cli uniqueness-gap cusp", _cusp_gaps),
    ("cusp directions", _cusp_directions),
    ("cusp conical defect and Hopf mass", _cusp_defects),
    ("cusp slices and loops", _cusp_slices),
    ("cli goodslice two-lines", _lines_goodslice),
    ("cli dirichlet graded graph", _graded_dirichlet),
])


# --- tubular calibration defect (density-defect) -----------------------

TUBE_H = 0.25
TUBE_DELTA = 0.05


def _normals(C, idx, rng):
    """Unit vectors normal to the planes of the selected triangles."""
    P = C.corners()[idx]
    e1 = P[:, 1] - P[:, 0]
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = P[:, 2] - P[:, 0]
    e2 -= np.einsum("pi,pi->p", e2, e1)[:, None] * e1
    e2 /= np.linalg.norm(e2, axis=1)[:, None]
    v = rng.standard_normal((len(idx), C.m))
    v -= np.einsum("pi,pi->p", v, e1)[:, None] * e1 + np.einsum("pi,pi->p", v, e2)[:, None] * e2
    return v / np.linalg.norm(v, axis=1)[:, None]


def _tube_build(seed, work_dir):
    C = ex.nonholo_graph(h=TUBE_H)
    field = cal.tubular_calibration(C, TUBE_DELTA)
    rng = np.random.default_rng(seed)
    # comass samples: random points of random triangles, pushed off the
    # surface by up to 1.2 delta, so the tube, its edge bands and its
    # outside are all hit
    idx = rng.integers(0, len(C), 256)
    bary = rng.dirichlet(np.ones(3), len(idx))
    on = np.einsum("pb,pbm->pm", bary, C.corners()[idx])
    off = on + rng.uniform(0.0, 1.2 * TUBE_DELTA, len(idx))[:, None] * _normals(C, idx, rng)
    fd_idx = rng.choice(len(C), 8, replace=False)
    fd = C.centroids[fd_idx] + 0.75 * TUBE_DELTA * _normals(C, fd_idx, rng)
    return {"surface": C, "field": field, "comass_points": off,
            "pair_idx": rng.choice(len(C), 64, replace=False), "fd_points": fd}


def _tube_defect(inp, p):
    rows, _ = p.cli("defect", "--example", "nonholo-graph", "--h", repr(TUBE_H),
                    "--delta", repr(TUBE_DELTA))
    m, d = col(rows, "mass")[0], col(rows, "defect")[0]
    p.check(-1e-12 * m <= d <= 1e-6 * m, f"calibration defect {d} outside [-1e-12, 1e-6] * mass {m}")


def _tube_pairing(inp, p):
    C, idx = inp["surface"], inp["pair_idx"]
    vals = inp["field"].evaluate_many(C.centroids[idx])
    pairing = np.einsum("pc,pc->p", vals, C.tangents[idx])
    p.record("tube pairing", pairing)
    p.check(np.abs(pairing - 1.0).max() <= 1e-12,
            f"field pairs to {pairing.min()}..{pairing.max()} with the tangent (want 1)")


def _tube_comass(inp, p):
    vals = inp["field"].evaluate_many(inp["comass_points"])
    p.record("tube comass", vals)
    cm = O.comass_r4(vals)
    p.check(cm.max() <= 1.0 + 1e-12, f"field comass {cm.max()} above 1")
    p.check(cm.max() >= 1.0 - 1e-12, "no sample inside the tube reached comass 1")


def _tube_not_closed(inp, p):
    norms = [cal.exterior_derivative_fd(inp["field"], x).norm() for x in inp["fd_points"]]
    p.record("tube d", norms)
    p.check(max(norms) >= 1e-3, f"finite-difference d of the field is {max(norms)} (want nonzero)")


TUBE_OPS = [
    ("cli defect nonholo-graph", _tube_defect),
    ("field pairing at centroids", _tube_pairing),
    ("field comass off the surface", _tube_comass),
    ("field exterior derivative", _tube_not_closed),
]


# --- map-rate -----------------------------------------------------------

def _map_build(seed, work_dir):
    # angular grids coarser than the default 16 x 32 x 32 keep the pass
    # short; the closed forms hold on them within the checks' tolerances
    uw, J = jh.map_example("z1-warped", n_eta=4, n_phi=8)
    return {
        "z1": jh.map_example("z1"),
        "z1z2": jh.map_example("z1z2", n_eta=8, n_phi=16),
        "hopf": jh.map_example("hopf", n_eta=8, n_phi=16),
        # the standard-J residual needs a fine radial ladder
        "z1_fine": jh.map_example("z1", n_radial=161, ratio=0.9**0.25, n_eta=6, n_phi=12),
        "z1_warped": uw,
        "J_warped": J,
    }


def _ladder(u):
    return u.radii[::-5][:7][::-1]


def _cli_energy(inp, p):
    rows, _ = p.cli("jholo-energy", "--example", "z1", "--n", "6")
    for r, e in zip(col(rows, "r"), col(rows, "scaled_energy")):
        p.near(e, O.z1_scaled_energy(r), 3e-3, f"z1 scaled energy at r={r:.4g}")


def _cli_monotonicity(inp, p):
    rows, _ = p.cli("jholo-monotonicity", "--example", "z1")
    p.check(np.all(col(rows, "c") == 0.0), "z1 monotonicity drift is not 0")


def _cli_rate(inp, p):
    rows, _ = p.cli("jholo-rate", "--example", "z1", "--mode", "A", "--theta-hat", "0")
    p.near(col(rows, "exponent")[0], O.Z1_RATE[0], 0.05, "z1 rate exponent")
    p.near(col(rows, "amplitude")[0], O.Z1_RATE[1], 0.05, "z1 rate amplitude")


def _z1z2_rate(inp, p):
    u = inp["z1z2"]
    lad = _ladder(u)
    fit = jh.map_rate_fit(u, lad, mode="A", theta_hat=0.0)
    c, passed = jh.map_monotonicity_check(u, lad)
    p.record("z1z2", [fit.exponent, fit.amplitude, c])
    p.near(fit.exponent, O.Z1Z2_RATE[0], 0.025, "z1z2 rate exponent")
    p.near(fit.amplitude, O.Z1Z2_RATE[1], 0.05, "z1z2 rate amplitude")
    p.check(passed and c == 0.0, f"z1z2 monotonicity drift {c} (want 0)")


def _hopf(inp, p):
    u = inp["hopf"]
    lad = _ladder(u)
    vals = np.array([jh.scaled_energy(u, r) for r in lad])
    gap = jh.tangent_map_gap(u, lad[0], lad[-1])
    p.record("hopf", np.append(vals, gap))
    p.check(np.ptp(vals) <= 0.02 * vals.mean(), f"Hopf scaled energy varies: {vals}")
    p.check(gap <= 1e-10, f"Hopf tangent-map gap {gap} (want 0)")


def _standard_residual(inp, p):
    u = inp["z1_fine"]
    E = u.ball_integral(u.energy_density(), 1.0)
    res = jh.inner_variation_residual(u, jh.radial_bump_field(), jh.AlmostComplexField.standard())
    p.record("standard residual", [E, res])
    p.check(abs(res) <= 1e-3 * E, f"standard-J residual {res} above 1e-3 E = {1e-3 * E}")


def _warped_residual(inp, p):
    u, J = inp["z1_warped"], inp["J_warped"]
    E = u.ball_integral(u.energy_density(), 1.0)
    res = jh.inner_variation_residual(u, jh.radial_bump_field(), J)
    sq, _ = J.verify(seed=p.seed)
    p.record("warped residual", [E, res, sq])
    p.check(abs(res) <= 10.0 * J.slope * E, f"warped residual {res} above 10 slope E")
    p.check(sq <= 1e-12, f"|J^2 + Id| = {sq} (want 0)")


def _coarea(inp, p):
    _, _, _, ratio = jh.coarea_slice_check(inp["z1"], n_lines=128, seed=p.seed)
    p.record("coarea", ratio)
    p.near(ratio, 1.0, 0.03, "coarea reassembly ratio")


MAP_RATE = Workload("map-rate", _map_build, [
    ("cli jholo-energy z1", _cli_energy),
    ("cli jholo-monotonicity z1", _cli_monotonicity),
    ("cli jholo-rate z1", _cli_rate),
    ("z1z2 rate and monotonicity", _z1z2_rate),
    ("hopf energy and gap", _hopf),
    ("standard-J residual", _standard_residual),
    ("warped-J residual", _warped_residual),
    ("coarea reassembly", _coarea),
])


# --- density-defect -----------------------------------------------------
# The paper's rate on the clip path and the calibration certificate on the
# tubular field share one workload: a run of each alone was too short to
# average over the host's drifts in speed.

def _density_defect_build(seed, work_dir):
    return {**_density_build(seed, work_dir), **_tube_build(seed, work_dir)}


DENSITY_DEFECT = Workload("density-defect", _density_defect_build, DENSITY_OPS + TUBE_OPS)


WORKLOADS = {w.name: w for w in (DENSITY_DEFECT, TANGENT_CONE, MAP_RATE)}
