"""Density and blow-up analysis around a point of a 2-current.

Pipeline pieces: density traces over geometric radius ladders, almost
monotonicity with the smallest working drift constant, the conical defect
integral, the projective-projection mass estimate, tangent direction
extraction from sphere slices, cone concentration, good-slice search,
Dirichlet energy iteration and power-law rate fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import curve_fit, linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from . import currents as cur
from .exterior import (
    _complex_rows,
    _fs_dist_matrix,
    _real_rows,
    _times_i,
    _wedge3_index,
    plane_frames,
)
from .exterior import plane_basis  # noqa: F401  (perfbench/tracing.py wraps it)

__all__ = [
    "DensityTrace",
    "DirectionCluster",
    "RateFit",
    "density_trace",
    "monotonicity_check",
    "conical_defect",
    "hopf_projection_mass",
    "gradient_energy_density",
    "tangent_directions",
    "uniqueness_gap",
    "cone_concentration",
    "goodslice_search",
    "dirichlet_iteration",
    "rate_fit",
]


@dataclass
class DensityTrace:
    """Masses of C in a decreasing geometric ladder of balls around a center.

    theta(r) = M(C |_ B_r)/r^2; normalized = theta/pi is the multiplicity
    scale for 2-currents.
    """

    center: np.ndarray
    radii: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        if np.any(np.diff(self.radii) >= 0):
            raise ValueError("radii must be strictly decreasing")
        if np.any(self.masses < -1e-12):
            raise ValueError("negative mass in trace")

    @property
    def theta(self) -> np.ndarray:
        return self.masses / self.radii**2

    @property
    def normalized(self) -> np.ndarray:
        return self.theta / math.pi

    def __len__(self):
        return len(self.radii)


@dataclass
class DirectionCluster:
    """Weighted direction classes extracted from a sphere slice.

    Representatives are unit vectors in C^{m/2} standing for points of
    projective space; weights approximate the multiplicity carried along
    each direction. `stable` records whether halving the clustering
    threshold kept the cluster count.
    """

    representatives: np.ndarray  # (K, m/2) complex, unit rows
    weights: np.ndarray
    scale: float
    threshold: float
    stable: bool = True
    diameters: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __len__(self):
        return len(self.weights)


@dataclass
class RateFit:
    """Power-law fit theta(r) = theta_hat + amplitude * r**exponent."""

    theta_hat: float
    amplitude: float
    exponent: float
    residual_rms: float
    exact_cone: bool = False


def _mesh_scale(C: cur.TriCurrent) -> float:
    return float(C.longest_edges.max())


def density_trace(C: cur.TriCurrent, x0, r_max: float, N: int = 8,
                  q: float = 0.7, region_kind: str = "ball",
                  axes=(0, 1)) -> DensityTrace:
    """Ball masses at radii r_max * q**i, i = 0 .. N-1.

    region_kind "cylinder" restricts to the parameter ball of a graph over
    the coordinate plane `axes` instead of the ambient ball; closed-form
    graph densities are stated in that gauge.
    """
    x0 = np.asarray(x0, dtype=float)
    if not 0 < q < 1:
        raise ValueError("ladder ratio must lie in (0, 1)")
    if N < 4:
        raise ValueError("at least 4 ladder radii required")
    d = np.linalg.norm(C.vertices - x0, axis=1)
    if d.min() > _mesh_scale(C):
        raise ValueError("center is off the support of the current")
    extent = d.max()
    if r_max > extent:
        raise ValueError("r_max exceeds the mesh extent")
    radii = r_max * q ** np.arange(N)
    if region_kind not in ("ball", "cylinder"):
        raise ValueError("region_kind must be 'ball' or 'cylinder'")
    masses = cur.mass_ladder(C, x0, radii,
                             axes if region_kind == "cylinder" else None)
    return DensityTrace(x0, radii, masses)


def monotonicity_check(trace: DensityTrace, tol: float = 1e-6):
    """Smallest drift C1 in [0, 1e3] making (e^{C1 r} + C1 r) theta(r)
    nondecreasing in r within relative tolerance; returns (C1, passed).
    """
    if len(trace) < 4:
        raise ValueError("trace too short")
    r = trace.radii[::-1]  # increasing
    th = trace.theta[::-1]
    scale = max(abs(th).max(), 1e-30)

    def ok(c1):
        seq = (np.exp(c1 * r) + c1 * r) * th
        return bool(np.all(np.diff(seq) >= -tol * scale))

    return _smallest_drift(ok)


def _smallest_drift(ok):
    """Smallest c in [0, 1e3] with ok(c) by bisection; returns (c, passed).

    (0, True) when ok(0) holds, (1e3, False) when ok(1e3) fails, and
    otherwise the upper end of the bracket after 60 halvings.
    """
    if ok(0.0):
        return 0.0, True
    lo, hi = 0.0, 1e3
    if not ok(hi):
        return hi, False
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi, True


def _wedge_tangent_vector_sq(tangents: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """|tau ^ v|^2 for 2-vector coefficient rows tau (L, n2) and grouped
    vectors v (L, k, m), one value per vector (L, k)."""
    m = vecs.shape[-1]
    kab, c, kac, b, kbc, a = _wedge3_index(m)
    tau = tangents[:, None, :]
    w = (
        tau[..., kab] * vecs[..., c]
        - tau[..., kac] * vecs[..., b]
        + tau[..., kbc] * vecs[..., a]
    )
    return np.einsum("lqk,lqk->lq", w, w)


def conical_defect(C: cur.TriCurrent, x0, s: float, r: float) -> float:
    """Integral over the annulus of |x - x0|^{-2} |tau ^ radial|^2 d||C||.

    Vanishes exactly on cones through x0. Triangle tangents are simple, so
    the summed-decomposition form of the integrand reduces to this single
    term.
    """
    if not 0 < s < r:
        raise ValueError("need 0 < s < r")
    x0 = np.asarray(x0, dtype=float)

    def fn(points, tangents):
        rel = points - x0
        d2 = np.einsum("lqi,lqi->lq", rel, rel)
        d2 = np.maximum(d2, 1e-300)
        rhat = rel / np.sqrt(d2)[..., None]
        return _wedge_tangent_vector_sq(tangents, rhat) / d2

    return cur.integrate(C, fn, cur.Region.annulus(x0, s, r))


def _frame_gram(rel, e, f):
    """Pullback inner products of the projectivization map x -> [x].

    rel (L, k, m): positions relative to the center, grouped by tangent
    plane; e, f (L, m): an orthonormal frame of each plane. Returns
    (g11, g22, g12), each (L, k), the real pulled-back metric entries
    Re(<u, v>|x|^2 - <u, x><x, v>) / |x|^4 for the Hermitian product <,>,
    in real arithmetic: with J multiplication by i, that real part is
    (u.v |x|^2 - (u.x)(v.x) - (Ju.x)(Jv.x)) / |x|^4, so each point needs
    only its products with e, Je, f and Jf. |x|^2 and |x|^4 are each
    clamped at 1e-300, so the entries stay finite at and near x = 0 (where
    they are <u, v>), and keep their bits wherever |x|^4 >= 1e-300.
    """
    n2 = np.maximum(np.einsum("lqi,lqi->lq", rel, rel), 1e-300)
    frame = np.stack([e, _times_i(e), f, _times_i(f)], axis=2)  # (L, m, 4)
    a, ja, b, jb = np.moveaxis(rel @ frame, 2, 0)
    ee, ff, ef = (
        np.einsum("li,li->l", u, v)[:, None] for u, v in ((e, e), (f, f), (e, f))
    )
    n4 = np.maximum(n2 * n2, 1e-300)  # n2 * n2 alone underflows to 0
    return (
        (ee * n2 - a * a - ja * ja) / n4,
        (ff * n2 - b * b - jb * jb) / n4,
        (ef * n2 - a * b - ja * jb) / n4,
    )


def hopf_projection_mass(C: cur.TriCurrent, x0, s: float, r: float) -> float:
    """Mass of the projectivized image of C over the annulus B_r minus B_s.

    Integrates the area Jacobian of x -> [x - x0] (a point of projective
    space) restricted to the tangent planes. Complex cones project to
    points, so this measures deviation from a union of complex planes.
    """
    if not 0 < s < r:
        raise ValueError("need 0 < s < r")
    x0 = np.asarray(x0, dtype=float)

    def fn(points, tangents):
        e, f = plane_frames(tangents, C.m)
        g11, g22, g12 = _frame_gram(points - x0, e, f)
        return np.sqrt(np.maximum(g11 * g22 - g12**2, 0.0))

    return cur.integrate(C, fn, cur.Region.annulus(x0, s, r))


def gradient_energy_density(C: cur.TriCurrent, x0):
    """Pointwise |grad of the projectivization restricted to C|^2 field.

    Returns fn(points (L, k, m), tangents (L, n2)) -> (L, k), the grouped
    integrand of currents.integrate.
    """
    x0 = np.asarray(x0, dtype=float)

    def fn(points, tangents):
        e, f = plane_frames(tangents, C.m)
        g11, g22, _ = _frame_gram(points - x0, e, f)
        return g11 + g22

    return fn


def _single_linkage(points: np.ndarray, threshold: float,
                    dist: np.ndarray | None = None) -> np.ndarray:
    """Cluster labels by joining all pairs within the distance threshold:
    the connected components of that graph, numbered in order of their
    lowest point index. dist is the points' Fubini-Study distance matrix,
    computed here when not given."""
    if dist is None:
        dist = _fs_dist_matrix(points, points)
    _, labels = connected_components(csr_matrix(dist < threshold), directed=False)
    return labels


def _unit_phase(z: np.ndarray) -> np.ndarray:
    """The unit vector of z's complex line whose largest-modulus coordinate
    is real and positive (the first such coordinate on a tie)."""
    z = z / np.linalg.norm(z)
    k = np.argmax(np.abs(z))
    z = z * (np.abs(z[k]) / z[k])
    z[k] = np.abs(z[k])
    return z + 0.0  # no negative zeros


def _direction_clusters(z, w, r: float, threshold: float) -> DirectionCluster:
    """Single-linkage classes of the unit rows z (n, m/2) with weights w
    (n,) at the angular threshold, sorted by decreasing weight; `stable`
    when half the threshold gives as many classes. A class's
    representative is the top eigenvector of its weighted Hermitian second
    moment, with its phase fixed by `_unit_phase`.

    One Fubini-Study distance matrix serves both linkages and the diameter
    of a class of every point. A smaller class builds its own matrix for
    its diameter: the entries of a BLAS product depend on the product's
    shape, and a sub-block of the shared matrix can differ from it in the
    last bit."""
    dist = _fs_dist_matrix(z, z)
    labels = _single_linkage(z, threshold, dist)
    halved = _single_linkage(z, threshold / 2.0, dist)
    reps, ws, diams = [], [], []
    for lab in range(labels.max() + 1):
        sel = labels == lab
        P, wp = z[sel], w[sel]
        _, vecs = np.linalg.eigh(np.einsum("p,pa,pb->ab", wp, P, np.conj(P)))
        reps.append(_unit_phase(vecs[:, -1]))
        ws.append(float(wp.sum()))
        diams.append(float((dist if len(P) == len(z) else _fs_dist_matrix(P, P)).max()))
    order = np.argsort(ws)[::-1]
    return DirectionCluster(np.array(reps)[order], np.array(ws)[order], r,
                            threshold, stable=bool(labels.max() == halved.max()),
                            diameters=np.array(diams)[order])


def tangent_directions(C: cur.TriCurrent, x0, r: float,
                       threshold: float = 0.1) -> DirectionCluster:
    """Direction classes hit by the slice of C at radius r around x0.

    Slice chord midpoints are projectivized and clustered by single
    linkage at the given angular threshold, each weighted by its length
    and multiplicity over 2 pi r; a rerun at half the threshold flags
    instability instead of hiding it (`_direction_clusters`, which builds
    one distance matrix for both linkages).
    """
    x0 = np.asarray(x0, dtype=float)
    S = cur.slice_sphere(C, x0, r)
    if len(S) == 0:
        raise ValueError("empty slice; no directions to extract")
    mids = S.midpoints() - x0
    z = _complex_rows(mids)
    z = z / np.linalg.norm(z, axis=1)[:, None]
    w = S.lengths() * S.multiplicities / (2 * math.pi * r)
    return _direction_clusters(z, w, r, threshold)


def _transport_distance(A: DirectionCluster, B: DirectionCluster) -> float:
    """Weighted matching cost between two direction clusters.

    Exact small transport program; surplus weight on either side pays the
    half-diameter pi/2 of projective space.
    """
    ra, wa = A.representatives, A.weights
    rb, wb = B.representatives, B.weights
    ka, kb = len(wa), len(wb)
    cost = _fs_dist_matrix(ra, rb)
    # pad with a slack node on each side at cost pi/2
    Cpad = np.full((ka + 1, kb + 1), math.pi / 2)
    Cpad[:ka, :kb] = cost
    Cpad[ka, kb] = 0.0
    supply = np.concatenate([wa, [wb.sum()]])
    demand = np.concatenate([wb, [wa.sum()]])
    n = (ka + 1) * (kb + 1)
    A_eq = np.zeros((ka + kb + 2, n))
    for i in range(ka + 1):
        A_eq[i, i * (kb + 1):(i + 1) * (kb + 1)] = 1.0
    for j in range(kb + 1):
        A_eq[ka + 1 + j, j::kb + 1] = 1.0
    b_eq = np.concatenate([supply, demand])
    res = linprog(Cpad.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"transport solve failed: {res.message}")
    return float(res.fun)


def uniqueness_gap(C: cur.TriCurrent, x0, r: float) -> float:
    """Transport distance between direction clusters at scales r and r/2."""
    A = tangent_directions(C, x0, r)
    B = tangent_directions(C, x0, r / 2.0)
    return _transport_distance(A, B)


def _plane_from_direction(z: np.ndarray) -> np.ndarray:
    """Real orthonormal basis (m, 2) of the complex line through z."""
    z = np.asarray(z, dtype=complex)
    z = z / np.linalg.norm(z)
    return np.stack([_real_rows(z), _real_rows(1j * z)], axis=1)


def cone_concentration(C: cur.TriCurrent, x0, r: float,
                       directions: DirectionCluster, eps: float) -> float:
    """Mass fraction of the blow-up at scale r lying outside the eps-cone
    around the supplied direction planes."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    D = cur.dilate(C, x0, r)
    planes = [_plane_from_direction(z) for z in directions.representatives]
    region = cur.Region.cone_complement(np.zeros(D.m), planes, eps)
    total = cur.mass(D)
    if total <= 0:
        raise ValueError("empty blow-up")
    return cur.mass(D, region) / total


def _slice_energy(C: cur.TriCurrent, S: cur.Polyline1Current, x0) -> float:
    """Integral of the projection energy density along a slice of C, each
    chord with the tangent of the triangle it lies on."""
    if len(S) == 0:
        return 0.0
    fn = gradient_energy_density(C, x0)
    vals = fn(S.midpoints()[:, None, :], C.tangents[S.owners])[:, 0]
    return float(np.sum(vals * S.lengths() * S.multiplicities))


def goodslice_search(C: cur.TriCurrent, x0, r: float, c1: float | None = None,
                     n_candidates: int = 16):
    """First radius in [r/2, r] whose slice is short and low-energy.

    Conditions: slice mass <= c1 * rho, and slice energy <= (2/rho) times
    the annulus energy of B_r minus B_{r/2}. c1 defaults to 8 times the
    density sup over a quick ladder. Returns (rho0, slice mass, slice
    energy); raises with the full sweep table when nothing qualifies.
    """
    x0 = np.asarray(x0, dtype=float)
    if c1 is None:
        trace = density_trace(C, x0, r, N=6, q=0.75)
        c1 = 8.0 * float(trace.theta.max())
    fn = gradient_energy_density(C, x0)
    annulus_energy = cur.integrate(C, fn, cur.Region.annulus(x0, r / 2, r))
    rows = []
    for rho in np.linspace(r / 2, r, n_candidates):
        S = cur.slice_sphere(C, x0, rho)
        smass = S.mass()
        senergy = _slice_energy(C, S, x0)
        ok = smass <= c1 * rho and senergy <= (2.0 / rho) * annulus_energy + 1e-12
        rows.append((rho, smass, senergy, ok))
        if ok:
            return rho, smass, senergy
    table = "\n".join(
        f"  rho={a:.6g} slice_mass={b:.6g} slice_energy={c:.6g} ok={d}"
        for a, b, c, d in rows
    )
    raise ValueError("no good slice radius found in [r/2, r]:\n" + table)


def _orthogonal_line(z: np.ndarray) -> np.ndarray:
    """A unit vector Hermitian-orthogonal to z: (-conj z_b, conj z_a) on
    z's two largest-modulus coordinates a < b, zero elsewhere; for
    z in C^2 this is (-conj z_1, conj z_0)."""
    a, b = np.sort(np.argsort(np.abs(z), kind="stable")[-2:])
    out = np.zeros(len(z), dtype=complex)
    out[a] = -np.conj(z[b])
    out[b] = np.conj(z[a])
    return _unit_phase(out)


def dirichlet_iteration(C: cur.TriCurrent, x0, ladder,
                        excluded_radius: float = 0.2):
    """Projection energies E(r) over a decreasing radius ladder.

    Picks a chart pole opposite the dominant direction cluster and checks
    the support stays clear of it; returns (energies, decay factors, pole).
    Geometric decay of E is the engine behind the density convergence rate.
    E(r) is the integral of `gradient_energy_density` over the ball B_r;
    the ladder's balls share one `currents.integrate_ladder`, which
    evaluates the triangles inside them once.
    """
    x0 = np.asarray(x0, dtype=float)
    ladder = np.asarray(ladder, dtype=float)
    if np.any(np.diff(ladder) >= 0):
        raise ValueError("ladder must be strictly decreasing")
    dirs = tangent_directions(C, x0, float(ladder[0]))
    pole = _orthogonal_line(dirs.representatives[0])
    rel = C.centroids - x0
    d = np.linalg.norm(rel, axis=1)
    near = d <= ladder[0] * 1.5
    if np.any(near):
        z = _complex_rows(rel[near & (d > 1e-12)])
        z = z / np.linalg.norm(z, axis=1)[:, None]
        gap = _fs_dist_matrix(z, pole[None, :]).min()
        if gap < excluded_radius:
            raise ValueError(
                "support reaches the excluded chart ball around the pole "
                f"(closest class at angular distance {gap:.3g})"
            )
    energies = cur.integrate_ladder(C, gradient_energy_density(C, x0), x0, ladder)
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = energies[1:] / energies[:-1]
    return energies, factors, pole


def rate_fit(trace: DensityTrace, mode: str = "B",
             theta_hat: float | None = None, tol: float = 1e-3) -> RateFit:
    """Fit theta(r) = theta_hat + C1 * r**gamma over the trace ladder.

    Mode A regresses log(theta - theta_hat) on log r for a supplied limit;
    mode B fits all three parameters. A trace that is flat to 1e-12 is an
    exact cone and gets the sentinel instead of a divergent exponent.
    """
    if len(trace) < 6:
        raise ValueError("at least 6 ladder points required")
    r = trace.radii[::-1]  # increasing
    th = trace.theta[::-1]
    scale = max(abs(th).max(), 1e-30)
    if np.any(np.diff(th) < -tol * scale):
        raise ValueError("density trace is not decreasing toward its limit")
    if mode not in ("A", "B"):
        raise ValueError("mode must be 'A' or 'B'")

    if mode == "A":
        if theta_hat is None:
            raise ValueError("mode A needs the analytic limit")
        gaps = th - theta_hat
        if np.all(np.abs(gaps) < max(1e-12, 1e-5 * scale)):
            return RateFit(theta_hat, 0.0, math.inf, 0.0, exact_cone=True)
        keep = gaps > 0
        if keep.sum() < 3:
            raise ValueError("too few positive gaps for a log-log fit")
        x = np.log(r[keep])
        y = np.log(gaps[keep])
        (gamma, logc), res = np.polyfit(x, y, 1, cov=False), None
        pred = gamma * x + logc
        rms = float(np.sqrt(np.mean((y - pred) ** 2)))
        return RateFit(theta_hat, float(np.exp(logc)), float(gamma), rms)

    # mode B
    if np.ptp(th) < max(1e-12, 1e-5 * scale):
        return RateFit(float(th[-1]), 0.0, math.inf, 0.0, exact_cone=True)
    # seed the limit from extrapolating the two innermost points
    th0 = max(th[0] - (th[1] - th[0]), 1e-12)
    c_seed = max(th[-1] - th0, 1e-12) / r[-1] ** 2

    def model(rr, a, c, g):
        return a + c * rr**g

    popt, _ = curve_fit(
        model, r, th, p0=[th0, c_seed, 2.0],
        bounds=([0, 0, 0.05], [np.inf, np.inf, 8.0]), maxfev=20000,
    )
    resid = th - model(r, *popt)
    rms = float(np.sqrt(np.mean(resid**2)))
    return RateFit(float(popt[0]), float(popt[1]), float(popt[2]), rms)
