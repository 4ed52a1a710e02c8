"""Discrete integral 2-currents as oriented triangle meshes.

A TriCurrent is an oriented triangulated surface in R^m with nonzero integer
multiplicities per triangle. The module provides mass over regions (with
exact in-plane clipping against balls and coordinate cylinders), pairing
against 2-form fields, boundary, dilation/blow-up, spherical slicing into
1-currents, decomposition of 1-cycles into loops, and the loop Poincare
inequality quantities. A line-oriented mesh text format is included.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._clip import tri_disk_area  # noqa: F401  (perfbench/tracing.py wraps it)
from ._clip import tri_disk_areas
from .exterior import MultiForm, pairs2, plane_frames

__all__ = [
    "TriCurrent",
    "Polyline1Current",
    "Region",
    "mass",
    "integrate",
    "pair",
    "boundary",
    "dilate",
    "slice_sphere",
    "decompose_cycle",
    "loop_poincare",
    "read_mesh",
    "write_mesh",
    "TRI_QUAD_POINTS",
    "TRI_QUAD_WEIGHTS",
]

_MIN_AREA = 1e-14

# Symmetric 7-point rule (degree 5), barycentric coordinates and weights.
_a1 = (6.0 - math.sqrt(15.0)) / 21.0
_a2 = (6.0 + math.sqrt(15.0)) / 21.0
_w1 = (155.0 - math.sqrt(15.0)) / 1200.0
_w2 = (155.0 + math.sqrt(15.0)) / 1200.0
TRI_QUAD_POINTS = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [_a1, _a1, 1 - 2 * _a1],
        [_a1, 1 - 2 * _a1, _a1],
        [1 - 2 * _a1, _a1, _a1],
        [_a2, _a2, 1 - 2 * _a2],
        [_a2, 1 - 2 * _a2, _a2],
        [1 - 2 * _a2, _a2, _a2],
    ]
)
TRI_QUAD_WEIGHTS = np.array([9.0 / 40.0, _w1, _w1, _w1, _w2, _w2, _w2])


class TriCurrent:
    """Oriented triangulated 2-current with integer multiplicities.

    Vertices are points in R^m; triangles are ordered index triples carrying
    orientation; a negative multiplicity is normalized on construction by
    reversing the triangle. An optional clip ball (always centered at the
    origin, used by dilations) restricts every operation.
    """

    def __init__(self, vertices, triangles, multiplicities, clip_radius=None):
        V = np.array(vertices, dtype=float)
        T = np.array(triangles, dtype=int)
        M = np.array(multiplicities, dtype=int)
        if V.ndim != 2:
            raise ValueError("vertices must be a 2d array")
        if T.ndim != 2 or T.shape[1] != 3:
            raise ValueError("triangles must be index triples")
        if M.shape != (len(T),):
            raise ValueError("one multiplicity per triangle required")
        if np.any(M == 0):
            raise ValueError("multiplicities must be nonzero")
        # normalize sign: negative multiplicity = reversed orientation
        flip = M < 0
        T[flip] = T[flip][:, [0, 2, 1]]
        M = np.abs(M)
        self.m = V.shape[1]
        self.vertices = V
        self.triangles = T
        self.multiplicities = M
        self.clip_radius = clip_radius

        P0 = V[T[:, 0]]
        u = V[T[:, 1]] - P0
        w = V[T[:, 2]] - P0
        i, j = pairs2(self.m)
        skew = u[:, i] * w[:, j] - u[:, j] * w[:, i]
        norms = np.linalg.norm(skew, axis=1)
        self.areas = 0.5 * norms
        if np.any(self.areas < _MIN_AREA):
            raise ValueError("degenerate triangle (area below 1e-14)")
        self.tangents = skew / norms[:, None]  # unit 2-vector coefficients
        # how far a triangle reaches past its nearest vertex
        sq = [np.einsum("ij,ij->i", e, e) for e in (u, w, w - u)]
        self.longest_edges = np.sqrt(np.maximum(np.maximum(sq[0], sq[1]), sq[2]))
        self.centroids = (V[T[:, 0]] + V[T[:, 1]] + V[T[:, 2]]) / 3.0

    def __len__(self):
        return len(self.triangles)

    def total_mass(self) -> float:
        return float(np.sum(self.areas * self.multiplicities))

    def corners(self):
        """Vertex coordinates per triangle, shape (T, 3, m)."""
        return self.vertices[self.triangles]

    def is_cycle(self, tol: float = 1e-9) -> bool:
        return boundary(self).mass() <= tol * max(self.total_mass(), 1.0)


class Polyline1Current:
    """Oriented polygonal 1-current with integer multiplicities."""

    def __init__(self, points, segments, multiplicities, ordered=False):
        P = np.array(points, dtype=float)
        S = np.array(segments, dtype=int).reshape(-1, 2)
        M = np.array(multiplicities, dtype=int).reshape(-1)
        if len(M) != len(S):
            raise ValueError("one multiplicity per segment required")
        flip = M < 0
        S[flip] = S[flip][:, ::-1]
        M = np.abs(M)
        self.m = P.shape[1] if P.size else 0
        self.points = P
        self.segments = S
        self.multiplicities = M
        self.ordered = ordered  # segments form a traversal (loop output)

    def __len__(self):
        return len(self.segments)

    def lengths(self) -> np.ndarray:
        if len(self.segments) == 0:
            return np.zeros(0)
        d = self.points[self.segments[:, 1]] - self.points[self.segments[:, 0]]
        return np.linalg.norm(d, axis=1)

    def mass(self) -> float:
        return float(np.sum(self.lengths() * self.multiplicities))

    def midpoints(self) -> np.ndarray:
        return 0.5 * (
            self.points[self.segments[:, 0]] + self.points[self.segments[:, 1]]
        )

    def signed_degrees(self) -> np.ndarray:
        deg = np.zeros(len(self.points))
        np.add.at(deg, self.segments[:, 0], -self.multiplicities)
        np.add.at(deg, self.segments[:, 1], self.multiplicities)
        return deg

    def is_cycle(self, tol: float = 0) -> bool:
        if len(self.segments) == 0:
            return True
        return bool(np.all(np.abs(self.signed_degrees()) <= tol))


@dataclass(frozen=True, eq=False)
class Region:
    """A restriction region: full space, ball, annulus, coordinate cylinder,
    the complement of an epsilon-cone around a union of 2-planes, or an
    intersection of the above."""

    kind: str
    center: np.ndarray | None = None
    radius: float = 0.0
    inner: float = 0.0
    outer: float = 0.0
    axes: tuple = (0, 1)
    planes: tuple = ()
    eps: float = 0.0
    parts: tuple = ()

    @staticmethod
    def full() -> "Region":
        return Region("full")

    @staticmethod
    def ball(center, radius: float) -> "Region":
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        return Region("ball", center=np.asarray(center, float), radius=radius)

    @staticmethod
    def annulus(center, inner: float, outer: float) -> "Region":
        if not 0 < inner < outer:
            raise ValueError("annulus needs 0 < inner < outer")
        return Region(
            "annulus", center=np.asarray(center, float), inner=inner, outer=outer
        )

    @staticmethod
    def cylinder(center, radius: float, axes=(0, 1)) -> "Region":
        """Ball of given radius in the coordinate 2-plane spanned by `axes`,
        free in the remaining coordinates (the parameter ball of a graph)."""
        if radius <= 0:
            raise ValueError("cylinder radius must be positive")
        return Region(
            "cylinder",
            center=np.asarray(center, float),
            radius=radius,
            axes=tuple(axes),
        )

    @staticmethod
    def cone_complement(center, planes, eps: float) -> "Region":
        """Points with dist(x, union of planes) > eps * |x - center|.

        Each plane is given by an (m, 2) orthonormal basis through `center`.
        """
        if not 0 < eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        planes = tuple(np.asarray(p, float) for p in planes)
        return Region(
            "cone_complement",
            center=np.asarray(center, float),
            planes=planes,
            eps=eps,
        )

    @staticmethod
    def intersect(*parts) -> "Region":
        return Region("intersect", parts=tuple(parts))

    def indicator(self, x: np.ndarray) -> np.ndarray:
        """Boolean membership for points, shape (..., m)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "full":
            return np.ones(x.shape[:-1], dtype=bool)
        if self.kind == "ball":
            d = np.linalg.norm(x - self.center, axis=-1)
            return d <= self.radius
        if self.kind == "annulus":
            d = np.linalg.norm(x - self.center, axis=-1)
            return (d > self.inner) & (d <= self.outer)
        if self.kind == "cylinder":
            rel = x - self.center
            d = np.linalg.norm(rel[..., list(self.axes)], axis=-1)
            return d <= self.radius
        if self.kind == "cone_complement":
            rel = x - self.center
            r = np.linalg.norm(rel, axis=-1)
            dmin = np.full(x.shape[:-1], np.inf)
            for B in self.planes:
                proj = rel @ B  # components in the plane
                d2 = np.maximum(
                    np.einsum("...i,...i->...", rel, rel)
                    - np.einsum("...i,...i->...", proj, proj),
                    0.0,
                )
                dmin = np.minimum(dmin, np.sqrt(d2))
            return dmin > self.eps * r
        if self.kind == "intersect":
            out = np.ones(x.shape[:-1], dtype=bool)
            for p in self.parts:
                out &= p.indicator(x)
            return out
        raise ValueError(f"unknown region kind {self.kind!r}")


def _effective_region(C: TriCurrent, R: Region | None) -> Region:
    if R is None:
        R = Region.full()
    if C.clip_radius is None:
        return R
    clip = Region.ball(np.zeros(C.m), C.clip_radius)
    if R.kind == "full":
        return clip
    if R.kind == "ball" and not np.any(R.center) and R.radius <= C.clip_radius:
        return R
    if R.kind == "annulus" and not np.any(R.center) and R.outer <= C.clip_radius:
        return R
    return Region.intersect(R, clip)


def _ball_clip_areas(C: TriCurrent, center, r: float) -> np.ndarray:
    """Exact per-triangle area inside the ball B_r(center)."""
    center = np.asarray(center, dtype=float)
    V = C.vertices - center
    T = C.triangles
    vd = np.linalg.norm(V, axis=1)
    d = vd[T]  # (T, 3) vertex distances
    out = np.zeros(len(T))
    inside = np.all(d <= r, axis=1)
    out[inside] = C.areas[inside]
    # cheap reject: min vertex distance minus the longest edge
    candidate = ~inside & (d.min(axis=1) < r + C.longest_edges)
    idx = np.nonzero(candidate)[0]
    if len(idx) == 0:
        return out
    u1, u2 = plane_frames(C.tangents[idx], C.m)
    a = V[T[idx, 0]]  # first vertex in center-relative coordinates
    crel = -a  # center relative to the triangle's first vertex
    cx = np.einsum("ij,ij->i", crel, u1)
    cy = np.einsum("ij,ij->i", crel, u2)
    off2 = np.einsum("ij,ij->i", crel, crel) - cx * cx - cy * cy
    near = off2 < r * r  # the plane meets the ball in a disk of radius rp
    idx, a, u1, u2, cx, cy = idx[near], a[near], u1[near], u2[near], cx[near], cy[near]
    rp = np.sqrt(r * r - off2[near])
    # triangle vertices in plane coordinates, disk center at origin
    p = V[T[idx]] - a[:, None, :]
    x = np.einsum("nkj,nj->nk", p, u1) - cx[:, None]
    y = np.einsum("nkj,nj->nk", p, u2) - cy[:, None]
    out[idx] = np.abs(tri_disk_areas(np.stack([x, y], axis=2), rp))
    return out


def _cylinder_clip_areas(C: TriCurrent, center, r: float, axes) -> np.ndarray:
    """Exact per-triangle area inside a coordinate cylinder."""
    ax = list(axes)
    center = np.asarray(center, dtype=float)
    P2 = (C.vertices - center)[:, ax]  # projected vertices
    T = C.triangles
    q = P2[T]  # (T, 3, 2)
    d = np.linalg.norm(q, axis=2)
    out = np.zeros(len(T))
    inside = np.all(d <= r, axis=1)
    out[inside] = C.areas[inside]
    edges = np.linalg.norm(q - q[:, [1, 2, 0], :], axis=2).max(axis=1)
    candidate = ~inside & (d.min(axis=1) < r + edges)
    idx = np.nonzero(candidate)[0]
    v = q[idx]
    signed2 = 0.5 * (
        (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
        - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1])
    )
    areas = C.areas[idx]
    # a degenerate projection: the cylinder wall crosses an edge-on
    # triangle, which counts whole or not at all by its centroid
    edge_on = np.abs(signed2) < 1e-12 * np.maximum(areas, 1e-12)
    vote = np.where(np.linalg.norm(v.mean(axis=1), axis=1) <= r, areas, 0.0)
    clipped = np.abs(tri_disk_areas(v, r))
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.minimum(clipped / np.abs(signed2), 1.0)
    out[idx] = np.where(edge_on, vote, areas * share)
    return out


def _midpoint_children(corners):
    """The four midpoint children of each triangle in (n, 3, m) corners."""
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    m01, m12, m20 = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    return [
        np.stack([a, m01, m20], axis=1),
        np.stack([m01, b, m12], axis=1),
        np.stack([m20, m12, c], axis=1),
        np.stack([m01, m12, m20], axis=1),
    ]


def _subdivide(tri, owner, area, R: Region, is_leaf):
    """Level-synchronous midpoint subdivision of a frontier of sub-triangles.

    The frontier is held as corners (n, 3, m), the index of the owning
    triangle and the area. At each depth `R.indicator` is called once, on
    the corners and the centroid of every sub-triangle, giving membership
    inn (n, 4) with the centroid last. `is_leaf(depth, inn, area)` marks the
    sub-triangles that retire as leaves; the others are split into their
    four midpoint children, each owning a quarter of the area. `is_leaf`
    must retire every sub-triangle by some depth. Returns the leaves'
    corners, owners, areas and inn, each concatenated over the depths.
    """
    leaves = []
    for depth in itertools.count():
        centroids = tri.mean(axis=1, keepdims=True)
        inn = R.indicator(np.concatenate([tri, centroids], axis=1))
        done = is_leaf(depth, inn, area)
        leaves.append((tri[done], owner[done], area[done], inn[done]))
        if np.all(done):
            return [np.concatenate(col) for col in zip(*leaves)]
        tri = np.concatenate(_midpoint_children(tri[~done]))
        owner = np.tile(owner[~done], 4)
        area = np.tile(area[~done] / 4.0, 4)


_MASS_MAX_DEPTH = 9


def _subdiv_mass(C: TriCurrent, R: Region, rel_tol: float = 1e-4) -> float:
    """Mass over a general region by subdivision against the indicator.

    A (sub-)triangle is settled when its three vertices and its centroid are
    all inside R, or all outside. A settled triangle counts its area, or 0;
    the others form the frontier that `_subdivide` splits level by level.
    Leaf rule for a sub-triangle at depth d: from d = 2 on, a settled one
    counts its area, or 0 (at d = 0 and 1 it is split even if settled); at
    d = 9, or once its area is at most rel_tol^2 * max(total mass, 1e-12),
    it counts its area if its centroid is inside and 0 otherwise. Leaf
    areas are summed per triangle, then weighted by its multiplicity.
    """
    total = C.total_mass()
    corners = C.corners()
    verts_in = R.indicator(corners)
    cents_in = R.indicator(C.centroids)
    all_in = np.all(verts_in, axis=1) & cents_in
    all_out = np.all(~verts_in, axis=1) & ~cents_in
    acc = float(np.sum(C.areas[all_in] * C.multiplicities[all_in]))
    small = rel_tol * rel_tol * max(total, 1e-12)

    def is_leaf(depth, inn, area):
        verts, cin = inn[:, :3], inn[:, 3]
        settled = (np.all(verts, axis=1) & cin) | (~np.any(verts, axis=1) & ~cin)
        capped = (depth == _MASS_MAX_DEPTH) | (area <= small)
        return (settled & (depth >= 2)) | capped

    # every leaf counts its area if its centroid is inside, whatever retired it
    owner = np.nonzero(~(all_in | all_out))[0]
    _, owner, area, inn = _subdivide(
        corners[owner], owner, C.areas[owner], R, is_leaf
    )
    per_triangle = np.bincount(owner, weights=area * inn[:, 3], minlength=len(C))
    return acc + float(per_triangle @ C.multiplicities)


def mass(C: TriCurrent, R: Region | None = None) -> float:
    """Mass of C restricted to a region, M(C |_ R).

    Ball, annulus and cylinder restrictions are clipped exactly in each
    triangle's plane (the boundary meets a plane in a circle); other regions
    go through level-synchronous subdivision against the membership
    indicator (`_subdiv_mass`).
    """
    R = _effective_region(C, R)
    mult = C.multiplicities
    if R.kind == "full":
        return float(np.sum(C.areas * mult))
    if R.kind == "ball":
        return float(np.sum(_ball_clip_areas(C, R.center, R.radius) * mult))
    if R.kind == "annulus":
        outer = _ball_clip_areas(C, R.center, R.outer)
        inner = _ball_clip_areas(C, R.center, R.inner)
        return float(np.sum((outer - inner) * mult))
    if R.kind == "cylinder":
        return float(
            np.sum(_cylinder_clip_areas(C, R.center, R.radius, R.axes) * mult)
        )
    return _subdiv_mass(C, R)


def _eval_form_many(psi, points: np.ndarray) -> np.ndarray:
    """Evaluate a 2-form field at many points; returns (P, n2) coefficients."""
    if isinstance(psi, MultiForm):
        return np.broadcast_to(psi.coeffs, (len(points), len(psi.coeffs)))
    return psi.evaluate_many(points)


# relative change of a triangle's mean value that makes the quadrature keep
# its refined estimate
_REFINE_TOL = 1e-9


def _quad_integrate(corners, tangents, areas, mults, fn):
    """Order-7 quadrature of a scalar field with one adaptive refinement pass.

    fn(points (P, m), tangents (P, n2)) -> (P,) values.
    """
    if len(corners) == 0:
        return 0.0

    def once(crn):
        pts = np.einsum("qb,tbm->tqm", TRI_QUAD_POINTS, crn)
        flat = pts.reshape(-1, pts.shape[-1])
        tans = np.repeat(tangents, 7, axis=0)
        vals = np.asarray(fn(flat, tans), dtype=float).reshape(len(crn), 7)
        return vals @ TRI_QUAD_WEIGHTS

    coarse = once(corners)  # per-triangle mean value
    # refinement pass: re-estimate on 4 children, keep where it matters
    fine = sum(once(ch) for ch in _midpoint_children(corners)) / 4.0
    scale = np.abs(coarse).max() if len(coarse) else 1.0
    use_fine = np.abs(fine - coarse) > _REFINE_TOL * max(scale, 1e-30)
    est = np.where(use_fine, fine, coarse)
    return float(np.sum(est * areas * mults))


_INTEGRATE_MAX_DEPTH = 5


def integrate(C: TriCurrent, fn, R: Region | None = None) -> float:
    """Integral over ||C|| restricted to R of a pointwise scalar field.

    fn(points (P, m), tangents (P, n2)) -> (P,); tangents are the unit
    2-vector coefficients of the triangle each point sits on.

    Triangles with every vertex inside R go through the order-7 quadrature
    with one adaptive refinement pass (`_quad_integrate`). Every other
    triangle is subdivided into its four midpoint children, level by level,
    until a sub-triangle has all vertices inside, no vertex inside, or sits
    at depth 5. Each such leaf gets the 7-point rule masked by membership of
    the quadrature points, and fn is not called on a leaf with no
    quadrature point inside. A triangle with no vertex inside R is thus one
    masked leaf and is not split.
    """
    R = _effective_region(C, R)
    corners = C.corners()
    if R.kind == "full":
        return _quad_integrate(corners, C.tangents, C.areas, C.multiplicities, fn)
    verts_in = R.indicator(corners)
    all_in = np.all(verts_in, axis=1)
    acc = _quad_integrate(
        corners[all_in],
        C.tangents[all_in],
        C.areas[all_in],
        C.multiplicities[all_in],
        fn,
    )

    def is_leaf(depth, inn, area):
        verts = inn[:, :3]
        return (
            np.all(verts, axis=1)
            | ~np.any(verts, axis=1)
            | (depth == _INTEGRATE_MAX_DEPTH)
        )

    owner = np.nonzero(~all_in)[0]
    tri, owner, area, _ = _subdivide(
        corners[owner], owner, C.areas[owner], R, is_leaf
    )
    pts = np.einsum("qb,lbm->lqm", TRI_QUAD_POINTS, tri)
    inn = R.indicator(pts)
    hit = np.any(inn, axis=1)
    if not np.any(hit):
        return acc
    pts, inn, owner, area = pts[hit], inn[hit], owner[hit], area[hit]
    tans = np.repeat(C.tangents[owner], 7, axis=0)
    vals = np.asarray(fn(pts.reshape(-1, C.m), tans), dtype=float)
    per_leaf = (vals.reshape(-1, 7) * (TRI_QUAD_WEIGHTS * inn)).sum(axis=1)
    return acc + float(np.sum(per_leaf * area * C.multiplicities[owner]))


def pair(C: TriCurrent, psi, R: Region | None = None) -> float:
    """Pairing <C |_ R, psi> for a 2-form field psi.

    psi is a constant MultiForm or a field whose evaluate_many(points (P, m))
    returns coefficient rows (P, n2).
    """
    if isinstance(psi, MultiForm):
        Reff = _effective_region(C, R)
        if Reff.kind == "full":
            # constant integrand per flat triangle: quadrature is exact
            return float(
                np.sum((C.tangents @ psi.coeffs) * C.areas * C.multiplicities)
            )

    def fn(points, tangents):
        vals = _eval_form_many(psi, points)
        return np.einsum("pc,pc->p", vals, tangents)

    return integrate(C, fn, R)


def boundary(C: TriCurrent) -> Polyline1Current:
    """Signed edge sum; the 1-current boundary of the mesh."""
    edges = {}
    for (i, j, k), mult in zip(C.triangles, C.multiplicities):
        for a, b in ((i, j), (j, k), (k, i)):
            key = (min(a, b), max(a, b))
            sgn = 1 if a < b else -1
            edges[key] = edges.get(key, 0) + sgn * int(mult)
    segs, mults = [], []
    for (a, b), net in edges.items():
        if net != 0:
            segs.append((a, b))
            mults.append(net)
    if not segs:
        return Polyline1Current(np.zeros((0, C.m)), np.zeros((0, 2), int), [])
    return Polyline1Current(C.vertices, segs, mults)


def dilate(C: TriCurrent, x0, r: float) -> TriCurrent:
    """Blow-up: push forward by x -> (x - x0)/r, clipped to the unit ball."""
    if r <= 0:
        raise ValueError("dilation scale must be positive")
    x0 = np.asarray(x0, dtype=float)
    V = (C.vertices - x0) / r
    # drop triangles that cannot meet the unit ball
    dmin = np.linalg.norm(V, axis=1)[C.triangles].min(axis=1)
    keep = dmin <= 1.0 + C.longest_edges / r
    T = C.triangles[keep]
    used = np.unique(T)
    remap = np.zeros(len(V), dtype=int)
    remap[used] = np.arange(len(used))
    return TriCurrent(V[used], remap[T], C.multiplicities[keep], clip_radius=1.0)


def _regular_slice_radius(C: TriCurrent, x0, rho: float) -> float:
    d = np.linalg.norm(C.vertices - np.asarray(x0, float), axis=1)
    for k in range(6):
        cand = rho * (1.0 + k * 1e-10)
        if np.min(np.abs(d - cand)) > 1e-12:
            return cand
    raise ValueError("no regular slice radius found near rho")


def slice_sphere(C: TriCurrent, x0, rho: float) -> Polyline1Current:
    """Slice by the sphere |x - x0| = rho: chord segments per triangle.

    Chords inherit the triangle multiplicity and the orientation induced by
    the boundary of C restricted to the ball (exit point to entry point).
    """
    if rho <= 0:
        raise ValueError("slice radius must be positive")
    x0 = np.asarray(x0, dtype=float)
    rho = _regular_slice_radius(C, x0, rho)
    V = C.vertices - x0
    points = []
    segs = []
    mults = []
    index = {}

    def point_id(p):
        key = tuple(np.round(p / 1e-9).astype(np.int64))
        got = index.get(key)
        if got is None:
            got = len(points)
            points.append(p)
            index[key] = got
        return got

    def emit(tri, mult, depth):
        d = np.linalg.norm(tri, axis=1)
        if np.all(d <= rho) or np.all(d >= rho):
            return
        crossings = []  # (walk position, point, is_exit)
        for e in range(3):
            A = tri[e]
            B = tri[(e + 1) % 3]
            D = B - A
            qa = float(D @ D)
            qb = float(A @ D)
            qc = float(A @ A - rho * rho)
            disc = qb * qb - qa * qc
            if disc <= 0 or qa == 0:
                continue
            sq = math.sqrt(disc)
            for t in ((-qb - sq) / qa, (-qb + sq) / qa):
                if 0.0 < t < 1.0:
                    P = A + t * D
                    # moving along the edge, are we leaving the ball?
                    is_exit = float(P @ D) > 0.0
                    crossings.append((e + t, P, is_exit))
        crossings.sort(key=lambda c: c[0])
        n = len(crossings)
        if n % 2 or n == 0:
            # tangency or a vertex too close to the sphere: refine
            if depth >= 8:
                return
            m01 = 0.5 * (tri[0] + tri[1])
            m12 = 0.5 * (tri[1] + tri[2])
            m20 = 0.5 * (tri[2] + tri[0])
            emit(np.array([tri[0], m01, m20]), mult, depth + 1)
            emit(np.array([m01, tri[1], m12]), mult, depth + 1)
            emit(np.array([m20, m12, tri[2]]), mult, depth + 1)
            emit(np.array([m01, m12, m20]), mult, depth + 1)
            return
        for pos in range(n):
            _, P, is_exit = crossings[pos]
            if not is_exit:
                continue
            # chord runs from this exit to the next entry along the walk
            for step in range(1, n + 1):
                _, Q, q_exit = crossings[(pos + step) % n]
                if not q_exit:
                    ia = point_id(P)
                    ib = point_id(Q)
                    if ia != ib:
                        segs.append((ia, ib))
                        mults.append(int(mult))
                    break

    corners = C.corners() - x0
    d = np.linalg.norm(corners, axis=2)
    touch = np.nonzero((d.min(axis=1) < rho) & (d.max(axis=1) > rho))[0]
    for k in touch:
        emit(corners[k], C.multiplicities[k], 0)
    if not segs:
        return Polyline1Current(np.zeros((0, C.m)), np.zeros((0, 2), int), [])
    return Polyline1Current(np.array(points) + x0, segs, mults)


def decompose_cycle(P: Polyline1Current):
    """Split an integral 1-cycle into indecomposable unit-multiplicity loops.

    Mass is conserved exactly; repeated traversals are split into copies.
    """
    if not P.is_cycle():
        raise ValueError("input is not a cycle")
    # adjacency: list of directed edges per start vertex
    adj = {}
    for (a, b), mult in zip(P.segments, P.multiplicities):
        for _ in range(int(mult)):
            adj.setdefault(int(a), []).append(int(b))
    loops = []
    for start in sorted(adj):
        while adj.get(start):
            # walk until back at start with nothing left, pinching every
            # revisit into a simple loop along the way
            path = [start]
            pos = {start: 0}
            v = start
            while adj.get(v):
                nxt = adj[v].pop()
                if nxt in pos:
                    cut = pos[nxt]
                    loops.append(path[cut:] + [nxt])
                    for w in path[cut + 1 :]:
                        del pos[w]
                    path = path[: cut + 1]
                else:
                    path.append(nxt)
                    pos[nxt] = len(path) - 1
                v = nxt
            if len(path) != 1:
                raise ValueError("walk got stuck; input degrees not balanced")
    out = []
    for loop in loops:
        segs = [(loop[i], loop[i + 1]) for i in range(len(loop) - 1)]
        out.append(
            Polyline1Current(P.points, segs, np.ones(len(segs), int), ordered=True)
        )
    return out


def loop_poincare(T: Polyline1Current, g):
    """Both sides of the loop Poincare inequality with constant M(T)^2.

    g is a callable evaluated at segment midpoints (scalar or vector valued).
    Returns (mean, integral of |g - mean|^2 ds, M(T)^2 * integral of |g'|^2 ds).
    """
    if not T.ordered or len(T) < 3:
        raise ValueError("a traversal-ordered loop with >= 3 segments required")
    L = T.lengths()
    mids = T.midpoints()
    vals = np.array([np.atleast_1d(np.asarray(g(x), dtype=float)) for x in mids])
    total = float(L.sum())
    mean = (vals * L[:, None]).sum(axis=0) / total
    lhs = float(((vals - mean) ** 2).sum(axis=1) @ L)
    # derivative between consecutive midpoints (cyclic)
    nxt = np.roll(vals, -1, axis=0)
    dl = 0.5 * (L + np.roll(L, -1))
    deriv2 = ((nxt - vals) ** 2).sum(axis=1) / dl**2
    energy = float(deriv2 @ dl)
    mass_sq = T.mass() ** 2
    mean_out = float(mean[0]) if mean.size == 1 else mean
    return mean_out, lhs, mass_sq * energy


def read_mesh(path) -> TriCurrent:
    """Read the line-oriented mesh text format.

    Grammar: optional `#` comments; `dim m`; `vertex x1 ... xm` lines;
    `tri i j k mult` lines (0-based indices, nonzero integer multiplicity).
    """
    m = None
    verts = []
    tris = []
    mults = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            if tok[0] == "dim":
                m = int(tok[1])
            elif tok[0] == "vertex":
                if m is None:
                    raise ValueError(f"line {lineno}: vertex before dim")
                x = [float(t) for t in tok[1:]]
                if len(x) != m:
                    raise ValueError(f"line {lineno}: expected {m} coordinates")
                verts.append(x)
            elif tok[0] == "tri":
                i, j, k, mult = (int(t) for t in tok[1:5])
                tris.append((i, j, k))
                mults.append(mult)
            else:
                raise ValueError(f"line {lineno}: unknown record {tok[0]!r}")
    if m is None:
        raise ValueError("missing dim record")
    return TriCurrent(verts, tris, mults)


def write_mesh(path, C: TriCurrent) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim {C.m}\n")
        for v in C.vertices:
            fh.write("vertex " + " ".join(f"{x:.17g}" for x in v) + "\n")
        for (i, j, k), mult in zip(C.triangles, C.multiplicities):
            fh.write(f"tri {i} {j} {k} {mult}\n")
