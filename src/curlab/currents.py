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
    "mass_ladder",
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
    """Oriented polygonal 1-current with integer multiplicities.

    `dropped` counts the sub-triangles a slice could not resolve into
    chords at its depth cap (see `slice_sphere`); it is 0 otherwise.
    `owners`, set on a slice, holds the index of the triangle each segment
    lies on; it is None otherwise.
    """

    def __init__(self, points, segments, multiplicities, ordered=False,
                 dropped=0, owners=None):
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
        self.dropped = dropped
        self.owners = None if owners is None else np.asarray(owners, dtype=int)

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
        """The intersection of regions; nested intersections are flattened,
        so every part is a basic region."""
        flat = []
        for p in parts:
            flat.extend(p.parts if p.kind == "intersect" else (p,))
        return Region("intersect", parts=tuple(flat))

    def indicator(self, x: np.ndarray) -> np.ndarray:
        """Boolean membership for points, shape (..., m)."""
        x = np.asarray(x, dtype=float)
        if self.kind != "intersect":
            return self._basic_indicator(x)
        out = np.ones(x.shape[:-1], dtype=bool)
        for p in self.parts:
            out &= p._basic_indicator(x)
        return out

    def _basic_indicator(self, x: np.ndarray) -> np.ndarray:
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


def _ball_clip(C: TriCurrent, V, idx, r: float) -> np.ndarray:
    """Exact areas inside the ball B_r of triangles idx, with the vertices
    V relative to the ball's center: each plane meets the ball in a disk."""
    T = C.triangles
    u1, u2 = plane_frames(C.tangents[idx], C.m)
    a = V[T[idx, 0]]  # first vertex in center-relative coordinates
    crel = -a  # center relative to the triangle's first vertex
    cx = np.einsum("ij,ij->i", crel, u1)
    cy = np.einsum("ij,ij->i", crel, u2)
    off2 = np.einsum("ij,ij->i", crel, crel) - cx * cx - cy * cy
    near = off2 < r * r  # the plane meets the ball in a disk of radius rp
    out = np.zeros(len(idx))
    idx, a, u1, u2, cx, cy = idx[near], a[near], u1[near], u2[near], cx[near], cy[near]
    rp = np.sqrt(r * r - off2[near])
    # triangle vertices in plane coordinates, disk center at origin
    p = V[T[idx]] - a[:, None, :]
    x = np.einsum("nkj,nj->nk", p, u1) - cx[:, None]
    y = np.einsum("nkj,nj->nk", p, u2) - cy[:, None]
    out[near] = np.abs(tri_disk_areas(np.stack([x, y], axis=2), rp))
    return out


def _cylinder_clip(C: TriCurrent, P2, idx, r: float) -> np.ndarray:
    """Exact areas inside the cylinder of radius r of triangles idx, with
    the vertices P2 projected to its plane relative to its axis: the share
    of each projection inside the disk, times the triangle's area."""
    v = P2[C.triangles[idx]]
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
    return np.where(edge_on, vote, areas * share)


def _clip_sweep(C: TriCurrent, center, radii, axes=None):
    """Exact per-triangle areas inside the balls B_r(center), or inside the
    coordinate cylinders of radius r over the plane `axes`, for each r in
    radii: a generator of one length-T array per radius, in order.

    What does not depend on the radius is computed once: the vertex
    distances to the center (projected to the `axes` plane for cylinders)
    gathered per triangle, each triangle's nearest and farthest, and its
    reach past its nearest vertex (the longest edge, projected for
    cylinders). Per radius, a triangle whose farthest vertex lies within r
    counts whole, one whose nearest vertex lies within r plus its reach is
    clipped exactly, and the others count 0.
    """
    center = np.asarray(center, dtype=float)
    T = C.triangles
    V = C.vertices - center
    if axes is None:
        d = np.linalg.norm(V, axis=1)[T]
        reach = C.longest_edges
        clip, coords = _ball_clip, V
    else:
        P2 = V[:, list(axes)]  # projected vertices
        d = np.linalg.norm(P2, axis=1)[T]
        x, y = P2[:, 0][T], P2[:, 1][T]
        dx, dy = x - x[:, [2, 0, 1]], y - y[:, [2, 0, 1]]
        sq = dx * dx + dy * dy  # squared projected edge lengths
        reach = np.sqrt(np.maximum(np.maximum(sq[:, 0], sq[:, 1]), sq[:, 2]))
        clip, coords = _cylinder_clip, P2
    dmin = np.minimum(np.minimum(d[:, 0], d[:, 1]), d[:, 2])
    dmax = np.maximum(np.maximum(d[:, 0], d[:, 1]), d[:, 2])
    for r in radii:
        inside = dmax <= r
        out = np.where(inside, C.areas, 0.0)
        # cheap reject: the nearest vertex farther than r plus the reach
        idx = np.nonzero(~inside & (dmin < r + reach))[0]
        if len(idx):
            out[idx] = clip(C, coords, idx, r)
        yield out


def mass_ladder(C: TriCurrent, center, radii, axes=None) -> np.ndarray:
    """Masses of C in the balls B_r(center), or in the coordinate cylinders
    over the plane `axes`, for each r in radii.

    The same numbers as `mass` region by region, from one `_clip_sweep`
    over the radii whose region stays a plain ball or cylinder under the
    clip ball of C; the others go through `_subdiv_mass`.
    """
    radii = np.asarray(radii, dtype=float)
    if axes is None:
        regions = [Region.ball(center, r) for r in radii]
    else:
        regions = [Region.cylinder(center, r, axes) for r in radii]
    effective = [_effective_region(C, R) for R in regions]
    plain = np.array([E.kind != "intersect" for E in effective], dtype=bool)
    out = np.empty(len(radii))
    for k in np.nonzero(~plain)[0]:
        out[k] = _subdiv_mass(C, effective[k])
    sweep = _clip_sweep(C, center, radii[plain], axes)
    for k, areas in zip(np.nonzero(plain)[0], sweep):
        out[k] = np.sum(areas * C.multiplicities)
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


# base-4 digits a sub-triangle's path key holds, most significant first
_PATH_DIGITS = 30


def _subdivide(tri, owner, area, leaf_rule):
    """Level-synchronous midpoint subdivision of a frontier of sub-triangles.

    The frontier is held as corners (n, 3, m), the index of the owning
    triangle and the area. At each depth `leaf_rule(depth, tri, area)` is
    called once on the whole frontier and returns a mask of the
    sub-triangles that retire as leaves and a tuple of arrays with one row
    per sub-triangle, which the leaves keep. The others are split into their
    four midpoint children, each owning a quarter of the area. The rule must
    retire every sub-triangle by some depth. Returns the leaves' corners,
    owners, areas, path keys and kept arrays, each concatenated over the
    depths. A path key holds the child indices from the owner down as
    base-4 digits, most significant first, so sorting the leaves by owner
    and key puts them in depth-first order.
    """
    path = np.zeros(len(tri), dtype=np.int64)
    leaves = []
    for depth in itertools.count():
        done, kept = leaf_rule(depth, tri, area)
        leaves.append((tri[done], owner[done], area[done], path[done])
                      + tuple(k[done] for k in kept))
        if np.all(done):
            return [np.concatenate(col) for col in zip(*leaves)]
        tri = np.concatenate(_midpoint_children(tri[~done]))
        owner = np.tile(owner[~done], 4)
        area = np.tile(area[~done] / 4.0, 4)
        step = 4 ** (_PATH_DIGITS - 1 - depth)
        path = np.concatenate([path[~done] + k * step for k in range(4)])


def _membership_rule(R: Region, is_leaf):
    """A `_subdivide` leaf rule on membership in R.

    `R.indicator` is called on the corners and the centroid of every
    sub-triangle, giving inn (n, 4) with the centroid last;
    `is_leaf(depth, inn, area)` marks the leaves, which keep inn.
    """

    def rule(depth, tri, area):
        centroids = tri.mean(axis=1, keepdims=True)
        inn = R.indicator(np.concatenate([tri, centroids], axis=1))
        return is_leaf(depth, inn, area), (inn,)

    return rule


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
    _, owner, area, _, inn = _subdivide(
        corners[owner], owner, C.areas[owner], _membership_rule(R, is_leaf)
    )
    per_triangle = np.bincount(owner, weights=area * inn[:, 3], minlength=len(C))
    return acc + float(per_triangle @ C.multiplicities)


def mass(C: TriCurrent, R: Region | None = None) -> float:
    """Mass of C restricted to a region, M(C |_ R).

    Ball, annulus and cylinder restrictions are clipped exactly in each
    triangle's plane (the boundary meets a plane in a circle), by the one-
    or two-radius `_clip_sweep`; other regions go through level-synchronous
    subdivision against the membership indicator (`_subdiv_mass`).
    """
    R = _effective_region(C, R)
    mult = C.multiplicities
    if R.kind == "full":
        return float(np.sum(C.areas * mult))
    if R.kind == "ball":
        (areas,) = _clip_sweep(C, R.center, [R.radius])
        return float(np.sum(areas * mult))
    if R.kind == "annulus":
        outer, inner = _clip_sweep(C, R.center, [R.outer, R.inner])
        return float(np.sum((outer - inner) * mult))
    if R.kind == "cylinder":
        (areas,) = _clip_sweep(C, R.center, [R.radius], R.axes)
        return float(np.sum(areas * mult))
    return _subdiv_mass(C, R)


def _eval_form_grouped(psi, points: np.ndarray) -> np.ndarray:
    """Evaluate a 2-form field at grouped points (L, k, m); returns the
    coefficients (L, k, n2)."""
    if isinstance(psi, MultiForm):
        return np.broadcast_to(psi.coeffs, points.shape[:-1] + psi.coeffs.shape)
    flat = psi.evaluate_many(points.reshape(-1, points.shape[-1]))
    return flat.reshape(points.shape[:-1] + flat.shape[-1:])


# relative change of a triangle's mean value that makes the quadrature keep
# its refined estimate
_REFINE_TOL = 1e-9


def _quad_points(corners):
    """The 7 quadrature points of each triangle in corners (T, 3, m), as
    (T, 7, m): the barycentric sums of `einsum("qb,tbm->tqm", ...)`, in
    the same order, without its slower general loop."""
    W = TRI_QUAD_POINTS[:, :, None]
    return (
        W[:, 0] * corners[:, None, 0]
        + W[:, 1] * corners[:, None, 1]
        + W[:, 2] * corners[:, None, 2]
    )


def _quad_integrate(corners, tangents, areas, mults, fn):
    """Order-7 quadrature of a scalar field with one adaptive refinement pass.

    fn(points (T, 7, m), tangents (T, n2)) -> (T, 7) values, as in
    `integrate`.
    """
    if len(corners) == 0:
        return 0.0

    def once(crn):
        vals = np.asarray(fn(_quad_points(crn), tangents), dtype=float)
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

    The integrand sees the quadrature points grouped by the (sub-)triangle
    they lie on: fn(points (L, 7, m), tangents (L, n2)) -> (L, 7) values,
    where tangents[l] is the unit 2-vector coefficient row of the triangle
    under points[l]. An integrand should broadcast over any group size,
    since `blowup` also calls its density with groups of one point.

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
    tri, owner, area, _, _ = _subdivide(
        corners[owner], owner, C.areas[owner], _membership_rule(R, is_leaf)
    )
    pts = _quad_points(tri)
    inn = R.indicator(pts)
    hit = np.any(inn, axis=1)
    if not np.any(hit):
        return acc
    pts, inn, owner, area = pts[hit], inn[hit], owner[hit], area[hit]
    vals = np.asarray(fn(pts, C.tangents[owner]), dtype=float)
    per_leaf = (vals * (TRI_QUAD_WEIGHTS * inn)).sum(axis=1)
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
        return np.einsum("lqc,lc->lq", _eval_form_grouped(psi, points), tangents)

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


def _dot(u, v):
    """Row-wise inner products over the last axis."""
    return np.einsum("...i,...i->...", u, v)


def _closest_points_on_triangles(p, a, b, c):
    """Closest points of triangles (a, b, c) to p, with barycentrics.

    Ericson, Real-Time Collision Detection, 5.1.5, on arrays: p, a, b and c
    broadcast to (..., m); returns q (..., m) and the barycentric coordinates
    (..., 3). Each Voronoi region is a mask, a pair belongs to the first
    region in Ericson's order whose test holds, and each region's point and
    coordinates use his arithmetic.
    """
    ab = b - a
    ac = c - a
    ap = p - a
    bp = p - b
    cp = p - c
    d1, d2 = _dot(ab, ap), _dot(ac, ap)
    d3, d4 = _dot(ab, bp), _dot(ac, bp)
    d5, d6 = _dot(ab, cp), _dot(ac, cp)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    tests = (
        (d1 <= 0) & (d2 <= 0),  # vertex A
        (d3 >= 0) & (d4 <= d3),  # vertex B
        (vc <= 0) & (d1 >= 0) & (d3 <= 0),  # edge AB
        (d6 >= 0) & (d5 <= d6),  # vertex C
        (vb <= 0) & (d2 >= 0) & (d6 <= 0),  # edge AC
        (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0),  # edge BC
    )
    taken = np.zeros(d1.shape, dtype=bool)
    regions = []
    for test in tests:
        regions.append(test & ~taken)
        taken |= test
    A, B, AB, C, AC, BC = regions
    inside = ~taken
    # q = base + s * edge + t * ac: base is a, or b on B and BC, or c on C;
    # edge is ab, or c - b on BC
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = va + vb + vc
        s = np.where(inside, vb / denom, 0.0)
        s = np.where(AB, d1 / (d1 - d3), s)
        s = np.where(BC, (d4 - d3) / ((d4 - d3) + (d5 - d6)), s)
        t = np.where(inside, vc / denom, 0.0)
        t = np.where(AC, d2 / (d2 - d6), t)
    base = np.where((B | BC)[..., None], b, np.where(C[..., None], c, a))
    edge = np.where(BC[..., None], c - b, ab)
    q = base + s[..., None] * edge + t[..., None] * ac
    bary = np.stack([
        np.where(B | C | BC, 0.0, 1 - s - t),
        np.where(B, 1.0, np.where(BC, 1 - s, s)),
        np.where(C, 1.0, np.where(BC, s, t)),
    ], axis=-1)
    return q, bary


def _regular_slice_radius(C: TriCurrent, x0, rho: float) -> float:
    d = np.linalg.norm(C.vertices - np.asarray(x0, float), axis=1)
    for k in range(6):
        cand = rho * (1.0 + k * 1e-10)
        if np.min(np.abs(d - cand)) > 1e-12:
            return cand
    raise ValueError("no regular slice radius found near rho")


_SLICE_MAX_DEPTH = 8


def _sphere_crossings(tri, rho: float):
    """Where the edges of sub-triangles cross the sphere |x| = rho.

    tri (n, 3, m) holds corners relative to the sphere's center; edge e runs
    from corner e to corner e + 1 (mod 3). Each edge has two root slots, so
    returns, per slot (n, 6): the walk position e + t of a crossing at edge
    parameter 0 < t < 1 (inf in an empty slot), the point (n, 6, m), and
    whether moving along the edge leaves the ball there.
    """
    n, _, m = tri.shape

    def dot(u, v):  # as a stack of vector `@`s, which sums like a 1-d `@`
        return (u[..., None, :] @ v[..., :, None])[..., 0, 0]

    D = tri[:, [1, 2, 0]] - tri
    qa = dot(D, D)
    qb = dot(tri, D)
    qc = dot(tri, tri) - rho * rho
    disc = qb * qb - qa * qc
    ok = (disc > 0) & (qa != 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(np.where(ok, disc, 0.0))
        t = np.stack([(-qb - sq) / qa, (-qb + sq) / qa], axis=2)  # (n, 3, 2)
    hit = ok[..., None] & (t > 0.0) & (t < 1.0)
    t = np.where(hit, t, 0.0)
    P = tri[:, :, None, :] + t[..., None] * D[:, :, None, :]
    leaving = dot(P, D[:, :, None, :]) > 0.0
    pos = np.where(hit, np.arange(3.0)[:, None] + t, np.inf)
    return pos.reshape(n, 6), P.reshape(n, 6, m), leaving.reshape(n, 6)


def slice_sphere(C: TriCurrent, x0, rho: float) -> Polyline1Current:
    """Slice by the sphere |x - x0| = rho: chord segments per triangle.

    Chords inherit the triangle multiplicity and the orientation induced by
    the boundary of C restricted to the ball (exit point to entry point),
    and the result's `owners` names the triangle each chord lies on.

    A (sub-)triangle meets the sphere when its closest point to x0 lies
    inside the ball and a vertex lies outside. The triangles that meet it go
    through `_subdivide`: a sub-triangle that meets it retires once its
    edges cross the sphere an even, nonzero number of times, and is split
    otherwise (a tangency, a vertex too close to the sphere, or the sphere's
    trace inside its face), down to depth 8. Each retired leaf pairs every
    exit with the next entry along its boundary walk, and points closer
    than 1e-9 are merged. Leaves still unpaired at depth 8 are dropped and
    counted in the result's `dropped`.
    """
    if rho <= 0:
        raise ValueError("slice radius must be positive")
    x0 = np.asarray(x0, dtype=float)
    rho = _regular_slice_radius(C, x0, rho)
    corners = C.corners() - x0
    d = np.linalg.norm(corners, axis=2)
    # the nearest vertex is within the longest edge of the closest point
    near = d.min(axis=1) < rho + C.longest_edges
    cand = np.nonzero(near & (d.max(axis=1) > rho))[0]

    def rule(depth, tri, area):
        q, _ = _closest_points_on_triangles(0.0, tri[:, 0], tri[:, 1], tri[:, 2])
        far = np.linalg.norm(tri, axis=2).max(axis=1) > rho
        meets = (_dot(q, q) < rho * rho) & far
        pos, pts, leaving = _sphere_crossings(tri, rho)
        count = np.sum(np.isfinite(pos), axis=1)
        paired = meets & (count > 0) & (count % 2 == 0)
        done = ~meets | paired | (depth == _SLICE_MAX_DEPTH)
        return done, (pos, pts, leaving, count, paired, meets & ~paired)

    _, owner, _, path, pos, pts, leaving, count, paired, unpaired = _subdivide(
        corners[cand], cand, C.areas[cand], rule
    )
    dropped = int(np.sum(unpaired))
    # leaves in depth-first order, crossings in walk order within a leaf
    leaf = np.lexsort((path, owner))
    leaf = leaf[paired[leaf]]
    walk = np.argsort(pos[leaf], axis=1, kind="stable")
    pts = np.take_along_axis(pts[leaf], walk[..., None], axis=1)
    leaving = np.take_along_axis(leaving[leaf], walk, axis=1)
    n = count[leaf, None]
    slot = np.arange(6)
    # each exit's chord runs to the next entry along the walk
    partner = np.full(leaving.shape, -1)
    for step in range(1, 6):
        j = (slot + step) % n
        entry = ~np.take_along_axis(leaving, j, axis=1)
        partner = np.where((partner < 0) & (step < n) & entry, j, partner)
    rows, cols = np.nonzero((slot < n) & leaving & (partner >= 0))
    if len(rows) == 0:
        return Polyline1Current(np.zeros((0, C.m)), np.zeros((0, 2), int), [],
                                dropped=dropped, owners=np.zeros(0, int))
    ends = np.stack([pts[rows, cols], pts[rows, partner[rows, cols]]], axis=1)
    ends = ends.reshape(-1, C.m)
    # one point per 1e-9 key, numbered in order of first appearance
    _, first, inverse = np.unique(
        np.round(ends / 1e-9).astype(np.int64),
        axis=0, return_index=True, return_inverse=True,
    )
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(len(first))
    segs = rank[inverse.reshape(-1)].reshape(-1, 2)
    keep = segs[:, 0] != segs[:, 1]
    owners = owner[leaf[rows]][keep]
    return Polyline1Current(ends[np.sort(first)] + x0, segs[keep],
                            C.multiplicities[owners], dropped=dropped,
                            owners=owners)


def decompose_cycle(P: Polyline1Current):
    """Split an integral 1-cycle into indecomposable unit-multiplicity loops.

    Mass is conserved exactly; repeated traversals are split into copies.
    """
    if not P.is_cycle():
        why = "input is not a cycle"
        if P.dropped:
            why += (f" ({P.dropped} sub-triangles left unresolved at the"
                    " slice depth cap were dropped)")
        raise ValueError(why)
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
