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
from dataclasses import dataclass

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
    "integrate_ladder",
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
        if np.any((T < 0) | (T >= len(V))):
            raise ValueError(f"vertex index outside [0, {len(V)})")
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

        c = V.take(T, axis=0)  # corners, gathered once: (T, 3, m)
        u = c[:, 1] - c[:, 0]
        w = c[:, 2] - c[:, 0]
        # column-major, the layout an index-array product gives: the row
        # norms, and whatever reads the tangents, sum along strided rows
        skew = np.empty((len(T), self.m * (self.m - 1) // 2), order="F")
        for col, (a, b) in enumerate(zip(*pairs2(self.m))):
            np.subtract(u[:, a] * w[:, b], u[:, b] * w[:, a], out=skew[:, col])
        norms = np.linalg.norm(skew, axis=1)
        self.areas = 0.5 * norms
        if np.any(self.areas < _MIN_AREA):
            raise ValueError("degenerate triangle (area below 1e-14)")
        self.tangents = skew / norms[:, None]  # unit 2-vector coefficients
        # how far a triangle reaches past its nearest vertex
        sq = [np.einsum("ij,ij->i", e, e) for e in (u, w, w - u)]
        self.longest_edges = np.sqrt(np.maximum(np.maximum(sq[0], sq[1]), sq[2]))
        self.centroids = (c[:, 0] + c[:, 1] + c[:, 2]) / 3.0

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

    A segment joins two points and carries a length and a midpoint:
    `lengths` and `midpoints`, each one row per segment, or the chord's
    when not given. A slice gives the lengths and midpoints of the arcs
    its segments stand for, so `mass`, `lengths` and `midpoints` measure
    the arcs. `owners`, set on a slice, holds the index of the triangle
    each segment lies on; it is None otherwise.
    """

    def __init__(self, points, segments, multiplicities, ordered=False,
                 owners=None, lengths=None, midpoints=None):
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
        self.owners = None if owners is None else np.asarray(owners, dtype=int)
        a, b = (P[S[:, k]] if len(S) else np.zeros((0, self.m)) for k in (0, 1))
        self._lengths = (np.linalg.norm(b - a, axis=1) if lengths is None
                         else np.asarray(lengths, dtype=float))
        self._midpoints = (0.5 * (a + b) if midpoints is None
                           else np.asarray(midpoints, dtype=float))

    def __len__(self):
        return len(self.segments)

    def lengths(self) -> np.ndarray:
        return self._lengths

    def mass(self) -> float:
        return float(np.sum(self.lengths() * self.multiplicities))

    def midpoints(self) -> np.ndarray:
        return self._midpoints

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
    intersection of the above.

    `indicator` is the one membership test of points. Which triangles a
    ball, annulus or cylinder holds, misses or crosses is decided apart
    from it, once per triangle, by `_near_far`."""

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
        """Boolean membership for points, shape (..., m): for a ball, an
        annulus or a cylinder, by the distance to the center or the axis
        (`_distances`); for a cone complement, dist(x, planes) >
        eps |x - center|; for an intersection, inside every part."""
        x = np.asarray(x, dtype=float)
        if self.kind == "full":
            return np.ones(x.shape[:-1], dtype=bool)
        if self.kind == "intersect":
            out = self.parts[0].indicator(x)
            for part in self.parts[1:]:
                out &= part.indicator(x)
            return out
        if self.kind == "ball":
            return _distances(x, self.center) <= self.radius
        if self.kind == "annulus":
            d = _distances(x, self.center)
            return (d > self.inner) & (d <= self.outer)
        if self.kind == "cylinder":
            axes = list(self.axes)
            return _distances(x[..., axes], self.center[axes]) <= self.radius
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


def _distances(x, center):
    """|x - center| over the last axis, bit for bit as np.linalg.norm gives
    it: the same squares, summed by the same reduction, but squared in
    place and without norm's conj() copy."""
    rel = x - center
    rel *= rel
    return np.sqrt(np.add.reduce(rel, axis=-1))


def _effective_region(C: TriCurrent, R: Region | None) -> Region:
    """R within the clip ball of C, if any: a ball or an annulus about the
    clip ball's center (the origin) keeps its kind, with its outer radius
    capped at the clip radius; other regions become intersections."""
    if R is None:
        R = Region.full()
    clip = C.clip_radius
    if clip is None:
        return R
    if R.kind == "full":
        return Region.ball(np.zeros(C.m), clip)
    if R.kind == "ball" and not np.any(R.center):
        return R if R.radius <= clip else Region.ball(R.center, clip)
    if R.kind == "annulus" and not np.any(R.center) and R.inner < clip:
        return R if R.outer <= clip else Region.annulus(R.center, R.inner, clip)
    return Region.intersect(R, Region.ball(np.zeros(C.m), clip))


def _plane_sections(C: TriCurrent, V, idx, r: float):
    """Where the planes of triangles idx meet the ball B_r, with the
    vertices V relative to the ball's center: each plane that passes within
    r of the center meets the ball in a disk about the foot of the center.

    Returns near (bool, len(idx)), whether a plane passes within r, and for
    the near triangles: their corners in orthonormal plane coordinates
    about the foot (k, 3, 2), the squared offsets d^2 of their planes from
    the center (k,), the in-plane radii sqrt(r^2 - d^2) (k,), and the frame
    (foot, e, f), each (k, m), that maps plane coordinates (x, y) back to
    the center-relative point foot + x e + y f.
    """
    T = C.triangles
    u1, u2 = plane_frames(C.tangents[idx], C.m)
    a = V[T[idx, 0]]  # first vertex in center-relative coordinates
    crel = -a  # center relative to the triangle's first vertex
    cx = np.einsum("ij,ij->i", crel, u1)
    cy = np.einsum("ij,ij->i", crel, u2)
    off2 = np.einsum("ij,ij->i", crel, crel) - cx * cx - cy * cy
    near = off2 < r * r
    idx, a, u1, u2, cx, cy = idx[near], a[near], u1[near], u2[near], cx[near], cy[near]
    off2 = off2[near]
    rp = np.sqrt(r * r - off2)
    p = V[T[idx]] - a[:, None, :]
    x = np.einsum("nkj,nj->nk", p, u1) - cx[:, None]
    y = np.einsum("nkj,nj->nk", p, u2) - cy[:, None]
    foot = a + cx[:, None] * u1 + cy[:, None] * u2
    return near, np.stack([x, y], axis=2), off2, rp, (foot, u1, u2)


def _ball_clip(C: TriCurrent, V, idx, r: float) -> np.ndarray:
    """Exact areas inside the ball B_r of triangles idx, with the vertices
    V relative to the ball's center: each plane meets the ball in a disk."""
    near, xy, _, rp, _ = _plane_sections(C, V, idx, r)
    out = np.zeros(len(idx))
    out[near] = np.abs(tri_disk_areas(xy, rp))
    return out


def _projected_areas(C: TriCurrent, v, idx):
    """Signed areas of the projections v (k, 3, 2) of triangles idx to a
    coordinate plane, and which projections are edge-on: below 1e-12 of
    the triangle's area, too thin for a share of their area or a closest
    point in the plane to be trusted."""
    signed2 = 0.5 * (
        (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
        - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1])
    )
    return signed2, np.abs(signed2) < 1e-12 * np.maximum(C.areas[idx], 1e-12)


def _cylinder_clip(C: TriCurrent, P2, idx, r: float) -> np.ndarray:
    """Exact areas inside the cylinder of radius r of triangles idx, with
    the vertices P2 projected to its plane relative to its axis: the share
    of each projection inside the disk, times the triangle's area.
    `_near_far` calls no edge-on projection crossed, so none comes here."""
    v = P2[C.triangles[idx]]
    signed2, _ = _projected_areas(C, v, idx)
    share = np.minimum(np.abs(tri_disk_areas(v, r)) / np.abs(signed2), 1.0)
    return C.areas[idx] * share


# relative widening of the lower bound of a triangle's distance (`_near_far`)
_NEAR_TOL = 1e-12


def _near_far(C: TriCurrent, center, radii, axes=None):
    """The one test of where the spheres |x - center| = r, for r in radii,
    cross the triangles; for the cylinders over the coordinate plane
    `axes`, where the circles about the axis cross the triangles'
    projections to that plane.

    Returns near and far, each (T,): far is the distance of a triangle's
    farthest vertex from the center (or the axis) and near that of its
    closest point, so a sphere of radius r holds the triangle inside when
    far <= r, misses it when near > r, and crosses it otherwise. Every
    point of a triangle lies within its longest edge (projected, for
    cylinders) of the farthest vertex, so low = far - edge, lowered by
    1e-12 of |center| + far + edge against rounding, bounds near from
    below. The closest point (`_closest_points_on_triangles`, relative to
    the center) is computed only for triangles with some radius in
    [low, far); the others keep near = low, which decides every radius as
    the closest point would. An edge-on projection (`_projected_areas`)
    among those counts whole or not at all, by its centroid: its near and
    far are both the distance of its projected centroid, so no radius calls
    it crossed, and neither `_cylinder_clip` nor the section rule of
    `_section_integrate` sees a projection without area.
    """
    center = np.asarray(center, dtype=float)
    T = C.triangles
    V = C.vertices - center
    if axes is None:
        reach = C.longest_edges
    else:
        V = V[:, list(axes)]  # projected vertices
        x, y = V[:, 0][T], V[:, 1][T]
        dx, dy = x - x[:, [2, 0, 1]], y - y[:, [2, 0, 1]]
        sq = dx * dx + dy * dy  # squared projected edge lengths
        reach = np.sqrt(np.maximum(np.maximum(sq[:, 0], sq[:, 1]), sq[:, 2]))
    d = np.linalg.norm(V, axis=1)[T]
    far = np.maximum(np.maximum(d[:, 0], d[:, 1]), d[:, 2])
    near = far - reach
    near -= _NEAR_TOL * (np.linalg.norm(center) + far + reach)
    radii = np.sort(radii)
    todo = np.nonzero(np.searchsorted(radii, far) > np.searchsorted(radii, near))[0]
    crn = V[T[todo]]
    if axes is not None:
        edge_on = _projected_areas(C, crn, todo)[1]
        flat = todo[edge_on]
        near[flat] = far[flat] = np.linalg.norm(crn[edge_on].mean(axis=1), axis=1)
        todo, crn = todo[~edge_on], crn[~edge_on]
    if len(todo):
        q, _ = _closest_points_on_triangles(0.0, crn[:, 0], crn[:, 1], crn[:, 2])
        near[todo] = np.sqrt(_dot(q, q))
    return near, far


def _clip_sweep(C: TriCurrent, center, radii, axes=None):
    """Exact per-triangle areas inside the balls B_r(center), or inside the
    coordinate cylinders of radius r over the plane `axes`, for each r in
    radii: a generator of one length-T array per radius, in order.

    `_near_far` sorts the triangles once for all the radii. Per radius, a
    triangle it calls inside counts whole, one it calls crossed is clipped
    exactly, and one it calls missed counts 0.
    """
    center = np.asarray(center, dtype=float)
    near, far = _near_far(C, center, radii, axes)
    V = C.vertices - center
    if axes is None:
        clip, coords = _ball_clip, V
    else:
        clip, coords = _cylinder_clip, V[:, list(axes)]
    for r in radii:
        inside = far <= r
        out = np.where(inside, C.areas, 0.0)
        idx = np.nonzero(~inside & (near <= r))[0]
        if len(idx):
            out[idx] = clip(C, coords, idx, r)
        yield out


def mass_ladder(C: TriCurrent, center, radii, axes=None) -> np.ndarray:
    """Masses of C in the balls B_r(center), or in the coordinate cylinders
    over the plane `axes`, for each r in radii.

    The same numbers as `mass` region by region, from one `_clip_sweep`
    over the radii whose region stays a plain ball or cylinder under the
    clip ball of C (`_effective_region`, which caps a concentric ball at
    the clip radius); the others go through `_subdiv_mass`.
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
    plain = np.nonzero(plain)[0]
    sweep = _clip_sweep(C, center, [effective[k].radius for k in plain], axes)
    for k, areas in zip(plain, sweep):
        out[k] = np.sum(areas * C.multiplicities)
    return out


# the corners of the four midpoint children, as rows of (a, b, c, m01, m12, m20)
_CHILD_CORNERS = ((0, 3, 5), (3, 1, 4), (5, 4, 2), (3, 4, 5))


def _midpoints(corners):
    """The edge midpoints m01, m12, m20 of each triangle in (n, 3, m)
    corners, as (n, 3, m)."""
    return 0.5 * (corners + corners[:, [1, 2, 0]])


def _children(rows, mids):
    """Rows (4n, 3, ...) of the four midpoint children of n triangles, one
    child after another, from the rows of their corners and of their edge
    midpoints, each (n, 3, ...)."""
    both = np.concatenate([rows, mids], axis=1)
    out = np.empty((4,) + rows.shape, dtype=both.dtype)
    for k, child in enumerate(_CHILD_CORNERS):
        np.take(both, child, axis=1, out=out[k])
    return out.reshape((-1,) + rows.shape[1:])


def _midpoint_children(corners):
    """The four midpoint children of each triangle in (n, 3, m) corners."""
    return np.split(_children(corners, _midpoints(corners)), 4)


def _subdivide(tri, val, owner, area, value_of, leaf_rule):
    """Level-synchronous midpoint subdivision of a frontier of sub-triangles,
    the partition of `_subdiv_leaves`.

    The frontier is held as corners (n, 3, m), a value per corner
    (n, 3, ...), the index of the owning triangle and the area. At each
    depth `leaf_rule(depth, tri, val, area)` is called once on the whole
    frontier and returns a mask of the sub-triangles that retire as leaves
    and a tuple of arrays with one row per sub-triangle, which the leaves
    keep. The others are split into their four midpoint children, each
    owning a quarter of the area: a split evaluates `value_of(points
    (n, 3, m))` on its three edge midpoints only, and its children inherit
    the values of the corners they share with it. The rule must retire
    every sub-triangle by some depth. Returns the leaves' corners, corner
    values, owners, areas and kept arrays, each concatenated over the
    depths.
    """
    leaves = []
    for depth in itertools.count():
        done, kept = leaf_rule(depth, tri, val, area)
        leaves.append((tri[done], val[done], owner[done], area[done])
                      + tuple(k[done] for k in kept))
        if np.all(done):
            return [np.concatenate(col) for col in zip(*leaves)]
        split = ~done
        tri = tri[split]
        mids = _midpoints(tri)
        tri = _children(tri, mids)
        val = _children(val[split], value_of(mids))
        owner = np.tile(owner[split], 4)
        area = np.tile(area[split] / 4.0, 4)


_MASS_MAX_DEPTH = 9


def _subdiv_leaves(C: TriCurrent, R: Region, rel_tol: float = 1e-4):
    """The partition of C that `_subdiv_mass` and `integrate` share for a
    region they do not clip exactly: subdivision against the indicator.

    A (sub-)triangle is settled when its three vertices and its centroid are
    all inside R, or all outside. The others form the frontier that
    `_subdivide` splits level by level, carrying the membership of the
    corners, so each split tests its three edge midpoints and each
    sub-triangle its centroid.
    Leaf rule for a sub-triangle at depth d: from d = 2 on, a settled one
    retires (at d = 0 and 1 it is split even if settled); at d = 9, or once
    its area is at most rel_tol^2 * max(total mass, 1e-12), it retires
    whatever its corners. Every leaf counts as inside when its centroid is.

    Returns the mask (T,) of the triangles settled inside at the top, and
    the leaves of the others: corners (n, 3, m), owning triangle, area and
    whether the centroid is inside, each (n,).
    """
    total = C.total_mass()
    corners = C.corners()
    verts_in = R.indicator(corners)
    cents_in = R.indicator(C.centroids)
    all_in = np.all(verts_in, axis=1) & cents_in
    all_out = np.all(~verts_in, axis=1) & ~cents_in
    small = rel_tol * rel_tol * max(total, 1e-12)

    def is_leaf(depth, tri, verts, area):
        cin = R.indicator(tri.mean(axis=1))
        settled = (np.all(verts, axis=1) & cin) | (~np.any(verts, axis=1) & ~cin)
        capped = (depth == _MASS_MAX_DEPTH) | (area <= small)
        return (settled & (depth >= 2)) | capped, (cin,)

    owner = np.nonzero(~(all_in | all_out))[0]
    tri, _, owner, area, cin = _subdivide(
        corners[owner], verts_in[owner], owner, C.areas[owner], R.indicator,
        is_leaf,
    )
    return all_in, (tri, owner, area, cin)


def _subdiv_mass(C: TriCurrent, R: Region, rel_tol: float = 1e-4) -> float:
    """Mass over a general region on the partition of `_subdiv_leaves`:
    the areas of the triangles settled inside, and of every leaf whose
    centroid is inside, summed per triangle and then weighted by its
    multiplicity."""
    all_in, (_, owner, area, cin) = _subdiv_leaves(C, R, rel_tol)
    acc = float(np.sum(C.areas[all_in] * C.multiplicities[all_in]))
    per_triangle = np.bincount(owner, weights=area * cin, minlength=len(C))
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


def _quad_values(corners, tangents, fn):
    """fn at the 7 quadrature points of each triangle and of each of its 4
    midpoint children: five (T, 7) arrays, from five calls of fn."""
    return [np.asarray(fn(_quad_points(crn), tangents), dtype=float)
            for crn in (corners, *_midpoint_children(corners))]


def _refined_sum(vals, areas, mults):
    """Order-7 quadrature with one adaptive refinement pass, from the
    `_quad_values` of these triangles: a triangle's mean value is its
    order-7 estimate, or the mean of its 4 children's where that moves it
    by more than `_REFINE_TOL` times the largest estimate of these
    triangles. The weights are applied here, to these triangles' values
    only, since a matrix-vector product rounds a one-row call differently.
    """
    if len(areas) == 0:
        return 0.0
    coarse = vals[0] @ TRI_QUAD_WEIGHTS
    fine = sum(v @ TRI_QUAD_WEIGHTS for v in vals[1:]) / 4.0
    scale = np.abs(coarse).max()
    use_fine = np.abs(fine - coarse) > _REFINE_TOL * max(scale, 1e-30)
    est = np.where(use_fine, fine, coarse)
    return float(np.sum(est * areas * mults))


def _quad_integrate(corners, tangents, areas, mults, fn):
    """Order-7 quadrature of a scalar field with one adaptive refinement pass.

    fn(points (T, 7, m), tangents (T, n2)) -> (T, 7) values, as in
    `integrate`.
    """
    if len(corners) == 0:
        return 0.0
    return _refined_sum(_quad_values(corners, tangents, fn), areas, mults)


# Gauss-Legendre nodes in angle and in radius per sub-wedge of a section
_SECTION_NODES = (8, 6)
_GL_THETA, _GL_RHO = (np.polynomial.legendre.leggauss(n) for n in _SECTION_NODES)
# a sub-wedge is kept when its radial interval at the middle angle is
# longer than this share of the triangle's reach from the foot
_SECTION_EMPTY = 1e-12
# an edge line passing closer to the foot than this share of the reach
# bounds a sliver too thin to grade toward (`_graded_wedges`)
_SECTION_THIN = 1e-13
# graded pieces toward a pole of an edge limit are at most this share of
# their distance to it, and at most this many toward each end of a sub-wedge
_SECTION_GRADE = 0.5
_SECTION_GRADES = 96


def _ray_limits(normals, h, inner, outer, theta):
    """The interval [a, b] in which the ray from the origin at angle theta
    (n, k) meets triangle n within the annulus inner <= rho <= outer (n,):
    the Cyrus-Beck clip of the ray against the edge half-planes
    normals . p >= h, with inward normals (n, 3, 2) and offsets h (n, 3).

    Returns a and b, each (n, k), and which limit each is: the edge index,
    or -1 for a circle (or the origin). The interval is empty where b <= a.
    """
    c, s = np.cos(theta), np.sin(theta)
    lower = [np.broadcast_to(inner[:, None], theta.shape)]
    upper = [np.broadcast_to(outer[:, None], theta.shape)]
    with np.errstate(divide="ignore", invalid="ignore"):
        for e in range(3):
            nd = normals[:, e, 0, None] * c + normals[:, e, 1, None] * s
            he = h[:, e, None]
            bound = he / nd
            lower.append(np.where(nd > 0.0, bound, -np.inf))
            # a ray parallel to an edge it lies outside of misses the triangle
            upper.append(np.where(nd < 0.0, bound,
                                  np.where((nd == 0.0) & (he > 0.0), -np.inf, np.inf)))
    lower, upper = np.stack(lower), np.stack(upper)
    ia, ib = np.argmax(lower, axis=0), np.argmin(upper, axis=0)
    a = np.take_along_axis(lower, ia[None], axis=0)[0]
    b = np.take_along_axis(upper, ib[None], axis=0)[0]
    return a, b, ia - 1, ib - 1


def _graded_wedges(lo, hi, poles):
    """Split sub-wedges [lo, hi] (W,) geometrically toward the nearest
    pole of their edge limits beyond each end, so each piece is no longer
    than `_SECTION_GRADE` times its distance to the pole.

    An edge limit h / (n . dir) is analytic in the angle but has poles at
    the two angles parallel to the edge; an edge line that passes close to
    the origin puts one just past a sub-wedge's end, where the limit turns
    sharply over an angle of about its distance to the origin over the
    distance to the edge's end. poles (W, k) holds the pole angles of each
    sub-wedge's edge limits (nan for none). Returns the pieces' wedge
    index, lo and hi.
    """
    two_pi = 2.0 * np.pi
    width = hi - lo
    below = np.nanmin(np.mod(lo[:, None] - poles, two_pi), axis=1, initial=np.inf)
    above = np.nanmin(np.mod(poles - hi[:, None], two_pi), axis=1, initial=np.inf)
    graded = [gap * _SECTION_GRADE < width for gap in (below, above)]
    todo = np.nonzero(graded[0] | graded[1])[0]
    if len(todo) == 0:
        return np.arange(len(lo)), lo, hi
    lo_, hi_, width = lo[todo], hi[todo], width[todo]
    below, above = below[todo], above[todo]
    graded = [g[todo] for g in graded]
    both = graded[0] & graded[1]
    # cut j lies (1 + c)^j - 1 gaps from the end, so piece j is c times
    # its distance to the pole; graded from both ends, each end takes half
    reach = np.where(both, 0.5 * width, width)
    with np.errstate(divide="ignore"):
        ratio = max(float(np.max(reach / gap, where=ok, initial=1.0))
                    for gap, ok in zip((below, above), graded))
    count = min(math.ceil(math.log1p(min(ratio, 1e300)) / math.log1p(_SECTION_GRADE)),
                _SECTION_GRADES)
    steps = (1.0 + _SECTION_GRADE) ** np.arange(1, count + 1) - 1.0
    cuts = [lo_[:, None], hi_[:, None], np.where(both, 0.5 * (lo_ + hi_), np.nan)[:, None]]
    for gap, sign, end, ok in zip((below, above), (1.0, -1.0), (lo_, hi_), graded):
        at = np.maximum(gap, reach / steps[-1])[:, None] * steps  # from this end
        cuts.append(np.where(ok[:, None] & (at < reach[:, None]),
                             end[:, None] + sign * at, np.nan))
    theta = np.sort(np.concatenate(cuts, axis=1), axis=1)
    rows, k = np.nonzero(theta[:, 1:] > theta[:, :-1])  # nan compares false
    keep = np.ones(len(lo), dtype=bool)
    keep[todo] = False
    w = np.concatenate([np.nonzero(keep)[0], todo[rows]])
    order = np.argsort(w, kind="stable")
    return (w[order], np.concatenate([lo[keep], theta[rows, k]])[order],
            np.concatenate([hi[keep], theta[rows, k + 1]])[order])


def _half_planes(xy):
    """The edges of planar triangles xy (n, 3, 2) as half-planes: edge k
    runs from corner k to corner k + 1 (E, (n, 3, 2)); orient (n,) is 1
    where the corners turn counterclockwise and -1 otherwise; a point p
    lies in the triangle where normals . p >= h on every edge, with the
    inward normals (n, 3, 2) and offsets h (n, 3) of `_ray_limits`."""
    E = xy[:, [1, 2, 0]] - xy
    orient = np.where(
        E[:, 0, 0] * E[:, 1, 1] - E[:, 0, 1] * E[:, 1, 0] < 0.0, -1.0, 1.0
    )
    normals = orient[:, None, None] * np.stack([-E[..., 1], E[..., 0]], axis=2)
    return E, orient, normals, np.einsum("nkj,nkj->nk", normals, xy)


def _circle_crossings(xy, E, rad):
    """The angles about the origin at which the edges E (n, 3, 2) of the
    planar triangles xy (n, 3, 2) cross the circles |p| = rad (n,): the
    roots 0 < t < 1 of |xy_k + t E_k|^2 = rad^2, two slots per edge, as
    (n, 6) with nan in an empty slot."""
    qa = np.einsum("nkj,nkj->nk", E, E)
    qb = np.einsum("nkj,nkj->nk", xy, E)
    pp = np.einsum("nkj,nkj->nk", xy, xy)
    disc = qb * qb - qa * (pp - (rad * rad)[:, None])
    sq = np.sqrt(np.maximum(disc, 0.0))
    out = []
    for t in ((-qb - sq) / qa, (-qb + sq) / qa):
        hit = (disc > 0.0) & (t > 0.0) & (t < 1.0)
        p = xy + t[..., None] * E
        out.append(np.where(hit, np.arctan2(p[..., 1], p[..., 0]), np.nan))
    return np.concatenate(out, axis=1)


def _section_wedges(xy, inner, outer):
    """Split each planar section {p in triangle : inner <= |p| <= outer}
    into sub-wedges about the origin on which both radial limits are
    analytic in the angle.

    xy (n, 3, 2) are the corners about the origin, inner and outer (n,).
    The breakpoints are the corners' angles, the angles where an edge
    crosses either circle, and +-pi. Sub-wedges whose radial interval at
    the middle angle is empty, or shorter than `_SECTION_EMPTY` times the
    farthest corner's distance, are dropped; those whose edge limits turn
    sharply near an end are graded toward it (`_graded_wedges`). Returns
    the triangle of each sub-wedge (G,), its angles theta0 < theta1 (G,),
    and the inward edge normals (n, 3, 2) and offsets (n, 3) for
    `_ray_limits`.
    """
    E, _, normals, h = _half_planes(xy)
    breaks = [np.arctan2(xy[..., 1], xy[..., 0]),
              _circle_crossings(xy, E, inner), _circle_crossings(xy, E, outer),
              np.full((len(xy), 2), [-np.pi, np.pi])]
    theta = np.sort(np.concatenate(breaks, axis=1), axis=1)  # nan last
    lo, hi = theta[:, :-1], theta[:, 1:]
    a, b, ia, ib = _ray_limits(normals, h, inner, outer, 0.5 * (lo + hi))
    reach = np.sqrt(np.einsum("nkj,nkj->nk", xy, xy).max(axis=1))
    keep = (hi > lo) & (b - a > _SECTION_EMPTY * reach[:, None])
    rows, cols = np.nonzero(keep)
    lo, hi = lo[rows, cols], hi[rows, cols]
    # the poles of the edge limits, unless the edge line is too close to
    # the origin for its sliver to matter
    along = np.arctan2(E[..., 1], E[..., 0])
    thick = (np.abs(h) > _SECTION_THIN * reach[:, None]
             * np.sqrt(np.einsum("nkj,nkj->nk", E, E)))
    poles = []
    for e in (ia[rows, cols], ib[rows, cols]):
        edge = np.maximum(e, 0)
        real = (e >= 0) & thick[rows, edge]
        psi = np.where(real, along[rows, edge], np.nan)
        poles += [psi, psi + np.pi]
    w, lo, hi = _graded_wedges(lo, hi, np.stack(poles, axis=1))
    return rows[w], lo, hi, normals, h


def _axis_sections(C: TriCurrent, V, idx, axes):
    """Where triangles idx meet a coordinate cylinder over the plane
    `axes`, with the vertices V relative to its center: a triangle is the
    affine image of its projection to that plane, so it meets the cylinder
    in the preimage of a disk about the axis.

    Returns the projected corners (k, 3, 2), the frame (foot, e, f), each
    (k, m), that maps projected coordinates (x, y) back to the
    center-relative point foot + x e + y f of the triangle, and the ratio
    of each triangle's area to its projection's (k,). e and f are the rows
    of solve(E2, E), with E the edges from the first corner and E2 their
    projections.
    """
    crn = V[C.triangles[idx]]
    xy = crn[:, :, list(axes)]
    M = np.linalg.solve(xy[:, 1:] - xy[:, :1], crn[:, 1:] - crn[:, :1])
    foot = crn[:, 0] - xy[:, 0, :1] * M[:, 0] - xy[:, 0, 1:] * M[:, 1]
    signed2, _ = _projected_areas(C, xy, idx)
    return xy, (foot, M[:, 0], M[:, 1]), C.areas[idx] / np.abs(signed2)


def _section_integrate(C: TriCurrent, fn, center, idx, inner: float,
                       outer: float, axes=None) -> float:
    """Integral of fn over the triangles idx intersected with the annulus
    inner < |x - center| <= outer (a ball when inner is 0), or with the
    coordinate cylinder of radius outer over the plane `axes`, on each
    triangle's exact planar section.

    For a ball or an annulus, the section is the triangle cut by two
    circles about the foot of the center in its plane (`_plane_sections`).
    For a cylinder, it is the preimage of the disk about the axis under the
    triangle's projection to the plane `axes` (`_axis_sections`): the
    section is taken in that plane, about the axis, and each node is mapped
    back to the triangle and weighted by the ratio of the triangle's area
    to its projection's (1 for a ball). In polar coordinates about the foot
    (or the axis), each sub-wedge of `_section_wedges` takes a tensor
    Gauss-Legendre rule with `_SECTION_NODES` nodes in angle and radius and
    weight rho; every node lies inside the section. fn sees one group per
    sub-wedge, with its triangle's tangent row. A node whose weight is 0
    (an empty ray at a sub-wedge's end) is moved onto its group's heaviest
    node, so fn is never evaluated off the section.
    """
    center = np.asarray(center, dtype=float)
    V = C.vertices - center
    if axes is None:
        near, xy, off2, ro, (foot, e, f) = _plane_sections(C, V, idx, outer)
        idx = idx[near]
        ri = np.sqrt(np.maximum(inner * inner - off2, 0.0))
        ratio = np.ones(len(idx))
    else:
        xy, (foot, e, f), ratio = _axis_sections(C, V, idx, axes)
        ri, ro = np.zeros(len(idx)), np.full(len(idx), outer)
    g, th0, th1, normals, h = _section_wedges(xy, ri, ro)
    if len(g) == 0:
        return 0.0
    (xt, wt), (xr, wr) = _GL_THETA, _GL_RHO
    half = 0.5 * (th1 - th0)
    theta = (th0 + half)[:, None] + half[:, None] * xt  # (G, n_theta)
    a, b, _, _ = _ray_limits(normals[g], h[g], ri[g], ro[g], theta)
    span = 0.5 * np.maximum(b - a, 0.0)
    rho = (a + span)[..., None] + span[..., None] * xr  # (G, n_theta, n_rho)
    w = ((half[:, None] * wt * span)[..., None] * wr * rho).reshape(len(g), -1)
    x = (rho * np.cos(theta)[..., None]).reshape(len(g), -1, 1)
    y = (rho * np.sin(theta)[..., None]).reshape(len(g), -1, 1)
    owner = idx[g]
    pts = center + foot[g, None] + x * e[g, None] + y * f[g, None]
    empty = w <= 0.0
    if np.any(empty):
        heaviest = pts[np.arange(len(g)), np.argmax(w, axis=1)]
        pts = np.where(empty[..., None], heaviest[:, None], pts)
    vals = np.asarray(fn(pts, C.tangents[owner]), dtype=float)
    return float(np.sum((vals * w).sum(axis=1) * ratio[g] * C.multiplicities[owner]))


def _shell_integrals(C: TriCurrent, fn, regions) -> list:
    """Integrals of fn over C restricted to each of `regions`, balls and
    annuli about one center, or cylinders about one axis over one plane, as
    `integrate` describes them, with the interior quadrature evaluated
    once.

    One `_near_far` over all the regions' radii (about the axis, for
    cylinders) sorts the triangles: a triangle lies inside a region when
    its farthest vertex is in the (outer) ball and, for an annulus, its
    closest point outside the hole; it lies outside when its closest point
    is outside the ball or its farthest vertex inside the hole; it meets
    the boundary otherwise. fn is evaluated once at the quadrature points
    of the triangles inside any of the regions and of their children
    (`_quad_values`); each region takes its own inside triangles' values,
    in triangle order, applies the refined rule to them (`_refined_sum`),
    and adds the integral over the exact sections of its boundary
    triangles (`_section_integrate`). So each value is the same, bit for
    bit, as that of a one-region call.
    """
    center = regions[0].center
    axes = regions[0].axes if regions[0].kind == "cylinder" else None
    bounds = [(R.inner, R.outer) if R.kind == "annulus" else (0.0, R.radius)
              for R in regions]
    near, far = _near_far(C, center, [r for b in bounds for r in b if r > 0.0], axes)
    shells = []
    for hole, ball in bounds:
        inside = (far <= ball) & ((near > hole) | (hole == 0.0))
        out = (near > ball) | (far <= hole)
        shells.append((inside, np.nonzero(~(out | inside))[0], hole, ball))
    union = np.nonzero(np.logical_or.reduce([sh[0] for sh in shells]))[0]
    vals = (_quad_values(C.vertices[C.triangles[union]], C.tangents[union], fn)
            if len(union) else [])
    totals = []
    for inside, meets, hole, ball in shells:
        sel = inside[union]
        acc = _refined_sum([v[sel] for v in vals], C.areas[union][sel],
                           C.multiplicities[union][sel])
        totals.append(acc + _section_integrate(C, fn, center, meets, hole, ball, axes))
    return totals


def integrate(C: TriCurrent, fn, R: Region | None = None) -> float:
    """Integral over ||C|| restricted to R of a pointwise scalar field, on
    the same partition of C that `mass` measures R on, so that
    `integrate(C, 1, R)` is `mass(C, R)` to rounding for every region kind.

    The integrand sees the quadrature points in groups, each on one
    triangle: fn(points (L, k, m), tangents (L, n2)) -> (L, k) values,
    where tangents[l] is the unit 2-vector coefficient row of the triangle
    under points[l]. The group size k depends on the path below, so an
    integrand should broadcast over any group size; `blowup` also calls
    its density with groups of one point.

    Full space, and the triangles that lie inside R, go through the
    order-7 quadrature with one adaptive refinement pass
    (`_quad_integrate`, k = 7).

    For a ball, an annulus or a cylinder, `_near_far` sorts the triangles
    into inside, outside and boundary (see `_shell_integrals`), as it does
    for `mass`. A triangle that meets the region's boundary is integrated
    on its exact planar section by a polar Gauss-Legendre rule
    (`_section_integrate`, one group of k = n_theta * n_rho nodes per
    sub-wedge), so these integrals have quadrature error only. A region of
    these kinds is the one-region case of `_shell_integrals`, which
    `integrate_ladder` runs over nested balls.

    Cone complements and intersections integrate on the leaves of
    `_subdiv_leaves`, which `_subdiv_mass` sums: the triangles settled
    inside R take the refined rule, and every leaf whose centroid is
    inside takes the 7-point rule times its area (k = 7); fn is not called
    on the other leaves.
    """
    R = _effective_region(C, R)
    if R.kind in ("ball", "annulus", "cylinder"):
        return _shell_integrals(C, fn, [R])[0]
    corners = C.corners()
    if R.kind == "full":
        return _quad_integrate(corners, C.tangents, C.areas, C.multiplicities, fn)
    all_in, (tri, owner, area, cin) = _subdiv_leaves(C, R)
    acc = _quad_integrate(corners[all_in], C.tangents[all_in], C.areas[all_in],
                          C.multiplicities[all_in], fn)
    tri, owner, area = tri[cin], owner[cin], area[cin]
    if len(tri) == 0:
        return acc
    vals = np.asarray(fn(_quad_points(tri), C.tangents[owner]), dtype=float)
    return acc + float(np.sum((vals @ TRI_QUAD_WEIGHTS) * area
                              * C.multiplicities[owner]))


def integrate_ladder(C: TriCurrent, fn, center, radii) -> np.ndarray:
    """Integrals of fn over C restricted to the balls B_r(center), for each
    r in radii: the same numbers, bit for bit, as `integrate` ball by ball,
    for an integrand whose value at a point does not depend on the other
    points of its call, as `blowup.gradient_energy_density`'s; a
    matrix-vector product such as `tangents @ b` rounds a one-row call
    differently.

    The radii whose region stays a plain ball under the clip ball of C
    (`_effective_region`, which caps a concentric ball at the clip radius)
    go through one `_shell_integrals`, which evaluates the quadrature of
    the triangles inside the balls once for all of them; the others go
    through `integrate`. The integral counterpart of `mass_ladder`.
    """
    radii = np.asarray(radii, dtype=float)
    regions = [Region.ball(center, r) for r in radii]
    effective = [_effective_region(C, R) for R in regions]
    plain = np.array([E.kind == "ball" for E in effective], dtype=bool)
    out = np.empty(len(radii))
    for k in np.nonzero(~plain)[0]:
        out[k] = integrate(C, fn, regions[k])
    if np.any(plain):
        out[plain] = _shell_integrals(C, fn, [effective[k] for k in np.nonzero(plain)[0]])
    return out


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
    (..., 3). Each Voronoi region is a mask, and a pair belongs to the first
    region in Ericson's order whose test holds. Vertices and edges use his
    arithmetic. Inside, his coordinates vb / (va + vb + vc) and
    vc / (va + vb + vc) are differences of products of dot products: on a
    thin triangle (longest edge squared 240 times |ab ^ ac|) with a point
    far off its plane they were 1.8e-12 off the exact coordinates. They are
    taken instead as <ap ^ ac, ab ^ ac> / |ab ^ ac|^2 and
    <ab ^ ap, ab ^ ac> / |ab ^ ac|^2, the same numbers in exact arithmetic,
    which were off by at most 2.1e-14 there and on 6000 other random
    triangles and points.
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
    s, t = np.zeros(d1.shape), np.zeros(d1.shape)
    # q = base + s * edge + t * ac: base is a, or b on B and BC, or c on C;
    # edge is ab, or c - b on BC
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.any(inside):
            at = np.flatnonzero(inside)
            m = ap.shape[-1]
            u, v, w = (np.broadcast_to(x, d1.shape + (m,)).reshape(-1, m)[at].T
                       for x in (ab, ac, ap))
            i, j = pairs2(m)
            ui, uj, vi, vj, wi, wj = u[i], u[j], v[i], v[j], w[i], w[j]
            n = ui * vj - uj * vi  # ab ^ ac, one row per blade
            # summed blade by blade, so a pair's bits do not depend on the
            # batch it comes in
            area2, num_s, num_t = (sum(x[1:], x[0]) for x in (
                n * n, (wi * vj - wj * vi) * n, (ui * wj - uj * wi) * n))
            s.reshape(-1)[at] = num_s / area2
            t.reshape(-1)[at] = num_t / area2
        s = np.where(AB, d1 / (d1 - d3), s)
        s = np.where(BC, (d4 - d3) / ((d4 - d3) + (d5 - d6)), s)
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
    """rho, or the first of rho (1 + k 1e-10), k < 6, that stays 1e-12 rho
    clear of every vertex distance, so no edge is crossed at its end."""
    d = np.linalg.norm(C.vertices - np.asarray(x0, float), axis=1)
    for k in range(6):
        cand = rho * (1.0 + k * 1e-10)
        if np.min(np.abs(d - cand)) > 1e-12 * cand:
            return cand
    raise ValueError("no regular slice radius found near rho")


def slice_sphere(C: TriCurrent, x0, rho: float) -> Polyline1Current:
    """Slice by the sphere |x - x0| = rho: circular arcs per triangle.

    Each triangle that `_near_far` calls crossed meets the sphere in its
    own circle, of radius sqrt(rho^2 - d^2) about the foot of x0 in its
    plane (`_plane_sections`). The circle is cut where the triangle's edges
    cross it (`_circle_crossings`), and the arcs between consecutive cuts
    whose middle lies in the triangle are the slice; a circle that no edge
    crosses is, when inside the face, two half circles. Each arc is one
    segment between its end points, with its exact length and midpoint
    (`Polyline1Current.lengths`, `midpoints`). It carries the triangle's
    multiplicity, runs counterclockwise about the foot in the triangle's
    orientation (exit point to entry point of the boundary of C restricted
    to the ball), and the result's `owners` names its triangle. An end
    point is named by the edge it lies on, so the triangles on an edge
    share it, however close two crossings are.
    """
    if rho <= 0:
        raise ValueError("slice radius must be positive")
    x0 = np.asarray(x0, dtype=float)
    rho = _regular_slice_radius(C, x0, rho)
    near, far = _near_far(C, x0, [rho])
    cand = np.nonzero((near <= rho) & (far > rho))[0]
    hit, xy, _, rp, (foot, e, f) = _plane_sections(C, C.vertices - x0, cand, rho)
    owner = cand[hit]
    E, orient, normals, h = _half_planes(xy)
    theta = _circle_crossings(xy, E, rp)
    # a crossing is named by its edge's vertices in increasing order and
    # its root along that order, so the triangles on an edge share it
    start = C.triangles[owner]
    end = start[:, [1, 2, 0]]
    fwd = start < end
    keys = np.stack([np.tile(np.minimum(start, end), 2),
                     np.tile(np.maximum(start, end), 2),
                     np.concatenate([~fwd, fwd], axis=1)], axis=2)
    count = np.sum(np.isfinite(theta), axis=1)
    closed = count == 0  # a circle inside the face: cut at two points of its own
    theta[closed, :2] = (0.0, np.pi)
    keys[closed, :2] = np.stack(np.broadcast_arrays(-1, owner[closed, None], np.arange(2)),
                               axis=2)
    count[closed] = 2
    order = np.argsort(theta, axis=1)  # nan last
    theta = np.take_along_axis(theta, order, axis=1)
    keys = np.take_along_axis(keys, order[..., None], axis=1)
    # the arc from each cut to the next, the last one wrapping to the first
    slot = np.arange(theta.shape[1])
    valid = slot < count[:, None]
    nxt = np.where(slot + 1 < count[:, None], slot + 1, 0)
    hi = np.take_along_axis(theta, nxt, axis=1) + np.where(nxt == 0, 2.0 * np.pi, 0.0)
    mid = np.where(valid, 0.5 * (theta + hi), 0.0)
    a, b, _, _ = _ray_limits(normals, h, rp, rp, mid)
    rows, cols = np.nonzero(valid & (a <= b))
    # counterclockwise in the triangle's orientation
    ccw = orient[rows] > 0.0
    cut = [np.where(ccw, cols, nxt[rows, cols]), np.where(ccw, nxt[rows, cols], cols)]
    ang = np.stack([theta[rows, cut[0]], theta[rows, cut[1]], mid[rows, cols]], axis=1)
    on_circle = x0 + foot[rows, None] + rp[rows, None, None] * (
        np.cos(ang)[..., None] * e[rows, None] + np.sin(ang)[..., None] * f[rows, None])
    # one point per key, numbered in order of first appearance
    ends = np.stack([keys[rows, cut[0]], keys[rows, cut[1]]], axis=1).reshape(-1, 3)
    _, first, inverse = np.unique(ends, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(len(first))
    owner = owner[rows]
    return Polyline1Current(on_circle[:, :2].reshape(-1, C.m)[np.sort(first)],
                            rank[inverse.reshape(-1)].reshape(-1, 2),
                            C.multiplicities[owner], owners=owner,
                            lengths=rp[rows] * (hi - theta)[rows, cols],
                            midpoints=on_circle[:, 2])


def decompose_cycle(P: Polyline1Current):
    """Split an integral 1-cycle into indecomposable unit-multiplicity loops.

    Each loop segment keeps the length and midpoint of the segment of P it
    traverses, so mass is conserved exactly; repeated traversals are split
    into copies.
    """
    if not P.is_cycle():
        raise ValueError("input is not a cycle")
    # adjacency: list of (end, segment) per start vertex
    adj = {}
    for s, ((a, b), mult) in enumerate(zip(P.segments, P.multiplicities)):
        for _ in range(int(mult)):
            adj.setdefault(int(a), []).append((int(b), s))
    loops = []
    for start in sorted(adj):
        while adj.get(start):
            # walk until back at start with nothing left, pinching every
            # revisit into a simple loop along the way; walk[i] is the
            # segment from path[i] to path[i + 1]
            path, walk = [start], []
            pos = {start: 0}
            v = start
            while adj.get(v):
                nxt, s = adj[v].pop()
                walk.append(s)
                if nxt in pos:
                    cut = pos[nxt]
                    loops.append(walk[cut:])
                    for w in path[cut + 1 :]:
                        del pos[w]
                    path, walk = path[: cut + 1], walk[:cut]
                else:
                    path.append(nxt)
                    pos[nxt] = len(path) - 1
                v = nxt
            if len(path) != 1:
                raise ValueError("walk got stuck; input degrees not balanced")
    return [Polyline1Current(P.points, P.segments[k], np.ones(len(k), int),
                             ordered=True, lengths=P.lengths()[k],
                             midpoints=P.midpoints()[k])
            for k in map(np.array, loops)]


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
    The records are checked as arrays, and the first faulty line in the
    file is reported: a wrong field count, a vertex before any dim or with
    other than m coordinates, an unknown record. The vertex and tri
    records are then converted as two flat lists, so a number that does
    not parse raises its conversion's error, without a line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    toks = [line.split() for line in lines]
    lineno = [n for n, t in enumerate(toks, 1) if t]
    toks = [t for t in toks if t]
    kind = np.array([t[0] for t in toks], dtype=str)
    fields = np.array([len(t) - 1 for t in toks], dtype=int)
    is_dim, is_vertex, is_tri = kind == "dim", kind == "vertex", kind == "tri"
    fault = ((is_dim & (fields != 1)) | (is_tri & (fields != 4))
             | ~(is_dim | is_vertex | is_tri))
    # each record's m is that of the last dim record at or before it
    m = np.zeros(len(toks), dtype=int)
    declared = np.zeros(len(toks), dtype=bool)
    for i in np.flatnonzero(is_dim & ~fault):
        if (fault[:i] | (is_vertex[:i] & (~declared[:i] | (fields[:i] != m[:i])))).any():
            break  # an earlier fault is reported first
        m[i:] = int(toks[i][1])
        declared[i:] = True
    fault |= is_vertex & (~declared | (fields != m))
    if fault.any():
        i = int(np.argmax(fault))
        where = f"line {lineno[i]}"
        if is_vertex[i]:
            raise ValueError(f"{where}: expected {m[i]} coordinates" if declared[i]
                             else f"{where}: vertex before dim")
        if is_dim[i] or is_tri[i]:
            raise ValueError(f"{where}: {toks[i][0]!r} record with {fields[i]} "
                             f"fields, expected {1 if is_dim[i] else 4}")
        raise ValueError(f"{where}: unknown record {toks[i][0]!r}")
    if not is_dim.any():
        raise ValueError("missing dim record")
    verts = [t for t, v in zip(toks, is_vertex) if v]
    tris = [t for t, v in zip(toks, is_tri) if v]
    if verts:
        dims = np.unique(fields[is_vertex])
        if len(dims) > 1:
            raise ValueError(f"vertex records of {len(dims)} dimensions")
        verts = np.array([float(x) for t in verts for x in t[1:]]).reshape(len(verts), dims[0])
    if not tris:
        return TriCurrent(verts, [], [])
    tris = np.array([int(x) for t in tris for x in t[1:]]).reshape(-1, 4)
    return TriCurrent(verts, tris[:, :3], tris[:, 3])


def write_mesh(path, C: TriCurrent) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim {C.m}\n")
        for v in C.vertices:
            fh.write("vertex " + " ".join(f"{x:.17g}" for x in v) + "\n")
        for (i, j, k), mult in zip(C.triangles, C.multiplicities):
            fh.write(f"tri {i} {j} {k} {mult}\n")
