"""Discrete integral 2-currents as oriented triangle meshes.

A TriCurrent is an oriented triangulated surface in R^m with nonzero integer
multiplicities per triangle. The module provides mass and integrals over
regions bounded by quadrics, on each triangle's exact planar section (balls,
annuli and cylinders clipped exactly, cone complements and intersections cut
by conics), pairing against 2-form fields, boundary, dilation/blow-up,
spherical slicing into 1-currents, decomposition of 1-cycles into loops, the
loop Poincare inequality quantities, and a line-oriented mesh text format.
"""

from __future__ import annotations

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
    reversing the triangle. An optional clip ball about the origin (set by
    dilations) restricts mass, integrate, pair, the ladders and slices;
    `total_mass`, `boundary` and `is_cycle` describe the whole mesh.
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
    intersection of the above, each the positive side of its quadrics
    (`_quadrics`). `indicator` is the one membership test of points; which
    triangles a region holds, misses or crosses is decided apart, by
    `_near_far` for a ball, an annulus or a cylinder, else by the extremes
    of its conics (`_conic_sections`)."""

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
        center, axes = np.asarray(center, float), tuple(axes)
        if len(axes) != 2 or axes[0] == axes[1] or not all(0 <= a < center.size for a in axes):
            raise ValueError(f"cylinder axes must be two distinct indices in [0, {center.size})")
        return Region("cylinder", center=center, radius=radius, axes=axes)

    @staticmethod
    def cone_complement(center, planes, eps: float) -> "Region":
        """Points with dist(x, union of planes) > eps * |x - center|, for
        one or more planes through `center`, each an (m, 2) basis with
        orthonormal columns (to 1e-12)."""
        if not 0 < eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        center = np.asarray(center, float)
        planes = tuple(np.asarray(p, float) for p in planes)
        if center.ndim != 1 or not planes or any(
                B.shape != (center.size, 2) or np.abs(B.T @ B - np.eye(2)).max() > 1e-12
                for B in planes):
            raise ValueError(f"a cone complement needs a center vector and planes, "
                             f"({center.size}, 2) arrays with orthonormal columns")
        return Region("cone_complement", center=center, planes=planes, eps=eps)

    @staticmethod
    def intersect(*parts) -> "Region":
        """The intersection of regions; nested intersections are flattened,
        so every part is a basic region."""
        flat = []
        for p in parts:
            flat.extend(p.parts if p.kind == "intersect" else (p,))
        return Region("intersect", parts=tuple(flat))

    def indicator(self, x: np.ndarray) -> np.ndarray:
        """Boolean membership for points, shape (..., m): on the positive
        side of every quadric of `_quadrics`, so open on the boundary."""
        x = np.asarray(x, dtype=float)
        inside = np.ones(x.shape[:-1], dtype=bool)
        for c, M, k in _quadrics(self):
            w = x - c
            inside &= _dot(w, w @ M) + k > 0.0
        return inside


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


def _plane_sections(C: TriCurrent, center, idx, r: float):
    """Where the planes of triangles idx meet the ball B_r(center): each
    plane that passes within r of the center meets the ball in a disk about
    the foot of the center.

    Returns near (bool, len(idx)), whether a plane passes within r, and for
    the near triangles: their corners in orthonormal plane coordinates
    about the foot (k, 3, 2), the squared offsets d^2 of their planes from
    the center (k,), the in-plane radii sqrt(r^2 - d^2) (k,), and the frame
    (foot, e, f), each (k, m), that maps plane coordinates (x, y) back to
    the center-relative point foot + x e + y f.
    """
    T = C.triangles
    u1, u2 = plane_frames(C.tangents[idx], C.m)
    a = C.vertices[T[idx, 0]] - center  # first vertex relative to the center
    crel = -a  # center relative to the triangle's first vertex
    cx = np.einsum("ij,ij->i", crel, u1)
    cy = np.einsum("ij,ij->i", crel, u2)
    off2 = np.einsum("ij,ij->i", crel, crel) - cx * cx - cy * cy
    near = off2 < r * r
    idx, a, u1, u2, cx, cy = idx[near], a[near], u1[near], u2[near], cx[near], cy[near]
    off2 = off2[near]
    rp = np.sqrt(r * r - off2)
    p = C.vertices[T[idx]] - center - a[:, None, :]
    x = np.einsum("nkj,nj->nk", p, u1) - cx[:, None]
    y = np.einsum("nkj,nj->nk", p, u2) - cy[:, None]
    foot = a + cx[:, None] * u1 + cy[:, None] * u2
    return near, np.stack([x, y], axis=2), off2, rp, (foot, u1, u2)


def _ball_clip(C: TriCurrent, R: Region, idx, r: float) -> np.ndarray:
    """Exact areas of triangles idx inside the ball of radius r about R's
    center: each plane meets the ball in a disk."""
    near, xy, _, rp, _ = _plane_sections(C, R.center, idx, r)
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


def _cylinder_clip(C: TriCurrent, R: Region, idx, r: float) -> np.ndarray:
    """Exact areas of triangles idx inside the cylinder R of radius r: the
    share of each projection to R's plane inside the disk, times the
    triangle's area; an edge-on projection has no share to take, so its
    triangle integrates 1 on its conic section (`_section_integrate`)."""
    axes = list(R.axes)
    v = (C.vertices[C.triangles[idx]] - R.center)[..., axes]
    signed2, edge_on = _projected_areas(C, v, idx)
    flat = ~edge_on
    out = C.areas[idx].copy()
    out[flat] *= np.minimum(np.abs(tri_disk_areas(v[flat], r)) / np.abs(signed2[flat]), 1.0)
    for k in np.nonzero(edge_on)[0]:
        out[k] = _section_integrate(C, None, R, idx[k:k + 1]) / C.multiplicities[idx[k]]
    return out


# relative widening of the lower bound of a triangle's distance (`_near_far`)
_NEAR_TOL = 1e-12


def _near_far(C: TriCurrent, center, radii, axes=None):
    """Where the spheres |x - center| = r, for r in radii, cross the
    triangles (for cylinders over the plane `axes`, the circles about the
    axis their projections): near and far (T,), the distances of a
    triangle's closest point and farthest vertex, so radius r holds it
    when far <= r, misses it when near > r, and crosses it otherwise.
    low = far - longest edge (projected), lowered by 1e-12 of |center| +
    far + edge, bounds near; the closest point is computed only where
    some radius lies in [low, far), elsewhere near = low decides alike. An
    edge-on projection (`_projected_areas`) has no closest point to trust
    and keeps near = low, so a radius in [low, far) crosses it.
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
        keep = ~_projected_areas(C, crn, todo)[1]
        todo, crn = todo[keep], crn[keep]
    if len(todo):
        q, _ = _closest_points_on_triangles(0.0, crn[:, 0], crn[:, 1], crn[:, 2])
        near[todo] = np.sqrt(_dot(q, q))
    return near, far


def _midpoint_children(corners):
    """The four midpoint children of each triangle in (n, 3, m) corners."""
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    return [np.stack(child, axis=1)
            for child in ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))]


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


# Gauss-Legendre nodes in angle and in radius per sub-wedge of a section
_SECTION_NODES = (8, 6)
_GL_THETA, _GL_RHO = (np.polynomial.legendre.leggauss(n) for n in _SECTION_NODES)
# a sub-wedge whose ray at the middle angle, or a conic ray piece whose
# half-length, is at most this share of the triangle's reach is dropped
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


def _graded_wedges(lo, hi, poles, depth=0.0):
    """Split sub-wedges [lo, hi] (W,) geometrically toward the nearest
    pole of their radial limits beyond each end, so each piece is no
    longer than `_SECTION_GRADE` times its distance to the pole.

    An edge limit h / (n . dir) has poles at the two angles parallel to the
    edge, one just past a sub-wedge's end if the edge line passes close to
    the origin. poles (W, k) holds the real parts of the poles of each
    sub-wedge's limits (nan for none), and depth their distance from the
    real axis. Returns the pieces' wedge, lo and hi.
    """
    two_pi = 2.0 * np.pi
    width = hi - lo
    below = np.nanmin(np.hypot(np.mod(lo[:, None] - poles, two_pi), depth), axis=1,
                      initial=np.inf)
    above = np.nanmin(np.hypot(np.mod(poles - hi[:, None], two_pi), depth), axis=1,
                      initial=np.inf)
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


def _edge_crossings(xy, E, qa, qb, qc):
    """The angles at which the edges E of planar triangles xy (..., 3, 2)
    cross a curve qa t^2 + 2 qb t + qc = 0 (..., 3) along xy_k + t E_k:
    two slots per edge (..., 6), nan for no root 0 < t < 1."""
    disc = qb * qb - qa * qc
    sq = np.sqrt(np.maximum(disc, 0.0))
    out = []
    for t in ((-qb - sq) / qa, (-qb + sq) / qa):
        hit = (disc > 0.0) & (t > 0.0) & (t < 1.0)
        p = xy + t[..., None] * E
        out.append(np.where(hit, np.arctan2(p[..., 1], p[..., 0]), np.nan))
    return np.concatenate(out, axis=-1)


def _circle_crossings(xy, E, rad):
    """`_edge_crossings` of the circles |p| = rad (n,)."""
    pp = np.einsum("nkj,nkj->nk", xy, xy)
    return _edge_crossings(xy, E, np.einsum("nkj,nkj->nk", E, E),
                           np.einsum("nkj,nkj->nk", xy, E), pp - (rad * rad)[:, None])


def _quadrics(R: Region):
    """R as where (x - c)^T M (x - c) + k > 0 for each returned (c, M, k):
    a ball's or cylinder's radius, an annulus's two, a cone M = (1 - eps^2)
    I - B B^T per plane B, or all those of an intersection's parts."""
    if R.kind in ("full", "intersect"):
        return [q for part in R.parts for q in _quadrics(part)]
    eye = np.eye(len(R.center))
    if R.kind == "ball":
        return [(R.center, -eye, R.radius ** 2)]
    if R.kind == "annulus":
        return [(R.center, eye, -R.inner ** 2), (R.center, -eye, R.outer ** 2)]
    if R.kind == "cylinder":
        return [(R.center, -eye[:, list(R.axes)] @ eye[list(R.axes)], R.radius ** 2)]
    return [(R.center, (1.0 - R.eps ** 2) * eye - B @ B.T, 0.0) for B in R.planes]


def _edge_quadratics(xy, E, conics):
    """Conics along the edges xy_k + t E_k of planar triangles (n, 3, 2):
    qa t^2 + 2 qb t + qc, each (n, J, 3)."""
    a00, a01, a11, b0, b1, c = (v[..., None] for v in conics[:6])
    x, y, ex, ey = xy[:, None, :, 0], xy[:, None, :, 1], E[:, None, :, 0], E[:, None, :, 1]
    ax, ay = a00 * x + a01 * y + b0, a01 * x + a11 * y + b1  # A p + b
    return (ex * (a00 * ex + a01 * ey) + ey * (a01 * ex + a11 * ey), ex * ax + ey * ay,
            x * (ax + b0) + y * (ay + b1) + c)


def _conic_centers(conics):
    """The centers -A^-1 b of conics, as x and y, and det A."""
    a00, a01, a11, b0, b1 = conics[:5]
    det = a00 * a11 - a01 * a01
    with np.errstate(divide="ignore", invalid="ignore"):
        return (a01 * b1 - a11 * b0) / det, (a01 * b0 - a00 * b1) / det, det


def _conic_sections(C: TriCurrent, R: Region, idx):
    """Where triangles idx meet R: each quadric of `_quadrics` meets a
    plane in a conic p.A p + 2 b.p + c, positive on R's side, with p about
    the first conic's center if an ellipse within 4 times the farthest
    corner's distance (a cylinder's axis), else the foot of the first
    quadric's center. Returns the corners (n, 3, 2), the frame (origin, e,
    f) mapping p to origin + p_0 e + p_1 f, the conics as (n, J) arrays
    A_00, A_01, A_11, b_0, b_1, c, and which are positive, and which
    negative, on the whole triangle, by their extremes on its corners,
    edges and center within 1e-13 of the spread (touching is not crossing).
    """
    centers, M, k = (np.array(col) for col in zip(*_quadrics(R)))
    _, xy, _, _, (foot, e, f) = _plane_sections(C, centers[0], idx, np.inf)
    Me, Mf = e @ M, f @ M  # (J, n, m); M is symmetric
    A = [_dot(u, v).T for u, v in ((e, Me), (e, Mf), (f, Mf))]

    def linear(origin):  # b and c about origin
        w = origin - centers[:, None]
        Mw = w @ M
        return _dot(e, Mw).T, _dot(f, Mw).T, (_dot(w, Mw) + k[:, None]).T

    origin = centers[0] + foot
    px, py, det = _conic_centers([v[:, 0] for v in A + list(linear(origin)[:2])])
    far = np.sqrt(np.einsum("nkj,nkj->nk", xy, xy).max(axis=1))
    near = (det > 0.0) & (np.hypot(px, py) <= 4.0 * far)
    shift = np.where(near[:, None], np.stack([px, py], axis=1), 0.0)
    origin = origin + shift[:, :1] * e + shift[:, 1:] * f
    xy = xy - shift[:, None]
    conics = (*A, *linear(origin))
    E, _, normals, h = _half_planes(xy)
    qa, qb, qc = _edge_quadratics(xy, E, conics)
    px, py, _ = _conic_centers(conics)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -qb / qa
        in_tri = np.all(normals[:, None, :, 0] * px[..., None]
                        + normals[:, None, :, 1] * py[..., None] >= h[:, None], axis=-1)
        vals = np.concatenate([
            qc, np.where((t > 0.0) & (t < 1.0), qc + qb * t, np.nan),
            np.where(in_tri, conics[5] + conics[3] * px + conics[4] * py, np.nan)[..., None]],
            axis=-1)
    lo, hi = np.fmin.reduce(vals, axis=-1), np.fmax.reduce(vals, axis=-1)  # nan for none
    neg = hi <= 1e-13 * (hi - lo)
    return xy, (origin, e, f), conics, (lo >= -1e-13 * (hi - lo)) & ~neg, neg


def _conic_split(C: TriCurrent, R: Region):
    """The triangles inside R (mask) and those its boundary crosses
    (indices), by `_conic_sections`."""
    _, _, _, pos, neg = _conic_sections(C, R, np.arange(len(C)))
    inside = pos.all(axis=1)
    return inside, np.nonzero(~inside & ~neg.any(axis=1))[0]


def _ray_roots(conics, theta):
    """The roots rho (n, k, J, 2) of each conic along the rays at angles
    theta (n, k): al rho^2 + 2 be rho + c, al = u.A u and be = b.u for the
    ray's direction u; nan for none."""
    a00, a01, a11, b0, b1, c = (v[:, None] for v in conics)
    u, v = np.cos(theta)[..., None], np.sin(theta)[..., None]
    al, be = a00 * u * u + 2.0 * a01 * u * v + a11 * v * v, b0 * u + b1 * v
    disc = be * be - al * c
    with np.errstate(divide="ignore", invalid="ignore"):
        qq = -(be + np.copysign(np.sqrt(disc), be))
        roots = np.stack([qq / al, c / qq], axis=-1)
    return np.where((disc >= 0.0)[..., None] & np.isfinite(roots), roots, np.nan)


def _branch_angles(P, Q, S):
    """The zeros of P cos^2 + 2 Q cos sin + S sin^2 in the complex angle:
    their real parts in [-pi, pi) and their distances from the real axis,
    each (..., 4), nan where it is constant."""
    half, amp = 0.5 * (P - S), np.hypot(0.5 * (P - S), Q)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.where(amp > 0.0, -0.5 * (P + S) / amp, np.nan)  # cos(2 theta - phi)
    phi, acos = np.arctan2(Q, half)[..., None], np.arccos(np.clip(v, -1.0, 1.0))[..., None]
    re = 0.5 * (phi + acos * [1, -1, 1, -1]) + np.pi * np.array([0, 0, 1, 1])
    im = 0.5 * np.arccosh(np.maximum(np.abs(v), 1.0))[..., None]
    return np.mod(re + np.pi, 2.0 * np.pi) - np.pi, np.repeat(im, 4, axis=-1)


def _polymul(p, q):
    """Products of polynomials given by coefficient rows (..., i), (..., j)."""
    i, j = np.indices((p.shape[-1], q.shape[-1]))
    return np.einsum("...i,...j,ijk->...k", p, q, np.eye(i[-1, -1] + j[-1, -1] + 1)[i + j])


def _quartic_angles(r):
    """The real zeros in [-pi, pi) of sum_k r_k cos^(4-k) sin^k, for rows
    r (n, 5), as (n, 8) with nan for none: eigenvalues of the companion
    matrix in tan, or in cot where |r_0| > |r_4|, real within 1e-6."""
    cot = np.abs(r[:, 0]) > np.abs(r[:, 4])
    r = np.where(cot[:, None], r[:, ::-1], r)
    ok = np.abs(r[:, 4]) > 1e-200 * np.abs(r).max(axis=1)
    comp = np.zeros((len(r), 4, 4))
    comp[:, 1:, :3] = np.eye(3)
    comp[ok, :, 3] = -r[ok, :4] / r[ok, 4:]
    z = np.linalg.eigvals(comp)
    real = ok[:, None] & (np.abs(z.imag) <= 1e-6 * (1.0 + np.abs(z.real)))
    th = np.where(real, np.where(cot[:, None], np.arctan2(1.0, z.real), np.arctan(z.real)),
                  np.nan)
    return np.mod(np.concatenate([th, th + np.pi], axis=1) + np.pi, 2.0 * np.pi) - np.pi


def _conic_breaks(xy, E, conics):
    """The breaks (n, k) of `_section_wedges` for conics: where one
    crosses an edge, where two meet (zeros of the resultant of their ray
    quadratics, a quartic in cos and sin), and the real parts re (n, J, 8)
    of the complex angles where a ray's roots are singular (zeros of al and
    of be^2 - al c), with their distances im from the real axis."""
    a00, a01, a11, b0, b1, c = conics
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = _edge_crossings(xy[:, None], E[:, None], *_edge_quadratics(xy, E, conics))
    # the same re are breaks and poles, so a pole on a break is that break to the bit
    re, im = (np.concatenate(z, axis=-1) for z in zip(
        _branch_angles(a00, a01, a11),
        _branch_angles(b0 * b0 - c * a00, b0 * b1 - c * a01, b1 * b1 - c * a11)))
    al, b = np.stack([a00, 2.0 * a01, a11], axis=-1), np.stack([b0, b1], axis=-1)
    i, j = np.triu_indices(c.shape[1], 1)
    u = al[:, i] * c[:, j, None] - al[:, j] * c[:, i, None]
    v = _polymul(al[:, i], b[:, j]) - _polymul(al[:, j], b[:, i])
    w = b[:, i] * c[:, j, None] - b[:, j] * c[:, i, None]
    meet = _quartic_angles((_polymul(u, u) - 4.0 * _polymul(v, w)).reshape(-1, 5))
    return np.concatenate([cross, re], axis=-1).reshape(len(xy), -1), meet.reshape(
        len(xy), -1), re, im


def _section_wedges(xy, inner, outer, conics=None):
    """Split each planar section {p in triangle xy (n, 3, 2) : inner <=
    |p| <= outer (n,)}, or the triangle cut by conics, into sub-wedges on
    which every radial limit is analytic in the angle: at the corners'
    angles, +-pi, and where an edge crosses a circle, or `_conic_breaks`.
    A sub-wedge whose ray at the middle angle is shorter than
    `_SECTION_EMPTY` times the farthest corner's distance is dropped; one
    whose edge limits, or roots of a conic crossing that ray, turn sharply
    near an end is graded (`_graded_wedges`). Returns the triangle of
    each sub-wedge, its angles theta0 < theta1, and the normals and
    offsets of `_ray_limits`.
    """
    E, _, normals, h = _half_planes(xy)
    if conics is None:
        cuts = [_circle_crossings(xy, E, inner), _circle_crossings(xy, E, outer)]
    else:
        *cuts, re, im = _conic_breaks(xy, E, conics)
    breaks = [np.arctan2(xy[..., 1], xy[..., 0]), *cuts,
              np.full((len(xy), 2), [-np.pi, np.pi])]
    theta = np.sort(np.concatenate(breaks, axis=1), axis=1)  # nan last
    lo, hi = theta[:, :-1], theta[:, 1:]
    mid = 0.5 * (lo + hi)
    a, b, ia, ib = _ray_limits(normals, h, inner, outer, mid)
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
    poles, depth = np.stack(poles, axis=1), 0.0
    if conics is not None:
        roots = _ray_roots(tuple(x[rows] for x in conics), mid[rows, cols, None])[:, 0]
        on_ray = (roots > a[rows, cols, None, None]) & (roots < b[rows, cols, None, None])
        re = np.where(on_ray.any(axis=-1)[..., None], re[rows], np.nan).reshape(len(rows), -1)
        poles = np.concatenate([poles, re], axis=1)
        depth = np.concatenate([np.zeros((len(rows), 4)), im[rows].reshape(len(rows), -1)], 1)
    w, lo, hi = _graded_wedges(lo, hi, poles, depth)
    return rows[w], lo, hi, normals, h


def _parts(counts):
    """Items cut into counts (k,) parts, at least one: each part's item, index and count."""
    counts = np.maximum(counts, 1).astype(int)
    rep = np.repeat(np.arange(len(counts)), counts)
    start = np.repeat(np.cumsum(counts) - counts, counts)
    return rep, np.arange(len(rep)) - start, counts[rep]


def _section_integrate(C: TriCurrent, fn, R: Region, idx) -> float:
    """Integral of fn (None: of 1) over the triangles idx within R on their
    exact sections, in polar coordinates in each plane: between circles
    about the foot of a ball's or an annulus's center, or cut by the
    conics of `_conic_sections`, each ray at their roots, keeping the
    pieces whose midpoint `Region.indicator` puts in R and whose
    half-length exceeds `_SECTION_EMPTY` times the triangle's reach
    (a piece kept at no angular node costs no group). Each piece of a
    sub-wedge of `_section_wedges` is one group of fn, with its triangle's
    tangent row, at `_SECTION_NODES` Gauss-Legendre nodes in angle and
    radius, weight rho; a node of weight 0 moves onto its group's heaviest
    node. For fn, no conic sub-wedge, piece or cut's move across a
    sub-wedge exceeds the diameter of R's smallest ball or cylinder,
    clipped to 1/16 to 1/4 of the triangle's longest edge.
    """
    if len(idx) == 0:
        return 0.0
    if R.kind in ("ball", "annulus"):
        inner, outer = (R.inner, R.outer) if R.kind == "annulus" else (0.0, R.radius)
        near, xy, off2, ro, (foot, e, f) = _plane_sections(C, R.center, idx, outer)
        idx, origin, conics = idx[near], R.center + foot, None
        ri = np.sqrt(np.maximum(inner * inner - off2, 0.0))
    else:
        xy, (origin, e, f), conics, pos, _ = _conic_sections(C, R, idx)
        # a conic positive on the whole triangle becomes q = 1, which cuts nothing
        conics = tuple(np.where(pos, q, v) for v, q in zip(conics, (0, 0, 0, 0, 0, 1)))
        ri, ro = np.zeros(len(idx)), np.full(len(idx), np.inf)
        squares = [q[2] for q in _quadrics(R) if q[2] > 0.0]  # radii^2 of round parts
        edge = C.longest_edges[idx] if fn is not None else np.full(len(idx), np.inf)
        cap = np.clip(2.0 * math.sqrt(min(squares, default=np.inf)), edge / 16, edge / 4)
    g, th0, th1, normals, h = _section_wedges(xy, ri, ro, conics)

    def cuts_at(g, theta):  # where the rays at theta (G, k) are cut, (G, k, K + 1)
        a, b, _, _ = _ray_limits(normals[g], h[g], ri[g], ro[g], theta)
        cuts = [a[..., None], np.maximum(a, b)[..., None]]
        if conics is not None:
            roots = _ray_roots(tuple(x[g] for x in conics), theta).reshape(a.shape + (-1,))
            cuts.insert(1, np.fmin(np.fmax(roots, cuts[0]), cuts[1]))
        return np.sort(np.concatenate(cuts, axis=-1), axis=-1)

    if conics is not None:  # no sub-wedge wider than cap, nor a cut moving further
        far = np.sqrt(np.einsum("nkj,nkj->nk", xy, xy).max(axis=1))
        move = np.ptp(cuts_at(g, np.stack([th0, 0.5 * (th0 + th1), th1], axis=1)), axis=1)
        width = th1 - th0
        rep, j, n = _parts(np.ceil(np.maximum(far[g] * width, move.max(axis=1)) / cap[g]))
        g, th0, th1 = g[rep], th0[rep] + width[rep] * j / n, th0[rep] + width[rep] * (j+1) / n
    (xt, wt), (xr, wr) = _GL_THETA, _GL_RHO
    half = 0.5 * (th1 - th0)
    theta = (th0 + half)[:, None] + half[:, None] * xt  # (G, n_theta)
    cuts = cuts_at(g, theta)
    lo, span = cuts[..., :-1], 0.5 * np.diff(cuts, axis=-1)  # pieces (G, n_theta, K)
    if conics is not None:
        u = (np.cos(theta)[..., None, None] * e[g, None, None]
             + np.sin(theta)[..., None, None] * f[g, None, None])
        span = span * R.indicator(origin[g, None, None] + (lo + span)[..., None] * u)
        span = np.where(span > _SECTION_EMPTY * far[g, None, None], span, 0.0)
    rows, piece = np.nonzero(np.any(span > 0.0, axis=1) | (conics is None))
    if len(rows) == 0:
        return 0.0
    g, theta, half = g[rows], theta[rows], half[rows]
    lo, span = lo[rows, :, piece], span[rows, :, piece]
    if conics is not None:  # and no piece longer than cap
        rep, j, n = _parts(np.ceil(2.0 * span.max(axis=1) / cap[g]))
        g, theta, half, span = g[rep], theta[rep], half[rep], span[rep] / n[:, None]
        lo = lo[rep] + 2.0 * span * j[:, None]
    rho = (lo + span)[..., None] + span[..., None] * xr  # (G, n_theta, n_rho)
    w = ((half[:, None] * wt * span)[..., None] * wr * rho).reshape(len(g), -1)
    x = (rho * np.cos(theta)[..., None]).reshape(len(g), -1, 1)
    y = (rho * np.sin(theta)[..., None]).reshape(len(g), -1, 1)
    owner = idx[g]
    pts = origin[g, None] + x * e[g, None] + y * f[g, None]
    empty = w <= 0.0
    if np.any(empty):
        heaviest = pts[np.arange(len(g)), np.argmax(w, axis=1)]
        pts = np.where(empty[..., None], heaviest[:, None], pts)
    vals = np.ones(w.shape) if fn is None else np.asarray(fn(pts, C.tangents[owner]), float)
    return float(np.sum((vals * w).sum(axis=1) * C.multiplicities[owner]))


def _integrals(C: TriCurrent, fn, regions) -> list:
    """Integrals of fn (None: of 1, the mass) over C restricted to each of
    `regions`, after `_effective_region`: balls and annuli about one
    center, cylinders about one axis, or one other region. The triangles
    are sorted once, by `_near_far` over all the radii or by
    `_conic_split`. A region counts the triangles inside it whole (mass)
    or by `_refined_sum` of fn's `_quad_values`, taken once for the
    triangles inside any region, and the triangles its boundary crosses by
    exact clipping (mass in a ball or a cylinder, an annulus as the outer
    ball minus the inner) or on their exact sections
    (`_section_integrate`). Each region's value is bit for bit that of a
    call with it alone.
    """
    R, mult = regions[0], C.multiplicities
    if R.kind in ("ball", "annulus", "cylinder"):
        bounds = [(S.inner, S.outer) if S.kind == "annulus" else (0.0, S.radius)
                  for S in regions]
        axes = R.axes if R.kind == "cylinder" else None
        near, far = _near_far(C, R.center, [r for b in bounds for r in b if r > 0.0], axes)
        if fn is None:
            clip = _ball_clip if axes is None else _cylinder_clip

            def within(S, r):  # exact areas within radius r, per triangle
                out = np.where(far <= r, C.areas, 0.0)
                idx = np.nonzero((far > r) & (near <= r))[0]
                if len(idx):
                    out[idx] = clip(C, S, idx, r)
                return out

            return [float(np.sum((within(S, ball) - within(S, hole) if hole else
                                  within(S, ball)) * mult))
                    for S, (hole, ball) in zip(regions, bounds)]
        insides = [(far <= ball) & ((near > hole) | (hole == 0.0)) for hole, ball in bounds]
        crossed = [np.nonzero(~((near > ball) | (far <= hole) | inside))[0]
                   for (hole, ball), inside in zip(bounds, insides)]
    else:
        inside, cut = ((np.ones(len(C), dtype=bool), []) if R.kind == "full"
                       else _conic_split(C, R))
        if fn is None:
            return [float(np.sum(C.areas[inside] * mult[inside]))
                    + _section_integrate(C, None, R, cut)]
        insides, crossed = [inside], [cut]
    # full space keeps the tangents' column-major layout, which fn's sums see
    union = (slice(None) if R.kind == "full"
             else np.nonzero(np.logical_or.reduce(insides))[0])
    areas, mults = C.areas[union], mult[union]
    vals = (_quad_values(C.corners()[union], C.tangents[union], fn) if len(areas) else [])
    return [_refined_sum([v[inside[union]] for v in vals], areas[inside[union]],
                         mults[inside[union]]) + _section_integrate(C, fn, S, cut)
            for S, inside, cut in zip(regions, insides, crossed)]


def mass(C: TriCurrent, R: Region | None = None) -> float:
    """Mass of C restricted to a region, M(C |_ R): the integral of 1 by
    `_integrals`, with balls, annuli and cylinders clipped exactly in each
    triangle's plane."""
    return _integrals(C, None, [_effective_region(C, R)])[0]


def integrate(C: TriCurrent, fn, R: Region | None = None) -> float:
    """Integral over ||C|| restricted to R of a pointwise scalar field, on
    the partition that `mass` measures R on, so `integrate(C, 1, R)` is
    `mass(C, R)` to rounding. fn(points (L, k, m), tangents (L, n2)) ->
    (L, k) sees groups of points on one triangle each, tangents[l] its
    unit 2-vector row, and should broadcast over k. Triangles inside R
    take the order-7 rule with one refinement pass (`_refined_sum`,
    k = 7), crossed ones their exact section (`_section_integrate`, k =
    n_theta * n_rho), so there is quadrature error only (`_integrals`).
    """
    return _integrals(C, fn, [_effective_region(C, R)])[0]


def _ladder(C: TriCurrent, fn, center, radii, axes=None) -> np.ndarray:
    """`_integrals` of fn (None: mass) in the balls B_r(center), or the
    coordinate cylinders over the plane `axes`, for each r in radii: the
    radii whose region stays a ball or a cylinder within the clip ball of
    C (`_effective_region`) share one call, and the others, intersections
    with it, go one at a time."""
    regions = [_effective_region(C, Region.ball(center, r) if axes is None
                                 else Region.cylinder(center, r, axes))
               for r in np.asarray(radii, dtype=float)]
    plain = [k for k, E in enumerate(regions) if E.kind != "intersect"]
    out = np.array([_integrals(C, fn, [E])[0] if E.kind == "intersect" else 0.0
                    for E in regions])
    if plain:
        out[plain] = _integrals(C, fn, [regions[k] for k in plain])
    return out


def mass_ladder(C: TriCurrent, center, radii, axes=None) -> np.ndarray:
    """Masses of C in the balls B_r(center), or in the coordinate cylinders
    over the plane `axes`, for each r in radii: `mass` region by region,
    bit for bit, with the triangles sorted once for all the radii whose
    region stays a ball or a cylinder (`_ladder`)."""
    return _ladder(C, None, center, radii, axes)


def integrate_ladder(C: TriCurrent, fn, center, radii) -> np.ndarray:
    """Integrals of fn over C in the balls B_r(center), r in radii, the
    counterpart of `mass_ladder`: `integrate` ball by ball, bit for bit,
    for an fn whose value at a point does not depend on the other points
    of its call, with fn evaluated once on the triangles inside any ball
    that stays a ball (`_ladder`)."""
    return _ladder(C, fn, center, radii)


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
    A triangle `_near_far` calls crossed meets it in a circle about the
    foot of x0 in its plane, cut at its edges (`_circle_crossings`); the
    arcs whose middle lies in the triangle, or two half circles inside the
    face, are the slice, one segment each with its exact length and
    midpoint, the triangle's multiplicity and index (`owners`), running
    counterclockwise in its orientation; an end point is named by its
    edge. Within a clip ball, a sphere about its center past its radius
    gives the empty slice, and an off-center one must stay inside.
    """
    if rho <= 0:
        raise ValueError("slice radius must be positive")
    x0 = np.asarray(x0, dtype=float)
    if C.clip_radius is not None and np.linalg.norm(x0) + rho > C.clip_radius:
        if np.any(x0):
            raise ValueError(f"the sphere leaves the clip ball of radius {C.clip_radius}")
        return Polyline1Current(np.zeros((0, C.m)), np.zeros((0, 2), int), [], owners=[])
    rho = _regular_slice_radius(C, x0, rho)
    near, far = _near_far(C, x0, [rho])
    cand = np.nonzero((near <= rho) & (far > rho))[0]
    hit, xy, _, rp, (foot, e, f) = _plane_sections(C, x0, cand, rho)
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
