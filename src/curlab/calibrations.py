"""Calibration 2-form fields and defect measurement.

Shipped fields: the constant symplectic form, a non-closed tubular field
adapted to an embedded triangulated surface, the Fubini-Study form on affine
charts of complex projective space with a local primitive, and the Special
Legendrian form on R^6.
"""

from __future__ import annotations

import numpy as np

from . import currents as cur
from .currents import _closest_points_on_triangles, _dot
from .exterior import (
    MultiForm,
    _complex_matrix,
    _complex_rows,
    _fs_dist_matrix,
    _rows_from_skew,
    _skew_from_rows,
    _wedge3_index,
    comass2,  # noqa: F401  (perfbench/tracing.py wraps it)
    omega0,
    plane_frames,
)

__all__ = [
    "CalibrationField",
    "standard_symplectic",
    "tubular_calibration",
    "calibration_defect",
    "fubini_study",
    "FubiniStudy",
    "special_legendrian",
    "exterior_derivative_fd",
]


class CalibrationField:
    """A 2-form field on R^m: one batched function with a comass bound.

    rows_many(points (P, m)) -> coefficient rows (P, n2) is the field;
    evaluate_many applies it and evaluate(x) is its one-row case.
    """

    def __init__(self, m, rows_many, comass_bound=1.0, closed=False):
        self.m = m
        self.rows_many = rows_many
        self.comass_bound = comass_bound
        self.closed = closed

    def evaluate(self, x) -> MultiForm:
        return MultiForm(self.m, 2, self.evaluate_many(x)[0], self.comass_bound)

    def evaluate_many(self, points) -> np.ndarray:
        return self.rows_many(np.asarray(points, dtype=float).reshape(-1, self.m))


def standard_symplectic(m: int) -> CalibrationField:
    """The constant symplectic calibration; closed, comass 1."""
    if m % 2:
        raise ValueError("even dimension required")
    w = omega0(m).coeffs
    return CalibrationField(m, lambda points: np.broadcast_to(w, (len(points), len(w))),
                            1.0, closed=True)


def _smoothstep_down(t: np.ndarray | float):
    """1 at t<=0 falling smoothly to 0 at t>=1."""
    t = np.clip(t, 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t)


def _edge_neighbors(T: np.ndarray) -> np.ndarray:
    """For triangle t and its edge opposite vertex slot s, the triangle
    across that edge, or -1 where the edge is not shared by exactly two."""
    n = len(T)
    ends = np.sort(T[:, [[1, 2], [2, 0], [0, 1]]], axis=2)  # (n, 3, 2)
    # one key per half-edge; half-edge 3 t + s is edge s of triangle t
    keys = (ends[..., 0] * (T.max() + 1) + ends[..., 1]).ravel()
    _, inv, counts = np.unique(keys, return_inverse=True, return_counts=True)
    order = np.argsort(inv, kind="stable")  # half-edges grouped by edge
    first = (np.cumsum(counts) - counts)[counts == 2]
    h1, h2 = order[first], order[first + 1]
    out = np.full(3 * n, -1)
    out[h1] = h2 // 3
    out[h2] = h1 // 3
    return out.reshape(n, 3)


class TubularField(CalibrationField):
    """Non-closed field calibrating a prescribed embedded surface.

    Within distance delta of the surface the form is the unit dual covector
    of the tangent plane at the nearest point; planes of triangles meeting at
    an edge are blended inside a thin barycentric band so the field is
    continuous across edges yet exactly facet-dual at quadrature depth. A
    smooth cutoff kills the field beyond delta. Comass is renormalized to 1
    pointwise, which costs C^2 regularity at triangle interfaces.

    The nearest triangle is exact: the K_CANDIDATES nearest centroids are
    searched first, and a point is searched again with twice the candidates
    until no triangle outside them can be nearer (or within delta). Where a
    point is equidistant from two triangles, as on the bisector of an edge,
    rounding alone would pick one; distances within `tie` of the least one
    are ties instead, and a tie goes to the lowest triangle index.

    Its rows_many is a method, since it needs the search structures built
    here; so __init__ sets m, comass_bound and closed itself.
    """

    BAND = 0.025  # barycentric half-width of the edge blending band
    K_CANDIDATES = 12  # nearest centroids searched first for the nearest triangle
    PAIR_BLOCK = 1 << 16  # (point, candidate) pairs evaluated at once
    TIE = 1e-12  # distances this close, relative to the coordinates, tie

    def __init__(self, S: cur.TriCurrent, delta: float):
        from scipy.spatial import cKDTree

        self.S = S
        self.delta = float(delta)
        self.k = min(self.K_CANDIDATES, len(S))
        self.tree = cKDTree(S.centroids)
        corners = S.corners()
        self._abc = np.ascontiguousarray(corners.transpose(1, 0, 2))  # (3, T, m)
        # the farthest any triangle reaches from its centroid (a vertex)
        spokes = corners - S.centroids[:, None, :]
        self.rho_max = float(np.sqrt(_dot(spokes, spokes).max()))
        # points within delta of S have coordinates up to this size, and
        # distances rounded to a few ulps of them
        self.tie = self.TIE * (float(np.abs(S.vertices).max()) + self.delta)
        self.neighbors = _edge_neighbors(S.triangles)
        self._check_reach()
        self.m = S.m
        self.comass_bound = 1.0
        self.closed = bool(np.ptp(S.tangents, axis=0).max() < 1e-12)

    def _check_reach(self):
        """Sampled nearest-point uniqueness: no second sheet inside 2*delta.

        A nearby triangle counts as a second sheet when the offset to it
        leaves the local tangent plane; in-plane proximity is just the mesh
        being fine. Triangles sharing a vertex with the sample are skipped.
        """
        S = self.S
        n = min(len(S), 200)
        step = max(1, len(S) // n)
        sample = np.arange(0, len(S), step)
        near = self.tree.query_ball_point(S.centroids[sample], 2 * self.delta,
                                         return_sorted=False)
        t = np.repeat(sample, np.fromiter(map(len, near), int, len(near)))
        u = np.concatenate(near).astype(int)
        T = S.triangles
        apart = ~(T[t][:, :, None] == T[u][:, None, :]).any(axis=(1, 2))
        t, u = t[apart], u[apart]
        p = S.centroids[t]
        q, _ = _closest_points_on_triangles(p, *self._abc[:, u])
        off = q - p
        d = np.sqrt(_dot(off, off))
        e, f = plane_frames(S.tangents[t], S.m)
        perp = off - _dot(off, e)[:, None] * e - _dot(off, f)[:, None] * f
        flagged = (d < 2 * self.delta) & (
            np.sqrt(_dot(perp, perp)) > 0.5 * np.maximum(d, 1e-300))
        if flagged.any():
            h = int(np.argmax(flagged))
            raise ValueError(
                "tube radius exceeds the surface reach "
                f"(sheets {t[h]} and {u[h]} closer than 2*delta)"
            )

    def _locate(self, points):
        """Distance, nearest triangle and its barycentrics, per point.

        The nearest triangle is the lowest-index one within `tie` of the
        least distance. A point is certified when
        min(least distance, delta) + tie <= d_k - rho_max, with d_k its
        k-th centroid distance: every triangle outside the k candidates is
        then farther than a tie. Uncertified points are searched again with
        k doubled, up to every triangle; each round tests only the
        candidates the last one did not, and keeps its earlier choice when
        that is still a tie and has the lower index.
        """
        n = len(points)
        least = np.full(n, np.inf)
        dist = np.full(n, np.inf)
        tri = np.zeros(n, dtype=int)
        bary = np.zeros((n, 3))
        todo = np.arange(n)
        lo, k = 0, self.k
        while len(todo):
            block = max(1, self.PAIR_BLOCK // (k - lo))
            left = []
            for s in range(0, len(todo), block):
                rows = todo[s:s + block]
                x = points[rows]
                dc, cand = self.tree.query(x, k=k)
                dc = dc.reshape(len(rows), k)
                cand = cand.reshape(len(rows), k)[:, lo:]
                x = x[:, None, :]
                q, b = _closest_points_on_triangles(x, *self._abc[:, cand])
                off = x - q
                d = np.sqrt(_dot(off, off))
                r = np.arange(len(rows))
                low = np.minimum(least[rows], d.min(axis=1))
                tied = d <= (low + self.tie)[:, None]
                j = np.argmin(np.where(tied, cand, len(self.S)), axis=1)
                d, cand, b = d[r, j], cand[r, j], b[r, j]
                kept = dist[rows] <= low + self.tie
                new = tied[r, j] & (~kept | (cand < tri[rows]))
                least[rows] = low
                hit = rows[new]
                dist[hit], tri[hit], bary[hit] = d[new], cand[new], b[new]
                sure = np.minimum(low, self.delta) + self.tie <= dc[:, -1] - self.rho_max
                left.append(rows[~sure])
            todo = np.concatenate(left) if k < len(self.S) else todo[:0]
            lo, k = k, min(2 * k, len(self.S))
        return dist, tri, bary

    # the base class's methods, entered in this class's own namespace,
    # where perfbench/tracing.py wraps them
    evaluate = CalibrationField.evaluate
    evaluate_many = CalibrationField.evaluate_many

    def rows_many(self, points) -> np.ndarray:
        tangents = self.S.tangents
        out = np.zeros((len(points), tangents.shape[1]))
        d, t, bary = self._locate(points)
        inside = d < self.delta
        d, t, bary = d[inside], t[inside], bary[inside]
        coeffs = tangents[t]
        s = _smoothstep_down(bary / self.BAND)
        nb = self.neighbors[t]
        for slot in range(3):
            w = np.where(nb[:, slot] >= 0, 0.5 * s[:, slot], 0.0)
            coeffs = coeffs + w[:, None] * (tangents[nb[:, slot]] - tangents[t])
        # comass: the largest singular value of each skew coefficient matrix
        cm = np.linalg.svd(_skew_from_rows(coeffs, self.m),
                           compute_uv=False)[:, 0]
        eta = _smoothstep_down((d - 0.5 * self.delta) / (0.5 * self.delta))
        with np.errstate(divide="ignore", invalid="ignore"):
            out[inside] = np.where(cm > 0, eta / cm, 0.0)[:, None] * coeffs
        return out


def tubular_calibration(S: cur.TriCurrent, delta: float) -> CalibrationField:
    """Field calibrating S inside a tube of radius delta; see TubularField."""
    if delta <= 0:
        raise ValueError("tube radius must be positive")
    return TubularField(S, delta)


def calibration_defect(C: cur.TriCurrent, field, R=None) -> float:
    """M(C |_ R) - <C |_ R, omega>, evaluated with one shared quadrature.

    Nonnegative up to roundoff whenever the field's comass bound is 1, since
    the pointwise integrand 1 - <tau, omega(x)> is then nonnegative.
    """
    bound = getattr(field, "comass_bound", None)
    if bound is None or abs(bound - 1.0) > 1e-12:
        raise ValueError("defect requires a field with comass bound 1")

    def fn(points, tangents):
        vals = cur._eval_form_grouped(field, points)
        return 1.0 - np.einsum("lqc,lc->lq", vals, tangents)

    return cur.integrate(C, fn, R)


class FubiniStudy:
    """Fubini-Study structure on an affine chart of CP^{n-1}.

    Chart coordinates are w in C^{n-1} read as R^{2(n-1)} with the usual
    pairing; the form is normalized so a projective line has area pi. The
    primitive alpha satisfies d(alpha) = omega on the whole chart; the
    excluded set for alpha is a ball around the chart's pole at infinity
    (for n = 2 the complement of the chart is exactly that point).
    """

    def __init__(self, n: int, excluded_radius: float = 0.2):
        if n < 2:
            raise ValueError("n >= 2 required")
        self.n = n
        self.mreal = 2 * (n - 1)
        self.excluded_radius = excluded_radius
        self.field = CalibrationField(self.mreal, self._form_coeffs, 1.0,
                                      closed=True)

    def _form_coeffs(self, points):
        """Rows of -Im(C^T H conj(C)) with H = I/K - conj(w) w^T/K^2 and
        K = 1 + |w|^2: in real coordinates x_{2a}, x_{2a+1} of w_a the
        blocks (2a + s, 2b + t) of that matrix are -Im H, Re H, -Re H and
        -Im H for (s, t) = (0, 0), (0, 1), (1, 0) and (1, 1)."""
        w = _complex_rows(points)
        K = (1.0 + (np.conj(w) * w).real.sum(axis=-1))[:, None, None]
        H = np.eye(self.n - 1) / K - np.conj(w)[:, :, None] * w[:, None, :] / K**2
        F = np.empty((len(w), self.mreal, self.mreal))
        F[:, 0::2, 0::2] = F[:, 1::2, 1::2] = -H.imag
        F[:, 0::2, 1::2] = H.real
        F[:, 1::2, 0::2] = -H.real
        return _rows_from_skew(F)

    def alpha(self, x) -> MultiForm:
        """Local primitive of the form; d(alpha) = omega on the chart."""
        w = _complex_rows(x)
        K = 1.0 + float(np.vdot(w, w).real)
        a = np.imag(_complex_matrix(self.mreal).T @ np.conj(w)) / (2.0 * K)
        return MultiForm(self.mreal, 1, a)

    def fs_distance(self, a, b) -> float:
        """Distance between projective classes of homogeneous vectors."""
        a = np.asarray(a, dtype=complex)[None]
        b = np.asarray(b, dtype=complex)[None]
        return float(_fs_dist_matrix(a, b)[0, 0])


def fubini_study(n: int) -> FubiniStudy:
    return FubiniStudy(n)


def special_legendrian(p: int = 3) -> CalibrationField:
    """The Special Legendrian 2-form on R^6 = C^3; not closed.

    Re(sum_i z_i dz_{i+1} ^ dz_{i-1}) with cyclic indices. The comass over
    R^6 is reported by sampling, not asserted.
    """
    if p != 3:
        raise ValueError("only the three-complex-dimensional case is shipped")

    def rows_many(points):
        z = _complex_rows(points)
        F = np.zeros((len(points), 6, 6))
        for i in range(3):
            re, im = z[:, i].real, z[:, i].imag
            xa, xb = 2 * ((i + 1) % 3), 2 * ((i + 2) % 3)
            ya, yb = xa + 1, xb + 1
            # Re[z_i (dx_a + i dy_a) ^ (dx_b + i dy_b)]
            for (r, s, c) in ((xa, xb, re), (ya, yb, -re),
                              (xa, yb, -im), (ya, xb, -im)):
                F[:, r, s] += c
                F[:, s, r] -= c
        return _rows_from_skew(F)

    return CalibrationField(6, rows_many, comass_bound=None, closed=False)


def exterior_derivative_fd(field, x, h: float = 1e-5) -> MultiForm:
    """Finite-difference exterior derivative of a 2-form field at a point."""
    x = np.asarray(x, dtype=float)
    m = field.m
    # partials of every 2-form coefficient, from one call on the 2m stencil
    step = h * np.eye(m)
    vals = field.evaluate_many(np.concatenate([x + step, x - step]))
    grad = (vals[:m] - vals[m:]) / (2 * h)
    kab, c, kac, b, kbc, a = _wedge3_index(m)
    return MultiForm(m, 3, grad[a, kbc] - grad[b, kac] + grad[c, kab])
