"""Triangle/disk clipping kernel, vectorized over triangles.

The exact area of a planar triangle intersected with a disk centered at the
origin is a sum of per-edge contributions. Each edge A -> B is split where
|A + t(B - A)| = r; an inside sub-segment P -> Q adds the signed area of the
triangle (0, P, Q), an outside one the signed circular sector between the
rays through P and Q. Exact up to roundoff; no subdivision.
"""

import numpy as np

__all__ = ["tri_disk_areas", "tri_disk_area"]


def _edge_contribs(a, b, r2):
    """Per-edge sums for edges a -> b, each (n, 2); r2 scalar or (n,)."""
    ax, ay = a[:, 0], a[:, 1]
    dx, dy = b[:, 0] - ax, b[:, 1] - ay
    qa = dx * dx + dy * dy
    qb = ax * dx + ay * dy
    qc = ax * ax + ay * ay - r2
    disc = qb * qb - qa * qc
    crosses = (qa > 0.0) & (disc > 0.0)
    sq = np.sqrt(disc)
    t0 = (-qb - sq) / qa
    t1 = (-qb + sq) / qa
    # the split points t0 <= t1 inside (0, 1); a missing one becomes the
    # zero-length sub-segment [0, 0] or [1, 1], which contributes exactly 0
    ts = (
        0.0,
        np.where(crosses & (0.0 < t0) & (t0 < 1.0), t0, 0.0),
        np.where(crosses & (0.0 < t1) & (t1 < 1.0), t1, 1.0),
        1.0,
    )
    total = np.zeros(len(ax))
    px, py = ax, ay
    for t_prev, t in zip(ts[:-1], ts[1:]):
        qx = ax + t * dx
        qy = ay + t * dy
        mx = ax + 0.5 * (t_prev + t) * dx
        my = ay + 0.5 * (t_prev + t) * dy
        cross = px * qy - py * qx
        sector = 0.5 * r2 * np.arctan2(cross, px * qx + py * qy)
        total += np.where(mx * mx + my * my <= r2, 0.5 * cross, sector)
        px, py = qx, qy
    return total


def tri_disk_areas(tris, r):
    """Signed areas of triangles (n, 3, 2) intersected with the disks |P| <= r.

    r is one radius for all triangles or one per triangle, shape (n,).
    Returns shape (n,).
    """
    tris = np.asarray(tris, dtype=float)
    r = np.asarray(r, dtype=float)
    r2 = r * r
    with np.errstate(divide="ignore", invalid="ignore"):
        return (
            _edge_contribs(tris[:, 0], tris[:, 1], r2)
            + _edge_contribs(tris[:, 1], tris[:, 2], r2)
            + _edge_contribs(tris[:, 2], tris[:, 0], r2)
        )


def tri_disk_area(ax, ay, bx, by, cx, cy, r):
    """Signed area of one triangle (A, B, C) intersected with the disk |P| <= r."""
    return float(tri_disk_areas([[[ax, ay], [bx, by], [cx, cy]]], r)[0])
