"""Built-in example surfaces and maps.

All 2-current examples are parameter-space triangulations of a disk pushed
through an embedding into R^4 (viewed as C^2). Singular examples are graded
geometrically toward the origin so small-radius masses stay accurate.
"""

from __future__ import annotations

import numpy as np

from .currents import TriCurrent

__all__ = [
    "param_disk",
    "flat_disk",
    "holomorphic_graph",
    "cusp",
    "two_lines",
    "nonholo_graph",
    "generate_example",
    "EXAMPLE_NAMES",
]


def param_disk(radii, n_theta: int):
    """Triangulated planar disk: center vertex, concentric rings.

    radii must be strictly increasing and positive. Returns (points, tris)
    with CCW orientation; points is (N, 2).
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) <= 0) or radii[0] <= 0:
        raise ValueError("radii must be positive and increasing")
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    points = np.vstack([
        np.zeros((1, 2)),
        np.stack([radii[:, None] * np.cos(theta), radii[:, None] * np.sin(theta)],
                 axis=-1).reshape(-1, 2),
    ])
    # vertex 1 + k * n_theta + j is slot j of ring k (0-based); next is slot j + 1
    j = np.arange(n_theta)
    nxt = (j + 1) % n_theta
    fan = np.stack([np.zeros_like(j), 1 + j, 1 + nxt], axis=1)
    inner = 1 + n_theta * np.arange(len(radii) - 1)[:, None]  # (rings - 1, 1)
    a, b = inner + j, inner + nxt
    c, d = a + n_theta, b + n_theta
    # per ring and slot, the quad's two triangles (a, c, d) and (a, d, b)
    quads = np.stack([np.stack([a, c, d], axis=-1), np.stack([a, d, b], axis=-1)],
                     axis=2).reshape(-1, 3)
    return points, np.concatenate([fan, quads]).astype(int)


def _uniform_radii(rmax: float, h: float) -> np.ndarray:
    n = max(3, round(rmax / h))
    return rmax * (np.arange(1, n + 1) / n)


def _graded_radii(rmax: float, factor: float, rmin: float) -> np.ndarray:
    out = [rmax]
    while out[-1] * factor > rmin:
        out.append(out[-1] * factor)
    return np.array(out[::-1])


def _push(points2d, tris, f, mult: int = 1) -> TriCurrent:
    z = points2d[:, 0] + 1j * points2d[:, 1]
    w1, w2 = f(z)
    verts = np.column_stack([w1.real, w1.imag, w2.real, w2.imag])
    return TriCurrent(verts, tris, np.full(len(tris), mult, dtype=int))


def flat_disk(h: float = 0.05, multiplicity: int = 1, rmax: float = 1.0) -> TriCurrent:
    """Flat unit disk in the first complex coordinate plane of R^4."""
    n_theta = max(16, round(2 * np.pi * rmax / h))
    pts, tris = param_disk(_uniform_radii(rmax, h), n_theta)
    return _push(pts, tris, lambda z: (z, np.zeros_like(z)), multiplicity)


def holomorphic_graph(
    k: int = 2,
    h: float = 0.01,
    rmax: float = 1.0,
    graded: bool = False,
    factor: float = 0.85,
    rho_min: float = 1e-3,
) -> TriCurrent:
    """Graph of z -> z^k over the disk |z| <= rmax, inside C^2.

    graded=True switches to geometric grading toward the origin, which keeps
    small-radius quantities accurate near the center.
    """
    if graded:
        pts, tris = param_disk(_graded_radii(rmax, factor, rho_min), 64)
    else:
        n_theta = max(16, round(2 * np.pi * rmax / h))
        pts, tris = param_disk(_uniform_radii(rmax, h), n_theta)
    return _push(pts, tris, lambda z: (z, z**k))


def cusp(
    n_theta: int = 64,
    factor: float = 0.8,
    rho_min: float = 1e-3,
    rmax: float = 1.0,
) -> TriCurrent:
    """The cusp surface z -> (z^2, z^3), graded geometrically toward 0."""
    pts, tris = param_disk(_graded_radii(rmax, factor, rho_min), n_theta)
    return _push(pts, tris, lambda z: (z**2, z**3))


def nonholo_graph(h: float = 0.02, rmax: float = 1.0) -> TriCurrent:
    """Graph of the non-holomorphic map z -> (z, conj(z)^2 / 4)."""
    n_theta = max(16, round(2 * np.pi * rmax / h))
    pts, tris = param_disk(_uniform_radii(rmax, h), n_theta)
    return _push(pts, tris, lambda z: (z, np.conj(z) ** 2 / 4.0))


def two_lines(h: float = 0.02, rmax: float = 1.0) -> TriCurrent:
    """Union of the two orthogonal complex lines {z2 = 0} and {z1 = 0}."""
    n_theta = max(16, round(2 * np.pi * rmax / h))
    pts, tris = param_disk(_uniform_radii(rmax, h), n_theta)
    z = pts[:, 0] + 1j * pts[:, 1]
    zero = np.zeros_like(z)
    v1 = np.column_stack([z.real, z.imag, zero.real, zero.real])
    v2 = np.column_stack([zero.real, zero.real, z.real, z.imag])
    verts = np.vstack([v1, v2])
    tris2 = np.vstack([tris, tris + len(v1)])
    return TriCurrent(verts, tris2, np.ones(len(tris2), dtype=int))


EXAMPLE_NAMES = (
    "flat-disk",
    "graph-z2",
    "graph-z3",
    "cusp",
    "two-lines",
    "nonholo-graph",
)


def generate_example(name: str, **params) -> TriCurrent:
    """Build a named example surface; see EXAMPLE_NAMES."""
    if name == "flat-disk":
        return flat_disk(**params)
    if name == "graph-z2":
        return holomorphic_graph(k=2, **params)
    if name == "graph-z3":
        return holomorphic_graph(k=3, **params)
    if name == "cusp":
        return cusp(**params)
    if name == "two-lines":
        return two_lines(**params)
    if name == "nonholo-graph":
        return nonholo_graph(**params)
    raise ValueError(f"unknown example {name!r}")
