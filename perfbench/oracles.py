"""Closed forms that the benchmark checks curlab's outputs against.

Nothing here imports curlab. Each value comes from the geometry of a shipped
example, derived by hand; `test_oracles.py` checks every one of them against
an independent numerical computation (quadrature, finite differences or a
brute-force maximum), so a wrong closed form cannot pass a wrong program.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq


def graph_theta_cylinder(r: float) -> float:
    """theta(r) of the graph z -> (z, z^2) in the parameter cylinder |z| <= r.

    The area element is 1 + 4|z|^2, so M = pi r^2 (1 + 2 r^2).
    """
    return math.pi * (1.0 + 2.0 * r * r)


def graph_ball_s2(r: float) -> float:
    """s^2 where the graph's parameter disk |z| <= s fills the ball B_r.

    |z|^2 + |z|^4 <= r^2 is a quadratic in s^2.
    """
    return 0.5 * (math.sqrt(1.0 + 4.0 * r * r) - 1.0)


def graph_theta_ball(r: float) -> float:
    """theta(r) = pi s^2 (1 + 2 s^2) / r^2 of the z^2 graph in the ball B_r."""
    s2 = graph_ball_s2(r)
    return math.pi * s2 * (1.0 + 2.0 * s2) / (r * r)


def cusp_t(r: float) -> float:
    """t = |z|^2 where the cusp z -> (z^2, z^3) leaves B_r: t^2 + t^3 = r^2."""
    return brentq(lambda t: t * t + t**3 - r * r, 0.0, max(1.0, r))


def cusp_theta(r: float) -> float:
    """theta(r) of the cusp: area 2 pi t^2 (1 + 1.5 t) over r^2 = t^2 (1 + t)."""
    t = cusp_t(r)
    return 2.0 * math.pi * (1.0 + 1.5 * t) / (1.0 + t)


def cusp_slice_length(r: float) -> float:
    """Length of the cusp's slice by the sphere |x| = r.

    At |z| = sigma the curve phi -> (sigma^2 e^{2i phi}, sigma^3 e^{3i phi})
    has speed sigma^2 sqrt(4 + 9 sigma^2), and sigma^2 = t.
    """
    t = cusp_t(r)
    return 2.0 * math.pi * t * math.sqrt(4.0 + 9.0 * t)


def projection_energy_line(s2: float) -> float:
    """Dirichlet energy of z -> [1 : z] in CP^1 over the disk |z|^2 <= s2.

    The map is conformal onto a Fubini-Study disk of area pi s2 / (1 + s2)
    (CP^1 has area pi), and a conformal map's energy is twice its area.
    Both the z^2 graph, [z : z^2], and the cusp, [z^2 : z^3], project to
    this map.
    """
    return 2.0 * math.pi * s2 / (1.0 + s2)


def graph_projection_energy(r: float) -> float:
    """Projection energy of the z^2 graph in B_r: 2 pi s^2 / (1 + s^2)."""
    return projection_energy_line(graph_ball_s2(r))


def polygon_area(n: int, rmax: float = 1.0) -> float:
    """Area of the regular n-gon inscribed in the circle of radius rmax."""
    return 0.5 * n * math.sin(2.0 * math.pi / n) * rmax * rmax


def z1_scaled_energy(r: float) -> float:
    """r^{-2} E(B_r) for u = z1 on B^4: |grad u|^2 = 2 and |B^4_r| = pi^2 r^4 / 2."""
    return math.pi**2 * r * r


Z1_RATE = (2.0, math.pi**2)
"""(exponent, amplitude) of the z1 scaled energy pi^2 r^2."""

Z1Z2_RATE = (4.0, 2.0 * math.pi**2 / 3.0)
"""(exponent, amplitude) for u = z1 z2: |grad u|^2 = 2|x|^2, E = (2 pi^2/3) r^6."""


def comass_r4(coeffs) -> np.ndarray:
    """Comass of 2-forms on R^4 given by blade coefficients, one row each.

    Blades are ordered (01, 02, 03, 12, 13, 23). A 2-form on R^4 has the
    canonical form l1 e^01 + l2 e^23 with l1 >= |l2|; l1^2 + l2^2 is the
    squared coefficient norm and l1 l2 the Pfaffian, so the largest
    singular value of the skew matrix is
    (sqrt(|w|^2 + 2|Pf|) + sqrt(|w|^2 - 2|Pf|)) / 2.
    """
    c = np.atleast_2d(np.asarray(coeffs, dtype=float))
    n2 = np.einsum("pc,pc->p", c, c)
    pf = np.abs(c[:, 0] * c[:, 5] - c[:, 1] * c[:, 4] + c[:, 2] * c[:, 3])
    return 0.5 * (np.sqrt(n2 + 2.0 * pf) + np.sqrt(np.maximum(n2 - 2.0 * pf, 0.0)))


def fs_distance(a, b) -> float:
    """Fubini-Study distance between the complex lines through a and b."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(np.arccos(min(c, 1.0)))


def loglog_fit(r, g):
    """(exponent, amplitude) of the least-squares line log g = p log r + log c."""
    p, logc = np.polyfit(np.log(np.asarray(r, float)), np.log(np.asarray(g, float)), 1)
    return float(p), float(np.exp(logc))
