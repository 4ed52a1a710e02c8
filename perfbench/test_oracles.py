"""Each closed form in oracles.py against a computation made apart from it.

Run with: python3 -m pytest -q perfbench/test_oracles.py
"""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.optimize import brentq, minimize

import oracles

RADII = (0.03, 0.1, 0.25, 0.5, 0.8)


def _ring_integral(density, rho_max):
    """Integral of a radial density over the disk |z| <= rho_max."""
    return quad(lambda p: 2.0 * math.pi * p * density(p), 0.0, rho_max,
                epsabs=0, epsrel=1e-12)[0]


@pytest.mark.parametrize("r", RADII)
def test_graph_densities_by_quadrature(r):
    # area element of z -> (z, z^2): |(1, 2z)|^2 = 1 + 4|z|^2
    area = lambda rho: _ring_integral(lambda p: 1.0 + 4.0 * p * p, rho)
    assert oracles.graph_theta_cylinder(r) == pytest.approx(area(r) / r**2, rel=1e-10)
    s = brentq(lambda s: s * s + s**4 - r * r, 0.0, 1.0, xtol=1e-15)
    assert oracles.graph_theta_ball(r) == pytest.approx(area(s) / r**2, rel=1e-10)


@pytest.mark.parametrize("r", RADII)
def test_cusp_density_and_slice_by_quadrature(r):
    # z -> (z^2, z^3): |(2z, 3z^2)|^2 = 4|z|^2 + 9|z|^4, the ball edge at
    # |z|^4 + |z|^6 = r^2 solved for |z| itself
    sigma = brentq(lambda s: s**4 + s**6 - r * r, 0.0, 2.0, xtol=1e-15)
    area = _ring_integral(lambda p: 4.0 * p * p + 9.0 * p**4, sigma)
    assert oracles.cusp_theta(r) == pytest.approx(area / r**2, rel=1e-10)

    def speed(phi):
        d = np.array([2j * sigma**2 * np.exp(2j * phi), 3j * sigma**3 * np.exp(3j * phi)])
        return float(np.linalg.norm(d))

    length = quad(speed, 0.0, 2.0 * math.pi, epsrel=1e-12)[0]
    assert oracles.cusp_slice_length(r) == pytest.approx(length, rel=1e-10)


def _fs_energy_density(z, h=1e-6):
    """|d[1 : z]|^2 in the Fubini-Study metric, by central differences of
    the unit lift v = (1, z)/|(1, z)|: |dv|^2 - |<v, dv>|^2 per direction."""

    def lift(w):
        v = np.array([1.0, w], dtype=complex)
        return v / np.linalg.norm(v)

    v = lift(z)
    total = 0.0
    for step in (h, 1j * h):
        dv = (lift(z + step) - lift(z - step)) / (2.0 * h)
        total += np.vdot(dv, dv).real - abs(np.vdot(v, dv)) ** 2
    return total


@pytest.mark.parametrize("r", (0.1, 0.4, 0.8))
def test_projection_energies_by_finite_differences(r):
    def energy(s):
        return dblquad(
            lambda p, a: p * _fs_energy_density(p * np.exp(1j * a)),
            0.0, 2.0 * math.pi, 0.0, s, epsrel=1e-9,
        )[0]

    s = math.sqrt(oracles.graph_ball_s2(r))
    assert oracles.graph_projection_energy(r) == pytest.approx(energy(s), rel=1e-6)


def _ball4_integral(f, r):
    """Integral over B^4_r of f(|z1|, |z2|), polar in each complex plane."""
    return dblquad(
        lambda b, a: f(a, b) * (2.0 * math.pi * a) * (2.0 * math.pi * b),
        0.0, r, 0.0, lambda a: math.sqrt(max(r * r - a * a, 0.0)), epsrel=1e-11,
    )[0]


@pytest.mark.parametrize("r", (0.2, 0.7, 1.0))
def test_map_energies_by_quadrature(r):
    # u = z1: |grad u|^2 = 2; u = z1 z2: |grad u|^2 = 2 (|z1|^2 + |z2|^2)
    e1 = _ball4_integral(lambda a, b: 2.0, r)
    assert oracles.z1_scaled_energy(r) == pytest.approx(e1 / r**2, rel=1e-9)
    p, c = oracles.Z1_RATE
    assert c * r**p == pytest.approx(e1 / r**2, rel=1e-9)
    e2 = _ball4_integral(lambda a, b: 2.0 * (a * a + b * b), r)
    p, c = oracles.Z1Z2_RATE
    assert c * r**p == pytest.approx(e2 / r**2, rel=1e-9)


def _skew(c):
    A = np.zeros((4, 4))
    for k, (i, j) in enumerate(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))):
        A[i, j], A[j, i] = c[k], -c[k]
    return A


def test_comass_against_brute_force_maximum():
    # the comass is the max of <A e, f> over orthonormal e, f; since
    # <A e, e> = 0 for skew A that is the max of |A e| over unit e, found
    # here by sampling the 3-sphere and polishing the best sample
    rng = np.random.default_rng(20)
    forms = rng.standard_normal((6, 6))
    forms[0] = [1, 0, 0, 0, 0, 1]  # omega0: comass 1
    forms[1] = [2, 0, 0, 0, 0, -0.5]
    got = oracles.comass_r4(forms)
    E = rng.standard_normal((50000, 4))
    E /= np.linalg.norm(E, axis=1)[:, None]
    for c, g in zip(forms, got):
        A = _skew(c)
        assert g == pytest.approx(np.linalg.svd(A, compute_uv=False)[0], rel=1e-12)
        value = lambda e: np.linalg.norm(A @ e) / np.linalg.norm(e)
        sampled = np.linalg.norm(E @ A.T, axis=1)
        res = minimize(lambda e: -value(e), E[int(np.argmax(sampled))],
                       method="Nelder-Mead",
                       options={"maxiter": 4000, "xatol": 1e-12, "fatol": 1e-15})
        brute = max(sampled.max(), -res.fun)
        assert brute <= g * (1 + 1e-12)
        assert g - brute <= 1e-9 * max(g, 1.0)


def test_polygon_area_by_shoelace():
    for n in (16, 63, 126):
        a = 2 * math.pi * np.arange(n) / n
        x, y = 0.7 * np.cos(a), 0.7 * np.sin(a)
        shoelace = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        assert oracles.polygon_area(n, 0.7) == pytest.approx(shoelace, rel=1e-12)


def test_fs_distance_and_loglog_fit():
    assert oracles.fs_distance([1, 0], [0, 1j]) == pytest.approx(math.pi / 2)
    assert oracles.fs_distance([1, 1j], [2j, -2]) == pytest.approx(0.0, abs=1e-7)
    r = 0.5 * 0.7 ** np.arange(6)
    p, c = oracles.loglog_fit(r, 3.0 * r**1.5)
    assert (p, c) == (pytest.approx(1.5), pytest.approx(3.0))
