"""Sampled maps on the 4-ball: energy monotonicity, stationarity, coarea."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.interpolate import RegularGridInterpolator

from curlab import exterior as xt
from curlab import jholo as jh

PI2 = math.pi**2


@pytest.fixture(scope="module")
def u_z1():
    return jh.map_example("z1")


@pytest.fixture(scope="module")
def u_z1z2():
    return jh.map_example("z1z2")


@pytest.fixture(scope="module")
def u_hopf():
    return jh.map_example("hopf")


def _ladder(u, stride=4, count=8):
    return u.radii[::-stride][:count][::-1]


def test_scaled_energy_constant():
    u = jh.map_example("constant")
    assert jh.scaled_energy(u, 1.0) <= 1e-14


def test_scaled_energy_z1(u_z1):
    # |grad z1|^2 = 2 and vol(B^4_r) = pi^2 r^4 / 2
    for k in (40, 34, 20):
        r = u_z1.radii[k]
        assert jh.scaled_energy(u_z1, r) == pytest.approx(PI2 * r**2, rel=0.01)


def test_scaled_energy_z1z2(u_z1z2):
    for k in (40, 35):
        r = u_z1z2.radii[k]
        want = (2 * PI2 / 3) * r**4
        assert jh.scaled_energy(u_z1z2, r) == pytest.approx(want, rel=0.01)


def test_scaled_energy_hopf_constant(u_hopf):
    vals = [jh.scaled_energy(u_hopf, r) for r in _ladder(u_hopf)]
    vals = np.array(vals)
    assert np.ptp(vals) / vals.mean() <= 0.02


def test_scaled_energy_hopf_has_no_parity(u_hopf):
    """Hopf is an exact cone, with scaled energy 8 pi^2 at every radius;
    one radial rule at every index keeps neighbouring radii together."""
    vals = np.array([jh.scaled_energy(u_hopf, u_hopf.radii[k]) for k in range(29, 41)])
    assert np.abs(np.diff(vals)).max() <= 1e-8 * vals.mean()
    assert np.abs(vals / (8 * PI2) - 1).max() <= 2e-6


def test_map_rate_fit_hopf_mixed_parity_ladder(u_hopf):
    """The stride-5 ladder mixes odd and even radius indices; Hopf's trace
    on it is flat, so mode B returns the exact-cone sentinel."""
    fit = jh.map_rate_fit(u_hopf, u_hopf.radii[::-5][:7][::-1], mode="B")
    assert fit.exact_cone


@pytest.mark.parametrize("name, tol", [("z1", 1e-4), ("z1z2", 5e-4)])
def test_scaled_energy_closed_forms_on_every_parity(name, tol, u_z1, u_z1z2):
    """pi^2 r^2 for z1 and (2 pi^2 / 3) r^4 for z1z2, on odd and even
    radius indices alike."""
    u, power, c = {"z1": (u_z1, 2, PI2), "z1z2": (u_z1z2, 4, 2 * PI2 / 3)}[name]
    for k in (40, 39, 35, 34, 20, 19):
        r = u.radii[k]
        assert jh.scaled_energy(u, r) == pytest.approx(c * r**power, rel=tol)


def test_radial_energy_homogeneous(u_hopf):
    E = jh.scaled_energy(u_hopf, 1.0)
    assert jh.radial_energy(u_hopf, 0.0, 1.0) <= 1e-6 * E


def test_radial_energy_z1(u_z1):
    # radially, z1 has |du/dR|^2 = cos^2(eta); the weighted annulus
    # integral equals the scaled energy gap of the exact monotonicity
    s = u_z1.radii[34]
    got = jh.radial_energy(u_z1, s, 1.0)
    want = 0.5 * (jh.scaled_energy(u_z1, 1.0) - jh.scaled_energy(u_z1, s))
    assert got > 0
    assert got == pytest.approx(want, rel=0.01)


def test_radial_energy_dilation_identity(u_z1z2):
    """Change of variables: the unit-ball radial energy of the dilated map
    equals the small-ball radial energy of the original."""
    for k in (12, 25):
        rho = u_z1z2.radii[k]

        def f(x, rho=rho):
            z = ((x[:, 0] + 1j * x[:, 1]) * (x[:, 2] + 1j * x[:, 3]))
            return np.column_stack([z.real, z.imag]) * 1.0

        ud = jh.SampledMap(lambda x: f(x * rho))
        lhs = jh.radial_energy(ud, 0.0, 1.0)
        rhs = jh.radial_energy(u_z1z2, 0.0, rho)
        assert lhs == pytest.approx(rhs, rel=0.01)


def test_monotonicity_holomorphic(u_z1, u_z1z2, u_hopf):
    for u in (u_z1, u_z1z2, u_hopf):
        lad = _ladder(u, stride=6, count=6)
        c, ok = jh.map_monotonicity_check(u, lad)
        assert ok
        assert c == 0.0


def test_monotonicity_zero_energy_map():
    """A constant map's scaled energies are rounding noise (about 1e-29);
    against the map's own rounding floor they pass at C = 0."""
    u = jh.map_example("constant")
    assert jh.map_monotonicity_check(u, u.radii[::-4][:6]) == (0.0, True)


def test_map_monotonicity_large_drift_does_not_overflow():
    """A map whose energy concentrates near the origin is not monotone at
    C = 0, so the bisection evaluates C = 1e3 on a ladder reaching r = 1,
    where e^{C r} overflows unless scaled; no warning is raised."""
    def f(x):
        return x[:, :2] * np.exp(-np.sum(x**2, axis=1) / 0.04)[:, None]

    u = jh.SampledMap(f, n_eta=4, n_phi=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c, ok = jh.map_monotonicity_check(u, u.radii[::-4][:6])
    assert ok
    assert 0.0 < c < 1e3


def test_monotonicity_perturbed_structure():
    u, J = jh.map_example("z1-warped", slope=0.05)
    lad = _ladder(u, stride=6, count=6)
    c, ok = jh.map_monotonicity_check(u, lad)
    assert ok
    assert c <= 50.0


def test_almost_complex_structure_checks():
    Js = jh.AlmostComplexField.standard()
    sq, lin = Js.verify()
    assert sq <= 1e-12
    assert lin <= 1e-12
    Jp = jh.AlmostComplexField.perturbed(0.1)
    sq, lin = Jp.verify()
    assert sq <= 1e-10
    assert 0 < lin <= 0.5  # deviation grows linearly with bounded slope
    u, Jw = jh.map_example("z1-warped", slope=0.05)
    sq, lin = Jw.verify()
    assert sq <= 1e-10
    assert lin <= 0.2


def test_structure_batched_matches_per_point():
    """The batched structures equal their per-point formulas bit for bit."""
    rng = np.random.default_rng(17)
    pts = rng.uniform(-1.0, 1.0, size=(300, 4))
    J0 = xt.ComplexStructure(4).matrix
    slope = 0.05
    _, Jw = jh.map_example("z1-warped", slope=slope, n_radial=8, n_eta=4, n_phi=8)
    want = []
    for x in pts:
        D = np.eye(4)
        D[0, 0] += slope * x[2]
        D[0, 2] = slope * x[0]
        D[1, 1] += slope * x[3]
        D[1, 3] = slope * x[1]
        want.append(np.linalg.solve(D, J0 @ D))
    assert Jw.matrix_many(pts).tobytes() == np.array(want).tobytes()

    c = 0.1
    Jp = jh.AlmostComplexField.perturbed(c, seed=11)
    K = np.random.default_rng(11).normal(size=(4, 4))
    K /= np.linalg.norm(K, 2)
    want = []
    for x in pts:
        T = np.eye(4) + c * x[0] * K
        want.append(T @ J0 @ np.linalg.inv(T))
    assert Jp.matrix_many(pts).tobytes() == np.array(want).tobytes()

    Js = jh.AlmostComplexField.standard()
    for J in (Js, Jp, Jw):
        many = J.matrix_many(pts[:20])
        for k, x in enumerate(pts[:20]):
            assert J.matrix(x).tobytes() == many[k].tobytes()
        # verify() against its per-sample loop
        draw = np.random.default_rng(5)
        samples = draw.normal(size=(64, 4))
        samples *= draw.uniform(0.05, 1, 64)[:, None] / np.linalg.norm(
            samples, axis=1
        )[:, None]
        sq = lin = 0.0
        for x in samples:
            Jx = J.matrix(x)
            sq = max(sq, float(np.abs(Jx @ Jx + np.eye(4)).max()))
            lin = max(lin, float(np.linalg.norm(Jx - J0, 2))
                      / float(np.linalg.norm(x)))
        assert J.verify() == (sq, lin)


def test_inner_variation_constant():
    u = jh.map_example("constant")
    xi = jh.radial_bump_field()
    J = jh.AlmostComplexField.standard()
    assert abs(jh.inner_variation_residual(u, xi, J)) <= 1e-14


@pytest.fixture(scope="module")
def fine_maps():
    # the bump cutoffs are only piecewise smooth in radius, so the
    # residual quadrature needs a denser radial ladder than the default
    grid = dict(n_radial=161, ratio=0.9**0.25)
    return (jh.map_example("z1", **grid), jh.map_example("z1z2", **grid))


def test_inner_variation_holomorphic(fine_maps):
    u = fine_maps[0]
    J = jh.AlmostComplexField.standard()
    E = u.ball_integral(u.energy_density(), 1.0)
    res = jh.inner_variation_residual(u, jh.radial_bump_field(), J)
    assert abs(res) <= 1e-3 * E


def test_inner_variation_battery(fine_maps):
    J = jh.AlmostComplexField.standard()
    for u in fine_maps:
        E = u.ball_integral(u.energy_density(), 1.0)
        for seed in range(10):
            xi = jh.random_bump_field(seed)
            res = jh.inner_variation_residual(u, xi, J)
            assert abs(res) <= 1e-3 * E


def test_inner_variation_perturbed_slope():
    """Residual of the warped map scales with the structure slope."""
    xi = jh.radial_bump_field()
    for c in (0.01, 0.1):
        u, J = jh.map_example("z1-warped", slope=c)
        E = u.ball_integral(u.energy_density(), 1.0)
        res = jh.inner_variation_residual(u, xi, J)
        assert abs(res) <= 10.0 * c * E


def test_inner_variation_rejects_boundary_support(u_z1):
    J = jh.AlmostComplexField.standard()
    bad = jh.VectorField(
        value=lambda x: np.ones_like(x),
        jacobian=lambda x: np.zeros((len(x), 4, 4)),
        support_radius=1.5,
    )
    with pytest.raises(ValueError):
        jh.inner_variation_residual(u_z1, bad, J)


def test_coarea_constant_density(u_z1):
    ones = np.ones_like(u_z1.energy_density())
    per, reassembled, ball, ratio = jh.coarea_slice_check(u_z1, density=ones)
    assert ball == pytest.approx(PI2 / 2, rel=0.01)
    assert ratio == pytest.approx(1.0, abs=0.03)


def test_coarea_energy_density(u_z1, u_z1z2):
    for u in (u_z1, u_z1z2):
        per, reassembled, ball, ratio = jh.coarea_slice_check(u)
        assert ratio == pytest.approx(1.0, abs=0.03)
        assert np.all(per >= 0)


def _coarea_per_line_reference(u, density, n_lines=128, seed=7):
    """Per-line values of the coarea check, one interpolator call per line."""
    phi_ext = np.append(u.phi, 2 * math.pi)
    interp = RegularGridInterpolator(
        (u.radii, u.eta, phi_ext, phi_ext),
        np.pad(density, ((0, 0), (0, 0), (0, 1), (0, 1)), mode="wrap"),
        bounds_error=False,
        fill_value=None,
    )

    def sample(rel):
        rho = np.linalg.norm(rel, axis=1)
        z1 = np.abs(rel[:, 0] + 1j * rel[:, 1])
        eta = np.arctan2(np.abs(rel[:, 2] + 1j * rel[:, 3]), z1)
        p1 = np.arctan2(rel[:, 1], rel[:, 0]) % (2 * math.pi)
        p2 = np.arctan2(rel[:, 3], rel[:, 2]) % (2 * math.pi)
        eta = np.clip(eta, u.eta[0], u.eta[-1])
        rho = np.clip(rho, u.radii[0], u.radii[-1])
        return interp(np.column_stack([rho, eta, p1, p2]))

    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_lines, 2)) + 1j * rng.normal(size=(n_lines, 2))
    a /= np.linalg.norm(a, axis=1)[:, None]
    nr, nt = 24, 48
    tr = (np.arange(nr) + 0.5) / nr
    tt = 2 * math.pi * np.arange(nt) / nt
    zeta = (tr[:, None] * np.exp(1j * tt[None, :])).ravel()
    wq = (1.0 / nr) * (2 * math.pi / nt) * np.abs(zeta) * np.abs(zeta) ** 2
    per_line = np.empty(n_lines)
    for k in range(n_lines):
        zpts = zeta[:, None] * a[k][None, :]
        pts = np.column_stack(
            [zpts[:, 0].real, zpts[:, 0].imag, zpts[:, 1].real, zpts[:, 1].imag]
        )
        per_line[k] = float(sample(pts) @ wq)
    return per_line


def test_coarea_batched_matches_per_line(u_z1, u_z1z2, u_hopf):
    """One interpolator call over all lines gives the per-line loop's values."""
    for u in (u_z1, u_z1z2, u_hopf):
        for density, seed in ((u.energy_density(), 7),
                              (u.radial_density(), 3)):
            per, reassembled, _, _ = jh.coarea_slice_check(
                u, seed=seed, density=density
            )
            want = _coarea_per_line_reference(u, density, seed=seed)
            np.testing.assert_allclose(per, want, rtol=1e-12, atol=0.0)
            assert reassembled == pytest.approx(math.pi * want.mean(),
                                                rel=1e-12)
    per, _, _, _ = jh.coarea_slice_check(u_z1, n_lines=64, seed=11)
    want = _coarea_per_line_reference(u_z1, u_z1.energy_density(), 64, 11)
    np.testing.assert_allclose(per, want, rtol=1e-12, atol=0.0)


def test_gregory_weights():
    """The radial weights: exact on s^d, d <= 5, from 5 samples on (3 and
    4 samples: Simpson's rule and the 3/8 rule), the same read backwards,
    and positive."""
    assert jh._gregory_weights(1).tolist() == [0.0]
    for n in range(2, 80):
        w = jh._gregory_weights(n)
        assert w.tolist() == w[::-1].tolist()
        assert np.all(w > 0)
        s = np.arange(n) / (n - 1)
        for d in range(6 if n >= 5 else 4 if n >= 3 else 2):
            assert abs(w @ s**d / (n - 1) - 1 / (d + 1)) <= 1e-15, (n, d)


@pytest.mark.parametrize("n", range(3, 51))
def test_simpson_matches_scipy_bit_for_bit(n):
    """The radial rule against scipy's `simpson` as reference, on uniform
    log-radius nodes as `ball_integral` takes them: on any samples for n = 3,
    where both are Simpson's rule, and for larger n on the polynomials both
    integrate exactly (cubics for odd n; quadratics for even n, where scipy
    takes Cartwright's last interval). The two differ by rounding only:
    16 ulps of h * sum |y|."""
    rng = np.random.default_rng(n)
    for _ in range(20):
        h = -math.log(rng.uniform(0.5, 0.95))
        s = math.log(rng.uniform(0.1, 2.0)) - h * np.arange(n)[::-1]
        if n == 3:
            y = rng.normal(size=n)
        else:
            y = np.polyval(rng.normal(size=4 if n % 2 else 3), s - s.mean())
        y *= rng.uniform(0.1, 10.0)
        got = h * float(jh._gregory_weights(n) @ y)
        want = simpson(y, x=s)
        assert abs(got - want) <= 16 * np.finfo(float).eps * h * np.abs(y).sum(), (got, want)


@pytest.mark.parametrize("name", ["z1", "z1z2", "hopf"])
def test_periodic_multilinear_matches_scipy_bit_for_bit(name, u_z1, u_z1z2, u_hopf):
    """The coarea check's interpolation is `RegularGridInterpolator`'s on
    the grid with both phi axes extended to 2 pi and the density wrapped,
    to the bit: at random points, at nodes, at phi = 0, within an ulp of
    2 pi and at 2 pi, and at the clip limits of rho and eta."""
    u = {"z1": u_z1, "z1z2": u_z1z2, "hopf": u_hopf}[name]
    rng = np.random.default_rng(len(name))
    n = 4000
    pts = np.column_stack([
        rng.uniform(u.radii[0], u.radii[-1], n),
        rng.uniform(u.eta[0], u.eta[-1], n),
        rng.uniform(0.0, 2 * math.pi, n),
        rng.uniform(0.0, 2 * math.pi, n),
    ])
    below_2pi = np.nextafter(2 * math.pi, 0.0)
    edges = {0: (u.radii[0], u.radii[-1]), 1: (u.eta[0], u.eta[-1]),
             2: (0.0, below_2pi, 2 * math.pi), 3: (0.0, below_2pi, 2 * math.pi)}
    block = 0
    for axis, values in edges.items():
        for v in values:
            pts[block:block + 50, axis] = v
            block += 50
    nodes = rng.integers(0, [len(u.radii), len(u.eta), u.n_phi, u.n_phi], (200, 4))
    pts[block:block + 200] = np.column_stack(
        [u.radii[nodes[:, 0]], u.eta[nodes[:, 1]], u.phi[nodes[:, 2]], u.phi[nodes[:, 3]]])
    phi_ext = np.append(u.phi, 2 * math.pi)
    for density in (u.energy_density(), rng.normal(size=u.energy_density().shape)):
        interp = RegularGridInterpolator(
            (u.radii, u.eta, phi_ext, phi_ext),
            np.pad(density, ((0, 0), (0, 0), (0, 1), (0, 1)), mode="wrap"),
            bounds_error=False,
            fill_value=None,
        )
        got = jh._periodic_multilinear(density, u.radii, u.eta, u.phi, pts.T)
        assert got.tobytes() == interp(pts).tobytes()


def test_tangent_map_gap_homogeneous(u_hopf):
    lad = _ladder(u_hopf, stride=8, count=4)
    for s, t in zip(lad, lad[1:]):
        assert jh.tangent_map_gap(u_hopf, s, t) <= 1e-10


def test_tangent_map_gap_slope(u_z1):
    """Gap decay exponent at least a quarter of the energy rate."""
    lad = _ladder(u_z1, stride=4, count=8)
    gaps = np.array(
        [jh.tangent_map_gap(u_z1, s, t) for s, t in zip(lad, lad[1:])]
    )
    fit = jh.map_rate_fit(u_z1, lad, mode="A", theta_hat=0.0)
    slope = np.polyfit(np.log(lad[1:]), np.log(gaps), 1)[0]
    assert slope >= fit.exponent / 4 - 0.1


def test_map_rate_fit_z1(u_z1):
    fit = jh.map_rate_fit(u_z1, _ladder(u_z1), mode="A", theta_hat=0.0)
    assert fit.exponent == pytest.approx(2.0, abs=0.1)
    assert fit.amplitude == pytest.approx(PI2, rel=0.05)


def test_map_rate_fit_z1z2(u_z1z2):
    fit = jh.map_rate_fit(u_z1z2, _ladder(u_z1z2), mode="A", theta_hat=0.0)
    assert fit.exponent == pytest.approx(4.0, abs=0.1)
    assert fit.amplitude == pytest.approx(2 * PI2 / 3, rel=0.05)


def test_map_rate_fit_hopf_sentinel(u_hopf):
    fit = jh.map_rate_fit(u_hopf, _ladder(u_hopf), mode="A",
                          theta_hat=jh.scaled_energy(u_hopf, 1.0))
    assert fit.exact_cone


def test_energy_split_complex_line():
    """On a complex line, energy along X and along J0 X agree."""
    rng = np.random.default_rng(3)
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    J0 = xt.ComplexStructure(4).matrix
    w = J0 @ v

    def f(x):
        z = x[:, 0] + 1j * x[:, 1]
        return np.column_stack([(z**2).real, (z**2).imag])

    # polar quadrature over the unit disk of the line span(v, J0 v)
    nr, nt = 200, 256
    r = (np.arange(nr) + 0.5) / nr
    t = 2 * np.pi * np.arange(nt) / nt
    R, T = np.meshgrid(r, t, indexing="ij")
    pts = (R * np.cos(T))[..., None] * v + (R * np.sin(T))[..., None] * w
    pts = pts.reshape(-1, 4)
    h = 1e-5
    dX = (f(pts + h * v) - f(pts - h * v)) / (2 * h)
    dJX = (f(pts + h * w) - f(pts - h * w)) / (2 * h)
    wgt = (R / (nr * nt) * 2 * np.pi).reshape(-1)
    eX = np.einsum("pd,pd,p->", dX, dX, wgt)
    eJX = np.einsum("pd,pd,p->", dJX, dJX, wgt)
    assert eX == pytest.approx(eJX, rel=0.02)


def _grad_error(n_radial, ratio):
    """Max gradient error against the analytic derivative of z1 cubed."""
    def f(x):
        z = (x[:, 0] + 1j * x[:, 1]) ** 3
        return np.column_stack([z.real, z.imag])

    u = jh.SampledMap(f, n_radial=n_radial, ratio=ratio)
    G = u.gradient()
    pts = u.points.reshape(-1, 4)
    z = pts[:, 0] + 1j * pts[:, 1]
    dz = 3 * z**2
    exact = np.zeros((len(pts), 2, 4))
    exact[:, 0, 0] = dz.real
    exact[:, 0, 1] = -dz.imag
    exact[:, 1, 0] = dz.imag
    exact[:, 1, 1] = dz.real
    err = np.abs(G.reshape(-1, 2, 4) - exact)
    # skip the innermost radii where values are at rounding level
    keep = np.linalg.norm(pts, axis=1) > 0.3
    return err[keep].max()


def test_gradient_refinement_order():
    """Halving the radial step divides the gradient error by about 4."""
    e_coarse = _grad_error(21, 0.9)
    e_fine = _grad_error(41, math.sqrt(0.9))
    assert 3.5 <= e_coarse / e_fine <= 4.5


def _points_reference(u):
    """The node grid as the constructor stacked it when it stored it."""
    n_radial, n_eta, n_phi = len(u.radii), len(u.eta), u.n_phi
    rho = u.radii[:, None, None, None]
    eta = u.eta[None, :, None, None]
    p1 = u.phi[None, None, :, None]
    p2 = u.phi[None, None, None, :]
    full = (n_radial, n_eta, n_phi, n_phi)
    return np.stack(
        [
            np.broadcast_to(rho * np.cos(eta) * np.cos(p1), full),
            np.broadcast_to(rho * np.cos(eta) * np.sin(p1), full),
            np.broadcast_to(rho * np.sin(eta) * np.cos(p2), full),
            np.broadcast_to(rho * np.sin(eta) * np.sin(p2), full),
        ],
        axis=-1,
    )


def test_sampled_map_points_on_demand(u_z1):
    """The node grid is rebuilt on access, not stored, and is the grid the
    map was sampled on."""
    odd = jh.map_example("hopf", n_radial=5, n_eta=3, n_phi=7)
    for u in (u_z1, odd):
        assert "points" not in vars(u)
        want = _points_reference(u)
        got = u.points
        assert got.shape == (len(u.radii), len(u.eta), u.n_phi, u.n_phi, 4)
        assert got.tobytes() == want.tobytes()
        assert u.points is not got
        assert u.values.tobytes() == np.asarray(
            u.f(want.reshape(-1, 4)), dtype=float).tobytes()


def test_sampled_map_memoizes_derived_grids():
    """The densities and the Jacobian are computed once per map, read-only;
    the densities equal the sum of squared frame partials in frame order,
    and the Jacobian the partials times the frame vectors, bit for bit."""
    grid = dict(n_radial=9, n_eta=5, n_phi=12)
    for name in ("z1z2", "hopf"):
        u = jh.map_example(name, **grid)
        energy, radial = u.energy_density(), u.radial_density()
        jac = u.gradient()
        assert u.energy_density() is energy
        assert u.radial_density() is radial
        assert u.gradient() is jac
        for arr in (energy, radial, jac, *u.frame_partials()):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
            with pytest.raises(ValueError):
                arr *= 2.0

        parts = jh.map_example(name, **grid).frame_partials()
        want = sum(np.einsum("...d,...d->...", p, p) for p in parts)
        assert energy.tobytes() == want.tobytes()
        want = np.einsum("...d,...d->...", parts[0], parts[0])
        assert radial.tobytes() == want.tobytes()
        want = np.zeros(jac.shape)
        for p, e in zip(parts, u.frame_vectors()):
            want += p[..., :, None] * e[..., None, :]
        assert jac.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid, name", [
    (dict(n_radial=2), "n_radial"),
    (dict(n_radial=1), "n_radial"),
    (dict(n_eta=1), "n_eta"),
    (dict(n_eta=0), "n_eta"),
    (dict(n_phi=2), "n_phi"),
    (dict(n_phi=1), "n_phi"),
    (dict(n_radial=5, n_eta=3, n_phi=4, r_max=-1.0), "r_max"),
    (dict(n_radial=5, n_eta=3, n_phi=4, r_max=0.0), "r_max"),
    (dict(n_radial=5, n_eta=3, n_phi=4, r_max=math.inf), "r_max"),
    (dict(n_radial=5, n_eta=3, n_phi=4, r_max=math.nan), "r_max"),
])
def test_sampled_map_rejects_grids_too_small_to_differentiate(grid, name):
    """A radial stencil needs 3 radii, an eta derivative 2 nodes and a phi
    derivative a first Fourier mode; below that the map is refused rather
    than given a NaN, zero or unrelated failure. The radius ladder scales
    r_max, so a negative, zero, infinite or NaN r_max is refused too,
    rather than giving negative radii or a numpy warning."""
    with pytest.raises(ValueError, match=name):
        jh.map_example("z1", **grid)


def _stencil_1d_reference(t):
    """3-point stencils as (index, weight) rows, as they were gathered."""
    M = len(t)
    idx = np.zeros((M, 3), dtype=int)
    w = np.zeros((M, 3))
    for i in range(M):
        j = min(max(i, 1), M - 2)
        x0, x1, x2 = t[j - 1], t[j], t[j + 1]
        x = t[i]
        w0 = (2 * x - x1 - x2) / ((x0 - x1) * (x0 - x2))
        w1 = (2 * x - x0 - x2) / ((x1 - x0) * (x1 - x2))
        w2 = (2 * x - x0 - x1) / ((x2 - x0) * (x2 - x1))
        idx[i] = (j - 1, j, j + 1)
        w[i] = (w0, w1, w2)
    return idx, w


def _apply_stencil_reference(values, axis, idx, w):
    """The stencil applied by three fancy-index gathers of the whole grid."""
    v = np.moveaxis(values, axis, 0)
    out = (
        w[:, 0].reshape(-1, *([1] * (v.ndim - 1))) * v[idx[:, 0]]
        + w[:, 1].reshape(-1, *([1] * (v.ndim - 1))) * v[idx[:, 1]]
        + w[:, 2].reshape(-1, *([1] * (v.ndim - 1))) * v[idx[:, 2]]
    )
    return np.moveaxis(out, 0, axis)


def _periodic_spectral_reference(values, axis):
    """The FFT derivative taken along the axis where it lies, strided."""
    n = values.shape[axis]
    vhat = np.fft.rfft(values, axis=axis)
    k = np.arange(vhat.shape[axis])
    if n % 2 == 0:
        k[-1] = 0
    shape = [1] * values.ndim
    shape[axis] = -1
    vhat *= 1j * k.reshape(shape)
    return np.fft.irfft(vhat, n=n, axis=axis)


def _frame_partials_reference(u):
    """Frame partials by gathers, strided FFTs and scaling copies."""
    v = u.values
    idx_r, w_r = _stencil_1d_reference(u.radii)
    du_rho = _apply_stencil_reference(v, 0, idx_r, w_r)
    du_eta = np.einsum("ef,rfabd->reabd", jh._diff_matrix(u.eta), v)
    du_p1 = _periodic_spectral_reference(v, 2)
    du_p2 = _periodic_spectral_reference(v, 3)
    rho = u.radii[:, None, None, None, None]
    ce = np.cos(u.eta)[None, :, None, None, None]
    se = np.sin(u.eta)[None, :, None, None, None]
    return du_rho, du_eta / rho, du_p1 / (rho * ce), du_p2 / (rho * se)


def _scalar_map(x):
    """A d = 1 map: a polynomial in the coordinates with a periodic term."""
    return x[:, 0] * x[:, 2] - 0.5 * x[:, 1] ** 3 + np.sin(x[:, 3])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["scalar", "z1", "z1z2", "hopf"]),
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=3, max_value=16),
    st.floats(min_value=0.5, max_value=0.95),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_property_map_derivatives_match_reference(name, n_radial, n_eta,
                                                  n_phi, ratio, r_max):
    """The radial partial is the same bytes as the gathered stencil's. The
    eta and phi partials, matrix products, agree with the einsum and the
    strided FFTs to 1e-13 of the largest angular reference partial: over
    these grids (n_phi 3-16, odd and even; every name; n_radial 3 and 12;
    n_eta 2-6; ratio 0.5, 0.95; r_max 0.1, 1, 10; and 6,000 random draws)
    the largest difference measured was 3.4e-14. Both densities and the
    Jacobian are the same bytes as those of the returned partials, on
    every grid a map accepts; each returned array is read-only."""
    grid = dict(n_radial=n_radial, n_eta=n_eta, n_phi=n_phi, ratio=ratio,
                r_max=r_max)
    if name == "scalar":
        u = jh.SampledMap(_scalar_map, **grid)
    else:
        u = jh.map_example(name, **grid)
    assert u.d == {"scalar": 1, "hopf": 3}.get(name, 2)
    parts = u.frame_partials()
    want = _frame_partials_reference(u)
    for got, ref in zip(parts, want, strict=True):
        assert got.shape == ref.shape
    assert parts[0].tobytes() == want[0].tobytes()
    size = max(np.abs(ref).max() for ref in want[1:])
    for got, ref in zip(parts[1:], want[1:]):
        assert np.abs(got - ref).max() <= 1e-13 * size

    energy = np.einsum("...d,...d->...", parts[0], parts[0])
    for p in parts[1:]:
        energy += np.einsum("...d,...d->...", p, p)
    assert u.energy_density().tobytes() == energy.tobytes()
    radial = np.einsum("...d,...d->...", parts[0], parts[0])
    assert u.radial_density().tobytes() == radial.tobytes()
    jac = np.zeros(u.values.shape + (4,))
    for p, e in zip(parts, u.frame_vectors()):
        jac += p[..., :, None] * e[..., None, :]
    assert u.gradient().tobytes() == jac.tobytes()

    for arr in (*parts, u.energy_density(), u.radial_density(), u.gradient()):
        assert not arr.flags.writeable


def _whole_grid_reference(u):
    """Values, partials, densities and Jacobian of a map, each computed on
    the whole grid at once: the values from every node in one call, the
    radial partial by `_frame_partials_reference`'s gathers, the angular
    ones by whole-grid matrix products (phi2 on one transposed copy of the
    grid), scaled in place, and the densities and Jacobian summed in frame
    order."""
    v = np.asarray(u.f(_points_reference(u).reshape(-1, 4)), dtype=float)
    v = v.reshape(u.values.shape)
    R, E, P = v.shape[:3]
    idx_r, w_r = _stencil_1d_reference(u.radii)
    D_phi = jh._periodic_diff_matrix(P)
    du_rho = _apply_stencil_reference(v, 0, idx_r, w_r)
    du_eta = np.matmul(jh._diff_matrix(u.eta), v.reshape(R, E, -1)).reshape(v.shape)
    du_p1 = np.matmul(D_phi, v.reshape(R * E, P, -1)).reshape(v.shape)
    v2 = np.ascontiguousarray(np.moveaxis(v, 3, -1))
    du_p2 = np.moveaxis(np.matmul(v2.reshape(-1, P), D_phi.T).reshape(v2.shape), -1, 3)
    rho = u.radii[:, None, None, None, None]
    du_eta /= rho
    du_p1 /= rho * np.cos(u.eta)[None, :, None, None, None]
    du_p2 /= rho * np.sin(u.eta)[None, :, None, None, None]
    parts = (du_rho, du_eta, du_p1, du_p2)
    radial = np.einsum("...d,...d->...", du_rho, du_rho)
    energy = radial.copy()
    for p in parts[1:]:
        energy += np.einsum("...d,...d->...", p, p)
    jac = np.zeros(v.shape + (4,))
    for p, e in zip(parts, u.frame_vectors()):
        jac += p[..., :, None] * e[..., None, :]
    return v, parts, energy, radial, jac


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["scalar", "z1", "z1z2", "hopf"]),
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=3, max_value=16),
    st.floats(min_value=0.5, max_value=0.95),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_property_radius_blocks_keep_whole_grid_bits(name, n_radial, n_eta,
                                                     n_phi, ratio, r_max):
    """Maps are sampled, differentiated and squared radius block by radius
    block, and the coarea check interpolates its lines block by block. At
    a block budget of 1 node (one radius or line per block), of the prime
    3457 (uneven blocks, a short last one) and of the default, the values,
    the four partials, both densities and the Jacobian are the same bytes
    as the whole-grid reference's, and the coarea per-line values are the
    same bytes at every budget and match the per-line interpolator to
    1e-12."""
    grid = dict(n_radial=n_radial, n_eta=n_eta, n_phi=n_phi, ratio=ratio,
                r_max=r_max)
    coarea = []
    for budget in (1, 3457, jh._BLOCK_NODES):
        with mock.patch.object(jh, "_BLOCK_NODES", budget):
            if name == "scalar":
                u = jh.SampledMap(_scalar_map, **grid)
            else:
                u = jh.map_example(name, **grid)
            v, parts, energy, radial, jac = _whole_grid_reference(u)
            assert u.values.tobytes() == v.tobytes()
            # the densities first, so that they are built without partials
            assert u.energy_density().tobytes() == energy.tobytes()
            assert u.radial_density().tobytes() == radial.tobytes()
            for got, want in zip(u.frame_partials(), parts, strict=True):
                assert got.strides == want.strides
                assert got.tobytes() == want.tobytes()
            assert u.gradient().tobytes() == jac.tobytes()
            coarea.append(jh.coarea_slice_check(u, n_lines=64, seed=n_radial)[0])
    want = _coarea_per_line_reference(u, u.energy_density(), 64, n_radial)
    np.testing.assert_allclose(coarea[0], want, rtol=1e-12, atol=0.0)
    assert coarea[0].tobytes() == coarea[1].tobytes() == coarea[2].tobytes()


def test_densities_build_no_whole_grid_partials():
    """On the default grid the densities come from one radius block of
    partials at a time: no frame partials are kept, and the traced peak
    of the two calls is 20 MiB, against 15.5 MiB measured (the two 5.1 MiB
    densities and one block's temporaries) and 51.3 MiB when the four
    whole-grid partials (41 MiB) were built first."""
    u = jh.map_example("z1")
    tracemalloc.start()
    try:
        u.energy_density()
        u.radial_density()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u._grad is None
    assert peak <= 20 * 2**20


def _residual_reference(u, xi, J, energy, jac):
    """The stationarity residual with every node at once: the whole-grid
    points, energy density and Jacobian through the residual's per-point
    arithmetic in one pass, then one ball integral."""
    if xi.support_radius >= u.r_max - 1e-12:
        edge = np.abs(xi.value(_points_reference(u)[-1].reshape(-1, 4))).max()
        if edge > 1e-10:
            raise ValueError("test field must vanish near the boundary")
    pts = _points_reference(u).reshape(-1, 4)
    Du = jac.reshape(-1, u.d, 4)
    dens = energy.reshape(-1)
    Dxi = xi.jacobian(pts)
    gram = np.einsum("pai,paj->pij", Du, Du)
    div = np.einsum("pii->p", Dxi)
    lhs = dens * div - 2.0 * np.einsum("pij,pij->p", gram, Dxi)
    B = xt.ComplexStructure(u.d).matrix
    J0 = J.J0
    rhs = np.zeros(len(pts))
    if J.slope != 0.0:
        A = J.matrix_many(pts) - J.J0[None]
        M = A @ A.transpose(0, 2, 1) + 2.0 * (A @ J0.T)
        DuB = np.einsum("ba,pbj->paj", B, Du)
        phi = np.einsum("pak,pkl,pal->p", Du, A, DuB, optimize=True)
        T2 = np.einsum("pak,pki,paj->pij", Du, A, DuB, optimize=True)
        psi = np.einsum("pkl,pkl->p", gram, M)
        T4 = M.transpose(0, 2, 1) @ gram
        rhs = (
            -0.5 * phi * div
            + np.einsum("pij,pij->p", T2, Dxi)
            - 0.5 * psi * div
            + np.einsum("pij,pij->p", T4, Dxi)
        )
    grid = (lhs - rhs).reshape(u.values.shape[:4])
    return u.ball_integral(grid, u.r_max)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["z1", "z1z2", "z1-warped"]),
    st.sampled_from(["standard", "perturbed", "warped"]),
    st.sampled_from([None, 0, 3, 7]),
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=3, max_value=12),
    st.floats(min_value=0.5, max_value=0.95),
    st.sampled_from([0.9, 1.0, 1.5]),
)
def test_property_blocked_residual_keeps_whole_grid_bits(
        name, structure, seed, n_radial, n_eta, n_phi, ratio, r_max):
    """The stationarity residual runs radius block by radius block on a
    Jacobian filled block by block. At a block budget of 1 node, of the
    prime 3457 and of the default, for the radial bump field (seed None)
    and random bump fields, under the standard, `perturbed(0.1)` and
    z1-warped structures, the residual is the same bytes as the whole-grid
    reference's and `gradient()` the same bytes as the Jacobian of the
    whole-grid partials; no whole-grid frame partials are built. At
    r_max 0.9 the fields' support reaches the outermost sphere, which is
    checked."""
    grid = dict(n_radial=n_radial, n_eta=n_eta, n_phi=n_phi, ratio=ratio,
                r_max=r_max)
    J = {"standard": jh.AlmostComplexField.standard(),
         "perturbed": jh.AlmostComplexField.perturbed(0.1),
         "warped": jh.map_example("z1-warped", n_radial=3, n_eta=2, n_phi=3)[1],
         }[structure]
    xi = jh.radial_bump_field() if seed is None else jh.random_bump_field(seed)
    for budget in (1, 3457, jh._BLOCK_NODES):
        with mock.patch.object(jh, "_BLOCK_NODES", budget):
            u = jh.map_example(name, **grid)
            if name == "z1-warped":
                u = u[0]
            got = jh.inner_variation_residual(u, xi, J)
            _, _, energy, _, jac = _whole_grid_reference(u)
            want = _residual_reference(u, xi, J, energy, jac)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert u.gradient().tobytes() == jac.tobytes()
            assert u._grad is None


def test_residual_builds_no_whole_grid_partials():
    """On the default grid, with the densities already computed, the first
    residual fills the Jacobian from one radius block of partials at a
    time and runs its per-point terms by the same blocks: no frame partials
    are kept, and the traced peak is 80 MiB, against 65.3 MiB measured (the
    41 MiB Jacobian and one block's temporaries) and 292.3 MiB when the
    Jacobian summed whole-grid partials and the residual ran on every node
    at once."""
    u = jh.map_example("z1")
    u.energy_density()
    tracemalloc.start()
    try:
        jh.inner_variation_residual(u, jh.radial_bump_field(),
                                    jh.AlmostComplexField.standard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u._grad is None
    assert peak <= 80 * 2**20


@pytest.mark.parametrize("n", [3, 4, 5, 8, 13, 16, 31, 32])
def test_periodic_diff_matrix(n):
    """The periodic differentiation matrix is antisymmetric, has exact zeros
    at distance n/2 for even n, and differentiates cos(j phi) and
    sin(j phi), j < n/2, to rounding."""
    D = jh._periodic_diff_matrix(n)
    assert D.shape == (n, n)
    assert np.array_equal(D, -D.T)
    if n % 2 == 0:
        j = np.arange(n)
        assert np.all(D[j, (j + n // 2) % n] == 0.0)
    phi = 2 * math.pi * np.arange(n) / n
    for j in range(1, (n + 1) // 2):
        assert np.abs(D @ np.cos(j * phi) + j * np.sin(j * phi)).max() <= 1e-14 * n * j
        assert np.abs(D @ np.sin(j * phi) - j * np.cos(j * phi)).max() <= 1e-14 * n * j
    assert np.abs(D @ np.ones(n)).max() <= 1e-14 * n


@pytest.mark.parametrize("n_phi", [7, 8, 15, 32])
@pytest.mark.parametrize("name", ["z1z2", "hopf"])
def test_phi_partials_match_closed_forms(name, n_phi):
    """Band-limited maps with closed-form phi derivatives: z1 z2 has
    d/d phi1 u = d/d phi2 u = i u; the Hopf map's w = 2 conj(z1) z2 / |z|^2
    has d/d phi1 w = -i w, d/d phi2 w = i w, and its third component does
    not depend on phi. The frame partials match them to 5e-14 of the max."""
    u = jh.map_example(name, n_radial=6, n_eta=5, n_phi=n_phi)
    v = u.values
    i_u = np.zeros_like(v)
    i_u[..., 0], i_u[..., 1] = -v[..., 1], v[..., 0]
    d_p1, d_p2 = (i_u, i_u) if name == "z1z2" else (-i_u, i_u)
    rho = u.radii[:, None, None, None, None]
    ce = np.cos(u.eta)[None, :, None, None, None]
    se = np.sin(u.eta)[None, :, None, None, None]
    want = (d_p1 / (rho * ce), d_p2 / (rho * se))
    size = max(np.abs(w).max() for w in want)
    for got, w in zip(u.frame_partials()[2:], want):
        assert np.abs(got - w).max() <= 5e-14 * size


def _partial_digests(name):
    u = jh.map_example(name)
    arrays = (*u.frame_partials(), u.energy_density(), u.radial_density())
    return [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]


def test_partials_same_bits_on_one_blas_thread():
    """The benchmark runs numpy on one BLAS thread, the tests on the
    default: the partials and densities of z1 and hopf are the same bytes
    in a subprocess with OPENBLAS_NUM_THREADS=1 as in this process."""
    src = str(Path(jh.__file__).resolve().parents[1])
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{src!r}, {str(Path(__file__).resolve().parent)!r}]\n"
        "from test_jholo import _partial_digests\n"
        "print(json.dumps([_partial_digests(n) for n in ('z1', 'hopf')]))\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    assert json.loads(out.stdout) == [_partial_digests(n) for n in ("z1", "hopf")]
