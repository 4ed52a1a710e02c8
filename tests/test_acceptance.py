"""End-to-end acceptance gate.

Each test exercises one deliverable scenario against closed-form oracles
or structural inequalities, with an explicit wall-clock budget. These are
deliberately redundant with the per-module tests: they run the pipelines
the way a user would, on the shipped example geometries.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq, minimize

from curlab import blowup as bl
from curlab import calibrations as cal
from curlab import cli
from curlab import currents as cur
from curlab import examples as ex
from curlab import exterior as xt
from curlab import jholo as jh

X0 = np.zeros(4)


class _budget:
    """Context manager asserting a wall-clock limit in seconds."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed <= self.limit, (
                f"runtime {elapsed:.1f}s exceeds the {self.limit}s budget"
            )


def test_flat_disk_certificates():
    """The flat complex disk is an exact cone in every measured sense."""
    with _budget(5):
        disk = ex.flat_disk(h=0.05)
        tr = bl.density_trace(disk, X0, 0.8)
        assert np.abs(tr.theta / math.pi - 1.0).max() <= 1e-6
        assert bl.conical_defect(disk, X0, 0.2, 0.7) <= 1e-10
        assert bl.hopf_projection_mass(disk, X0, 0.3, 0.6) <= 1e-8
        assert bl.uniqueness_gap(disk, X0, 0.5) <= 1e-6


def test_holomorphic_graph_density_and_rate():
    """z^2-graph: closed-form density, exact monotonicity, quadratic rate."""
    with _budget(60):
        C = ex.holomorphic_graph(k=2, h=0.01)
        tr = bl.density_trace(C, X0, 0.8, N=10, q=0.7,
                              region_kind="cylinder")
        keep = tr.radii >= 0.05
        want = math.pi * (1 + 2 * tr.radii**2)
        assert np.abs(tr.theta[keep] / want[keep] - 1.0).max() <= 5e-3
        c1, passed = bl.monotonicity_check(tr)
        assert passed
        assert c1 == 0.0
        fit = bl.rate_fit(tr, mode="A", theta_hat=math.pi)
        assert 1.9 <= fit.exponent <= 2.1
        assert 2 * math.pi * 0.95 <= fit.amplitude <= 2 * math.pi * 1.05


def _cusp_theta_over_pi(r):
    """Parametrized-area density of the cusp in the ambient ball B_r.

    The image of |z| <= s fills B_r with t = s^2 solving t^2 + t^3 = r^2;
    its area is 2 pi t^2 (1 + 1.5 t), so theta / pi = 2 (1 + 1.5 t)/(1 + t).
    """
    t = brentq(lambda t: t**2 + t**3 - r**2, 0.0, 1.0)
    return 2.0 * (1.0 + 1.5 * t) / (1.0 + t)


def test_cusp_branch_point():
    """(z^2, z^3) cusp: stable single direction, positive gap rate, and the
    small-radius density at its closed-form value, coming down to 2."""
    with _budget(120):
        cusp = ex.cusp()
        for r in (0.1, 0.05, 0.025):
            D = bl.tangent_directions(cusp, X0, r)
            assert len(D) == 1
        radii = 0.4 * 0.7 ** np.arange(6)
        gaps = np.array([bl.uniqueness_gap(cusp, X0, r) for r in radii])
        assert np.all(gaps > 0)
        coef = np.polyfit(np.log(radii), np.log(gaps), 1)
        pred = np.polyval(coef, np.log(radii))
        rms = float(np.sqrt(np.mean((np.log(gaps) - pred) ** 2)))
        assert coef[0] > 0
        assert rms <= 0.15
        # The density comes down to its limit 2 from above but is still
        # 2.0466 at r = 0.05 (within 0.04 of 2 only for r below about
        # 0.0425), so each radius is checked against the closed form rather
        # than against a fixed window around 2.
        tr = bl.density_trace(cusp, X0, 0.05, N=4)
        for r, got in zip(tr.radii, tr.normalized):
            want = _cusp_theta_over_pi(r)
            assert got == pytest.approx(want, rel=3e-3), (
                f"normalized density at r={r:.4g} is {got:.4f}; the"
                f" parametrized-area value there is 2(1 + 1.5 t)/(1 + t)"
                f" = {want:.4f} with t^2 + t^3 = r^2"
            )
        assert 2.0 < tr.normalized[-1]
        assert np.all(np.diff(tr.normalized) < 0)


def test_two_lines_cone_structure():
    """Union of orthogonal complex lines: two unit clusters, zero sweep."""
    with _budget(10):
        lines = ex.two_lines(h=0.08)
        D = bl.tangent_directions(lines, X0, 0.5)
        assert len(D) == 2
        assert np.abs(D.weights - 1.0).max() <= 0.02
        dist = xt._fs_dist_matrix(D.representatives, D.representatives)[0, 1]
        assert abs(dist - math.pi / 2) <= 0.02
        for s, r in ((0.2, 0.4), (0.3, 0.6)):
            assert bl.hopf_projection_mass(lines, X0, s, r) <= 1e-6


def test_tubular_calibration_certificate():
    """Non-holomorphic graph: near-calibration by a genuinely non-closed
    field, drifted monotonicity, and the projection-mass inequality with a
    linear slack term."""
    with _budget(120):
        C = ex.nonholo_graph(h=0.06)
        field = cal.tubular_calibration(C, 0.05)
        m = cur.mass(C)
        assert cal.calibration_defect(C, field) <= 1e-6 * m

        rng = np.random.default_rng(2)
        best = 0.0
        for k in rng.choice(len(C), 10, replace=False):
            e1, e2 = xt.plane_basis(xt.MultiVector(4, 2, C.tangents[k]))
            v = rng.standard_normal(4)
            v -= (v @ e1) * e1 + (v @ e2) * e2
            v /= np.linalg.norm(v)
            x = C.centroids[k] + 0.75 * field.delta * v
            best = max(best, cal.exterior_derivative_fd(field, x).norm())
        assert best >= 1e-3

        tr = bl.density_trace(C, X0, 0.6, N=6, q=0.7)
        c1, passed = bl.monotonicity_check(tr)
        assert passed
        assert c1 <= 50.0

        # projection mass against the density gap, slack K * r; the
        # empirical sharpest K on this surface is about 0.03
        K = 0.1
        C_dim = 8.0
        for k in range(len(tr) - 1):
            r, s = tr.radii[k], tr.radii[k + 1]
            hm = bl.hopf_projection_mass(C, X0, s, r)
            gap = tr.theta[k] - tr.theta[k + 1]
            assert hm <= C_dim * gap / math.pi + K * r


def test_pointwise_algebra_battery():
    """Wirtinger bound, simple-vector sandwich, calibrated decomposition,
    comass against brute force, and the near-calibrated split rate."""
    with _budget(60):
        rng = np.random.default_rng(101)
        m = 4
        J = xt.ComplexStructure(m)
        om = xt.omega0(m)
        i2, j2 = xt.pairs2(m)

        V = rng.standard_normal((100_000, m))
        W = rng.standard_normal((100_000, m))
        X = V[:, i2] * W[:, j2] - V[:, j2] * W[:, i2]
        X /= np.linalg.norm(X, axis=1)[:, None]
        vals = X @ om.coeffs
        assert vals.max() <= 1.0 + 1e-9
        assert vals.min() >= -1.0 - 1e-9

        for mm in (4, 6, 8):
            Jm = xt.ComplexStructure(mm)
            for _ in range(100):
                dec = []
                for _ in range(rng.integers(1, mm // 2 + 1)):
                    v = rng.standard_normal(mm)
                    v /= np.linalg.norm(v)
                    dec.append((float(rng.uniform(0.2, 2.0)),
                                xt.simple_2vector(v, Jm.apply(v))))
                zs = rng.standard_normal((100, mm))
                zs /= np.linalg.norm(zs, axis=1)[:, None]
                for z in zs:
                    L, M, Cm = xt.vectest_bounds(dec, xt.vector(mm, z), Jm)
                    assert L <= M + 1e-9 * (1 + M)
                    assert M <= Cm * L + 1e-9 * (1 + L)

            for _ in range(10):
                dec = []
                for _ in range(mm // 2):
                    v = rng.standard_normal(mm)
                    v /= np.linalg.norm(v)
                    dec.append((float(rng.uniform(0.2, 2.0)),
                                xt.simple_2vector(v, Jm.apply(v))))
                xi = xt.MultiVector(
                    mm, 2, sum(w * t.coeffs for w, t in dec)
                )
                parts = xt.decompose_calibrated(xi)
                back = sum(w * t.coeffs for w, t in parts)
                assert np.abs(back - xi.coeffs).max() <= 1e-8 * max(
                    1.0, xi.norm()
                )

        nb = len(xt.blades(m, 2))
        forms = [om,
                 xt.MultiForm(m, 2, 2.0 * np.eye(nb)[0] + np.eye(nb)[-1]),
                 xt.MultiForm(m, 2, rng.standard_normal(nb))]

        def value(params, coeffs):
            v, w = params[:m], params[m:]
            x = v[i2] * w[j2] - v[j2] * w[i2]
            n = np.linalg.norm(x)
            return abs(float(x @ coeffs)) / n if n > 1e-12 else 0.0

        raw = V[:, i2] * W[:, j2] - V[:, j2] * W[:, i2]
        for f in forms:
            proj = np.abs(raw @ f.coeffs) / np.linalg.norm(raw, axis=1)
            best = int(np.argmax(proj))
            res = minimize(
                lambda p: -value(p, f.coeffs),
                np.concatenate([V[best], W[best]]),
                method="Nelder-Mead",
                options={"maxiter": 4000, "xatol": 1e-10, "fatol": 1e-12},
            )
            brute = max(float(proj[best]), -res.fun)
            exact = xt.comass2(f)
            assert brute <= exact + 1e-9
            assert exact - brute <= 1e-3 * max(exact, 1.0)

        slopes = []
        for _ in range(10):
            Bk = rng.standard_normal((m, m))
            Bk = Bk - Bk.T
            Bk /= np.linalg.norm(Bk)
            ts = np.logspace(-4, -1.5, 8)
            norms = []
            for t in ts:
                A = xt.skew_from_two_vector(om) + t * Bk
                w2 = xt.two_vector_from_skew(A)
                f = xt.MultiForm(m, 2, w2.coeffs)
                f = xt.MultiForm(m, 2, f.coeffs / xt.comass2(f),
                                 comass_bound=1.0)
                Q, lam = xt.canonicalize_2form(f)
                tau = xt.simple_2vector(Q[:, 0], Q[:, 1])
                x = np.zeros(m)
                x[0] = t
                tau0, tau1 = xt.split_near_calibrated(tau, f, x)
                norms.append(max(tau1.norm(), 1e-300))
            keep = np.array(norms) > 1e-12
            if keep.sum() >= 4:
                slopes.append(np.polyfit(np.log(ts[keep]),
                                         np.log(norms)[keep], 1)[0])
        assert slopes
        assert min(slopes) >= 0.45


def test_slice_poincare_iteration():
    """Good slices exist at every scale, every decomposed slice loop obeys
    the loop Poincare inequality, and the projection energies decay
    geometrically at the density-fit rate."""
    with _budget(180):
        graph = ex.holomorphic_graph(k=2, h=0.02)
        cusp = ex.cusp()
        ladder = 0.5 * 0.7 ** np.arange(5)
        for C in (graph, cusp):
            for r in ladder:
                rho, smass, senergy = bl.goodslice_search(C, X0, r)
                assert r / 2 <= rho <= r
                assert smass > 0
            for r in (0.5, 0.25):
                S = cur.slice_sphere(C, X0, r)
                for T in cur.decompose_cycle(S):
                    for axis in range(4):
                        _, lhs, rhs = cur.loop_poincare(
                            T, lambda x, a=axis: x[a]
                        )
                        assert lhs <= 1.05 * rhs + 1e-12

        graded = ex.holomorphic_graph(k=2, graded=True)
        lad = 0.4 * 0.5 ** np.arange(5)
        energies, factors, _ = bl.dirichlet_iteration(graded, X0, lad)
        assert len(factors) >= 4
        assert np.all(factors <= 0.31)
        implied = math.log(factors[-1]) / math.log(0.5)
        tr = bl.density_trace(graph, X0, 0.8, region_kind="cylinder")
        fit = bl.rate_fit(tr, mode="A", theta_hat=math.pi)
        assert abs(implied - fit.exponent) <= 0.3

        lad_c = 0.4 * 0.6 ** np.arange(6)
        _, factors_c, _ = bl.dirichlet_iteration(cusp, X0, lad_c)
        assert len(factors_c) >= 4
        assert np.all(factors_c <= 0.9)
        implied_c = math.log(factors_c[-1]) / math.log(0.6)
        fit_c = bl.rate_fit(bl.density_trace(cusp, X0, 0.3, N=8), mode="B")
        assert abs(implied_c - fit_c.exponent) <= 0.3


def test_pseudoholomorphic_map_suite():
    """Sampled maps: exact monotonicity, closed-form rates, homogeneous
    energy, the stationarity residual, and coarea reassembly."""
    with _budget(180):
        u1 = jh.map_example("z1")
        lad = u1.radii[::-5][:7][::-1]
        c, passed = jh.map_monotonicity_check(u1, lad, tol=0.01)
        assert passed
        assert c == 0.0
        fit1 = jh.map_rate_fit(u1, lad, mode="A", theta_hat=0.0)
        assert abs(fit1.exponent - 2.0) <= 0.1

        u2 = jh.map_example("z1z2")
        fit2 = jh.map_rate_fit(u2, lad, mode="A", theta_hat=0.0)
        assert abs(fit2.exponent - 4.0) <= 0.1
        assert fit2.amplitude == pytest.approx(2 * math.pi**2 / 3, rel=0.05)

        uh = jh.map_example("hopf")
        vals = np.array([jh.scaled_energy(uh, r) for r in lad])
        assert np.ptp(vals) / vals.mean() <= 0.02
        assert jh.tangent_map_gap(uh, lad[0], lad[-1]) <= 1e-10

        uf = jh.map_example("z1", n_radial=161, ratio=0.9**0.25)
        E = uf.ball_integral(uf.energy_density(), 1.0)
        J = jh.AlmostComplexField.standard()
        res = jh.inner_variation_residual(uf, jh.radial_bump_field(), J)
        assert abs(res) <= 1e-3 * E

        _, _, _, ratio = jh.coarea_slice_check(u1)
        assert abs(ratio - 1.0) <= 0.03


def test_discretization_convergence_orders():
    """Second-order decay of both mass error and gradient error under
    step halving."""
    exact = 3 * math.pi
    errs = [abs(cur.mass(ex.holomorphic_graph(k=2, h=h)) - exact)
            for h in (0.08, 0.04, 0.02)]
    for e0, e1 in zip(errs, errs[1:]):
        assert 3.5 <= e0 / e1 <= 4.5

    def f(x):
        z = (x[:, 0] + 1j * x[:, 1]) ** 3
        return np.column_stack([z.real, z.imag])

    def grad_err(n_radial, ratio):
        u = jh.SampledMap(f, n_radial=n_radial, ratio=ratio)
        G = u.gradient().reshape(-1, 2, 4)
        pts = u.points.reshape(-1, 4)
        dz = 3 * (pts[:, 0] + 1j * pts[:, 1]) ** 2
        want = np.zeros_like(G)
        want[:, 0, 0] = dz.real
        want[:, 0, 1] = -dz.imag
        want[:, 1, 0] = dz.imag
        want[:, 1, 1] = dz.real
        keep = np.linalg.norm(pts, axis=1) > 0.3
        return np.abs(G - want)[keep].max()

    ratio = grad_err(21, 0.9) / grad_err(41, math.sqrt(0.9))
    assert 3.5 <= ratio <= 4.5


def test_pipeline_determinism(tmp_path):
    """Identical invocations write byte-identical files below the
    timestamp line."""

    def stable(p):
        return "".join(l for l in p.read_text().splitlines(keepends=True)
                       if not l.startswith("# generated"))

    cases = (
        (["density-sweep", "--example", "graph-z2", "--h", "0.05",
          "--seed", "7"], "density_sweep.csv"),
        (["jholo-energy", "--example", "hopf", "--n", "5"],
         "jholo_energy.csv"),
        (["directions", "--example", "two-lines", "--h", "0.05",
          "--radius", "0.5"], "directions.csv"),
    )
    for argv, fname in cases:
        a, b = tmp_path / ("a_" + fname), tmp_path / ("b_" + fname)
        a.mkdir(), b.mkdir()
        assert cli.run(argv + ["--out", str(a)]) == 0
        assert cli.run(argv + ["--out", str(b)]) == 0
        assert stable(a / fname) == stable(b / fname)
