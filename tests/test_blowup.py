"""Density, monotonicity, projection-mass, directions and rate analysis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curlab import blowup as bl
from curlab import currents as cur
from curlab import examples as ex
from curlab import exterior as xt

X0 = np.zeros(4)


@pytest.fixture(scope="module")
def disk():
    return ex.flat_disk(h=0.05)


@pytest.fixture(scope="module")
def graph():
    return ex.holomorphic_graph(k=2, h=0.02)


@pytest.fixture(scope="module")
def graph_graded():
    return ex.holomorphic_graph(k=2, graded=True)


@pytest.fixture(scope="module")
def cusp():
    return ex.cusp()


@pytest.fixture(scope="module")
def lines():
    return ex.two_lines(h=0.04)


def _cusp_theta_over_pi(r):
    """Parametrized-area oracle for the cusp density in the ambient ball.

    The image of |z| <= s fills the ball of radius r with s^4 + s^6 = r^2;
    its area is 2 pi s^4 (1 + 1.5 s^2).
    """
    from scipy.optimize import brentq

    s2 = brentq(lambda t: t**2 + t**3 - r**2, 0.0, 1.0)
    return 2.0 * (1.0 + 1.5 * s2) / (1.0 + s2)


def test_trace_flat_disk(disk):
    tr = bl.density_trace(disk, X0, 0.8)
    assert np.abs(tr.theta / math.pi - 1.0).max() <= 1e-6
    assert np.abs(tr.normalized - 1.0).max() <= 1e-6


def test_trace_input_validation(disk):
    with pytest.raises(ValueError):
        bl.density_trace(disk, [5.0, 0, 0, 0], 0.5)  # off support
    with pytest.raises(ValueError):
        bl.density_trace(disk, X0, 50.0)  # beyond the mesh
    with pytest.raises(ValueError):
        bl.density_trace(disk, X0, 0.5, q=1.2)
    with pytest.raises(ValueError):
        bl.density_trace(disk, X0, 0.5, N=3)


def test_trace_graph_closed_form():
    C = ex.holomorphic_graph(k=2, h=0.01)
    tr = bl.density_trace(C, X0, 0.8, region_kind="cylinder")
    want = math.pi * (1 + 2 * tr.radii**2)
    assert np.abs(tr.theta / want - 1.0).max() <= 5e-3


def test_trace_cusp_density(cusp):
    tr = bl.density_trace(cusp, X0, 0.05, N=4)
    want = _cusp_theta_over_pi(0.05)
    assert tr.normalized[0] == pytest.approx(want, rel=0.01)
    # the ratio drifts toward the double point density 2 from above
    assert 2.0 < tr.normalized[-1] < tr.normalized[0]


def test_monotonicity_calibrated_examples(disk, graph, lines, cusp):
    for C in (disk, graph, lines, cusp):
        tr = bl.density_trace(C, X0, 0.7)
        c1, ok = bl.monotonicity_check(tr)
        assert ok
        assert c1 == 0.0


def test_conical_defect_cone(disk, lines):
    assert bl.conical_defect(disk, X0, 0.2, 0.7) <= 1e-10
    assert bl.conical_defect(lines, X0, 0.2, 0.7) <= 1e-10


def test_conical_defect_sandwich_identity(graph):
    """theta(r) - theta(s) equals the defect integral for calibrated C."""
    cusp_fine = ex.cusp(n_theta=96, factor=0.9)
    for C, tol in ((graph, 0.01), (cusp_fine, 0.02)):
        for (s, r) in ((0.3, 0.6), (0.2, 0.4)):
            ms = cur.mass(C, cur.Region.ball(X0, s))
            mr = cur.mass(C, cur.Region.ball(X0, r))
            gap = mr / r**2 - ms / s**2
            defect = bl.conical_defect(C, X0, s, r)
            assert defect == pytest.approx(gap, rel=tol)


def test_conical_defect_two_sided(disk, graph, lines, cusp):
    """Both monotonicity-style inequalities around the defect integral."""
    for C in (disk, graph, lines, cusp):
        tr = bl.density_trace(C, X0, 0.6, N=4, q=0.5)
        s, r = tr.radii[1], tr.radii[0]
        gap = tr.theta[0] - tr.theta[1]
        defect = bl.conical_defect(C, X0, s, r)
        slack = 0.01 * max(tr.theta.max(), 1.0)
        assert gap >= defect - slack
        assert gap <= defect + slack


def test_hopf_mass_complex_cones(disk, lines):
    assert bl.hopf_projection_mass(disk, X0, 0.3, 0.6) <= 1e-8
    assert bl.hopf_projection_mass(lines, X0, 0.3, 0.6) <= 1e-6


def test_hopf_mass_estimate_inequality(graph, cusp):
    """Projection mass bounded by the fixed constant times the density gap."""
    C_dim = 2 * 4  # dimension constant used throughout
    for C in (graph, cusp):
        for (s, r) in ((0.3, 0.6), (0.15, 0.3)):
            hm = bl.hopf_projection_mass(C, X0, s, r)
            ms = cur.mass(C, cur.Region.ball(X0, s))
            mr = cur.mass(C, cur.Region.ball(X0, r))
            gap = mr / r**2 - ms / s**2
            assert hm <= C_dim * gap / math.pi + 1e-9


def test_hopf_mass_non_complex_surface():
    # every plane through the center is a cone, so its projection sweeps
    # zero area; a curved non-holomorphic surface gives a genuinely
    # positive projection mass
    C = ex.nonholo_graph(h=0.04)
    hm = bl.hopf_projection_mass(C, X0, 0.3, 0.6)
    assert hm > 0.1


def _projection_gram(rel, e1, e2):
    """Pullback inner products of the projectivization map x -> [x], in
    complex arithmetic: the form `bl._frame_gram` replaced, kept here as
    its oracle. rel, e1 and e2 broadcast to (..., m); returns (g11, g22,
    g12)."""
    z = bl._complex_rows(rel)
    u1 = bl._complex_rows(e1)
    u2 = bl._complex_rows(e2)
    n2 = np.maximum(np.sum(z * np.conj(z), axis=-1).real, 1e-300)

    def G(u, v):
        uv = np.sum(u * np.conj(v), axis=-1)
        uz = np.sum(u * np.conj(z), axis=-1)
        zv = np.sum(z * np.conj(v), axis=-1)
        return (uv * n2 - uz * zv) / n2**2

    return G(u1, u1).real, G(u2, u2).real, G(u1, u2).real


def test_frame_gram_is_finite_at_the_center(cusp):
    """At x = x0 the densities are finite and raise no floating-point
    warning (tier-1 turns curlab's RuntimeWarnings into errors); at
    |x - x0|^4 >= 1e-300 the gram keeps the unclamped quotient's bits."""
    x0 = cusp.centroids[5]
    e, f = xt.plane_frames(cusp.tangents[[5]], 4)
    rel = np.zeros((1, 3, 4))
    rel[0, 1, 0] = 2e-75
    rel[0, 2] = [1e-3, -2e-3, 5e-4, 1e-3]
    g11, g22, g12 = bl._frame_gram(rel, e, f)
    for g in (g11, g22, g12):
        assert np.all(np.isfinite(g))
    assert g11[0, 0] == pytest.approx(1.0) and g22[0, 0] == pytest.approx(1.0)
    # the unclamped quotient, with the products taken as _frame_gram takes them
    n2 = np.einsum("lqi,lqi->lq", rel[:, 1:], rel[:, 1:])
    frame = np.stack([e, bl._times_i(e), f, bl._times_i(f)], axis=2)
    a, ja, _, _ = np.moveaxis(rel[:, 1:] @ frame, 2, 0)
    ee = np.einsum("li,li->l", e, e)[:, None]
    assert np.array_equal(g11[:, 1:], (ee * n2 - a * a - ja * ja) / (n2 * n2))
    assert np.all(np.isfinite(np.sqrt(np.maximum(g11 * g22 - g12**2, 0.0))))  # Hopf
    pts = x0[None, None, :] + rel
    density = bl.gradient_energy_density(cusp, x0)(pts, cusp.tangents[[5]])
    assert np.all(np.isfinite(density))


def test_energy_over_a_ball_centered_on_a_quadrature_point(cusp):
    """A ball centered on a triangle's centroid, where that centroid is
    its first quadrature point to the bit, has a finite energy."""
    q0 = cur._quad_points(cusp.corners())[:, 0]
    k = int(np.nonzero(np.all(q0 == cusp.centroids, axis=1))[0][0])
    x0 = cusp.centroids[k]
    r = 4.0 * float(cusp.longest_edges[k])  # the triangle lies inside
    energy = cur.integrate(cusp, bl.gradient_energy_density(cusp, x0),
                           cur.Region.ball(x0, r))
    assert np.isfinite(energy) and energy > 0.0


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([4, 6]))
def test_property_plane_frames(cusp, seed, m):
    """Closed-form frames span each unit simple row, oriented as the row."""
    rng = np.random.default_rng(seed)
    i, j = xt.pairs2(m)
    v, w = rng.standard_normal((2, 16, m))
    rows = v[:, i] * w[:, j] - v[:, j] * w[:, i]
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    E = np.eye(m)
    special = [
        xt.simple_2vector(E[0], (E[1] + E[2]) / math.sqrt(2)),  # tied columns
        xt.simple_2vector(E[2], E[3]),  # column 0 is zero
        xt.simple_2vector(E[m - 1], E[0]),  # a negative coefficient
    ]
    rows = np.concatenate([rows, [x.coeffs for x in special]])
    if m == 4:
        picks = rng.integers(len(cusp), size=32)
        rows = np.concatenate([rows, cusp.tangents[picks]])

    e, f = xt.plane_frames(rows, m)
    assert e.shape == f.shape == (len(rows), m)
    for a, b in ((e, e), (f, f)):
        assert np.abs(np.einsum("pi,pi->p", a, b) - 1.0).max() <= 1e-14
    assert np.abs(np.einsum("pi,pi->p", e, f)).max() <= 1e-14
    for k, row in enumerate(rows):
        assert np.abs(xt.simple_2vector(e[k], f[k]).coeffs - row).max() <= 1e-14
    # the projection integrands see the same plane as through plane_basis:
    # the real-arithmetic gram on these frames, with a group of 7 points
    # per plane, against the complex gram on plane_basis frames
    want = [xt.plane_basis(xt.MultiVector(m, 2, row)) for row in rows]
    rel = rng.standard_normal((len(rows), 7, m))
    g11, g22, g12 = bl._frame_gram(rel, e, f)
    r11, r22, r12 = _projection_gram(
        rel,
        np.array([w[0] for w in want])[:, None, :],
        np.array([w[1] for w in want])[:, None, :],
    )
    det, rdet = g11 * g22 - g12**2, r11 * r22 - r12**2
    assert np.all(np.abs(det - rdet) <= 1e-12 * np.maximum(1.0, np.abs(rdet)))
    trace, rtrace = g11 + g22, r11 + r22
    assert np.all(np.abs(trace - rtrace) <= 1e-12 * np.maximum(1.0, np.abs(rtrace)))

    e, f = xt.plane_frames(np.zeros((0, len(i))), m)
    assert e.shape == f.shape == (0, m)


def _single_linkage_reference(points, threshold):
    """Union-find over all pairs within the threshold: the loop form of
    `bl._single_linkage`, kept here as its oracle."""
    n = len(points)
    parent = np.arange(n)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    D = xt._fs_dist_matrix(points, points)
    for i in range(n):
        ri = find(i)
        for j in np.nonzero(D[i] < threshold)[0]:
            rj = find(j)
            if ri != rj:
                parent[rj] = ri
    return np.array([find(i) for i in range(n)])


def _partition(labels):
    return sorted(tuple(np.nonzero(labels == lab)[0]) for lab in np.unique(labels))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([2, 3]))
def test_property_single_linkage_matches_union_find(seed, n):
    """Connected components give the union-find's partition, on points
    scattered around a few centers in CP^{n-1}."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((rng.integers(1, 5), n, 2)) @ [1, 1j]
    pick = rng.integers(len(centers), size=rng.integers(1, 60))
    noise = rng.standard_normal((len(pick), n, 2)) @ [1, 1j]
    z = centers[pick] + rng.uniform(0.0, 0.3) * noise
    z /= np.linalg.norm(z, axis=1)[:, None]
    threshold = rng.uniform(0.02, 0.5)
    labels = bl._single_linkage(z, threshold)
    assert _partition(labels) == _partition(_single_linkage_reference(z, threshold))
    # numbered in order of each cluster's lowest point index
    firsts = [np.nonzero(labels == lab)[0][0] for lab in range(labels.max() + 1)]
    assert firsts == sorted(firsts)


def _direction_clusters_reference(z, w, r, threshold):
    """Direction clustering with a distance matrix per linkage and one per
    cluster for its diameter: the single linkage at the threshold, again
    at half of it for `stable`; kept here as the oracle of
    `bl._direction_clusters`."""

    def cluster(thr):
        labels = bl._single_linkage(z, thr)
        reps, ws, diams = [], [], []
        for lab in range(labels.max() + 1):
            sel = labels == lab
            P = z[sel]
            M = np.einsum("p,pa,pb->ab", w[sel], P, np.conj(P))
            _, vecs = np.linalg.eigh(M)
            reps.append(bl._unit_phase(vecs[:, -1]))
            ws.append(float(w[sel].sum()))
            diams.append(float(xt._fs_dist_matrix(P, P).max()))
        order = np.argsort(ws)[::-1]
        return np.array(reps)[order], np.array(ws)[order], np.array(diams)[order]

    reps, ws, diams = cluster(threshold)
    reps2, _, _ = cluster(threshold / 2.0)
    return bl.DirectionCluster(reps, ws, r, threshold, stable=len(reps) == len(reps2),
                               diameters=diams)


def _assert_same_clusters(got, want):
    assert np.array_equal(got.representatives, want.representatives)
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.diameters, want.diameters)
    assert got.stable is want.stable
    assert (got.scale, got.threshold) == (want.scale, want.threshold)


def _slice_rows(C, r):
    """The unit complex rows and weights tangent_directions clusters."""
    S = cur.slice_sphere(C, X0, r)
    z = xt._complex_rows(S.midpoints())
    return z / np.linalg.norm(z, axis=1)[:, None], S.lengths() * S.multiplicities / (2 * math.pi * r)


@pytest.mark.parametrize("name, r", [("cusp", 0.1), ("cusp", 0.05), ("cusp", 0.025),
                                     ("lines", 0.5), ("coarse_lines", 0.25),
                                     ("disk", 0.5), ("graded", 0.4)])
def test_direction_clusters_match_two_matrix_reference(name, r, cusp, lines, disk,
                                                        graph_graded):
    C = {"cusp": cusp, "lines": lines, "coarse_lines": ex.two_lines(h=0.4), "disk": disk,
         "graded": graph_graded}[name]
    z, w = _slice_rows(C, r)
    want = _direction_clusters_reference(z, w, r, 0.1)
    _assert_same_clusters(bl._direction_clusters(z, w, r, 0.1), want)
    _assert_same_clusters(bl.tangent_directions(C, X0, r), want)


def test_direction_clusters_flag_a_split_at_half_the_threshold():
    """Two tight groups 0.07 apart in CP^1 are one class at threshold 0.1
    and two at 0.05: the clustering is not stable."""
    rng = np.random.default_rng(3)
    theta = np.concatenate([rng.uniform(0.0, 0.01, 20), rng.uniform(0.16, 0.17, 20)])
    z = np.column_stack([np.cos(theta / 2), np.sin(theta / 2)]).astype(complex)
    w = rng.uniform(0.5, 1.5, len(z))
    got = bl._direction_clusters(z, w, 0.3, 0.1)
    assert len(got) == 1 and not got.stable
    _assert_same_clusters(got, _direction_clusters_reference(z, w, 0.3, 0.1))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([2, 3]))
def test_property_direction_clusters_match_two_matrix_reference(seed, n):
    """On clouds scattered around a few centers of CP^{n-1}, at random
    thresholds, some of which split a class at half the threshold, one
    distance matrix gives the reference's representatives, weights,
    diameters and stability bit for bit."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((rng.integers(1, 5), n, 2)) @ [1, 1j]
    pick = rng.integers(len(centers), size=rng.integers(1, 80))
    noise = rng.standard_normal((len(pick), n, 2)) @ [1, 1j]
    z = centers[pick] + rng.uniform(0.0, 0.3) * noise
    z /= np.linalg.norm(z, axis=1)[:, None]
    w = rng.uniform(0.0, 2.0, len(z))
    threshold = rng.uniform(0.02, 0.5)
    _assert_same_clusters(bl._direction_clusters(z, w, 0.5, threshold),
                          _direction_clusters_reference(z, w, 0.5, threshold))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([2, 3]))
def test_property_direction_phase(seed, n):
    """Cluster representatives and the pole do not depend on the phase of
    the eigenvector: the largest-modulus coordinate is real and positive,
    and the pole is a unit vector orthogonal to the direction."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2)) @ [1, 1j]
    rep = bl._unit_phase(z)
    k = np.argmax(np.abs(rep))
    assert rep[k].imag == 0.0 and rep[k].real > 0.0
    assert np.linalg.norm(rep) == pytest.approx(1.0, abs=1e-15)
    phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
    assert np.abs(bl._unit_phase(phase * z) - rep).max() <= 1e-15
    pole = bl._orthogonal_line(rep)
    assert abs(np.vdot(rep, pole)) <= 1e-15
    assert np.linalg.norm(pole) == pytest.approx(1.0, abs=1e-15)
    if n == 2:
        want = np.array([-np.conj(rep[1]), np.conj(rep[0])])
        assert np.abs(bl._unit_phase(want) - pole).max() <= 1e-15


def test_dirichlet_pole_is_canonical(graph_graded):
    """The graded graph's dominant direction is [1 : 0]; its pole is (0, 1)
    with the phase fixed: the second coordinate real and positive."""
    ladder = 0.4 * 0.7 ** np.arange(2)
    _, _, pole = bl.dirichlet_iteration(graph_graded, X0, ladder)
    assert np.abs(pole - [0.0, 1.0]).max() <= 1e-12
    assert pole[1].imag == 0.0 and pole[1].real > 0.0


def test_directions_single_line(disk):
    D = bl.tangent_directions(disk, X0, 0.5)
    assert len(D) == 1
    assert D.weights[0] == pytest.approx(1.0, rel=0.02)
    assert D.stable


def test_directions_two_lines(lines):
    D = bl.tangent_directions(lines, X0, 0.5)
    assert len(D) == 2
    assert np.abs(D.weights - 1.0).max() <= 0.02
    dist = xt._fs_dist_matrix(D.representatives, D.representatives)[0, 1]
    assert dist == pytest.approx(math.pi / 2, abs=0.02)


def test_directions_cusp_scales(cusp):
    prev_diam = None
    for r in (0.1, 0.05, 0.025):
        D = bl.tangent_directions(cusp, X0, r)
        assert len(D) == 1
        if prev_diam is not None:
            assert D.diameters[0] <= prev_diam
        prev_diam = D.diameters[0]
    assert D.weights[0] == pytest.approx(2.0, rel=0.05)


def test_directions_weight_matches_density(graph):
    D = bl.tangent_directions(graph, X0, 0.4)
    theta = cur.mass(graph, cur.Region.ball(X0, 0.4)) / 0.4**2
    assert D.weights.sum() == pytest.approx(theta / math.pi, rel=0.1)


def test_uniqueness_gap_values(disk, graph):
    lines = ex.two_lines(h=0.02)
    for r in (0.6, 0.3):
        assert bl.uniqueness_gap(disk, X0, r) <= 1e-6
        assert bl.uniqueness_gap(lines, X0, r) <= 1e-4
    # decreasing along the ladder for calibrated examples
    for C in (disk, graph, lines):
        gaps = [bl.uniqueness_gap(C, X0, r) for r in (0.6, 0.42, 0.3)]
        # slice discretization leaves noise of order (h/r)^2 on the gaps,
        # so the slack is the same floor asserted above
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + 1e-4


def test_uniqueness_gap_cusp_rate(cusp):
    radii = 0.4 * 0.7 ** np.arange(6)
    gaps = np.array([bl.uniqueness_gap(cusp, X0, r) for r in radii])
    assert np.all(gaps > 0)
    coef, res = np.polyfit(np.log(radii), np.log(gaps), 1), None
    gamma = coef[0]
    pred = np.polyval(coef, np.log(radii))
    rms = float(np.sqrt(np.mean((np.log(gaps) - pred) ** 2)))
    assert gamma > 0
    assert rms <= 0.15


def test_cone_concentration(disk, lines, cusp):
    D = bl.tangent_directions(disk, X0, 0.5)
    assert bl.cone_concentration(disk, X0, 0.5, D, 0.3) <= 1e-12

    # supplying only one of the two line directions leaves half the mass out
    Dl = bl.tangent_directions(lines, X0, 0.5)
    one = bl.DirectionCluster(Dl.representatives[:1], Dl.weights[:1],
                              Dl.scale, Dl.threshold)
    frac = bl.cone_concentration(lines, X0, 0.5, one, 0.3)
    assert frac == pytest.approx(0.5, abs=0.05)

    Dc = bl.tangent_directions(cusp, X0, 0.1)
    f_big = bl.cone_concentration(cusp, X0, 0.2, Dc, 0.3)
    f_small = bl.cone_concentration(cusp, X0, 0.05, Dc, 0.3)
    assert f_small <= f_big / 2


def test_goodslice_search(disk, graph, cusp):
    rho, smass, senergy = bl.goodslice_search(disk, X0, 0.6)
    assert 0.3 <= rho <= 0.6
    assert senergy <= 1e-10
    for C in (graph, cusp):
        for r in (0.5, 0.25):
            rho, smass, senergy = bl.goodslice_search(C, X0, r)
            assert r / 2 <= rho <= r
            assert smass > 0



def test_slice_energy_uses_the_chord_owner(cusp, graph):
    """Each slice chord gets the tangent of the triangle it lies on, not of
    the triangle with the nearest centroid."""
    for C in (cusp, graph):
        for rho in (0.1, 0.35):
            S = cur.slice_sphere(C, X0, rho)
            tri = C.corners()[S.owners]
            mids = S.midpoints()
            q, _ = cur._closest_points_on_triangles(
                mids, tri[:, 0], tri[:, 1], tri[:, 2])
            assert len(S) > 0 and len(S.owners) == len(S)
            assert np.max(np.linalg.norm(q - mids, axis=1)) <= 1e-9
    # the nearest-centroid tangents gave 4.864 here
    S = cur.slice_sphere(cusp, X0, 0.1)
    assert bl._slice_energy(cusp, S, X0) == pytest.approx(4.358, abs=5e-3)


@pytest.mark.parametrize("region_kind", ["ball", "cylinder"])
def test_density_trace_on_dilation_matches_mass(region_kind):
    """On a dilated current, a ladder on both sides of the clip radius 1
    gives the masses of `mass` region by region: the clip sweep inside the
    clip ball, subdivision outside it or off its center."""
    D = cur.dilate(ex.holomorphic_graph(k=2, h=0.1), X0, 0.5)
    assert D.clip_radius == 1.0
    for x0 in (X0, D.centroids[0]):
        tr = bl.density_trace(D, x0, 1.1, N=4, q=0.8, region_kind=region_kind)
        assert np.any(tr.radii > 1.0) and np.any(tr.radii < 1.0)
        if region_kind == "ball":
            regions = [cur.Region.ball(x0, r) for r in tr.radii]
        else:
            regions = [cur.Region.cylinder(x0, r) for r in tr.radii]
        assert np.array_equal(tr.masses, [cur.mass(D, R) for R in regions])

def test_dirichlet_iteration_flat(disk):
    ladder = 0.6 * 0.5 ** np.arange(4)
    energies, factors, _ = bl.dirichlet_iteration(disk, X0, ladder)
    assert np.all(energies <= 1e-10)


def test_dirichlet_iteration_graph(graph_graded):
    ladder = 0.4 * 0.5 ** np.arange(5)
    energies, factors, pole = bl.dirichlet_iteration(graph_graded, X0, ladder)
    # closed form: E(r) = 2 pi s^2 / (1 + s^2) with s the parameter radius
    # of the ambient ball, s^2 + s^4 = r^2
    s2 = np.array([np.roots([1, 1, -r**2]).max() for r in ladder]).real
    want = 2 * math.pi * s2 / (1 + s2)
    assert np.abs(energies / want - 1.0).max() <= 0.05
    # the decay factor starts at 0.304 (closed form at r = 0.4) and
    # approaches 1/4 at small radius
    assert np.all(factors <= 0.31)
    assert factors[-1] == pytest.approx(0.25, abs=0.02)


def test_dirichlet_iteration_cusp(cusp):
    ladder = 0.4 * 0.6 ** np.arange(6)
    energies, factors, _ = bl.dirichlet_iteration(cusp, X0, ladder)
    assert np.all(factors < 0.9)


def test_rate_fit_graph():
    C = ex.holomorphic_graph(k=2, h=0.01)
    tr = bl.density_trace(C, X0, 0.8, N=8, region_kind="cylinder")
    fit = bl.rate_fit(tr, mode="A", theta_hat=math.pi)
    assert fit.exponent == pytest.approx(2.0, abs=0.05)
    assert fit.amplitude == pytest.approx(2 * math.pi, rel=0.05)
    fitB = bl.rate_fit(tr, mode="B")
    assert fitB.exponent == pytest.approx(2.0, abs=0.1)
    assert fitB.theta_hat == pytest.approx(math.pi, rel=0.01)


def test_rate_fit_exact_cone(disk):
    tr = bl.density_trace(disk, X0, 0.8)
    fit = bl.rate_fit(tr, mode="A", theta_hat=math.pi)
    assert fit.exact_cone
    assert bl.rate_fit(tr, mode="B").exact_cone


def test_rate_fit_cusp(cusp):
    tr = bl.density_trace(cusp, X0, 0.3, N=8)
    fit = bl.rate_fit(tr, mode="B")
    assert fit.exponent > 0
    assert fit.residual_rms <= 0.1


def test_rate_fit_validation(disk):
    tr = bl.density_trace(disk, X0, 0.8)
    with pytest.raises(ValueError):
        bl.rate_fit(tr, mode="A")  # mode A needs the limit
    with pytest.raises(ValueError):
        bl.rate_fit(tr, mode="C")
    bad = bl.DensityTrace(X0, tr.radii, tr.masses * (1 + 0.1 * np.arange(8)))
    with pytest.raises(ValueError):
        bl.rate_fit(bad, mode="B")
