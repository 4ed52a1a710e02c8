"""Calibration fields: constant symplectic, tubular, Fubini-Study, SL form."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curlab import calibrations as cal
from curlab import currents as cur
from curlab import examples as ex
from curlab import exterior as xt


def test_standard_symplectic_values():
    field = cal.standard_symplectic(4)
    om = field.evaluate(np.zeros(4))
    e12 = xt.simple_2vector([1, 0, 0, 0], [0, 1, 0, 0])
    e13 = xt.simple_2vector([1, 0, 0, 0], [0, 0, 1, 0])
    assert xt.pairing(om, e12) == pytest.approx(1.0, abs=1e-14)
    assert abs(xt.pairing(om, e13)) < 1e-14
    assert xt.comass2(om) == pytest.approx(1.0, abs=1e-12)
    assert field.closed


def test_standard_symplectic_rejects_odd():
    with pytest.raises(ValueError):
        cal.standard_symplectic(5)


def _normal_at(C, k, rng):
    """A unit vector orthogonal to triangle k's plane."""
    e1, e2 = xt.plane_basis(xt.MultiVector(C.m, 2, C.tangents[k]))
    v = rng.standard_normal(C.m)
    v -= (v @ e1) * e1 + (v @ e2) * e2
    return v / np.linalg.norm(v)


@pytest.fixture(scope="module")
def tube_pair():
    """A small non-holomorphic graph and its tubular calibration."""
    C = ex.nonholo_graph(h=0.06, rmax=0.6)
    return C, cal.tubular_calibration(C, 0.05)


def test_tubular_flat_plane_is_constant():
    C = ex.flat_disk(h=0.1, rmax=0.6)
    field = cal.tubular_calibration(C, 0.1)
    nb = len(xt.blades(4, 2))
    dx12 = np.eye(nb)[xt.blade_index(4, (0, 1))]
    rng = np.random.default_rng(2)
    for k in rng.choice(len(C), 20, replace=False):
        for off in (0.0, 0.03):
            x = C.centroids[k] + off * _normal_at(C, k, rng)
            got = field.evaluate(x).coeffs
            assert np.allclose(got, dx12, atol=1e-9)


def test_tubular_rejects_bad_radius():
    C = ex.flat_disk(h=0.1, rmax=0.6)
    with pytest.raises(ValueError):
        cal.tubular_calibration(C, -0.1)


def test_tubular_on_surface_calibrates(tube_pair):
    C, field = tube_pair
    vals = field.evaluate_many(C.centroids)
    pairings = np.einsum("pc,pc->p", vals, C.tangents)
    assert np.abs(pairings - 1.0).max() <= 1e-6


def test_tubular_comass_sampled(tube_pair):
    C, field = tube_pair
    rng = np.random.default_rng(3)
    idx = rng.choice(len(C), 400, replace=True)
    pts = []
    for k in idx:
        n = _normal_at(C, k, rng)
        pts.append(C.centroids[k] + rng.uniform(-0.05, 0.05) * n)
    vals = field.evaluate_many(np.array(pts))
    for row in vals:
        assert xt.comass2(xt.MultiForm(4, 2, row)) <= 1.0 + 1e-6


def test_tubular_defect(tube_pair):
    C, field = tube_pair
    d = cal.calibration_defect(C, field)
    assert -1e-8 <= d <= 1e-6 * cur.mass(C)


def test_tubular_genuinely_nonclosed(tube_pair):
    """dA of the field is nonzero inside the cutoff shell."""
    C, field = tube_pair
    assert not field.closed
    rng = np.random.default_rng(5)
    best = 0.0
    for k in rng.choice(len(C), 10, replace=False):
        x = C.centroids[k] + 0.75 * field.delta * _normal_at(C, k, rng)
        best = max(best, cal.exterior_derivative_fd(field, x, h=1e-4).norm())
    assert best >= 1e-3


def _wedge_reference(u, v):
    """The grade-2 coordinates u_i v_j - u_j v_i, i < j, of u ^ v."""
    return np.array([u[i] * v[j] - u[j] * v[i]
                     for i, j in itertools.combinations(range(len(u)), 2)])


def _closest_on_triangle_reference(p, a, b, c):
    """Scalar closest point of triangle (a,b,c) to p, with barycentric
    coordinates (Ericson, Real-Time Collision Detection, 5.1.5). Inside,
    the coordinates are <ap ^ ac, ab ^ ac> / |ab ^ ac|^2 and
    <ab ^ ap, ab ^ ac> / |ab ^ ac|^2: Ericson's vb / (va + vb + vc) and
    vc / (va + vb + vc) are off the exact coordinates by up to 1.6e-12
    on thin triangles."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = ab @ ap
    d2 = ac @ ap
    if d1 <= 0 and d2 <= 0:
        return a, (1.0, 0.0, 0.0)
    bp = p - b
    d3 = ab @ bp
    d4 = ac @ bp
    if d3 >= 0 and d4 <= d3:
        return b, (0.0, 1.0, 0.0)
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        v = d1 / (d1 - d3)
        return a + v * ab, (1 - v, v, 0.0)
    cp = p - c
    d5 = ab @ cp
    d6 = ac @ cp
    if d6 >= 0 and d5 <= d6:
        return c, (0.0, 0.0, 1.0)
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        w = d2 / (d2 - d6)
        return a + w * ac, (1 - w, 0.0, w)
    va = d3 * d6 - d5 * d4
    if va <= 0 and (d4 - d3) >= 0 and (d5 - d6) >= 0:
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return b + w * (c - b), (0.0, 1 - w, w)
    n = _wedge_reference(ab, ac)
    v = (_wedge_reference(ap, ac) @ n) / (n @ n)
    w = (_wedge_reference(ab, ap) @ n) / (n @ n)
    return a + ab * v + ac * w, (1 - v - w, v, w)


def _tubular_row_reference(field, x):
    """The tubular field at x, one triangle at a time over all triangles.

    The nearest triangle is the lowest-index one within field.tie of the
    least distance, the tie rule of `TubularField`.
    """
    S = field.S
    found = [(float(np.linalg.norm(x - q)), t, bary) for t, (q, bary) in
             enumerate(_closest_on_triangle_reference(x, *abc) for abc in S.corners())]
    least = min(f[0] for f in found)
    d, t, bary = next(f for f in found if f[0] <= least + field.tie)
    if d >= field.delta:
        return np.zeros(len(xt.blades(field.m, 2)))
    tangents = S.tangents
    coeffs = np.array(tangents[t])
    for slot in range(3):
        s = float(cal._smoothstep_down(bary[slot] / field.BAND))
        if s <= 0.0:
            continue
        nb = field.neighbors[t, slot]
        if nb < 0:
            continue
        coeffs = coeffs + 0.5 * s * (tangents[nb] - tangents[t])
    form = xt.MultiForm(field.m, 2, coeffs)
    cm = xt.comass2(form)
    if cm <= 0:
        return np.zeros_like(coeffs)
    eta = float(cal._smoothstep_down((d - 0.5 * field.delta) / (0.5 * field.delta)))
    return (eta / cm) * np.asarray(form.coeffs)


def _kernel_points(a, b, c, rng):
    """Points in each of the seven Voronoi regions of triangle (a, b, c),
    pushed off its plane, with the region the scalar test must report."""
    e, f = xt.plane_frames(xt.simple_2vector(b - a, c - a).coeffs[None], 4)
    e, f = e[0], f[0]

    def unit(v):
        return v / np.linalg.norm(v)

    def off_plane():
        v = rng.standard_normal(4)
        v -= (v @ e) * e + (v @ f) * f
        return rng.uniform(0.0, 2.0) * v

    pts, want = [], []
    for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
        # past vertex p, inside its normal cone
        out = unit(p - q) + unit(p - r)
        pts.append(p + rng.uniform(0.1, 2.0) * out + off_plane())
        want.append("vertex")
        # beyond the middle of edge pq, in the plane away from r
        n = r - p - ((r - p) @ unit(q - p)) * unit(q - p)
        pts.append(0.5 * (p + q) - rng.uniform(0.1, 2.0) * unit(n) + off_plane())
        want.append("edge")
    w = rng.dirichlet(np.ones(3))
    pts.append(w[0] * a + w[1] * b + w[2] * c + off_plane())
    want.append("interior")
    return pts, want


def _region(bary):
    zeros = sum(1 for x in bary if x == 0.0)
    return {2: "vertex", 1: "edge", 0: "interior"}[zeros]


def _closest_case(seed):
    """A random triangle (a, b, c) in R^4 and points P: those of
    `_kernel_points`, whose regions are `want`, the vertices themselves,
    points on the edges and random points."""
    rng = np.random.default_rng(seed)
    while True:
        a, b, c = rng.standard_normal((3, 4)) * rng.uniform(0.01, 10.0)
        if xt.simple_2vector(b - a, c - a).norm() > 1e-3 * np.linalg.norm(b - a) ** 2:
            break
    pts, want = _kernel_points(a, b, c, rng)
    pts += [a, b, c]
    pts += [p + s * (q - p) for p, q in ((a, b), (b, c), (c, a))
            for s in rng.uniform(0, 1, 2)]
    pts += list(a + rng.standard_normal((8, 4)) * np.linalg.norm(b - a))
    return np.array(pts), want, a, b, c


def _closest_barycentrics_exact(p, a, b, c):
    """The closest point's barycentric coordinates in exact rational
    arithmetic on the given doubles: the projection onto the plane when it
    lies in the triangle, else the nearest of the three clamped edge
    projections."""
    p, a, b, c = ([Fraction(float(x)) for x in v] for v in (p, a, b, c))

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def point(s, t):
        return [x + s * (y - x) + t * (z - x) for x, y, z in zip(a, b, c)]

    ab, ac, ap = ([x - y for x, y in zip(u, a)] for u in (b, c, p))
    g11, g12, g22 = dot(ab, ab), dot(ab, ac), dot(ac, ac)
    det = g11 * g22 - g12 * g12
    s = (dot(ab, ap) * g22 - dot(ac, ap) * g12) / det
    t = (g11 * dot(ac, ap) - g12 * dot(ab, ap)) / det
    if s >= 0 and t >= 0 and s + t <= 1:
        return s, t
    best = None
    for (s0, t0), (s1, t1) in (((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 1))):
        o, e = point(s0, t0), [y - x for x, y in zip(point(s0, t0), point(s1, t1))]
        u = min(max(dot([x - y for x, y in zip(p, o)], e) / dot(e, e), Fraction(0)),
                Fraction(1))
        on = (s0 + u * (s1 - s0), t0 + u * (t1 - t0))
        off = [x - y for x, y in zip(p, point(*on))]
        if best is None or dot(off, off) < best[0]:
            best = (dot(off, off), on)
    return best[1]


def test_closest_points_match_exact_arithmetic_on_a_thin_triangle():
    """On the draw of seed 4535 (longest edge squared 240 times |ab ^ ac|,
    points up to 85 off the plane), the kernel's and the reference's
    barycentric coordinates are within 5e-14 of the exact ones. Ericson's
    inside coordinates were off by up to 1.8e-12 in the kernel and 1.6e-12
    in the reference."""
    P, _, a, b, c = _closest_case(4535)
    _, bary = cal._closest_points_on_triangles(P, a, b, c)
    for k, p in enumerate(P):
        s, t = _closest_barycentrics_exact(p, a, b, c)
        exact = np.array([float(1 - s - t), float(s), float(t)])
        assert np.abs(bary[k] - exact).max() <= 5e-14
        _, ref = _closest_on_triangle_reference(p, a, b, c)
        assert np.abs(np.array(ref) - exact).max() <= 5e-14


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
@example(seed=4535)  # a thin triangle, where Ericson's inside coordinates lose digits
def test_property_closest_points_on_triangles_matches_reference(seed):
    P, want, a, b, c = _closest_case(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, bary = cal._closest_points_on_triangles(P, a, b, c)
        q2, bary2 = cal._closest_points_on_triangles(P[:, None, :], a[None], b[None],
                                                     c[None])
    assert q.shape == P.shape and bary.shape == (len(P), 3)
    assert np.array_equal(q2[:, 0], q) and np.array_equal(bary2[:, 0], bary)
    scale = max(np.abs(P).max(), np.abs([a, b, c]).max())
    for k, p in enumerate(P):
        q_ref, bary_ref = _closest_on_triangle_reference(p, a, b, c)
        if k < len(want):
            assert _region(bary_ref) == want[k]
        assert np.abs(q[k] - q_ref).max() <= 1e-12 * scale
        assert np.abs(bary[k] - np.array(bary_ref)).max() <= 1e-12
    # on a vertex both give the vertex itself and its unit coordinates
    for k, v in enumerate((a, b, c)):
        row = len(want) + k
        assert np.array_equal(q[row], v)
        assert np.array_equal(bary[row], np.eye(3)[k])


def _graph_z2(radii, n_theta):
    """Graph of z -> z^2 over a polar parameter disk: many thin triangles
    meet at the center, and neighbours of a point spread along the rings."""
    pts, tris = ex.param_disk(radii, n_theta)
    z = pts[:, 0] + 1j * pts[:, 1]
    w = z**2
    verts = np.column_stack([z.real, z.imag, w.real, w.imag])
    return cur.TriCurrent(verts, tris, np.ones(len(tris), int))


def _far_cluster():
    """A large triangle in the e1 e2 plane and, 0.2 above it in e3, a fan of
    16 small triangles: near (1, 1) the 16 nearest centroids are the fan's,
    yet the large triangle is the nearest one."""
    pts, tris = ex.param_disk([0.05], 16)
    verts = np.zeros((len(pts) + 3, 4))
    verts[:len(pts), :2] = pts + 1.0
    verts[:len(pts), 2] = 0.2
    verts[len(pts):, :2] = [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]
    n = len(pts)
    tris = np.vstack([tris, [[n, n + 1, n + 2]]])
    return cur.TriCurrent(verts, tris, np.ones(len(tris), int))


@pytest.fixture(scope="module")
def tube_fields():
    return [cal.tubular_calibration(ex.nonholo_graph(h=0.25, rmax=0.6), 0.05),
            cal.tubular_calibration(_graph_z2(np.array([0.1, 0.2, 0.3]), 64), 0.05),
            cal.tubular_calibration(_far_cluster(), 0.05)]


def _tube_points(field, rng, n):
    """Points on the surface, in the edge bands, off it up to 1.2 delta and
    outside the tube."""
    S, delta = field.S, field.delta
    idx = rng.integers(0, len(S), n)
    bary = rng.dirichlet(np.ones(3), n)
    band = rng.random(n) < 0.3  # one coordinate inside the blending band
    slot = rng.integers(0, 3, n)
    bary[band, slot[band]] = rng.uniform(0.0, 1.5 * field.BAND, band.sum())
    bary /= bary.sum(axis=1)[:, None]
    on = np.einsum("pb,pbm->pm", bary, S.corners()[idx])
    e, f = xt.plane_frames(S.tangents[idx], S.m)
    v = rng.standard_normal((n, S.m))
    v -= (np.einsum("pi,pi->p", v, e)[:, None] * e
          + np.einsum("pi,pi->p", v, f)[:, None] * f)
    v /= np.linalg.norm(v, axis=1)[:, None]
    height = np.where(rng.random(n) < 0.25, 0.0, rng.uniform(0.0, 1.2 * delta, n))
    height[rng.random(n) < 0.15] = rng.uniform(1.2 * delta, 4.0 * delta)
    return on + height[:, None] * v


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([0, 1, 2]))
@example(seed=30897, which=1)  # P[3] is equidistant from triangles 127 and 128
def test_property_tubular_field_matches_reference(tube_fields, seed, which):
    field = tube_fields[which]
    rng = np.random.default_rng(seed)
    P = _tube_points(field, rng, 24)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = field.evaluate_many(P)
    want = np.array([_tubular_row_reference(field, x) for x in P])
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12
    one = field.evaluate(P[0])
    assert one.comass_bound == 1.0
    assert np.abs(one.coeffs - want[0]).max() <= 1e-12
    assert np.abs(field.evaluate_many(P[:1]) - want[:1]).max() <= 1e-12
    assert field.evaluate_many(np.zeros((0, field.m))).shape == (0, want.shape[1])


def test_tubular_field_searches_past_the_first_candidates():
    C = _far_cluster()
    field = cal.tubular_calibration(C, 0.05)
    x = np.array([1.02, 0.97, 0.0, 0.0])
    _, near = field.tree.query(x, k=field.K_CANDIDATES)
    assert len(C) - 1 not in near  # the owning triangle is not a candidate
    want = np.eye(len(xt.blades(4, 2)))[xt.blade_index(4, (0, 1))]
    assert np.array_equal(field.evaluate(x).coeffs, want)
    assert np.array_equal(field.evaluate_many(np.tile(x, (3, 1))),
                          np.tile(want, (3, 1)))


def test_tubular_field_calibrates_its_own_mesh():
    # every quadrature point lies on its own facet, outside the edge bands
    # (smallest barycentric coordinate 0.0299 > BAND after refinement), so
    # the field is that facet's dual there and the defect is roundoff
    C = ex.holomorphic_graph(k=2, h=0.15)
    field = cal.tubular_calibration(C, 0.05)
    m = cur.mass(C)
    assert abs(cal.calibration_defect(C, field)) <= 1e-12 * m


def _two_disks(gap):
    D = ex.flat_disk(h=0.1, rmax=0.5)
    lifted = D.vertices.copy()
    lifted[:, 2] += gap
    tris = np.vstack([D.triangles, D.triangles + len(D.vertices)])
    return cur.TriCurrent(np.vstack([D.vertices, lifted]), tris,
                          np.ones(len(tris), int))


def test_tubular_reach_check():
    with pytest.raises(ValueError, match="reach"):
        cal.tubular_calibration(_two_disks(0.06), 0.05)
    cal.tubular_calibration(_two_disks(0.25), 0.05)
    # the meshes the tests, the CLI defaults and the benchmark build fields on
    for C, delta in ((ex.nonholo_graph(h=0.06), 0.05),
                     (ex.nonholo_graph(h=0.06, rmax=0.6), 0.05),
                     (ex.nonholo_graph(h=0.25), 0.05),
                     (ex.holomorphic_graph(k=2, h=0.15), 0.05),
                     (ex.flat_disk(h=0.1, rmax=0.6), 0.1)):
        cal.tubular_calibration(C, delta)


def test_tubular_edge_neighbors():
    T = ex.nonholo_graph(h=0.25).triangles
    nb = cal._edge_neighbors(T)
    for t, tri in enumerate(T):
        for slot in range(3):
            edge = {tri[(slot + 1) % 3], tri[(slot + 2) % 3]}
            others = [u for u in range(len(T)) if u != t and edge <= set(T[u])]
            assert nb[t, slot] == (others[0] if len(others) == 1 else -1)
    # an edge shared by three triangles has no neighbour across it
    fin = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    assert np.array_equal(cal._edge_neighbors(fin)[:, 2], [-1, -1, -1])


def _exterior_derivative_fd_reference(field, x, h=1e-5):
    """The finite-difference d of a 2-form field, one point at a time."""
    m = field.m
    i2, j2 = xt.pairs2(m)
    grad = np.zeros((m, len(i2)))
    for d in range(m):
        e = np.zeros(m)
        e[d] = h
        grad[d] = (field.evaluate(x + e).coeffs
                   - field.evaluate(x - e).coeffs) / (2 * h)
    lookup = {(int(a), int(b)): k for k, (a, b) in enumerate(zip(i2, j2))}
    return np.array([grad[a][lookup[(b, c)]] - grad[b][lookup[(a, c)]]
                     + grad[c][lookup[(a, b)]] for (a, b, c) in xt.blades(m, 3)])


def test_exterior_derivative_fd_matches_pointwise(tube_pair):
    C, field = tube_pair
    rng = np.random.default_rng(11)
    for k in rng.choice(len(C), 4, replace=False):
        x = C.centroids[k] + 0.75 * field.delta * _normal_at(C, k, rng)
        got = cal.exterior_derivative_fd(field, x, h=1e-4).coeffs
        assert np.array_equal(got, _exterior_derivative_fd_reference(field, x, h=1e-4))
    sl = cal.special_legendrian()
    x = np.array([1.0, 0.2, -0.3, 0.1, 0.0, 0.4])
    assert np.array_equal(cal.exterior_derivative_fd(sl, x).coeffs,
                          _exterior_derivative_fd_reference(sl, x))
    # m = 2 has no grade-3 blades: d is the empty 3-form
    for fs, x in ((cal.fubini_study(2), np.array([0.3, -0.7])),
                  (cal.fubini_study(3), np.array([0.3, -0.7, 0.2, 0.5]))):
        got = cal.exterior_derivative_fd(fs.field, x).coeffs
        assert got.shape == (len(xt.blades(fs.mreal, 3)),)
        assert np.array_equal(got, _exterior_derivative_fd_reference(fs.field, x))


def test_defect_holomorphic_graph():
    # fine mesh: the secant-plane defect of the triangulation is O(h^2)
    C = ex.holomorphic_graph(k=2, h=0.003)
    field = cal.standard_symplectic(4)
    d = cal.calibration_defect(C, field)
    assert -1e-8 <= d <= 1e-6 * cur.mass(C)


def test_defect_two_lines_exact():
    C = ex.two_lines(h=0.05)
    d = cal.calibration_defect(C, cal.standard_symplectic(4))
    assert -1e-8 <= d <= 1e-10 * cur.mass(C)


def test_defect_anticomplex_plane():
    # a disk in the e1 e3 plane pairs to zero with the symplectic form
    pts, tris = ex.param_disk(np.linspace(0.1, 1.0, 10), 32)
    verts = np.zeros((len(pts), 4))
    verts[:, 0] = pts[:, 0]
    verts[:, 2] = pts[:, 1]
    C = cur.TriCurrent(verts, tris, np.ones(len(tris), int))
    d = cal.calibration_defect(C, cal.standard_symplectic(4))
    assert d == pytest.approx(cur.mass(C), rel=1e-10)


def test_defect_requires_unit_comass():
    C = ex.flat_disk(h=0.1)
    field = cal.special_legendrian()
    with pytest.raises(ValueError):
        cal.calibration_defect(C, field)


def _d_of_1form(fs, x, h=1e-5):
    """Finite-difference exterior derivative of the primitive alpha."""
    m = fs.mreal
    grad = np.zeros((m, m))
    for d in range(m):
        e = np.zeros(m)
        e[d] = h
        grad[d] = (fs.alpha(x + e).coeffs - fs.alpha(x - e).coeffs) / (2 * h)
    i, j = xt.pairs2(m)
    return grad[i, j] - grad[j, i]


@pytest.mark.parametrize("n", [2, 3])
def test_fubini_study_primitive(n):
    fs = cal.fubini_study(n)
    rng = np.random.default_rng(n)
    pts = rng.standard_normal((1000, fs.mreal)) * 0.8
    worst = 0.0
    for x in pts:
        da = _d_of_1form(fs, x)
        om = fs.field.evaluate(x).coeffs
        worst = max(worst, np.abs(da - om).max())
    assert worst <= 1e-5


def test_fubini_study_line_area():
    # total area of CP^1 in the affine chart: 2 pi r / (1 + r^2)^2 dr
    fs = cal.fubini_study(2)
    r = np.linspace(0.0, 150.0, 400_001)
    dens = 2 * math.pi * r / (1 + r**2) ** 2
    # chart density equals the single form coefficient
    mid = fs.field.evaluate(np.array([0.3, -0.4]))
    K = 1 + 0.25
    assert mid.coeffs[0] == pytest.approx(1 / K**2, rel=1e-12)
    area = np.trapezoid(dens, r)
    assert area == pytest.approx(math.pi, rel=5e-3)


def test_fubini_study_comass_sampled():
    fs = cal.fubini_study(3)
    rng = np.random.default_rng(9)
    for x in rng.standard_normal((500, 4)):
        om = fs.field.evaluate(x)
        assert xt.comass2(om) <= 1.0 + 1e-6


def test_fubini_study_distance():
    fs = cal.fubini_study(2)
    assert fs.fs_distance([1, 0], [0, 1]) == pytest.approx(math.pi / 2)
    # full precision near coincident classes, where arccos |<a, b>| of
    # unit rows returns 2.1e-8, 0.0 and 1.0000444e-6
    assert fs.fs_distance([1, 1], [2, 2]) == pytest.approx(0.0, abs=1e-15)
    assert fs.fs_distance([1, 0], [1, 1e-9]) == pytest.approx(1e-9, rel=1e-12)
    assert fs.fs_distance([1, 0], [1, 1e-6]) == pytest.approx(1e-6, rel=1e-12)


def _fs_rows_reference(n, x):
    """The per-point Fubini-Study evaluator the batched field replaced."""
    m = 2 * (n - 1)
    w = xt._complex_rows(x)
    K = 1.0 + float(np.vdot(w, w).real)
    H = np.eye(n - 1, dtype=complex) / K - np.outer(np.conj(w), w) / K**2
    C = xt._complex_matrix(m)
    return xt._rows_from_skew(-np.imag(C.T @ H @ C.conj()))


def _sl_rows_reference(x):
    """The per-point Special Legendrian evaluator the batched field replaced."""
    z = xt._complex_rows(x)
    F = np.zeros((6, 6))
    for i in range(3):
        re, im = z[i].real, z[i].imag
        xa, xb = 2 * ((i + 1) % 3), 2 * ((i + 2) % 3)
        ya, yb = xa + 1, xb + 1
        for (p, q, s) in ((xa, xb, re), (ya, yb, -re), (xa, yb, -im), (ya, xb, -im)):
            F[p, q] += s
            F[q, p] -= s
    return xt._rows_from_skew(F)


def _batched_case(which):
    """(field, per-point reference, closed, comass bound, tolerance)."""
    if which.startswith("fs"):
        n = int(which[2:])
        return (cal.fubini_study(n).field, lambda x: _fs_rows_reference(n, x),
                True, 1.0, 1e-15)
    if which == "sl":
        return cal.special_legendrian(), _sl_rows_reference, False, None, 0.0
    w = xt.omega0(4).coeffs
    return cal.standard_symplectic(4), lambda x: w, True, 1.0, 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(["fs2", "fs3", "fs4", "sl", "omega0"]),
       st.integers(min_value=0, max_value=16))
def test_property_batched_fields_match_pointwise(seed, which, P):
    """Each field's batch rows agree with the per-point evaluator it
    replaced (Fubini-Study within 1e-15, the others bit for bit), and
    evaluate(x) is its batch row with the field's comass bound."""
    field, reference, closed, bound, tol = _batched_case(which)
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((P, field.m)) * rng.uniform(0.05, 4.0)
    n2 = len(xt.blades(field.m, 2))
    rows = field.evaluate_many(pts)
    assert rows.shape == (P, n2)
    assert field.evaluate_many(np.empty((0, field.m))).shape == (0, n2)
    want = np.array([reference(x) for x in pts]).reshape(P, n2)
    if tol:
        assert np.abs(rows - want).max(initial=0.0) <= tol
    else:
        assert np.array_equal(rows, want)
    for x, row in zip(pts, rows):
        om = field.evaluate(x)
        assert om.coeffs.tobytes() == row.tobytes()
        assert om.comass_bound == bound
    assert field.closed is closed
    assert field.comass_bound == bound


def test_special_legendrian_base_point():
    field = cal.special_legendrian()
    om = field.evaluate(np.array([1.0, 0, 0, 0, 0, 0]))
    nb = len(xt.blades(6, 2))
    want = np.zeros(nb)
    want[xt.blade_index(6, (2, 4))] = 1.0
    want[xt.blade_index(6, (3, 5))] = -1.0
    assert np.allclose(om.coeffs, want, atol=1e-14)
    assert xt.comass2(om) == pytest.approx(1.0, abs=1e-12)


def test_special_legendrian_zero_at_origin():
    field = cal.special_legendrian()
    assert field.evaluate(np.zeros(6)).coeffs == pytest.approx(0.0, abs=1e-15)


def test_special_legendrian_nonclosed():
    field = cal.special_legendrian()
    d = cal.exterior_derivative_fd(field, np.array([1.0, 0, 0, 0, 0, 0]))
    assert d.norm() >= 1e-3


def test_retriangulation_invariance():
    """Pairing with a closed constant form only sees the boundary chain."""
    om = cal.standard_symplectic(4)

    def disk(radii):
        pts, tris = ex.param_disk(radii, 48)
        verts = np.zeros((len(pts), 4))
        verts[:, :2] = pts
        return cur.TriCurrent(verts, tris, np.ones(len(tris), int))

    A = disk(np.linspace(0.2, 1.0, 5))
    B = disk(np.concatenate([[0.07, 0.11], np.linspace(0.33, 1.0, 9)]))
    pa = cur.pair(A, om.evaluate(np.zeros(4)))
    pb = cur.pair(B, om.evaluate(np.zeros(4)))
    assert abs(pa - pb) <= 1e-8 * max(abs(pa), 1.0)
