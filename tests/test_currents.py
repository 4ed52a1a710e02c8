"""Triangle 2-currents: mass, pairing, slicing, decomposition, Poincare."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curlab import _clip as clip
from curlab import currents as cur
from curlab import examples as ex
from curlab import exterior as xt


@pytest.fixture(scope="module")
def disk():
    return ex.flat_disk(h=0.05)


@pytest.fixture(scope="module")
def graph():
    return ex.holomorphic_graph(k=2, h=0.02)


def _param_disk_reference(radii, n_theta):
    """param_disk's triangles, one ring slot at a time."""
    def ring(k, j):  # vertex index of ring k (1-based), slot j
        return 1 + (k - 1) * n_theta + (j % n_theta)

    tris = []
    for j in range(n_theta):
        tris.append((0, ring(1, j), ring(1, j + 1)))
    for k in range(1, len(radii)):
        for j in range(n_theta):
            a, b = ring(k, j), ring(k, j + 1)
            c, d = ring(k + 1, j), ring(k + 1, j + 1)
            tris.append((a, c, d))
            tris.append((a, d, b))
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    pts = [np.zeros((1, 2))]
    for r in np.asarray(radii, dtype=float):
        pts.append(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
    return np.vstack(pts), np.array(tris, dtype=int)


@pytest.mark.parametrize("radii, n_theta", [
    ([0.5], 3), ([0.5], 16), ([0.1, 0.2, 0.7], 5), (np.linspace(0.01, 1.0, 100), 628),
    (0.8 ** np.arange(30)[::-1], 64),
])
def test_param_disk_matches_loop(radii, n_theta):
    pts, tris = ex.param_disk(radii, n_theta)
    want_pts, want_tris = _param_disk_reference(radii, n_theta)
    assert np.array_equal(pts, want_pts)
    assert np.array_equal(tris, want_tris) and tris.dtype == want_tris.dtype


def _torus(n=24, R=2.0, r=1.0):
    """Closed torus of revolution embedded in the first 3 coordinates."""
    u = 2 * np.pi * np.arange(n) / n
    v = 2 * np.pi * np.arange(n) / n
    verts = []
    for a in u:
        for b in v:
            verts.append([(R + r * math.cos(b)) * math.cos(a),
                          (R + r * math.cos(b)) * math.sin(a),
                          r * math.sin(b), 0.0])
    tris = []
    for i in range(n):
        for j in range(n):
            p = i * n + j
            q = i * n + (j + 1) % n
            s = ((i + 1) % n) * n + j
            t = ((i + 1) % n) * n + (j + 1) % n
            tris.append((p, s, t))
            tris.append((p, t, q))
    return cur.TriCurrent(verts, tris, np.ones(len(tris), int))


def test_degenerate_triangle_rejected():
    with pytest.raises(ValueError):
        cur.TriCurrent(
            [[0, 0, 0, 0], [1, 0, 0, 0], [2, 0, 0, 0]], [(0, 1, 2)], [1]
        )


def _tricurrent_geometry_reference(V, T, M):
    """Areas, tangents, longest edges and centroids from per-corner gathers
    and an index-array skew product, on sign-normalized triangles."""
    V = np.asarray(V, dtype=float)
    T = np.array(T, dtype=int)
    flip = np.asarray(M) < 0
    T[flip] = T[flip][:, [0, 2, 1]]
    P0 = V[T[:, 0]]
    u = V[T[:, 1]] - P0
    w = V[T[:, 2]] - P0
    i, j = xt.pairs2(V.shape[1])
    skew = u[:, i] * w[:, j] - u[:, j] * w[:, i]
    norms = np.linalg.norm(skew, axis=1)
    sq = [np.einsum("ij,ij->i", e, e) for e in (u, w, w - u)]
    longest = np.sqrt(np.maximum(np.maximum(sq[0], sq[1]), sq[2]))
    centroids = (V[T[:, 0]] + V[T[:, 1]] + V[T[:, 2]]) / 3.0
    return 0.5 * norms, skew / norms[:, None], longest, centroids


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=6),
)
def test_property_tricurrent_geometry_matches_reference(seed, m):
    """The geometry built from one corner gather is the reference's, bit
    for bit and in the same memory layout, on random meshes in R^m with
    flipped (negative) triangles."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    V = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-3, 3)
    T = [rng.choice(n, 3, replace=False) for _ in range(int(rng.integers(1, 60)))]
    M = rng.choice([-3, -2, -1, 1, 2], len(T))
    C = cur.TriCurrent(V, T, M)
    want = _tricurrent_geometry_reference(V, T, M)
    got = (C.areas, C.tangents, C.longest_edges, C.centroids)
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.strides == w.strides
        assert np.array_equal(g, w)


def test_region_parameter_validation():
    with pytest.raises(ValueError):
        cur.Region.annulus(np.zeros(4), 0.5, 0.5)
    with pytest.raises(ValueError):
        cur.Region.cone_complement(np.zeros(4), [np.eye(4)[:, :2]], 1.5)


def test_flat_disk_ball_mass(disk):
    for r in (0.3, 0.6, 0.9):
        got = cur.mass(disk, cur.Region.ball(np.zeros(4), r))
        assert got == pytest.approx(math.pi * r**2, rel=1e-6)


def test_multiplicity_linearity():
    C1 = ex.flat_disk(h=0.1)
    C3 = ex.flat_disk(h=0.1, multiplicity=3)
    R = cur.Region.ball(np.zeros(4), 0.5)
    assert cur.mass(C3, R) == pytest.approx(3 * cur.mass(C1, R), rel=1e-12)


def test_graph_mass_closed_form():
    # area of the z^2 graph over |z| <= r is pi r^2 + 2 pi r^4
    C = ex.holomorphic_graph(k=2, h=0.01)
    assert cur.mass(C) == pytest.approx(3 * math.pi, rel=5e-3)
    r = 0.5
    got = cur.mass(C, cur.Region.cylinder(np.zeros(4), r))
    assert got == pytest.approx(math.pi * r**2 + 2 * math.pi * r**4, rel=5e-3)


def test_flat_disk_off_plane_ball_mass(disk):
    # a ball whose center sits at distance s off the disk's plane meets it
    # in a disk of radius sqrt(r^2 - s^2), or not at all for s >= r
    rng = np.random.default_rng(11)
    for _ in range(8):
        r = rng.uniform(0.2, 0.7)
        s = rng.uniform(0.0, r)
        alpha = rng.uniform(0.0, 2 * math.pi)
        shift = rng.uniform(-1.0, 1.0, 2) * (0.95 - math.sqrt(r * r - s * s)) / 2
        center = np.array(
            [shift[0], shift[1], s * math.cos(alpha), s * math.sin(alpha)]
        )
        got = cur.mass(disk, cur.Region.ball(center, r))
        assert got == pytest.approx(math.pi * (r * r - s * s), rel=1e-12)
        for s_out in (r * (1 + 1e-9), 1.5 * r):
            center[2:] = s_out * math.cos(alpha), s_out * math.sin(alpha)
            assert cur.mass(disk, cur.Region.ball(center, r)) == 0.0


def test_cylinder_edge_on_triangles_vote_by_centroid():
    # two triangles in the x1-x3 plane project onto segments of the x1-x2
    # plane and straddle the wall of the radius-0.5 cylinder; the centroid
    # of the first projects inside, that of the second outside. The third
    # lies in the x1-x2 plane and holds the quarter disk of radius 0.5.
    verts = [
        [-0.6, 0, 0, 0], [0.6, 0, 0, 0], [0, 0, 1, 0],
        [0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 1, 0],
        [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0],
    ]
    R = cur.Region.cylinder(np.zeros(4), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parts = [
            cur.mass(cur.TriCurrent(verts, [tri], [1]), R)
            for tri in [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
        ]
        both = cur.mass(cur.TriCurrent(verts, [(0, 1, 2), (3, 4, 5), (6, 7, 8)],
                                       [1, 1, 1]), R)
    assert parts[0] == pytest.approx(0.6, rel=1e-12)
    assert parts[1] == 0.0
    assert parts[2] == pytest.approx(math.pi / 16, rel=1e-12)
    assert both == pytest.approx(0.6 + math.pi / 16, rel=1e-12)


def test_pair_constant_forms(disk):
    m = 4
    nb = len(xt.blades(m, 2))
    dx12 = xt.MultiForm(m, 2, np.eye(nb)[xt.blade_index(m, (0, 1))])
    dx34 = xt.MultiForm(m, 2, np.eye(nb)[xt.blade_index(m, (2, 3))])
    assert cur.pair(disk, dx12) == pytest.approx(cur.mass(disk), rel=1e-12)
    # region restriction goes through recursive quadrature, not exact clipping
    R = cur.Region.ball(np.zeros(4), 0.5)
    assert cur.pair(disk, dx12, R) == pytest.approx(math.pi * 0.25, rel=5e-4)
    assert abs(cur.pair(disk, dx34, R)) < 1e-12


def test_pair_holomorphic_graph_calibrated():
    # holomorphic graphs are calibrated by the constant symplectic form;
    # the secant-plane defect of the mesh is O(h^2), so a fine mesh is
    # needed to see agreement at the 1e-6 level
    om = xt.omega0(4)
    C = ex.holomorphic_graph(k=2, h=0.003)
    assert cur.pair(C, om) == pytest.approx(cur.mass(C), rel=1e-6)


def test_boundary_torus_empty():
    T = _torus(n=12)
    assert cur.boundary(T).mass() < 1e-12
    assert T.is_cycle()


def test_boundary_single_triangle():
    C = cur.TriCurrent(
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]], [(0, 1, 2)], [1]
    )
    B = cur.boundary(C)
    assert B.mass() == pytest.approx(2 + math.sqrt(2), rel=1e-12)


def test_boundary_disk_perimeter(disk):
    B = cur.boundary(disk)
    assert B.mass() == pytest.approx(2 * math.pi, rel=5e-3)
    assert np.all(B.signed_degrees() == 0)


def test_dilate_cone_invariance(disk):
    for r in (0.5, 0.25):
        D = cur.dilate(disk, np.zeros(4), r)
        assert cur.mass(D) == pytest.approx(math.pi, rel=1e-6)


def test_dilate_mass_identity_random_meshes():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pts = rng.standard_normal((12, 4))
        tris = [tuple(rng.choice(12, 3, replace=False)) for _ in range(8)]
        mults = rng.integers(1, 3, 8)
        C = cur.TriCurrent(pts, tris, mults)
        x0 = rng.standard_normal(4) * 0.2
        r = rng.uniform(0.5, 2.0)
        D = cur.dilate(C, x0, r)
        lhs = cur.mass(D) * r**2
        rhs = cur.mass(C, cur.Region.ball(x0, r))
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)


def test_slice_flat_disk(disk):
    S = cur.slice_sphere(disk, np.zeros(4), 0.5)
    loops = cur.decompose_cycle(S)
    assert len(loops) == 1
    assert S.mass() == pytest.approx(math.pi, rel=1e-2)
    assert S.is_cycle()


def test_slice_two_lines():
    C = ex.two_lines(h=0.04)
    S = cur.slice_sphere(C, np.zeros(4), 0.6)
    loops = cur.decompose_cycle(S)
    assert len(loops) == 2
    for T in loops:
        assert T.mass() == pytest.approx(2 * math.pi * 0.6, rel=1e-2)


def test_slice_federer_inequality(graph):
    x0 = np.zeros(4)
    for rho in (0.4, 0.7):
        d = 1e-3
        dm = (
            cur.mass(graph, cur.Region.ball(x0, rho + d))
            - cur.mass(graph, cur.Region.ball(x0, rho - d))
        ) / (2 * d)
        smass = cur.slice_sphere(graph, x0, rho).mass()
        assert dm >= smass * (1 - 0.02)


def test_slice_of_cycle_is_cycle():
    T = _torus(n=16)
    S = cur.slice_sphere(T, np.zeros(4), 2.0)
    assert len(S) > 0
    assert S.is_cycle()


def _slice_sphere_reference(C, x0, rho):
    """The recursive, one-triangle-at-a-time form of `cur.slice_sphere`.

    Same candidates, leaf rule, depth cap, chord pairing and point merging
    as the array form in the package; kept here as the oracle it is pinned
    against. Returns the slice and the number of dropped sub-triangles.
    """
    x0 = np.asarray(x0, dtype=float)
    rho = cur._regular_slice_radius(C, x0, rho)
    points, segs, mults, index = [], [], [], {}
    dropped = 0

    def point_id(p):
        key = tuple(np.round(p / 1e-9).astype(np.int64))
        if key not in index:
            index[key] = len(points)
            points.append(p)
        return index[key]

    def emit(tri, mult, depth):
        nonlocal dropped
        d = np.linalg.norm(tri, axis=1)
        q, _ = cur._closest_points_on_triangles(0.0, tri[0], tri[1], tri[2])
        if np.all(d <= rho) or q @ q >= rho * rho:
            return
        crossings = []  # (walk position, point, is_exit)
        for e in range(3):
            A, B = tri[e], tri[(e + 1) % 3]
            D = B - A
            qa, qb, qc = float(D @ D), float(A @ D), float(A @ A - rho * rho)
            disc = qb * qb - qa * qc
            if disc <= 0 or qa == 0:
                continue
            sq = math.sqrt(disc)
            for t in ((-qb - sq) / qa, (-qb + sq) / qa):
                if 0.0 < t < 1.0:
                    P = A + t * D
                    crossings.append((e + t, P, float(P @ D) > 0.0))
        crossings.sort(key=lambda c: c[0])
        n = len(crossings)
        if n % 2 or n == 0:
            if depth >= 8:
                dropped += 1
                return
            for child in cur._midpoint_children(tri[None]):
                emit(child[0], mult, depth + 1)
            return
        for pos in range(n):
            _, P, is_exit = crossings[pos]
            if not is_exit:
                continue
            for step in range(1, n + 1):
                _, Q, q_exit = crossings[(pos + step) % n]
                if not q_exit:
                    ia, ib = point_id(P), point_id(Q)
                    if ia != ib:
                        segs.append((ia, ib))
                        mults.append(int(mult))
                    break

    corners = C.corners() - x0
    # emit's own first test, on all triangles at once
    q, _ = cur._closest_points_on_triangles(0.0, *corners.transpose(1, 0, 2))
    far = np.linalg.norm(corners, axis=2).max(axis=1) > rho
    for k in np.nonzero(far & (np.einsum("ij,ij->i", q, q) < rho * rho))[0]:
        emit(corners[k], C.multiplicities[k], 0)
    if not segs:
        empty = cur.Polyline1Current(np.zeros((0, C.m)), np.zeros((0, 2), int), [])
        return empty, dropped
    return cur.Polyline1Current(np.array(points) + x0, segs, mults), dropped


def _assert_same_chords(S, ref):
    """The same multiset of chords, endpoints to 1e-12, and multiplicities."""
    assert len(S) == len(ref)
    if len(S) == 0:
        return

    def chords(P):
        ends = P.points[P.segments].reshape(len(P), -1)
        rows = np.column_stack([ends, P.multiplicities])
        return rows[np.lexsort(np.round(rows / 1e-6).T[::-1])]

    a, b = chords(S), chords(ref)
    assert np.array_equal(a[:, -1], b[:, -1])
    assert np.abs(a[:, :-1] - b[:, :-1]).max() <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_slice_matches_recursive_reference(seed):
    """The array slice gives the recursive slice's chords on random
    triangles, radii between the nearest and farthest vertex included."""
    rng = np.random.default_rng(seed)
    m = 4
    pts = rng.standard_normal((12, m))
    tris = [tuple(rng.choice(12, 3, replace=False)) for _ in range(8)]
    C = cur.TriCurrent(pts, tris, rng.choice([-2, -1, 1, 2, 3], 8))
    x0 = 0.3 * rng.standard_normal(m)
    d = np.linalg.norm(C.vertices - x0, axis=1)
    rho = rng.uniform(0.5 * d.min(), d.max())
    S = cur.slice_sphere(C, x0, rho)
    ref, dropped = _slice_sphere_reference(C, x0, rho)
    _assert_same_chords(S, ref)
    assert S.dropped == dropped


@pytest.mark.parametrize("name", ["cusp", "disk", "two_lines", "graph"])
def test_slice_matches_recursive_reference_on_shipped_meshes(name, disk, graph):
    C = {"cusp": ex.cusp, "two_lines": lambda: ex.two_lines(h=0.08),
         "disk": lambda: disk, "graph": lambda: graph}[name]()
    for rho in np.random.default_rng(3).uniform(0.02, 0.6, 4):
        S = cur.slice_sphere(C, np.zeros(4), rho)
        ref, dropped = _slice_sphere_reference(C, np.zeros(4), rho)
        _assert_same_chords(S, ref)
        assert S.dropped == dropped == 0


@pytest.mark.parametrize("rho", [0.028529656879914187, 0.48509073565661853])
def test_slice_cusp_near_vertex_ring(rho):
    """Triangles whose vertices all lie just outside the sphere, with an
    edge dipping inside, carry their chords: the cusp slice is a cycle of
    the closed-form length 2 pi t sqrt(4 + 9 t), t^2 + t^3 = rho^2."""
    from scipy.optimize import brentq

    S = cur.slice_sphere(ex.cusp(), np.zeros(4), rho)
    t = brentq(lambda t: t**2 + t**3 - rho**2, 0.0, 1.0)
    assert S.is_cycle()
    assert S.dropped == 0
    assert S.mass() == pytest.approx(2 * math.pi * t * math.sqrt(4 + 9 * t), rel=2e-2)


def test_slice_counts_unresolved_tangency():
    """A plane that meets the sphere in a circle far smaller than a depth-8
    sub-triangle, inside the face: no edge crosses it at any depth, so the
    sub-triangle holding it is dropped, counted and named by
    decompose_cycle."""
    off, radius = 1.0, 1e-5  # the plane's distance to 0, the circle's radius
    rho = math.hypot(off, radius)
    corners = np.array([[-3.0, -2.0], [4.0, -1.5], [-0.5, 4.0]])
    V = np.column_stack([corners, np.full(3, off), np.zeros(3)])
    C = cur.TriCurrent(V, [(0, 1, 2)], [1])
    S = cur.slice_sphere(C, np.zeros(4), rho)
    assert len(S) == 0
    assert S.dropped == 1
    ref, dropped = _slice_sphere_reference(C, np.zeros(4), rho)
    assert dropped == 1
    # a crafted non-cycle carrying the count
    P = cur.Polyline1Current(np.eye(4)[:2], [(0, 1)], [1], dropped=S.dropped)
    with pytest.raises(ValueError, match="1 sub-triangles"):
        cur.decompose_cycle(P)


def _circle_loop(rho=1.0, n=128, mult=1):
    th = 2 * np.pi * np.arange(n) / n
    pts = np.column_stack(
        [rho * np.cos(th), rho * np.sin(th), np.zeros(n), np.zeros(n)]
    )
    segs = [(i, (i + 1) % n) for i in range(n)]
    return cur.Polyline1Current(pts, segs, np.full(n, mult, int))


def test_decompose_multiplicity_two():
    P = _circle_loop(rho=0.5, mult=2)
    loops = cur.decompose_cycle(P)
    assert len(loops) == 2
    total = sum(T.mass() for T in loops)
    assert total == pytest.approx(P.mass(), rel=1e-10)


def test_decompose_figure_eight():
    pts = np.array(
        [[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0],
         [-1, 0, 0, 0], [-1, -1, 0, 0]],
        dtype=float,
    )
    segs = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
    P = cur.Polyline1Current(pts, segs, np.ones(6, int))
    loops = cur.decompose_cycle(P)
    assert len(loops) == 2
    assert sum(T.mass() for T in loops) == pytest.approx(P.mass(), rel=1e-10)


def test_loop_poincare_constant():
    T = cur.decompose_cycle(_circle_loop())[0]
    mean, lhs, rhs = cur.loop_poincare(T, lambda x: 3.7)
    assert mean == pytest.approx(3.7, abs=1e-12)
    assert lhs < 1e-20
    assert rhs < 1e-20


def test_loop_poincare_cosine():
    T = cur.decompose_cycle(_circle_loop(n=512))[0]
    mean, lhs, rhs = cur.loop_poincare(T, lambda x: x[0])
    # g = cos(theta) on the unit circle: integral pi, and M^2 * energy
    # = (2 pi)^2 * pi
    assert abs(mean) < 1e-10
    assert lhs == pytest.approx(math.pi, rel=5e-3)
    assert rhs == pytest.approx(4 * math.pi**2 * math.pi, rel=5e-3)
    assert lhs <= rhs * 1.05


def test_loop_poincare_random_battery():
    rng = np.random.default_rng(19)
    base = _circle_loop(n=200)
    for _ in range(100):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)

        def g(x, a=a, b=b):
            t = math.atan2(x[1], x[0])
            return sum(
                a[k] * math.cos((k + 1) * t) + b[k] * math.sin((k + 1) * t)
                for k in range(3)
            )

        T = cur.decompose_cycle(base)[0]
        _, lhs, rhs = cur.loop_poincare(T, g)
        assert lhs <= rhs * 1.05 + 1e-12


def test_mass_additive_over_regions(graph):
    x0 = np.zeros(4)
    s, r = 0.3, 0.7
    total = cur.mass(graph)
    a = cur.mass(graph, cur.Region.ball(x0, r))
    b = cur.mass(graph, cur.Region.ball(x0, s))
    c = cur.mass(graph, cur.Region.annulus(x0, s, r))
    assert abs(a - b - c) <= 1e-10 * total


def test_calibration_bound(disk, graph):
    om = xt.omega0(4)
    for C in (disk, graph):
        assert abs(cur.pair(C, om)) <= (1 + 1e-6) * cur.mass(C)
        # restricted comparison with both sides on the same quadrature
        R = cur.Region.ball(np.zeros(4), 0.5)
        qmass = cur.integrate(C, lambda p, t: np.ones(p.shape[:-1]), R)
        assert abs(cur.pair(C, om, R)) <= (1 + 1e-6) * qmass


@pytest.fixture(scope="module")
def shipped(disk, graph):
    return {
        "cusp": ex.cusp(),
        "cusp_fine": ex.cusp(n_theta=128, factor=0.9),
        "disk": disk,
        "graph": graph,
        "two_lines": ex.two_lines(h=0.3),
        "graded": ex.holomorphic_graph(k=2, graded=True),
    }


@pytest.mark.parametrize("name", ["cusp", "cusp_fine", "disk", "graph", "two_lines",
                                  "graded"])
def test_integrate_unit_matches_clipped_mass(name, shipped, monkeypatch):
    """Ball and annulus integrals have quadrature error only: the integral
    of 1 is the exactly clipped mass to 1e-12, with no subdivision (the
    depth-5 leaves were off by up to 4.8e-4, and by 0.14 on two_lines)."""
    C = shipped[name]

    def no_subdivision(*args):
        raise AssertionError("ball and annulus integrals do not subdivide")

    monkeypatch.setattr(cur, "_subdivide", no_subdivision)
    x0 = np.zeros(4)
    for R in (cur.Region.ball(x0, 0.1), cur.Region.ball(x0, 0.37),
              cur.Region.annulus(x0, 0.05, 0.2), cur.Region.annulus(x0, 0.2, 0.7)):
        got = cur.integrate(C, lambda p, t: np.ones(p.shape[:-1]), R)
        assert got == pytest.approx(cur.mass(C, R), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("inner, outer", [(0.2, 0.7), (0.3, 0.6)])
def test_integrate_annulus_counts_triangles_dipping_into_the_hole(disk, inner, outer):
    """A triangle whose corners lie in the annulus but whose face dips into
    the hole is integrated on its section, not as a whole (which was off by
    1.5e-4 and 2.4e-4 on this disk)."""
    R = cur.Region.annulus(np.zeros(4), inner, outer)
    corners = disk.corners()
    d = np.linalg.norm(corners, axis=2)
    q, _ = cur._closest_points_on_triangles(np.zeros(4), corners[:, 0], corners[:, 1],
                                           corners[:, 2])
    dips = (d.min(axis=1) > inner) & (d.max(axis=1) <= outer) & (
        np.linalg.norm(q, axis=1) <= inner)
    assert np.any(dips)
    got = cur.integrate(disk, lambda p, t: np.ones(p.shape[:-1]), R)
    assert got == pytest.approx(cur.mass(disk, R), rel=1e-12, abs=0.0)


def test_refinement_mass_ratio():
    """Mass error of the z^2 graph decays at second order in h."""
    exact = 3 * math.pi
    errs = [
        abs(cur.mass(ex.holomorphic_graph(k=2, h=h)) - exact)
        for h in (0.08, 0.04, 0.02)
    ]
    for e0, e1 in zip(errs, errs[1:]):
        assert 3.5 <= e0 / e1 <= 4.5


def test_mesh_roundtrip(tmp_path, graph):
    p = tmp_path / "mesh.txt"
    cur.write_mesh(p, graph)
    C2 = cur.read_mesh(p)
    assert np.allclose(C2.vertices, graph.vertices)
    assert np.array_equal(C2.triangles, graph.triangles)
    assert cur.mass(C2) == pytest.approx(cur.mass(graph), rel=1e-15)


def test_mesh_rejects_bad_records(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("dim 4\nvertex 0 0 0 0\nblob 1 2 3\n")
    with pytest.raises(ValueError):
        cur.read_mesh(p)


@pytest.mark.parametrize("tri", [(0, 1, 3), (-1, 0, 1)])
def test_tricurrent_rejects_vertex_index_out_of_range(tri):
    with pytest.raises(ValueError, match="vertex index"):
        cur.TriCurrent(np.eye(3, 4), [tri], [1])


@pytest.mark.parametrize("record", ["tri 0 1 2 1 5", "tri 0 1 2", "dim 4 4"])
def test_mesh_rejects_wrong_field_count(tmp_path, record):
    p = tmp_path / "bad.txt"
    p.write_text("dim 4\nvertex 0 0 0 0\nvertex 1 0 0 0\nvertex 0 1 0 0\n"
                 + record + "\n")
    with pytest.raises(ValueError, match="line 5"):
        cur.read_mesh(p)


def _quad_integrate_reference(corners, tangents, areas, mults, fn):
    """`cur._quad_integrate` on the pointwise contract: fn(points (P, m),
    tangents (P, n2)) -> (P,), with each triangle's tangent row repeated
    for its 7 points."""
    if len(corners) == 0:
        return 0.0

    def once(crn):
        pts = np.einsum("qb,tbm->tqm", cur.TRI_QUAD_POINTS, crn)
        flat = pts.reshape(-1, pts.shape[-1])
        tans = np.repeat(tangents, 7, axis=0)
        vals = np.asarray(fn(flat, tans), dtype=float).reshape(len(crn), 7)
        return vals @ cur.TRI_QUAD_WEIGHTS

    coarse = once(corners)
    fine = sum(once(ch) for ch in cur._midpoint_children(corners)) / 4.0
    scale = np.abs(coarse).max()
    use_fine = np.abs(fine - coarse) > cur._REFINE_TOL * max(scale, 1e-30)
    return float(np.sum(np.where(use_fine, fine, coarse) * areas * mults))


def _integrate_reference(C, fn, R=None):
    """The recursive, one-triangle-at-a-time form of `cur.integrate`.

    Same tree, leaf rule and depth cap as the level-synchronous loop in the
    package, on the pointwise contract of `_quad_integrate_reference`; kept
    here as the oracle it is pinned against.
    """
    R = cur._effective_region(C, R)
    corners = C.corners()
    if R.kind == "full":
        return _quad_integrate_reference(
            corners, C.tangents, C.areas, C.multiplicities, fn
        )
    verts_in = R.indicator(corners)
    all_in = np.all(verts_in, axis=1)
    acc = _quad_integrate_reference(
        corners[all_in],
        C.tangents[all_in],
        C.areas[all_in],
        C.multiplicities[all_in],
        fn,
    )

    def leaf(tri, tangent, area, mult):
        pts = cur.TRI_QUAD_POINTS @ tri
        inn = R.indicator(pts)
        if not np.any(inn):
            return 0.0
        tans = np.broadcast_to(tangent, (7, len(tangent)))
        vals = np.asarray(fn(pts, tans), dtype=float)
        return float(vals @ (cur.TRI_QUAD_WEIGHTS * inn)) * area * mult

    def rec(tri, tangent, area, mult, depth):
        inn = R.indicator(tri)
        if depth >= 5 or np.all(inn) or not np.any(inn):
            return leaf(tri, tangent, area, mult)
        m01 = 0.5 * (tri[0] + tri[1])
        m12 = 0.5 * (tri[1] + tri[2])
        m20 = 0.5 * (tri[2] + tri[0])
        q = area / 4.0
        return (
            rec(np.array([tri[0], m01, m20]), tangent, q, mult, depth + 1)
            + rec(np.array([m01, tri[1], m12]), tangent, q, mult, depth + 1)
            + rec(np.array([m20, m12, tri[2]]), tangent, q, mult, depth + 1)
            + rec(np.array([m01, m12, m20]), tangent, q, mult, depth + 1)
        )

    for k in np.nonzero(~all_in)[0]:
        acc += rec(
            corners[k], C.tangents[k], float(C.areas[k]), int(C.multiplicities[k]), 0
        )
    return acc


def _subdiv_mass_reference(C, R, rel_tol=1e-4):
    """The recursive, one-triangle-at-a-time form of `cur._subdiv_mass`.

    Same tree, leaf rule and depth cap as the level-synchronous form in the
    package; kept here as the oracle it is pinned against.
    """
    total = C.total_mass()
    corners = C.corners()
    verts_in = R.indicator(C.corners())
    cents_in = R.indicator(C.centroids)
    all_in = np.all(verts_in, axis=1) & cents_in
    all_out = np.all(~verts_in, axis=1) & ~cents_in
    acc = float(np.sum(C.areas[all_in] * C.multiplicities[all_in]))
    mixed = np.nonzero(~(all_in | all_out))[0]
    max_depth = 9

    def rec(tri, area, depth):
        inn = R.indicator(tri)
        cen = tri.mean(axis=0)
        cin = bool(R.indicator(cen))
        if depth >= 2 and (np.all(inn) and cin):
            return area
        if depth >= 2 and (not np.any(inn) and not cin):
            return 0.0
        if depth >= max_depth or area <= rel_tol * rel_tol * max(total, 1e-12):
            return area if cin else 0.0
        m01 = 0.5 * (tri[0] + tri[1])
        m12 = 0.5 * (tri[1] + tri[2])
        m20 = 0.5 * (tri[2] + tri[0])
        q = area / 4.0
        return (
            rec(np.array([tri[0], m01, m20]), q, depth + 1)
            + rec(np.array([m01, tri[1], m12]), q, depth + 1)
            + rec(np.array([m20, m12, tri[2]]), q, depth + 1)
            + rec(np.array([m01, m12, m20]), q, depth + 1)
        )

    for k in mixed:
        acc += C.multiplicities[k] * rec(corners[k], float(C.areas[k]), 0)
    return acc


def _random_region(rng, kind, m):
    if kind == "full":
        return cur.Region.full()
    center = 0.3 * rng.standard_normal(m)
    if kind == "ball":
        return cur.Region.ball(center, rng.uniform(0.3, 1.5))
    if kind == "annulus":
        inner = rng.uniform(0.2, 1.0)
        return cur.Region.annulus(center, inner, inner + rng.uniform(0.1, 1.0))
    if kind == "cylinder":
        axes = tuple(sorted(rng.choice(m, 2, replace=False)))
        return cur.Region.cylinder(center, rng.uniform(0.3, 1.5), axes)
    planes = [
        np.linalg.qr(rng.standard_normal((m, 2)))[0]
        for _ in range(rng.integers(1, 3))
    ]
    return cur.Region.cone_complement(center, planes, rng.uniform(0.1, 0.9))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(["cylinder", "cone_complement", "dilated"]),
)
def test_property_integrate_matches_recursive_reference(seed, kind):
    """The level-synchronous integrate, with its integrand seeing one
    tangent row per group of 7 points, agrees with the recursive one on the
    pointwise contract, on the regions it still subdivides."""
    rng = np.random.default_rng(seed)
    m = 4
    pts = rng.standard_normal((12, m))
    tris = [tuple(rng.choice(12, 3, replace=False)) for _ in range(8)]
    mults = rng.choice([-2, -1, 1, 2, 3], 8)
    C = cur.TriCurrent(pts, tris, mults)
    if kind == "dilated":
        # the clip ball of a dilated current turns an off-center ball into
        # an intersect region
        C = cur.dilate(C, C.centroids[rng.integers(8)], rng.uniform(0.5, 2.0))
        R = cur.Region.ball(0.3 * rng.standard_normal(m), rng.uniform(0.3, 1.2))
        assert cur._effective_region(C, R).kind == "intersect"
    else:
        R = _random_region(rng, kind, m)
    a = rng.standard_normal(m)
    b = rng.standard_normal(len(xt.blades(m, 2)))

    def fn_points(p, t):  # one tangent row per point
        return np.cos(p @ a) + (t @ b) ** 2 - 0.5

    def fn(p, t):  # one tangent row per group of points
        assert p.shape[1:] == (7, m) and t.shape == (len(p), len(b))
        return np.cos(p @ a) + ((t @ b) ** 2)[:, None] - 0.5

    got = cur.integrate(C, fn, R)
    want = _integrate_reference(C, fn_points, R)
    scale = _integrate_reference(C, lambda p, t: np.abs(fn_points(p, t)), R)
    assert abs(got - want) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(["ball", "annulus", "cone_complement", "dilated"]),
    st.sampled_from([1e-4, 1e-2]),
)
def test_property_subdiv_mass_matches_recursive_reference(seed, kind, rel_tol):
    """The level-synchronous _subdiv_mass agrees with the recursive one.

    `mass` clips balls and annuli exactly, so those go to `_subdiv_mass`
    directly. A mesh has at most three triangles because the recursive
    oracle costs about 0.1 s per triangle the region boundary crosses.
    rel_tol = 1e-2 retires leaves by area before depth 9.
    """
    rng = np.random.default_rng(seed)
    m = 4
    n = rng.integers(1, 4)
    pts = rng.standard_normal((6, m))
    tris = [tuple(rng.choice(6, 3, replace=False)) for _ in range(n)]
    C = cur.TriCurrent(pts, tris, rng.choice([-2, -1, 1, 2, 3], n))
    if kind == "dilated":
        # the clip ball of a dilated current turns the cone complement into
        # an intersect region
        C = cur.dilate(C, C.centroids[rng.integers(n)], rng.uniform(0.5, 2.0))
        R = cur._effective_region(C, _random_region(rng, "cone_complement", m))
        assert R.kind == "intersect"
    else:
        R = _random_region(rng, kind, m)
    got = cur._subdiv_mass(C, R, rel_tol)
    want = _subdiv_mass_reference(C, R, rel_tol)
    assert abs(got - want) <= 1e-12 * C.total_mass()


def _tri_disk_area_reference(ax, ay, bx, by, cx, cy, r):
    """The scalar per-edge walk of `tri_disk_areas`, one triangle at a time.

    Signed area of triangle (A, B, C) intersected with the disk |P| <= r;
    kept here as the oracle the vectorized kernel is pinned against.
    """
    r2 = r * r

    def edge(ax, ay, bx, by):
        # sub-segment split points where |P| = r along A + t(B - A)
        dx = bx - ax
        dy = by - ay
        qa = dx * dx + dy * dy
        ts = []
        if qa > 0.0:
            qb = ax * dx + ay * dy
            qc = ax * ax + ay * ay - r2
            disc = qb * qb - qa * qc
            if disc > 0.0:
                sq = math.sqrt(disc)
                t0 = (-qb - sq) / qa
                t1 = (-qb + sq) / qa
                if 0.0 < t0 < 1.0:
                    ts.append(t0)
                if 0.0 < t1 < 1.0:
                    ts.append(t1)
        total = 0.0
        t_prev = 0.0
        px, py = ax, ay
        for t in ts + [1.0]:
            qx = ax + t * dx
            qy = ay + t * dy
            mx = ax + 0.5 * (t_prev + t) * dx
            my = ay + 0.5 * (t_prev + t) * dy
            cross = px * qy - py * qx
            if mx * mx + my * my <= r2:
                total += 0.5 * cross
            else:
                total += 0.5 * r2 * math.atan2(cross, px * qx + py * qy)
            px, py = qx, qy
            t_prev = t
        return total

    return edge(ax, ay, bx, by) + edge(bx, by, cx, cy) + edge(cx, cy, ax, ay)


def _random_clip_case(rng, kind, n):
    """n triangles (n, 3, 2) and radii (n,) of one kind of clip geometry."""
    r = rng.uniform(0.1, 2.0, n)
    tris = rng.uniform(-1.5, 1.5, (n, 1, 2)) + rng.uniform(-0.8, 0.8, (n, 3, 2))
    if kind == "vertex_on_circle":
        r = np.linalg.norm(tris[np.arange(n), rng.integers(0, 3, n)], axis=1)
    elif kind == "tangent_edge":
        # the line through A and B touches the circle at r * (cos, sin)
        phi = rng.uniform(0, 2 * math.pi, n)
        normal = np.column_stack([np.cos(phi), np.sin(phi)])
        along = np.column_stack([-np.sin(phi), np.cos(phi)])
        s = rng.uniform(-1.0, 1.0, (n, 2))
        tris[:, 0] = r[:, None] * normal + s[:, :1] * along
        tris[:, 1] = r[:, None] * normal + s[:, 1:] * along
    elif kind == "zero_length_edge":
        tris[:, 1] = tris[:, 0]
    elif kind == "disk_inside":
        # inradius 1.5 r, jittered by at most 0.2 r
        phi = rng.uniform(0, 2 * math.pi, (n, 1)) + 2 * math.pi * np.arange(3) / 3
        tris = 3 * r[:, None, None] * np.stack([np.cos(phi), np.sin(phi)], axis=2)
        tris += rng.uniform(-0.1, 0.1, (n, 3, 2)) * r[:, None, None]
    elif kind == "triangle_inside":
        tris = rng.uniform(-0.5, 0.5, (n, 3, 2))
        r = rng.uniform(1.5, 3.0, n)
    return tris, r


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(["random", "vertex_on_circle", "tangent_edge",
                     "zero_length_edge", "disk_inside", "triangle_inside"]),
    st.booleans(),
)
def test_property_tri_disk_areas_matches_reference(seed, kind, flip):
    """The vectorized clip kernel agrees with the scalar edge walk."""
    rng = np.random.default_rng(seed)
    n = 16
    tris, r = _random_clip_case(rng, kind, n)
    if flip:  # the other orientation
        tris = tris[:, ::-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = clip.tri_disk_areas(tris, r)
    want = [_tri_disk_area_reference(*tris[k].ravel(), r[k]) for k in range(n)]
    assert got.shape == (n,)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(r * r, 1.0))
    if kind == "disk_inside":  # counterclockwise unless flipped
        sign = -1.0 if flip else 1.0
        assert np.allclose(sign * got, np.pi * r * r, rtol=1e-12)
    if kind == "triangle_inside":
        e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
        signed = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        assert np.allclose(got, signed, rtol=1e-12, atol=1e-15)


def _near_far_reference(C, center, axes=None):
    """Distances from the center (from the axis, in the `axes` plane, for a
    cylinder) of every triangle's closest point and farthest vertex: the
    closest point of every triangle, with no bound to skip any."""
    V = C.vertices - np.asarray(center, dtype=float)
    if axes is not None:
        V = V[:, list(axes)]
    crn = V[C.triangles]
    q, _ = cur._closest_points_on_triangles(0.0, crn[:, 0], crn[:, 1], crn[:, 2])
    near = np.sqrt(np.einsum("...i,...i->...", q, q))
    return near, np.linalg.norm(crn, axis=2).max(axis=1)


def _ball_clip_areas_reference(C, center, r):
    """Exact per-triangle area inside the ball B_r(center), one radius at a
    time: the per-radius form of `cur._clip_sweep` for balls, on the exact
    rule (inside when the farthest vertex is within r, clipped when the
    closest point is)."""
    center = np.asarray(center, dtype=float)
    V = C.vertices - center
    T = C.triangles
    near, far = _near_far_reference(C, center)
    out = np.zeros(len(T))
    inside = far <= r
    out[inside] = C.areas[inside]
    idx = np.nonzero(~inside & (near <= r))[0]
    if len(idx) == 0:
        return out
    u1, u2 = xt.plane_frames(C.tangents[idx], C.m)
    a = V[T[idx, 0]]  # first vertex in center-relative coordinates
    crel = -a  # center relative to the triangle's first vertex
    cx = np.einsum("ij,ij->i", crel, u1)
    cy = np.einsum("ij,ij->i", crel, u2)
    off2 = np.einsum("ij,ij->i", crel, crel) - cx * cx - cy * cy
    hit = off2 < r * r  # the plane meets the ball in a disk of radius rp
    idx, a, u1, u2, cx, cy = idx[hit], a[hit], u1[hit], u2[hit], cx[hit], cy[hit]
    rp = np.sqrt(r * r - off2[hit])
    # triangle vertices in plane coordinates, disk center at origin
    p = V[T[idx]] - a[:, None, :]
    x = np.einsum("nkj,nj->nk", p, u1) - cx[:, None]
    y = np.einsum("nkj,nj->nk", p, u2) - cy[:, None]
    out[idx] = np.abs(clip.tri_disk_areas(np.stack([x, y], axis=2), rp))
    return out


def _cylinder_clip_areas_reference(C, center, r, axes):
    """Exact per-triangle area inside a coordinate cylinder, one radius at a
    time: the per-radius form of `cur._clip_sweep` for cylinders, on the
    exact rule for the projections."""
    center = np.asarray(center, dtype=float)
    q = (C.vertices - center)[:, list(axes)][C.triangles]  # projected (T, 3, 2)
    near, far = _near_far_reference(C, center, axes)
    out = np.zeros(len(q))
    inside = far <= r
    out[inside] = C.areas[inside]
    idx = np.nonzero(~inside & (near <= r))[0]
    v = q[idx]
    signed2 = 0.5 * (
        (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
        - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1])
    )
    areas = C.areas[idx]
    edge_on = np.abs(signed2) < 1e-12 * np.maximum(areas, 1e-12)
    vote = np.where(np.linalg.norm(v.mean(axis=1), axis=1) <= r, areas, 0.0)
    clipped = np.abs(clip.tri_disk_areas(v, r))
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.minimum(clipped / np.abs(signed2), 1.0)
    out[idx] = np.where(edge_on, vote, areas * share)
    return out


def _clip_areas_reference(C, center, r, axes):
    if axes is None:
        return _ball_clip_areas_reference(C, center, r)
    return _cylinder_clip_areas_reference(C, center, r, axes)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([None, (0, 1), (2, 3)]),
    st.sampled_from(["near", "far"]),
)
def test_property_clip_sweep_matches_per_radius_reference(seed, axes, where):
    """One sweep over a ladder gives the per-radius clip areas and masses
    bit for bit, for unsorted and repeated radii, radii that meet no
    triangle or hold every triangle whole, and annuli."""
    rng = np.random.default_rng(seed)
    m = 4
    n = int(rng.integers(1, 13))
    pts = rng.standard_normal((10, m))
    tris = [tuple(rng.choice(10, 3, replace=False)) for _ in range(n)]
    C = cur.TriCurrent(pts, tris, rng.choice([-2, -1, 1, 2, 3], n))
    center = 0.5 * rng.standard_normal(m)
    if where == "far":  # every small radius misses every triangle
        center += 20.0 * rng.standard_normal(m)
    radii = rng.uniform(0.05, 3.0, 6)
    radii = np.concatenate([radii, radii[:2], [1e-3, 1e3]])
    rng.shuffle(radii)
    mult = C.multiplicities
    want = [_clip_areas_reference(C, center, r, axes) for r in radii]
    got = list(cur._clip_sweep(C, center, radii, axes))
    assert len(got) == len(radii)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.array_equal(cur.mass_ladder(C, center, radii, axes),
                          [np.sum(w * mult) for w in want])
    for r, w in zip(radii, want):
        if axes is None:
            R = cur.Region.ball(center, r)
        else:
            R = cur.Region.cylinder(center, r, axes)
        assert cur.mass(C, R) == float(np.sum(w * mult))
    if axes is None:
        inner, outer = np.sort(radii[:2])
        if inner < outer:
            want = np.sum((_ball_clip_areas_reference(C, center, outer)
                           - _ball_clip_areas_reference(C, center, inner)) * mult)
            got = cur.mass(C, cur.Region.annulus(center, inner, outer))
            assert got == float(want)


def _segments_distance_reference(v):
    """Distance from the origin of the union of the three edges of each
    projected triangle v (n, 3, 2): the closest point of a triangle whose
    projection is edge-on."""
    a, e = v, v[:, [1, 2, 0]] - v
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(-np.einsum("nkj,nkj->nk", a, e) / np.einsum("nkj,nkj->nk", e, e),
                    0.0, 1.0)
    t = np.where(np.isfinite(t), t, 0.0)
    return np.linalg.norm(a + t[..., None] * e, axis=2).min(axis=1)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([None, (0, 1), (2, 3)]),
    st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_property_near_far_matches_closest_point_reference(seed, axes, scale):
    """`_near_far` decides every radius as the closest point of every
    triangle does: inside when the farthest vertex is within r, missed when
    the closest point is farther than r, crossed otherwise. Radii include
    vertex distances, closest-point distances, the bound far - edge and
    repeats. A triangle whose projection is edge-on is never called missed
    by a circle that crosses its projection, and its near is finite."""
    rng = np.random.default_rng(seed)
    m = 4
    n = int(rng.integers(2, 13))
    pts = rng.standard_normal((10, m))
    tris = np.array([rng.choice(10, 3, replace=False) for _ in range(n)])
    center = 0.5 * rng.standard_normal(m)
    if rng.integers(4) == 0:  # far from every triangle
        center += 20.0 * rng.standard_normal(m)
    if axes is not None:
        ax = list(axes)
        # the first triangle's projection is edge-on: its third corner is
        # projected onto the line of the other two, or onto the first
        i, j, k = tris[0]
        t = rng.choice([0.0, 0.3, 1.7])
        pts[k, ax] = pts[i, ax] + t * (pts[j, ax] - pts[i, ax])
        if rng.integers(2):  # and its first corner lies on the axis
            pts[[i, j, k], ax[0]] -= pts[i, ax[0]] - center[ax[0]]
            pts[[i, j, k], ax[1]] -= pts[i, ax[1]] - center[ax[1]]
    C = cur.TriCurrent(scale * pts, tris, np.ones(n, dtype=int))
    center = scale * center
    near_ref, far_ref = _near_far_reference(C, center, axes)
    V = C.vertices - center
    if axes is not None:
        V = V[:, list(axes)]
    crn = V[C.triangles]
    reach = np.linalg.norm(crn - crn[:, [1, 2, 0]], axis=2).max(axis=1)
    pick = rng.integers(n, size=3)
    radii = np.concatenate([
        scale * rng.uniform(0.05, 3.0, 4),
        np.linalg.norm(crn[pick, rng.integers(3, size=3)], axis=1),  # vertices
        far_ref[pick], near_ref[pick], (far_ref - reach)[pick],
    ])
    radii = radii[radii > 0.0]
    radii = np.concatenate([radii, radii[:2]])
    rng.shuffle(radii)
    near, far = cur._near_far(C, center, radii, axes)
    assert np.array_equal(far, far_ref)
    assert np.all(np.isfinite(near))
    edge_on = np.zeros(n, dtype=bool)
    if axes is not None:
        edge_on = cur._projected_areas(C, crn, np.arange(n))[1]
        assert edge_on[0]
        assert np.all(near[edge_on] <= _segments_distance_reference(crn[edge_on]))
    for r in radii:
        inside = far <= r
        missed = ~inside & (near > r)
        want = ~inside & (near_ref > r)
        assert np.array_equal(missed[~edge_on], want[~edge_on])


# --- references: level-synchronous forms that test every point they build ---


def _indicator_reference(R, x):
    """Region membership through np.linalg.norm, part by part."""
    x = np.asarray(x, dtype=float)
    out = np.ones(x.shape[:-1], dtype=bool)
    for p in (R.parts if R.kind == "intersect" else (R,)):
        rel = x - p.center if p.center is not None else x
        if p.kind == "ball":
            out &= np.linalg.norm(rel, axis=-1) <= p.radius
        elif p.kind == "annulus":
            d = np.linalg.norm(rel, axis=-1)
            out &= (d > p.inner) & (d <= p.outer)
        elif p.kind == "cylinder":
            out &= np.linalg.norm(rel[..., list(p.axes)], axis=-1) <= p.radius
        elif p.kind == "cone_complement":
            r = np.linalg.norm(rel, axis=-1)
            dmin = np.full(x.shape[:-1], np.inf)
            for B in p.planes:
                proj = rel @ B
                d2 = np.maximum(np.einsum("...i,...i->...", rel, rel)
                                - np.einsum("...i,...i->...", proj, proj), 0.0)
                dmin = np.minimum(dmin, np.sqrt(d2))
            out &= dmin > p.eps * r
    return out


def _midpoint_children_reference(corners):
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    m01, m12, m20 = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    return [
        np.stack([a, m01, m20], axis=1),
        np.stack([m01, b, m12], axis=1),
        np.stack([m20, m12, c], axis=1),
        np.stack([m01, m12, m20], axis=1),
    ]


def _subdivide_reference(tri, owner, area, leaf_rule):
    """Level-synchronous subdivision that hands the leaf rule the corners
    only, so the rule tests every corner of every sub-triangle."""
    path = np.zeros(len(tri), dtype=np.int64)
    leaves = []
    for depth in itertools.count():
        done, kept = leaf_rule(depth, tri, area)
        leaves.append((tri[done], owner[done], area[done], path[done])
                      + tuple(k[done] for k in kept))
        if np.all(done):
            return [np.concatenate(col) for col in zip(*leaves)]
        tri = np.concatenate(_midpoint_children_reference(tri[~done]))
        owner = np.tile(owner[~done], 4)
        area = np.tile(area[~done] / 4.0, 4)
        step = 4 ** (cur._PATH_DIGITS - 1 - depth)
        path = np.concatenate([path[~done] + k * step for k in range(4)])


def _membership_rule_reference(R, is_leaf):
    """A leaf rule on membership of the corners and the centroid of every
    sub-triangle, inn (n, 4) with the centroid last."""

    def rule(depth, tri, area):
        centroids = tri.mean(axis=1, keepdims=True)
        inn = _indicator_reference(R, np.concatenate([tri, centroids], axis=1))
        return is_leaf(depth, inn, area), (inn,)

    return rule


def _integrate_levelsync_reference(C, fn, R=None):
    """`cur.integrate` testing every corner at every depth and every
    quadrature point of every leaf."""
    R = cur._effective_region(C, R)
    corners = C.corners()
    if R.kind == "full":
        return cur._quad_integrate(corners, C.tangents, C.areas,
                                   C.multiplicities, fn)
    all_in = np.all(_indicator_reference(R, corners), axis=1)
    acc = cur._quad_integrate(corners[all_in], C.tangents[all_in],
                              C.areas[all_in], C.multiplicities[all_in], fn)

    def is_leaf(depth, inn, area):
        verts = inn[:, :3]
        return (np.all(verts, axis=1) | ~np.any(verts, axis=1)
                | (depth == cur._INTEGRATE_MAX_DEPTH))

    owner = np.nonzero(~all_in)[0]
    tri, owner, area, _, _ = _subdivide_reference(
        corners[owner], owner, C.areas[owner],
        _membership_rule_reference(R, is_leaf))
    pts = cur._quad_points(tri)
    inn = _indicator_reference(R, pts)
    hit = np.any(inn, axis=1)
    if not np.any(hit):
        return acc
    pts, inn, owner, area = pts[hit], inn[hit], owner[hit], area[hit]
    vals = np.asarray(fn(pts, C.tangents[owner]), dtype=float)
    per_leaf = (vals * (cur.TRI_QUAD_WEIGHTS * inn)).sum(axis=1)
    return acc + float(np.sum(per_leaf * area * C.multiplicities[owner]))


def _subdiv_mass_levelsync_reference(C, R, rel_tol=1e-4):
    """`cur._subdiv_mass` testing every corner and the centroid of every
    sub-triangle at every depth."""
    total = C.total_mass()
    corners = C.corners()
    verts_in = _indicator_reference(R, corners)
    cents_in = _indicator_reference(R, C.centroids)
    all_in = np.all(verts_in, axis=1) & cents_in
    all_out = np.all(~verts_in, axis=1) & ~cents_in
    acc = float(np.sum(C.areas[all_in] * C.multiplicities[all_in]))
    small = rel_tol * rel_tol * max(total, 1e-12)

    def is_leaf(depth, inn, area):
        verts, cin = inn[:, :3], inn[:, 3]
        settled = (np.all(verts, axis=1) & cin) | (~np.any(verts, axis=1) & ~cin)
        capped = (depth == cur._MASS_MAX_DEPTH) | (area <= small)
        return (settled & (depth >= 2)) | capped

    owner = np.nonzero(~(all_in | all_out))[0]
    _, owner, area, _, inn = _subdivide_reference(
        corners[owner], owner, C.areas[owner],
        _membership_rule_reference(R, is_leaf))
    per_triangle = np.bincount(owner, weights=area * inn[:, 3], minlength=len(C))
    return acc + float(per_triangle @ C.multiplicities)


_KINDS = ["ball", "annulus", "cylinder", "cone_complement", "dilated"]


def _random_case(rng, kind, scale, n=8):
    """A random mesh at coordinate scale `scale`, half of its vertices far
    from a region whose center is off the origin, and the region; `dilated`
    gives a dilated mesh, whose clip ball makes the region an intersection."""
    m = 4
    pts = rng.standard_normal((12, m))
    pts[6:] += 6.0 * rng.standard_normal(m)  # far from the region
    tris = [tuple(rng.choice(12, 3, replace=False)) for _ in range(n)]
    C = cur.TriCurrent(scale * pts, tris, rng.choice([-2, -1, 1, 2, 3], n))
    if kind == "dilated":
        C = cur.dilate(C, C.centroids[rng.integers(n)],
                       scale * rng.uniform(0.5, 2.0))
        R = cur.Region.ball(0.3 * rng.standard_normal(m),
                            rng.uniform(0.3, 1.2))
        if rng.integers(2):
            R = _random_region(rng, "cone_complement", m)
        return C, cur._effective_region(C, R)
    R = _random_region(rng, kind, m)
    scaled = {"center": scale * R.center, "radius": scale * R.radius,
              "inner": scale * R.inner, "outer": scale * R.outer}
    return C, dataclasses.replace(R, **scaled)


def test_midpoint_children_and_distances_keep_their_bits():
    rng = np.random.default_rng(5)
    corners = rng.standard_normal((50, 3, 4)) * 10.0 ** rng.integers(-3, 4, (50, 1, 1))
    got = cur._midpoint_children(corners)
    assert all(np.array_equal(g, w)
               for g, w in zip(got, _midpoint_children_reference(corners)))
    for shape in [(7, 4), (30, 7, 4), (5, 3, 6), (9, 2)]:
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        c = rng.standard_normal(shape[-1])
        assert np.array_equal(cur._distances(x, c), np.linalg.norm(x - c, axis=-1))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(["cylinder", "cone_complement", "dilated"]),
    st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_property_integrate_matches_levelsync_reference(seed, kind, scale):
    """On the regions it still subdivides, integrate hands fn the same
    groups of points, in the same order, and returns the same bits as the
    form that tests every point it builds."""
    rng = np.random.default_rng(seed)
    C, R = _random_case(rng, kind, scale)
    a = rng.standard_normal(C.m) / scale
    b = rng.standard_normal(len(xt.blades(C.m, 2)))
    calls = {"got": [], "want": []}

    def integrand(key):
        def fn(p, t):
            calls[key].append((p.copy(), t.copy()))
            return np.cos(p @ a) + ((t @ b) ** 2)[:, None] - 0.5
        return fn

    got = cur.integrate(C, integrand("got"), R)
    want = _integrate_levelsync_reference(C, integrand("want"), R)
    assert got == want
    assert len(calls["got"]) == len(calls["want"])
    for (p, t), (q, s) in zip(calls["got"], calls["want"]):
        assert np.array_equal(p, q) and np.array_equal(t, s)


def _section_rays_reference(P, theta):
    """Where the rays from the origin at angles theta (k,) meet the
    triangle with corners P (3, 2): the barycentric coordinates of
    rho (cos, sin) are affine in rho, and each must stay >= 0. Returns
    (a, b), each (k,); the ray misses where b <= a."""
    inv = np.linalg.inv(np.column_stack([P[1] - P[0], P[2] - P[0]]))
    st0 = inv @ -P[0]  # (s, t) of the origin
    alpha = np.array([1.0 - st0.sum(), st0[0], st0[1]])
    dst = np.stack([np.cos(theta), np.sin(theta)], axis=1) @ inv.T
    beta = np.column_stack([-dst.sum(axis=1), dst])
    a, b = np.zeros(len(theta)), np.full(len(theta), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(3):
            r = -alpha[i] / beta[:, i]
            a = np.where(beta[:, i] > 0, np.maximum(a, r), a)
            b = np.where(beta[:, i] < 0, np.minimum(b, r), b)
            b = np.where((beta[:, i] == 0) & (alpha[i] < 0), -np.inf, b)
    return a, b


def _section_reference(C, fn, R, n=16, grades=49):
    """`cur.integrate` over a ball or an annulus at much higher order, one
    triangle and one sub-wedge at a time, on the pointwise contract of
    `_quad_integrate_reference`.

    The same split into inside, outside and boundary triangles; the inside
    ones go through `_quad_integrate_reference`. A boundary triangle's
    plane gets a Gram-Schmidt frame of its edges; its section is cut at
    the corners' angles about the foot of the center, at the angles where
    an edge crosses either circle, and at +-pi, and each sub-wedge is cut
    again at 2^-j of its width from either end (j = 1..grades), so a limit
    that turns sharply at an end is resolved. Every piece gets n x n
    Gauss-Legendre nodes in angle and radius.
    """
    x0 = R.center
    hole, ball = (R.inner, R.outer) if R.kind == "annulus" else (0.0, R.radius)
    corners = C.corners()
    q, _ = cur._closest_points_on_triangles(x0, corners[:, 0], corners[:, 1],
                                           corners[:, 2])
    near = np.linalg.norm(q - x0, axis=1)
    far = np.linalg.norm(corners - x0, axis=2).max(axis=1)
    inside = (far <= ball) & ((near > hole) | (hole == 0.0))
    out = (near > ball) | (far <= hole)
    acc = _quad_integrate_reference(corners[inside], C.tangents[inside],
                                    C.areas[inside], C.multiplicities[inside], fn)
    xg, wg = np.polynomial.legendre.leggauss(n)
    steps = 2.0 ** -np.arange(1, grades + 1)
    for k in np.nonzero(~(inside | out))[0]:
        A, B, D = corners[k]
        e = (B - A) / np.linalg.norm(B - A)
        f = (D - A) - np.dot(D - A, e) * e
        f /= np.linalg.norm(f)
        foot = A + np.dot(x0 - A, e) * e + np.dot(x0 - A, f) * f
        d2 = np.dot(x0 - foot, x0 - foot)
        if d2 >= ball * ball:
            continue
        ro, ri = np.sqrt(ball * ball - d2), np.sqrt(max(hole * hole - d2, 0.0))
        P = (corners[k] - foot) @ np.column_stack([e, f])
        th = [-np.pi, np.pi] + [math.atan2(y, x) for x, y in P]
        for i in range(3):
            p, E = P[i], P[(i + 1) % 3] - P[i]
            for rad in (ri, ro):
                qa, qb, qc = E @ E, p @ E, p @ p - rad * rad
                disc = qb * qb - qa * qc
                if disc > 0:
                    for t in ((-qb - math.sqrt(disc)) / qa, (-qb + math.sqrt(disc)) / qa):
                        if 0 < t < 1:
                            th.append(math.atan2(*(p + t * E)[::-1]))
        th = np.unique(th)
        for lo, hi in zip(th[:-1], th[1:]):
            w = hi - lo
            cuts = np.unique(np.concatenate([[lo, hi, lo + w / 2],
                                             lo + w * steps, hi - w * steps]))
            half = 0.5 * np.diff(cuts)
            theta = ((cuts[:-1] + half)[:, None] + half[:, None] * xg).ravel()
            wth = (half[:, None] * wg).ravel()
            a, b = _section_rays_reference(P, theta)
            a, b = np.maximum(a, ri), np.minimum(b, ro)
            hit = b > a
            theta, wth, a, b = theta[hit], wth[hit], a[hit], b[hit]
            rho = (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * xg
            wts = (wth * 0.5 * (b - a))[:, None] * wg * rho
            pts = (foot + (rho * np.cos(theta)[:, None])[..., None] * e
                   + (rho * np.sin(theta)[:, None])[..., None] * f)
            pts = pts.reshape(-1, C.m)
            tans = np.broadcast_to(C.tangents[k], (len(pts), C.tangents.shape[1]))
            vals = np.asarray(fn(pts, tans), dtype=float)
            acc += float(vals @ wts.ravel()) * C.multiplicities[k]
    return acc


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(["ball", "annulus", "vertex"]),
    st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_property_integrate_sections_match_high_order_reference(seed, kind, scale):
    """Ball and annulus integrals of a smooth integrand agree with the
    order-16 section reference to 1e-9 of the integral of |f|, and the
    integral of 1 with the exact clipped mass to 1e-13 of M(C).

    Measured over 1000 seeds of this test's cases: the reference's
    integral of 1 is off the clipped mass by at most 4.0e-15 of M(C), and
    over 200 of them its integral of f moves by at most 8.5e-16 of the
    integral of |f| at order 24;
    integrate's 8 x 6 rule is off the reference by at most 5.8e-11 of the
    integral of |f|, and off the clipped mass by at most 1.9e-15 of M(C).
    `vertex` centers a ball on a corner of a triangle; an integrand that
    is singular but integrable there must give a finite result.
    """
    rng = np.random.default_rng(seed)
    C, R = _random_case(rng, "annulus" if kind == "annulus" else "ball", scale)
    if kind == "vertex":
        R = dataclasses.replace(R, center=C.vertices[C.triangles[0, rng.integers(3)]])
    a = rng.standard_normal(C.m) / (4.0 * scale)
    b = rng.standard_normal(len(xt.blades(C.m, 2)))

    def fn_points(p, t):
        return np.cos(p @ a) + (t @ b) ** 2 - 0.5

    def fn(p, t):
        return np.cos(p @ a) + ((t @ b) ** 2)[:, None] - 0.5

    got = cur.integrate(C, fn, R)
    want = _section_reference(C, fn_points, R)
    size = _section_reference(C, lambda p, t: np.abs(fn_points(p, t)), R)
    assert abs(got - want) <= 1e-9 * size
    ones = cur.integrate(C, lambda p, t: np.ones(p.shape[:-1]), R)
    assert abs(ones - cur.mass(C, R)) <= 1e-13 * cur.mass(C)
    if kind == "vertex":
        x0 = R.center
        with np.errstate(divide="raise", invalid="raise"):
            inv = cur.integrate(C, lambda p, t: scale / np.linalg.norm(p - x0, axis=-1), R)
        assert np.isfinite(inv)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(_KINDS),
    st.sampled_from([1e-3, 1.0, 1e3]),
    st.sampled_from([1e-4, 1e-2]),
)
def test_property_subdiv_mass_matches_levelsync_reference(seed, kind, scale,
                                                          rel_tol):
    """_subdiv_mass, which tests each corner once and each centroid, gives
    the same bits as the form that tests every corner at every depth."""
    rng = np.random.default_rng(seed)
    C, R = _random_case(rng, kind, scale, n=3)
    assert (cur._subdiv_mass(C, R, rel_tol)
            == _subdiv_mass_levelsync_reference(C, R, rel_tol))


def _ladder_case(rng, shipped, mesh):
    """A current, a center and 1-6 radii: unsorted, one of them repeated,
    and sometimes one too small for any triangle to lie inside. `dilated`
    is a blow-up with clip radius 1 whose radii beyond 1, or whose
    off-origin center, make its balls intersections."""
    if mesh == "dilated":
        base = shipped[rng.choice(["cusp", "two_lines", "disk"])]
        C = cur.dilate(base, np.zeros(4), rng.uniform(0.2, 0.5))
        center = np.zeros(4) if rng.integers(2) else 0.2 * rng.standard_normal(4)
        radii = rng.uniform(0.2, 1.6, rng.integers(1, 6))
    else:
        C = shipped[mesh]
        where = rng.integers(3)
        if where == 0:
            center = np.zeros(4)
        else:  # near a vertex or a centroid, nudged off the surface
            near = C.vertices if where == 1 else C.centroids
            center = near[rng.integers(len(near))] + 1e-3 * rng.standard_normal(4)
        extent = np.linalg.norm(C.vertices - center, axis=1).max()
        radii = extent * rng.uniform(0.02, 0.8, rng.integers(1, 6))
    radii = np.append(radii, radii[rng.integers(len(radii))])
    if rng.integers(2):
        far = np.linalg.norm(C.corners() - center, axis=2).max(axis=1)
        radii = np.append(radii, 0.5 * far.min())  # no triangle inside
    return C, center, rng.permutation(radii)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(["cusp", "cusp_fine", "disk", "graph", "two_lines", "graded",
                     "dilated"]),
    st.sampled_from(["blowup", "smooth"]),
)
def test_property_integrate_ladder_matches_integrate(shipped, seed, mesh, integrand):
    """integrate_ladder gives `integrate` ball by ball, bit for bit, and
    where every ball stays a ball it evaluates the 7-point rule once: the
    coarse and the four children's calls of fn, over all balls at once."""
    from curlab import blowup as bl

    rng = np.random.default_rng(seed)
    C, center, radii = _ladder_case(rng, shipped, mesh)
    if integrand == "blowup":
        fn = bl.gradient_energy_density(C, center)
    else:
        a = rng.standard_normal(C.m)
        b = rng.standard_normal(len(xt.blades(C.m, 2)))

        def fn(p, t):
            # coordinate by coordinate: a matrix-vector product such as
            # `t @ b` rounds a one-row call differently
            pa = sum(p[..., i] * a[i] for i in range(len(a)))
            tb = sum(t[:, i] * b[i] for i in range(len(b)))
            return np.cos(pa) + (tb**2)[:, None] - 0.5

    calls = []

    def counted(p, t):
        calls.append(p.shape[1])
        return fn(p, t)

    got = cur.integrate_ladder(C, counted, center, radii)
    want = [cur.integrate(C, fn, cur.Region.ball(center, r)) for r in radii]
    assert got.shape == radii.shape and np.all(np.isfinite(got))
    assert np.array_equal(got, want)
    plain = all(cur._effective_region(C, cur.Region.ball(center, r)).kind == "ball"
                for r in radii)
    if plain:
        assert calls.count(7) in (0, 5)
