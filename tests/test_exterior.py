"""Exterior algebra layer: wedge, contraction, comass, calibration tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curlab import exterior as xt


def _rng(seed=0):
    return np.random.default_rng(seed)


def _unit(v):
    return v / np.linalg.norm(v)


def _random_simple(rng, m):
    """Random unit simple 2-vector in R^m."""
    v = rng.standard_normal(m)
    w = rng.standard_normal(m)
    xi = xt.simple_2vector(v, w)
    n = xi.norm()
    if n < 1e-9:
        return _random_simple(rng, m)
    return xt.MultiVector(m, 2, xi.coeffs / n)


def test_wedge_basis():
    m = 6
    e = [xt.vector(m, np.eye(m)[i]) for i in range(m)]
    w = xt.wedge(xt.simple_2vector(e[0].coeffs, e[1].coeffs), e[2])
    assert abs(w.norm() - 1.0) < 1e-14
    assert abs(w.coeffs[xt.blade_index(m, (0, 1, 2))] - 1.0) < 1e-14


def test_wedge_repeated_factor_vanishes():
    m = 4
    e1 = xt.vector(m, [1, 0, 0, 0])
    w = xt.wedge(xt.simple_2vector(e1.coeffs, [0, 1, 0, 0]), e1)
    assert w.norm() < 1e-14


def test_wedge_gram_determinant():
    rng = _rng(3)
    for m in (4, 6, 8):
        for _ in range(50):
            v, w, z = rng.standard_normal((3, m))
            tri = xt.wedge(xt.simple_2vector(v, w), xt.vector(m, z))
            G = np.array([[a @ b for b in (v, w, z)] for a in (v, w, z)])
            assert tri.norm() == pytest.approx(
                math.sqrt(max(np.linalg.det(G), 0.0)), abs=1e-8
            )


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        xt.wedge(xt.simple_2vector([1, 0, 0, 0], [0, 1, 0, 0]),
                 xt.vector(6, np.eye(6)[0]))


def test_contract_basis():
    m = 4
    om = xt.MultiForm(m, 2, np.eye(len(xt.blades(m, 2)))[0])  # dx1^dx2
    c = xt.contract(om, xt.vector(m, [1, 0, 0, 0]))
    assert np.allclose(c.coeffs, [0, 1, 0, 0])
    c2 = xt.contract(om, xt.vector(m, [0, 0, 1, 0]))
    assert np.allclose(c2.coeffs, 0)


def test_contract_pairing_identity():
    rng = _rng(5)
    m = 6
    for _ in range(20):
        om = xt.MultiForm(m, 2, rng.standard_normal(len(xt.blades(m, 2))))
        v = rng.standard_normal(m)
        c = xt.contract(om, xt.vector(m, v))
        for _ in range(100):
            w = rng.standard_normal(m)
            lhs = float(c.coeffs @ w)
            rhs = xt.pairing(om, xt.wedge(xt.vector(m, v), xt.vector(m, w)))
            assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(rhs)))


def test_radial_tangential_part():
    m = 4
    nb = len(xt.blades(m, 2))
    om12 = xt.MultiForm(m, 2, np.eye(nb)[xt.blade_index(m, (0, 1))])
    om34 = xt.MultiForm(m, 2, np.eye(nb)[xt.blade_index(m, (2, 3))])
    e1 = np.array([1.0, 0, 0, 0])
    t = xt.radial_tangential_part(om12, e1)
    assert np.allclose(t.coeffs, om12.coeffs, atol=1e-12)
    t2 = xt.radial_tangential_part(om34, e1)
    assert np.allclose(t2.coeffs, 0, atol=1e-12)


def test_radial_tangential_contraction_oracle():
    rng = _rng(11)
    m = 6
    for _ in range(20):
        om = xt.MultiForm(m, 2, rng.standard_normal(len(xt.blades(m, 2))))
        x = _unit(rng.standard_normal(m))
        t = xt.radial_tangential_part(om, x)
        for _ in range(100):
            xi = _random_simple(rng, m)
            # <om^t, xi> = <om, rhat ^ (rhat -| xi)>
            rhat = xt.vector(m, x)
            inner = xt.contract(
                xt.MultiForm(m, 2, xi.coeffs), rhat
            )
            model = xt.wedge(rhat, xt.vector(m, inner.coeffs))
            lhs = xt.pairing(t, xi)
            rhs = xt.pairing(om, model)
            assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(rhs)))


def test_comass_basics():
    m = 4
    nb = len(xt.blades(m, 2))
    dx12 = xt.MultiForm(m, 2, np.eye(nb)[0])
    assert xt.comass2(dx12) == pytest.approx(1.0, abs=1e-12)
    assert xt.comass2(xt.omega0(4)) == pytest.approx(1.0, abs=1e-12)
    mixed = xt.MultiForm(
        m, 2,
        2.0 * np.eye(nb)[xt.blade_index(m, (0, 1))]
        + np.eye(nb)[xt.blade_index(m, (2, 3))],
    )
    assert xt.comass2(mixed) == pytest.approx(2.0, abs=1e-12)


def test_comass_brute_force():
    rng = _rng(17)
    m = 4
    nb = len(xt.blades(m, 2))
    forms = [
        xt.omega0(m),
        xt.MultiForm(m, 2, 2.0 * np.eye(nb)[0] + np.eye(nb)[-1]),
        xt.MultiForm(m, 2, rng.standard_normal(nb)),
    ]
    V = rng.standard_normal((100_000, m))
    W = rng.standard_normal((100_000, m))
    i2, j2 = xt.pairs2(m)
    X = V[:, i2] * W[:, j2] - V[:, j2] * W[:, i2]
    X = X / np.linalg.norm(X, axis=1)[:, None]
    from scipy.optimize import minimize

    def value(params, coeffs):
        v, w = params[:m], params[m:]
        x = v[i2] * w[j2] - v[j2] * w[i2]
        n = np.linalg.norm(x)
        if n < 1e-12:
            return 0.0
        return abs(float(x @ coeffs)) / n

    for om in forms:
        vals = np.abs(X @ om.coeffs)
        best = int(np.argmax(vals))
        start = np.concatenate([V[best], W[best]])
        res = minimize(lambda p: -value(p, om.coeffs), start,
                       method="Nelder-Mead",
                       options={"maxiter": 4000, "xatol": 1e-10,
                                "fatol": 1e-12})
        brute = max(float(vals[best]), -res.fun)
        exact = xt.comass2(om)
        assert brute <= exact + 1e-9
        assert exact - brute <= 1e-3 * max(exact, 1.0)


def test_canonicalize_standard():
    m = 6
    Q, lam = xt.canonicalize_2form(xt.omega0(m))
    assert np.allclose(lam, 1.0, atol=1e-12)
    assert np.allclose(Q @ Q.T, np.eye(m), atol=1e-12)


def test_canonicalize_off_pair():
    m = 4
    nb = len(xt.blades(m, 2))
    om = xt.MultiForm(m, 2, np.eye(nb)[xt.blade_index(m, (0, 2))])
    _, lam = xt.canonicalize_2form(om)
    assert np.allclose(sorted(lam, reverse=True), [1.0, 0.0], atol=1e-12)


def test_canonicalize_reconstruction():
    rng = _rng(23)
    for m in (4, 6, 8):
        for _ in range(10):
            A = rng.standard_normal((m, m))
            A = A - A.T
            om = xt.MultiForm(m, 2, xt.two_vector_from_skew(A).coeffs)
            Q, lam = xt.canonicalize_2form(om)
            # singular values of a real skew matrix come in equal pairs
            sv = np.linalg.svd(A, compute_uv=False)
            assert np.allclose(np.repeat(lam, 2), sv, atol=1e-8)
            # rebuild A from the canonical data
            B = np.zeros((m, m))
            for a, s in enumerate(lam):
                B[2 * a, 2 * a + 1] = s
                B[2 * a + 1, 2 * a] = -s
            assert np.allclose(Q @ B @ Q.T, A, atol=1e-10)


def test_complex_structure_validation():
    with pytest.raises(ValueError):
        xt.ComplexStructure(3)
    J = xt.ComplexStructure(6).matrix
    assert np.allclose(J @ J, -np.eye(6))
    assert not J.flags.writeable


def test_wirtinger_complex_line():
    m = 4
    J = xt.ComplexStructure(m)
    v = _unit(np.array([1.0, 2.0, -0.5, 0.3]))
    xi = xt.simple_2vector(v, J.apply(v))
    xi = xt.MultiVector(m, 2, xi.coeffs / xi.norm())
    val, flag = xt.wirtinger_check(xi, J)
    assert val == pytest.approx(1.0, abs=1e-9)
    assert flag


def test_wirtinger_battery():
    """Large randomized Wirtinger bound check with calibration detection."""
    rng = _rng(29)
    m = 4
    J = xt.ComplexStructure(m)
    om = xt.omega0(m)
    V = rng.standard_normal((100_000, m))
    W = rng.standard_normal((100_000, m))
    i2, j2 = xt.pairs2(m)
    X = V[:, i2] * W[:, j2] - V[:, j2] * W[:, i2]
    X = X / np.linalg.norm(X, axis=1)[:, None]
    vals = X @ om.coeffs
    assert vals.max() <= 1.0 + 1e-9
    assert vals.min() >= -1.0 - 1e-9
    # spot-check the flag logic on a smaller subsample
    for row in X[:300]:
        xi = xt.MultiVector(m, 2, row)
        val, flag = xt.wirtinger_check(xi, J)
        assert val <= 1.0 + 1e-9
        if flag:
            assert val >= 1.0 - 1e-6
        if val < 1.0 - 1e-6:
            assert not flag


def test_decompose_calibrated_roundtrip():
    rng = _rng(31)
    for m in (4, 6, 8):
        J = xt.ComplexStructure(m)
        for _ in range(30):
            parts = []
            total = np.zeros(len(xt.blades(m, 2)))
            for _ in range(m // 2):
                v = _unit(rng.standard_normal(m))
                lam = rng.uniform(0.2, 2.0)
                xi = xt.simple_2vector(v, J.apply(v))
                parts.append(lam)
                total = total + lam * xi.coeffs
            tau = xt.MultiVector(m, 2, total)
            dec = xt.decompose_calibrated(tau, tol=1e-6)
            recon = sum(l * xi.coeffs for l, xi in dec)
            assert np.linalg.norm(recon - tau.coeffs) <= 1e-8 * max(
                1.0, xt.mass2(tau)
            )
            assert sum(l for l, _ in dec) == pytest.approx(
                xt.mass2(tau), rel=1e-8
            )


def test_decompose_rejects_uncalibrated():
    m = 4
    xi = xt.simple_2vector([1, 0, 0, 0], [0, 0, 1, 0])  # e1 ^ e3
    with pytest.raises(ValueError):
        xt.decompose_calibrated(xi)


@pytest.mark.parametrize("m", [4, 6, 8])
def test_vectest_sandwich(m):
    """L <= M <= C(m) * L over many random decompositions and zeta."""
    rng = _rng(37 + m)
    J = xt.ComplexStructure(m)
    n_dec = 100
    n_zeta = 100  # 10^4 sandwich evaluations per dimension
    for _ in range(n_dec):
        dec = []
        for _ in range(rng.integers(1, m // 2 + 1)):
            v = _unit(rng.standard_normal(m))
            dec.append(
                (float(rng.uniform(0.2, 2.0)),
                 xt.simple_2vector(v, J.apply(v)))
            )
        for _ in range(n_zeta):
            zeta = xt.vector(m, _unit(rng.standard_normal(m)))
            L, M, Cm = xt.vectest_bounds(dec, zeta, J)
            assert Cm == xt.vectest_constant(m)
            assert L <= M + 1e-9 * (1 + M)
            assert M <= Cm * L + 1e-9 * (1 + L)


def test_split_near_calibrated_slope():
    """|tau1| scales like sqrt(|x|) for forms omega0 + O(|x|)."""
    rng = _rng(41)
    m = 4
    nb = len(xt.blades(m, 2))
    B = rng.standard_normal((m, m))
    B = B - B.T
    B /= np.linalg.norm(B)
    slopes = []
    for _ in range(10):
        Bk = rng.standard_normal((m, m))
        Bk = Bk - Bk.T
        Bk /= np.linalg.norm(Bk)
        ts = np.logspace(-4, -1.5, 8)
        norms = []
        for t in ts:
            A = xt.skew_from_two_vector(xt.omega0(m)) + t * Bk
            om = xt.MultiForm(m, 2, xt.two_vector_from_skew(A).coeffs)
            om = xt.MultiForm(m, 2, om.coeffs / xt.comass2(om),
                              comass_bound=1.0)
            Q, lam = xt.canonicalize_2form(om)
            tau = xt.simple_2vector(Q[:, 0], Q[:, 1])
            x = np.zeros(m)
            x[0] = t
            tau0, tau1 = xt.split_near_calibrated(tau, om, x)
            assert abs(tau0.norm() - 1.0) < 1e-9
            norms.append(max(tau1.norm(), 1e-300))
        keep = np.array(norms) > 1e-12
        if keep.sum() >= 4:
            slope = np.polyfit(np.log(ts[keep]), np.log(norms)[keep], 1)[0]
            slopes.append(slope)
    assert slopes, "all perturbations degenerate"
    assert min(slopes) >= 0.45


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([4, 6, 8]),
)
def test_property_mass_dominates_pairing(seed, m):
    """|<omega, xi>| <= comass(omega) * mass(xi) for random grade-2 pairs."""
    rng = _rng(seed)
    om = xt.MultiForm(m, 2, rng.standard_normal(len(xt.blades(m, 2))))
    xi = xt.MultiVector(m, 2, rng.standard_normal(len(xt.blades(m, 2))))
    val = abs(xt.pairing(om, xi))
    assert val <= xt.comass2(om) * xt.mass2(xi) * (1 + 1e-9) + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_wedge_antisymmetry(seed):
    rng = _rng(seed)
    m = 6
    v, w = rng.standard_normal((2, m))
    a = xt.wedge(xt.vector(m, v), xt.vector(m, w))
    b = xt.wedge(xt.vector(m, w), xt.vector(m, v))
    assert np.allclose(a.coeffs, -b.coeffs, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_plane_basis_reconstructs(seed):
    rng = _rng(seed)
    m = 6
    xi = _random_simple(rng, m)
    e, f = xt.plane_basis(xi)
    model = xt.simple_2vector(e, f)
    assert np.allclose(model.coeffs, xi.coeffs, atol=1e-8)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([2, 4, 6]),
       st.integers(min_value=0, max_value=4))
def test_property_skew_rows_round_trip(seed, m, count):
    """The batched skew <-> blade-row converters invert each other and
    agree row by row with skew_from_two_vector."""
    rng = _rng(seed)
    rows = rng.standard_normal((count, len(xt.blades(m, 2))))
    A = xt._skew_from_rows(rows, m)
    assert A.shape == (count, m, m)
    assert np.array_equal(A, -np.swapaxes(A, 1, 2))
    assert np.array_equal(xt._rows_from_skew(A), rows)
    for row, skew in zip(rows, A):
        assert np.array_equal(skew, xt.skew_from_two_vector(xt.MultiVector(m, 2, row)))
        assert np.array_equal(skew, xt.skew_from_two_vector(xt.MultiForm(m, 2, row)))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([2, 4, 6]),
       st.sampled_from([(1, 1), (1, 2), (2, 1)]))
def test_property_wedge_of_forms_matches_vectors(seed, m, grades):
    rng = _rng(seed)
    j, k = grades
    a = rng.standard_normal(len(xt.blades(m, j)))
    b = rng.standard_normal(len(xt.blades(m, k)))
    form = xt.wedge(xt.MultiForm(m, j, a), xt.MultiForm(m, k, b))
    vec = xt.wedge(xt.MultiVector(m, j, a), xt.MultiVector(m, k, b))
    assert type(form) is xt.MultiForm and type(vec) is xt.MultiVector
    assert form.grade == vec.grade == j + k
    assert np.array_equal(form.coeffs, vec.coeffs)


def test_wedge_rejects_mixed_types():
    with pytest.raises(TypeError):
        xt.wedge(xt.vector(4, [1, 0, 0, 0]), xt.form1(4, [0, 1, 0, 0]))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([2, 4, 6]))
def test_property_complex_coordinates(seed, m):
    """z_a = x_{2a} + i x_{2a+1}: row-wise, by the matrix, and inverted;
    multiplication by i is J0."""
    rng = _rng(seed)
    x = rng.standard_normal((3, m))
    z = xt._complex_rows(x)
    assert np.array_equal(z, x @ xt._complex_matrix(m).T)
    assert np.array_equal(xt._real_rows(z), x)
    J = xt.ComplexStructure(m).matrix
    assert np.array_equal(xt._times_i(x), x @ J.T)
    assert np.array_equal(xt._complex_rows(xt._times_i(x)), 1j * z)


def test_wedge3_index_tables():
    for m in (2, 4, 6):
        table = xt._wedge3_index(m)
        assert len(table) == 6
        assert all(col.dtype.kind == "i" and len(col) == len(xt.blades(m, 3))
                   for col in table)
    # (e_a ^ e_b) ^ e_c through the table is the blade (a, b, c)
    m = 6
    kab, c, kac, b, kbc, a = xt._wedge3_index(m)
    for n, blade in enumerate(xt.blades(m, 3)):
        assert (a[n], b[n], c[n]) == blade
        assert kab[n] == xt.blade_index(m, blade[:2])
