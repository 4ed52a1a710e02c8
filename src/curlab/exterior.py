"""Exterior algebra over R^m (m even) with a fixed complex structure.

Dense grade-1/2/3 multivectors and multiforms over the lexicographic blade
basis with their skew-matrix and grade-3 index tables, the standard complex
structure J0 (J0 e_{2i-1} = e_{2i} in 1-based indexing) and the complex
coordinates z_a = x_{2a} + i x_{2a+1} (0-based) it induces, the standard
symplectic 2-form omega0, comass computation and the canonical form of
constant 2-forms, the Wirtinger calibration test, spectral decomposition of
calibrated 2-vectors into complex lines, the sandwich bounds used by the
projection mass estimate, and the near-calibrated splitting. The other
modules take these conventions from here.

Everything here is pure and operates on immutable data.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType

import numpy as np
import scipy.linalg

__all__ = [
    "MultiVector",
    "MultiForm",
    "ComplexStructure",
    "CAL_TOL",
    "blades",
    "blade_index",
    "pairs2",
    "vector",
    "form1",
    "two_vector_from_skew",
    "skew_from_two_vector",
    "simple_2vector",
    "omega0",
    "pairing",
    "wedge",
    "contract",
    "radial_tangential_part",
    "comass2",
    "mass2",
    "canonicalize_2form",
    "wirtinger_check",
    "decompose_calibrated",
    "vectest_bounds",
    "vectest_constant",
    "split_near_calibrated",
    "plane_basis",
    "plane_frames",
]

# Single shared tolerance for "calibrated": defect at most this much.
CAL_TOL = 1e-8


@lru_cache(maxsize=None)
def blades(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Lexicographically ordered index blades for grade k in dimension m."""
    return tuple(combinations(range(m), k))


@lru_cache(maxsize=None)
def _blade_lookup(m: int, k: int) -> Mapping[tuple[int, ...], int]:
    """Index of each grade-k blade of R^m, read-only: it is cached."""
    return MappingProxyType({b: i for i, b in enumerate(blades(m, k))})


def blade_index(m: int, idx: tuple[int, ...]) -> int:
    return _blade_lookup(m, len(idx))[tuple(sorted(idx))]


@lru_cache(maxsize=None)
def pairs2(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), i < j, of the grade-2 blade basis, read-only:
    they are cached."""
    bl = blades(m, 2)
    i = np.array([b[0] for b in bl])
    j = np.array([b[1] for b in bl])
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _check_dims(a, b):
    if a.m != b.m:
        raise ValueError(f"dimension mismatch: {a.m} vs {b.m}")


@dataclass(frozen=True)
class _Blades:
    """Dense grade-1, 2 or 3 coefficients over the blade basis of R^m."""

    m: int
    grade: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.m % 2 or self.m <= 0:
            raise ValueError("dimension must be positive and even")
        if self.grade not in (1, 2, 3):
            raise ValueError("grade must be 1, 2 or 3")
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (len(blades(self.m, self.grade)),):
            raise ValueError("coefficient array has wrong length")
        object.__setattr__(self, "coeffs", c)
        c.flags.writeable = False

    def norm(self) -> float:
        """Euclidean blade norm (= mass norm on simple vectors)."""
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other):
        _check_dims(self, other)
        if self.grade != other.grade:
            raise ValueError("grade mismatch")
        return type(self)(self.m, self.grade, self.coeffs + other.coeffs)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, s: float):
        return type(self)(self.m, self.grade, float(s) * self.coeffs)


@dataclass(frozen=True)
class MultiVector(_Blades):
    """Dense exterior vector of grade 1, 2 or 3 in R^m."""


@dataclass(frozen=True)
class MultiForm(_Blades):
    """Covector counterpart of MultiVector; same blade layout.

    comass_bound, when set, is a declared upper bound for the value on unit
    simple k-vectors. It is advisory and checked by sampling in the tests.
    """

    comass_bound: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.comass_bound is not None and self.comass_bound < 0:
            raise ValueError("comass bound must be nonnegative")


@dataclass(frozen=True)
class ComplexStructure:
    """The standard complex structure: J e_{2i} = e_{2i+1} (0-based pairs)."""

    m: int
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.m % 2 or self.m <= 0:
            raise ValueError("dimension must be positive and even")
        J = np.zeros((self.m, self.m))
        for a in range(self.m // 2):
            J[2 * a + 1, 2 * a] = 1.0
            J[2 * a, 2 * a + 1] = -1.0
        object.__setattr__(self, "matrix", J)
        J.flags.writeable = False

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=float)


@lru_cache(maxsize=None)
def _complex_matrix(m: int) -> np.ndarray:
    """The (m/2) x m matrix C with (C x)_a = x_{2a} + i x_{2a+1}."""
    n = m // 2
    C = np.zeros((n, m), dtype=complex)
    for a in range(n):
        C[a, 2 * a] = 1.0
        C[a, 2 * a + 1] = 1.0j
    C.flags.writeable = False
    return C


def _complex_rows(x) -> np.ndarray:
    """Complex coordinates z_a = x_{2a} + i x_{2a+1} of real rows (..., m)."""
    x = np.asarray(x, dtype=float)
    return x[..., 0::2] + 1j * x[..., 1::2]


def _real_rows(z) -> np.ndarray:
    """The real rows (..., m) of complex rows (..., m/2); inverts _complex_rows."""
    z = np.asarray(z)
    x = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    x[..., 0::2] = z.real
    x[..., 1::2] = z.imag
    return x


def _fs_dist_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Fubini-Study distances between the complex lines through the rows of
    A (k, n) and B (l, n), as a (k, l) matrix: atan2(|a ^ b|, |<a, b>|),
    with |a ^ b|^2 = sum_{i<j} |a_i b_j - a_j b_i|^2. Unlike arccos |<a, b>|
    of unit rows it keeps full precision for nearly equal lines."""
    wedge2 = np.zeros((len(A), len(B)))
    for i, j in zip(*np.triu_indices(A.shape[1], 1)):
        w = np.outer(A[:, i], B[:, j]) - np.outer(A[:, j], B[:, i])
        wedge2 += w.real**2 + w.imag**2
    return np.arctan2(np.sqrt(wedge2), np.abs(A @ np.conj(B).T))


def _times_i(x: np.ndarray) -> np.ndarray:
    """Multiplication by i on R^m read as C^{m/2}: (x0, x1) -> (-x1, x0),
    which is J0 x."""
    out = np.empty_like(x)
    out[..., 0::2] = -x[..., 1::2]
    out[..., 1::2] = x[..., 0::2]
    return out


def vector(m: int, v) -> MultiVector:
    return MultiVector(m, 1, np.asarray(v, dtype=float))


def form1(m: int, v) -> MultiForm:
    return MultiForm(m, 1, np.asarray(v, dtype=float))


def _skew_from_rows(rows, m: int) -> np.ndarray:
    """Skew matrices (..., m, m) with A[i, j] = c_{ij} for i < j, from
    grade-2 coefficient rows (..., n2)."""
    rows = np.asarray(rows, dtype=float)
    i, j = pairs2(m)
    A = np.zeros(rows.shape[:-1] + (m, m))
    A[..., i, j] = rows
    A[..., j, i] = -rows
    return A


def _rows_from_skew(A) -> np.ndarray:
    """Grade-2 coefficient rows (..., n2) of skew matrices (..., m, m)."""
    A = np.asarray(A, dtype=float)
    i, j = pairs2(A.shape[-1])
    return A[..., i, j]


def skew_from_two_vector(x: MultiVector | MultiForm) -> np.ndarray:
    """Coefficient matrix A with A[i, j] = c_{ij} for i < j, skew-symmetric."""
    if x.grade != 2:
        raise ValueError("grade-2 input required")
    return _skew_from_rows(x.coeffs, x.m)


def two_vector_from_skew(A: np.ndarray) -> MultiVector:
    A = np.asarray(A, dtype=float)
    return MultiVector(A.shape[0], 2, _rows_from_skew(A))


def simple_2vector(v, w) -> MultiVector:
    """The simple 2-vector v ^ w."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return two_vector_from_skew(np.outer(v, w) - np.outer(w, v))


def omega0(m: int) -> MultiForm:
    """Standard symplectic form, sum of dx^{2i-1} ^ dx^{2i}; comass 1."""
    c = np.zeros(len(blades(m, 2)))
    for a in range(m // 2):
        c[blade_index(m, (2 * a, 2 * a + 1))] = 1.0
    return MultiForm(m, 2, c, comass_bound=1.0)


def pairing(omega: MultiForm, xi: MultiVector) -> float:
    """Duality pairing <omega, xi>; blade bases are mutually dual."""
    _check_dims(omega, xi)
    if omega.grade != xi.grade:
        raise ValueError("grade mismatch")
    return float(omega.coeffs @ xi.coeffs)


@lru_cache(maxsize=None)
def _wedge_table(m: int, j: int, k: int):
    """Sparse multiplication table for grade j ^ grade k in dimension m:
    read-only arrays (rows of a, rows of b, output rows, signs), since they
    are cached."""
    out_lookup = _blade_lookup(m, j + k)
    rows_a, rows_b, rows_o, signs = [], [], [], []
    for ia, ba in enumerate(blades(m, j)):
        sa = set(ba)
        for ib, bb in enumerate(blades(m, k)):
            if sa & set(bb):
                continue
            merged = ba + bb
            order = np.argsort(merged, kind="stable")
            # parity of the sorting permutation
            perm = list(order)
            sign = 1
            for p in range(len(perm)):
                while perm[p] != p:
                    q = perm[p]
                    perm[p], perm[q] = perm[q], perm[p]
                    sign = -sign
            rows_a.append(ia)
            rows_b.append(ib)
            rows_o.append(out_lookup[tuple(sorted(merged))])
            signs.append(sign)
    table = (
        np.array(rows_a, dtype=int),
        np.array(rows_b, dtype=int),
        np.array(rows_o, dtype=int),
        np.array(signs, dtype=float),
    )
    for col in table:
        col.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _wedge3_index(m: int) -> tuple[np.ndarray, ...]:
    """Index arrays (kab, c, kac, b, kbc, a), one entry per grade-3 blade
    (a, b, c), with kxy the grade-2 blade index of (x, y).

    For a 2-vector t and a vector v, (t ^ v)_abc = t_kab v_c - t_kac v_b
    + t_kbc v_a; the same three terms give the exterior derivative of a
    2-form from its partials. For m = 2 all six arrays are empty.
    """
    k = _blade_lookup(m, 2)
    rows = [(k[a, b], c, k[a, c], b, k[b, c], a) for a, b, c in blades(m, 3)]
    table = np.array(rows, dtype=int).reshape(-1, 6).T
    table.flags.writeable = False
    return tuple(table)


def wedge(a, b):
    """Wedge product; bilinear, graded-anticommutative.

    Vectors and forms share one table (the blade bases are dual); the
    result has the type of the inputs, which must agree.
    """
    _check_dims(a, b)
    if type(a) is not type(b):
        raise TypeError("wedge of a vector and a form")
    if a.grade + b.grade > 3:
        raise ValueError("resulting grade exceeds 3")
    ia, ib, io, sg = _wedge_table(a.m, a.grade, b.grade)
    out = np.zeros(len(blades(a.m, a.grade + b.grade)))
    np.add.at(out, io, sg * a.coeffs[ia] * b.coeffs[ib])
    return type(a)(a.m, a.grade + b.grade, out)


def contract(omega: MultiForm, v: MultiVector) -> MultiForm:
    """Interior product v -| omega for a 2-form: <contract(w,v), u> = <w, v^u>."""
    _check_dims(omega, v)
    if omega.grade != 2 or v.grade != 1:
        raise ValueError("contract expects a 2-form and a 1-vector")
    A = skew_from_two_vector(omega)
    # <omega, v ^ u> = v^T A u, so the resulting covector is v^T A.
    return MultiForm(omega.m, 1, v.coeffs @ A)


def radial_tangential_part(omega: MultiForm, x) -> MultiForm:
    """The part of a 2-form seen by planes containing the radial direction.

    omega^t = rhat_flat ^ (rhat -| omega) with rhat = x/|x|.
    """
    x = np.asarray(x, dtype=float)
    nx = np.linalg.norm(x)
    if nx == 0.0:
        raise ValueError("radial part undefined at the origin")
    rhat = vector(omega.m, x / nx)
    alpha = contract(omega, rhat)
    return wedge(MultiForm(omega.m, 1, rhat.coeffs), alpha)


def _canonical_pairs(A: np.ndarray, tol: float = 1e-12):
    """Real Schur canonical form of a skew matrix.

    Returns (Q, lam) with Q orthogonal, lam sorted descending, and
    Q^T A Q block-diagonal with blocks [[0, lam_i], [-lam_i, 0]].
    """
    m = A.shape[0]
    scale = max(np.abs(A).max(), 1.0)
    T, Z = scipy.linalg.schur(A, output="real")
    # collect 2x2 blocks and 1x1 (zero) slots
    pairs = []  # (lam, col_a, col_b)
    singles = []
    j = 0
    while j < m:
        if j + 1 < m and abs(T[j + 1, j]) > tol * scale:
            lam = T[j, j + 1]
            if lam >= 0:
                pairs.append((lam, j, j + 1))
            else:
                pairs.append((-lam, j + 1, j))
            j += 2
        else:
            singles.append(j)
            j += 1
    pairs.sort(key=lambda t: -t[0])
    order = []
    lam = []
    for l, a, b in pairs:
        order += [a, b]
        lam.append(l)
    order += singles
    lam += [0.0] * (m // 2 - len(lam))
    Q = Z[:, order]
    return Q, np.array(lam)


def canonicalize_2form(omega: MultiForm):
    """Orthogonal normal form of a constant 2-form.

    Returns (Q, lam): an orthogonal matrix whose columns are the new basis
    and the sorted values lam_1 >= ... >= lam_{m/2} >= 0 such that in the new
    coordinates omega = sum lam_i dy^{2i-1} ^ dy^{2i}.
    """
    if omega.grade != 2:
        raise ValueError("grade-2 form required")
    A = skew_from_two_vector(omega)
    return _canonical_pairs(A)


def comass2(omega: MultiForm) -> float:
    """Comass of a constant 2-form: the largest canonical value."""
    if omega.grade != 2:
        raise ValueError("grade-2 form required")
    A = skew_from_two_vector(omega)
    if not np.any(A):
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


def mass2(xi: MultiVector) -> float:
    """Mass norm of a 2-vector: the sum of its canonical values."""
    if xi.grade != 2:
        raise ValueError("grade-2 vector required")
    A = skew_from_two_vector(xi)
    if not np.any(A):
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False).sum()) / 2.0


def plane_basis(xi: MultiVector, tol: float = 1e-9):
    """Orthonormal (e, f) with xi = |xi| e ^ f, for a simple 2-vector.

    Raises ValueError if xi is not simple within tol (relative).
    """
    A = skew_from_two_vector(xi)
    U, s, _ = np.linalg.svd(A)
    if s[0] == 0.0:
        raise ValueError("zero 2-vector has no plane")
    if len(s) > 2 and s[2] > tol * s[0]:
        raise ValueError("2-vector is not simple")
    e, f = U[:, 0], U[:, 1]
    xef = simple_2vector(e, f)
    if float(xef.coeffs @ xi.coeffs) < 0:
        f = -f
    return e, f


def plane_frames(tangents: np.ndarray, m: int):
    """Orthonormal (e, f), each (P, m), with e ^ f the unit simple rows.

    The batched `plane_basis` for rows (P, n2) of unit simple 2-vectors,
    without its simplicity check. The skew matrix of a row is
    A = e f^T - f e^T, so each of its columns lies in the plane: e is the
    longest column normalized (its squared length, the sum of the row's
    squares over the pairs holding that index, is at least 2/m), and
    f = -A e normalized, which makes e ^ f the row. The loops run over the
    coefficient pairs on (m, P) arrays; no (P, m, m) matrix is built.
    """
    t = np.asarray(tangents, dtype=float).T  # one row per coefficient pair
    pairs = list(zip(*pairs2(m)))
    col2 = np.zeros((m, t.shape[1]))
    for k, (a, b) in enumerate(pairs):
        t2 = t[k] * t[k]
        col2[a] += t2
        col2[b] += t2
    c = np.argmax(col2, axis=0)
    e = np.zeros_like(col2)
    for k, (a, b) in enumerate(pairs):
        e[a] += np.where(c == b, t[k], 0.0)  # A[a, c] = t_ac
        e[b] -= np.where(c == a, t[k], 0.0)  # A[b, c] = -t_cb
    e /= np.sqrt(np.einsum("ap,ap->p", e, e))
    f = np.zeros_like(e)
    for k, (a, b) in enumerate(pairs):
        f[a] -= t[k] * e[b]
        f[b] += t[k] * e[a]
    f /= np.sqrt(np.einsum("ap,ap->p", f, f))
    return e.T, f.T


def hermitian_part(xi: MultiVector) -> np.ndarray:
    """Hermitian matrix of the (1,1)-component of a 2-vector.

    H = (i/2) C X C^H with X the skew coefficient matrix; for xi = v ^ J0 v
    this equals w w^H where w is v in complex coordinates.
    """
    X = skew_from_two_vector(xi)
    C = _complex_matrix(xi.m)
    H = 0.5j * (C @ X @ C.conj().T)
    return 0.5 * (H + H.conj().T)


def wirtinger_check(xi: MultiVector, J: ComplexStructure, tol: float = 1e-6):
    """Evaluate omega0 on a unit simple 2-vector and test for calibration.

    Returns (value, is_calibrated). The flag is set when the value is within
    tol of 1; in that case xi agrees with v ^ J0 v for the recovered unit v.
    """
    _check_dims(xi, J)
    n = xi.norm()
    if abs(n - 1.0) > 1e-9:
        raise ValueError("input must have unit norm")
    plane_basis(xi)  # raises when not simple
    value = pairing(omega0(xi.m), xi)
    if value > 1.0 + 1e-9:
        raise AssertionError("Wirtinger bound violated; input not simple/unit")
    calibrated = value >= 1.0 - tol
    if calibrated:
        H = hermitian_part(xi)
        mu, W = np.linalg.eigh(H)
        v = _real_rows(W[:, -1])
        v /= np.linalg.norm(v)
        model = simple_2vector(v, J.apply(v))
        if np.linalg.norm(model.coeffs - xi.coeffs) > 1e-3:
            calibrated = False
    return float(value), calibrated


def decompose_calibrated(tau: MultiVector, tol: float = CAL_TOL):
    """Split an omega0-calibrated 2-vector into weighted complex lines.

    Returns a list of (lam_j, xi_j) with lam_j > 0, xi_j = v_j ^ J0 v_j unit
    simple calibrated, sum lam_j xi_j = tau and sum lam_j = mass(tau).
    """
    if tau.grade != 2:
        raise ValueError("grade-2 vector required")
    mass = mass2(tau)
    defect = mass - pairing(omega0(tau.m), tau)
    if defect > tol * max(mass, 1.0):
        raise ValueError(f"input not calibrated: defect {defect:.3e}")
    H = hermitian_part(tau)
    mu, W = np.linalg.eigh(H)
    J = ComplexStructure(tau.m)
    out = []
    for k in range(len(mu) - 1, -1, -1):
        if mu[k] <= 1e-12 * max(mass, 1.0):
            break
        v = _real_rows(W[:, k])
        v /= np.linalg.norm(v)
        out.append((float(mu[k]), simple_2vector(v, J.apply(v))))
    recon = np.zeros_like(tau.coeffs)
    for lam, xi in out:
        recon = recon + lam * xi.coeffs
    if np.linalg.norm(recon - tau.coeffs) > 10 * tol * max(mass, 1.0):
        raise ValueError("decomposition failed to reconstruct input")
    return out


def vectest_constant(m: int) -> float:
    """Fixed dimension constant for the sandwich bounds; it returns m."""
    return float(m)


def _gram4_norm(vectors) -> float:
    G = np.array([[float(np.dot(a, b)) for b in vectors] for a in vectors])
    d = np.linalg.det(G)
    return float(np.sqrt(max(d, 0.0)))


def vectest_bounds(decomposition, zeta: MultiVector, J: ComplexStructure):
    """Sandwich quantities for a decomposition {(lam_j, xi_j)} and unit zeta.

    Returns (L, M, C) with
      L = sum lam_j |xi_j ^ zeta|^2,
      M = sum lam_j |xi_j ^ zeta ^ J0 zeta|,
      C the fixed dimension constant,
    satisfying L <= M <= C * L (up to roundoff).
    """
    if abs(zeta.norm() - 1.0) > 1e-9:
        raise ValueError("zeta must be a unit vector")
    Jz = J.apply(zeta.coeffs)
    L = 0.0
    M = 0.0
    for lam, xi in decomposition:
        w3 = wedge(xi, zeta)
        L += lam * w3.norm() ** 2
        e, f = plane_basis(xi)
        scale = xi.norm()
        M += lam * scale * _gram4_norm([e, f, zeta.coeffs, Jz])
    return L, M, vectest_constant(zeta.m)


def split_near_calibrated(
    tau: MultiVector, omega_x: MultiForm, x, tol: float = CAL_TOL
):
    """Split a unit simple 2-vector calibrated by omega(x) = omega0 + omega1.

    Returns (tau0, tau1) with tau0 = v ^ J0 v a unit calibrated 2-vector and
    tau1 = tau - tau0; |tau1| is of order sqrt(|x|) when |omega1(x)| = O(|x|).
    The projection goes through the Hermitian part of tau: its leading
    eigenvector is the complex direction nearest tau's plane.
    """
    if abs(tau.norm() - 1.0) > 1e-9:
        raise ValueError("tau must be a unit 2-vector")
    val = pairing(omega_x, tau)
    if val < 1.0 - 1e-6:
        raise ValueError(f"tau not calibrated by omega(x): value {val:.8f}")
    H = hermitian_part(tau)
    mu, W = np.linalg.eigh(H)
    v = _real_rows(W[:, -1])
    v /= np.linalg.norm(v)
    J = ComplexStructure(tau.m)
    tau0 = simple_2vector(v, J.apply(v))
    tau1 = tau - tau0
    return tau0, tau1
