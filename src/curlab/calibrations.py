"""Calibration 2-form fields and defect measurement.

Shipped fields: the constant symplectic form, a non-closed tubular field
adapted to an embedded triangulated surface, the Fubini-Study form on affine
charts of complex projective space with a local primitive, and the Special
Legendrian form on R^6.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from . import currents as cur
from .exterior import (
    MultiForm,
    blades,
    comass2,
    omega0,
    pairs2,
)

__all__ = [
    "CalibrationField",
    "standard_symplectic",
    "tubular_calibration",
    "calibration_defect",
    "fubini_study",
    "FubiniStudy",
    "special_legendrian",
    "exterior_derivative_fd",
]


class CalibrationField:
    """A position-dependent 2-form with a declared comass bound.

    evaluate(x) returns the form at a point; evaluate_many(points) returns
    raw coefficient rows and is the path the quadrature uses.
    """

    def __init__(self, name, m, evaluator, comass_bound=1.0, closed=False,
                 regularity="C2"):
        self.name = name
        self.m = m
        self._evaluator = evaluator
        self.comass_bound = comass_bound
        self.closed = closed
        self.regularity = regularity

    def evaluate(self, x) -> MultiForm:
        return MultiForm(self.m, 2, self._evaluator(np.asarray(x, float)),
                         self.comass_bound)

    def evaluate_many(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return np.array([self._evaluator(x) for x in points])


class _ConstantField(CalibrationField):
    def __init__(self, name, form: MultiForm, closed=True):
        super().__init__(name, form.m, lambda x: form.coeffs,
                         form.comass_bound, closed)
        self.form = form

    def evaluate(self, x) -> MultiForm:
        return self.form

    def evaluate_many(self, points) -> np.ndarray:
        return np.broadcast_to(self.form.coeffs,
                               (len(points), len(self.form.coeffs)))


def standard_symplectic(m: int) -> CalibrationField:
    """The constant symplectic calibration; closed, comass 1."""
    if m % 2:
        raise ValueError("even dimension required")
    return _ConstantField("standard-symplectic", omega0(m), closed=True)


def _smoothstep_down(t: np.ndarray | float):
    """1 at t<=0 falling smoothly to 0 at t>=1."""
    t = np.clip(t, 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t)


def _closest_on_triangle(p, a, b, c):
    """Closest point of triangle (a,b,c) to p, with barycentric coordinates."""
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
    denom = va + vb + vc
    v = vb / denom
    w = vc / denom
    return a + ab * v + ac * w, (1 - v - w, v, w)


class TubularField(CalibrationField):
    """Non-closed field calibrating a prescribed embedded surface.

    Within distance delta of the surface the form is the unit dual covector
    of the tangent plane at the nearest point; planes of triangles meeting at
    an edge are blended inside a thin barycentric band so the field is
    continuous across edges yet exactly facet-dual at quadrature depth. A
    smooth cutoff kills the field beyond delta. Comass is renormalized to 1
    pointwise, which costs C^2 regularity at triangle interfaces.
    """

    BAND = 0.025  # barycentric half-width of the edge blending band
    K_CANDIDATES = 12  # nearest centroids searched for the nearest triangle

    def __init__(self, S: cur.TriCurrent, delta: float):
        self.S = S
        self.delta = float(delta)
        self.k = min(self.K_CANDIDATES, len(S))
        self.tree = cKDTree(S.centroids)
        # adjacency across edges: for triangle t and local edge opposite
        # vertex slot s, the neighboring triangle index (or -1)
        T = S.triangles
        edge_map = {}
        for t, (i, j, k) in enumerate(T):
            for slot, (a, b) in enumerate(((j, k), (k, i), (i, j))):
                edge_map.setdefault((min(a, b), max(a, b)), []).append((t, slot))
        self.neighbors = -np.ones((len(T), 3), dtype=int)
        for tris in edge_map.values():
            if len(tris) == 2:
                (t1, s1), (t2, s2) = tris
                self.neighbors[t1, s1] = t2
                self.neighbors[t2, s2] = t1
        self._check_reach()
        constant = bool(np.ptp(S.tangents, axis=0).max() < 1e-12)
        super().__init__("tubular", S.m, None, 1.0, closed=constant,
                         regularity="C1,1 across facets")

    def _check_reach(self):
        """Sampled nearest-point uniqueness: no second sheet inside 2*delta.

        A nearby triangle counts as a second sheet when the offset to it
        leaves the local tangent plane; in-plane proximity is just the mesh
        being fine.
        """
        from .exterior import plane_basis, simple_2vector, MultiVector

        S = self.S
        n = min(len(S), 200)
        step = max(1, len(S) // n)
        sample = np.arange(0, len(S), step)
        corners = S.corners()
        for t in sample:
            p = S.centroids[t]
            vset = set(S.triangles[t])
            idx = self.tree.query_ball_point(p, 2 * self.delta)
            flagged = None
            for u in idx:
                if u == t or vset & set(S.triangles[u]):
                    continue
                q, _ = _closest_on_triangle(p, *corners[u])
                off = q - p
                d = np.linalg.norm(off)
                if d >= 2 * self.delta:
                    continue
                e1, e2 = plane_basis(MultiVector(S.m, 2, S.tangents[t]))
                perp = off - (off @ e1) * e1 - (off @ e2) * e2
                if np.linalg.norm(perp) > 0.5 * max(d, 1e-300):
                    flagged = u
                    break
            if flagged is not None:
                raise ValueError(
                    "tube radius exceeds the surface reach "
                    f"(sheets {t} and {flagged} closer than 2*delta)"
                )

    def _nearest(self, x):
        _, idx = self.tree.query(x, k=self.k)
        idx = np.atleast_1d(idx)
        corners = self.S.corners()
        best = (np.inf, None, None)
        for t in idx:
            q, bary = _closest_on_triangle(x, *corners[t])
            d = float(np.linalg.norm(x - q))
            if d < best[0]:
                best = (d, int(t), bary)
        return best

    def _coeffs_at(self, x):
        d, t, bary = self._nearest(x)
        if d >= self.delta:
            return np.zeros(len(blades(self.m, 2)))
        tangents = self.S.tangents
        coeffs = np.array(tangents[t])
        own = 1.0
        for slot in range(3):
            s = float(_smoothstep_down(bary[slot] / self.BAND))
            if s <= 0.0:
                continue
            nb = self.neighbors[t, slot]
            if nb < 0:
                continue
            own -= 0.5 * s
            coeffs = coeffs + 0.5 * s * (tangents[nb] - tangents[t])
        form = MultiForm(self.m, 2, coeffs)
        cm = comass2(form)
        if cm <= 0:
            return np.zeros_like(coeffs)
        eta = float(_smoothstep_down((d - 0.5 * self.delta) / (0.5 * self.delta)))
        return (eta / cm) * np.asarray(form.coeffs)

    def evaluate(self, x) -> MultiForm:
        return MultiForm(self.m, 2, self._coeffs_at(np.asarray(x, float)), 1.0)

    def evaluate_many(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return np.array([self._coeffs_at(x) for x in points])


def tubular_calibration(S: cur.TriCurrent, delta: float) -> CalibrationField:
    """Field calibrating S inside a tube of radius delta; see TubularField."""
    if delta <= 0:
        raise ValueError("tube radius must be positive")
    return TubularField(S, delta)


def calibration_defect(C: cur.TriCurrent, field, R=None) -> float:
    """M(C |_ R) - <C |_ R, omega>, evaluated with one shared quadrature.

    Nonnegative up to roundoff whenever the field's comass bound is 1, since
    the pointwise integrand 1 - <tau, omega(x)> is then nonnegative.
    """
    bound = getattr(field, "comass_bound", None)
    if bound is None or abs(bound - 1.0) > 1e-12:
        raise ValueError("defect requires a field with comass bound 1")

    def fn(points, tangents):
        vals = cur._eval_form_many(field, points)
        return 1.0 - np.einsum("pc,pc->p", vals, tangents)

    return cur.integrate(C, fn, R)


class FubiniStudy:
    """Fubini-Study structure on an affine chart of CP^{n-1}.

    Chart coordinates are w in C^{n-1} read as R^{2(n-1)} with the usual
    pairing; the form is normalized so a projective line has area pi. The
    primitive alpha satisfies d(alpha) = omega on the whole chart; the
    excluded set for alpha is a ball around the chart's pole at infinity
    (for n = 2 the complement of the chart is exactly that point).
    """

    def __init__(self, n: int, excluded_radius: float = 0.2):
        if n < 2:
            raise ValueError("n >= 2 required")
        self.n = n
        self.mreal = 2 * (n - 1)
        self.excluded_radius = excluded_radius
        # complex representation of the real basis vectors
        E = np.zeros((self.mreal, n - 1), dtype=complex)
        for a in range(n - 1):
            E[2 * a, a] = 1.0
            E[2 * a + 1, a] = 1.0j
        self._E = E
        self.field = CalibrationField(
            "fubini-study", self.mreal, self._form_coeffs, 1.0, closed=True
        )

    def _complex(self, x):
        x = np.asarray(x, dtype=float)
        return x[0::2] + 1j * x[1::2]

    def _form_coeffs(self, x):
        w = self._complex(x)
        K = 1.0 + float(np.vdot(w, w).real)
        H = np.eye(self.n - 1, dtype=complex) / K - np.outer(np.conj(w), w) / K**2
        F = -np.imag(self._E @ H @ self._E.conj().T)
        i, j = pairs2(self.mreal)
        return F[i, j]

    def alpha(self, x) -> MultiForm:
        """Local primitive of the form; d(alpha) = omega on the chart."""
        w = self._complex(x)
        K = 1.0 + float(np.vdot(w, w).real)
        a = np.imag(self._E @ np.conj(w)) / (2.0 * K)
        return MultiForm(self.mreal, 1, a)

    def fs_distance(self, a, b) -> float:
        """Distance between projective classes of homogeneous vectors."""
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        c = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        return float(np.arccos(np.clip(c, 0.0, 1.0)))


def fubini_study(n: int) -> FubiniStudy:
    return FubiniStudy(n)


def _real_2form_from_complex(m: int, terms):
    """Real part of sum c * dz_a ^ dz_b as real grade-2 coefficients.

    terms: iterable of (c complex, a, b) with 0-based complex indices.
    """
    F = np.zeros((m, m))
    for c, a, b in terms:
        re, im = c.real, c.imag
        xa, ya, xb, yb = 2 * a, 2 * a + 1, 2 * b, 2 * b + 1
        # Re[(dx_a + i dy_a)^(dx_b + i dy_b)] parts
        for (p, q, s) in (
            (xa, xb, re), (ya, yb, -re),  # real part of dz^dz
            (xa, yb, -im), (ya, xb, -im),  # minus Im coefficient times Im part
        ):
            F[p, q] += s
            F[q, p] -= s
    i, j = pairs2(m)
    return F[i, j]


def special_legendrian(p: int = 3) -> CalibrationField:
    """The Special Legendrian 2-form on R^6 = C^3; not closed.

    Re(sum_i z_i dz_{i+1} ^ dz_{i-1}) with cyclic indices. The comass over
    R^6 is reported by sampling, not asserted.
    """
    if p != 3:
        raise ValueError("only the three-complex-dimensional case is shipped")
    m = 6

    def evaluator(x):
        z = x[0::2] + 1j * x[1::2]
        terms = [(z[i], (i + 1) % 3, (i + 2) % 3) for i in range(3)]
        return _real_2form_from_complex(m, terms)

    return CalibrationField("special-legendrian", m, evaluator,
                            comass_bound=None, closed=False)


def exterior_derivative_fd(field, x, h: float = 1e-5) -> MultiForm:
    """Finite-difference exterior derivative of a 2-form field at a point."""
    x = np.asarray(x, dtype=float)
    m = field.m
    i2, j2 = pairs2(m)
    # partials of every 2-form coefficient
    grad = np.zeros((m, len(i2)))
    for d in range(m):
        e = np.zeros(m)
        e[d] = h
        grad[d] = (field.evaluate(x + e).coeffs - field.evaluate(x - e).coeffs) / (
            2 * h
        )
    lookup = {(int(a), int(b)): k for k, (a, b) in enumerate(zip(i2, j2))}
    out = []
    for (a, b, c) in blades(m, 3):
        out.append(
            grad[a][lookup[(b, c)]]
            - grad[b][lookup[(a, c)]]
            + grad[c][lookup[(a, b)]]
        )
    return MultiForm(m, 3, np.array(out))
