"""Scaled-energy analysis of pseudo-holomorphic maps on the 4-ball.

Maps are sampled on a polar product grid (geometric radius ladder times a
Gauss-Legendre x trapezoid grid on the 3-sphere). Shipped checks: scaled
energy and weighted radial energy, the almost-monotonicity inequality pair,
the inner variation identity, coarea slicing by complex lines through the
origin, tangent-map gaps between dilations, and power-law rate fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blowup as bl
from .exterior import ComplexStructure

__all__ = [
    "SampledMap",
    "AlmostComplexField",
    "VectorField",
    "radial_bump_field",
    "random_bump_field",
    "map_example",
    "MAP_EXAMPLE_NAMES",
    "scaled_energy",
    "radial_energy",
    "map_monotonicity_check",
    "inner_variation_residual",
    "coarea_slice_check",
    "tangent_map_gap",
    "map_rate_fit",
]


def _stencil_1d(t: np.ndarray) -> np.ndarray:
    """3-point first-derivative weights on a nonuniform grid of M >= 3 nodes.

    Row i weighs nodes (j-1, j, j+1), j = min(max(i, 1), M - 2), so the end
    rows reuse the nearest interior triple; shape (M, 3), exact on quadratics.
    """
    M = len(t)
    w = np.zeros((M, 3))
    for i in range(M):
        j = min(max(i, 1), M - 2)
        x0, x1, x2 = t[j - 1], t[j], t[j + 1]
        x = t[i]
        # derivative of the Lagrange interpolant through (x0, x1, x2)
        w0 = (2 * x - x1 - x2) / ((x0 - x1) * (x0 - x2))
        w1 = (2 * x - x0 - x2) / ((x1 - x0) * (x1 - x2))
        w2 = (2 * x - x0 - x1) / ((x2 - x0) * (x2 - x1))
        w[i] = (w0, w1, w2)
    return w


def _apply_stencil(values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The `_stencil_1d` weights applied along the first axis.

    Slices stand in for index gathers; each row still sums its three
    products left to right, so the bits are those of the gathered form.
    """
    M = len(values)
    wb = w.reshape(M, 3, *([1] * (values.ndim - 1)))
    out = np.empty_like(values)
    mid = out[1:M - 1]
    np.multiply(wb[1:M - 1, 0], values[0:M - 2], out=mid)
    mid += wb[1:M - 1, 1] * values[1:M - 1]
    mid += wb[1:M - 1, 2] * values[2:M]
    for i, lo in ((0, 0), (M - 1, M - 3)):
        out[i] = (wb[i, 0] * values[lo] + wb[i, 1] * values[lo + 1]
                  + wb[i, 2] * values[lo + 2])
    return out


def _periodic_diff_matrix(n: int) -> np.ndarray:
    """First-derivative matrix on n uniform nodes of the periodic [0, 2pi).

    The closed form of Trefethen, *Spectral Methods in MATLAB* (SIAM 2000),
    ch. 3: entry (j, m) is c[(j - m) mod n] with c[0] = 0 and
    c[k] = (1/2) (-1)^k cot(k pi / n) for even n, (1/2) (-1)^k csc(k pi / n)
    for odd n. It differentiates the trigonometric interpolant, with the
    unpaired Nyquist mode of an even n dropped. c[n - k] is set to -c[k]
    and c[n/2] to 0 (its cotangent is only rounded to 0), so the matrix is
    antisymmetric exactly.
    """
    k = np.arange(1, n)
    t = k * math.pi / n
    sign = np.where(k % 2 == 0, 0.5, -0.5)
    c = sign / (np.tan(t) if n % 2 == 0 else np.sin(t))
    c = np.where(2 * k < n, c, -c[::-1])  # c[n - k] = -c[k] exactly
    if n % 2 == 0:
        c[n // 2 - 1] = 0.0
    col = np.concatenate(([0.0], c))
    return col[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]


def _diff_matrix(nodes: np.ndarray) -> np.ndarray:
    """Polynomial differentiation matrix on arbitrary nodes (barycentric)."""
    x = np.asarray(nodes, dtype=float)
    n = len(x)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / diff.prod(axis=1)
    D = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


# Gregory's end-correction coefficients for the 1st to 4th differences
_GREGORY = (1 / 12, 1 / 24, 19 / 720, 3 / 160)


def _gregory_weights(n: int) -> np.ndarray:
    """Weights of n uniform samples, unit step: the trapezoidal rule with
    Gregory's end corrections through the 4th difference (fewer when
    n < 5), the same at both ends. Exact on quintics for n >= 5; n = 3 is
    Simpson's rule and n = 5 Boole's. All weights are positive.
    """
    w = np.ones(n)
    w[0] -= 0.5
    w[-1] -= 0.5
    for j, c in enumerate(_GREGORY[:n - 1], start=1):
        end = c * np.array([(-1) ** (i + 1) * math.comb(j, i) for i in range(j + 1)])
        w[:j + 1] += end
        w[::-1][:j + 1] += end
    return w


def _periodic_multilinear(values: np.ndarray, radii: np.ndarray, eta: np.ndarray,
                          phi: np.ndarray, coords) -> np.ndarray:
    """Multilinear interpolation of (R, E, P, P) values on the polar grid
    at n points, coords = (rho, eta, phi1, phi2) each (n,) -> (n,),
    periodic in both phi.

    The arithmetic of scipy's `RegularGridInterpolator` (method "linear",
    no bounds error, extrapolated) on the grid with each phi axis extended
    by the node 2 pi and the values wrapped onto it, bit for bit: the same
    cell and fraction per axis, each corner weight multiplied up axis by
    axis, and the 16 corner terms summed in the order of
    `itertools.product` over (lower, upper) per axis, starting from 0. The
    values are read through flat indices into the unwrapped array; the
    upper index of a phi cell is wrapped once per point.
    """
    flat = values.ravel()
    strides = np.cumprod((values.shape[1:] + (1,))[::-1])[::-1]
    axes = []  # per axis: (flat offset, weight) of the lower and upper node
    for axis, (grid, t) in enumerate(zip((radii, eta, phi, phi), coords)):
        n = len(grid)
        if axis >= 2:
            grid = np.append(grid, 2 * np.pi)
        i = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(grid) - 2)
        y = (t - grid[i]) / (grid[i + 1] - grid[i])
        upper = np.where(i + 1 < n, i + 1, 0)
        axes.append(((i * strides[axis], 1 - y), (upper * strides[axis], y)))
    *first, last = axes
    corners = [(0, 1.0)]
    for pair in first:
        corners = [(k + off, w * f) for k, w in corners for off, f in pair]
    # the last axis is taken corner by corner, so only 8 index arrays live
    out = np.zeros(len(coords[0]))
    for k, w in corners:
        for off, f in last:
            out += flat.take(k + off) * (w * f)
    return out


class SampledMap:
    """A map B^4 -> R^d sampled on a polar grid, with finite differences.

    Coordinates: x = rho * (cos(eta) e^{i phi1}, sin(eta) e^{i phi2}) read as
    R^4. Radii form a decreasing-toward-zero geometric ladder stored in
    increasing order; eta uses Gauss-Legendre nodes on (0, pi/2), the phi
    angles a uniform periodic grid.
    """

    def __init__(self, f, r_max: float = 1.0, n_radial: int = 41,
                 ratio: float = 0.9, n_eta: int = 16, n_phi: int = 32):
        if not 0 < ratio < 1:
            raise ValueError("radial ratio must lie in (0, 1)")
        # the fewest nodes each derivative needs: a 3-point radial stencil,
        # a nonconstant polynomial in eta, a first Fourier mode in phi
        for name, n, least in (("n_radial", n_radial, 3), ("n_eta", n_eta, 2),
                               ("n_phi", n_phi, 3)):
            if n < least:
                raise ValueError(f"{name} must be at least {least}, got {n}")
        if not (math.isfinite(r_max) and r_max > 0):
            raise ValueError(
                f"r_max must be a positive finite number, got {r_max}")
        self.r_max = float(r_max)
        self.ratio = float(ratio)
        self.radii = r_max * ratio ** np.arange(n_radial)[::-1]
        nodes, wts = np.polynomial.legendre.leggauss(n_eta)
        self.eta = 0.25 * math.pi * (nodes + 1.0)
        self.w_eta = 0.25 * math.pi * wts
        self.n_phi = n_phi
        self.phi = 2 * math.pi * np.arange(n_phi) / n_phi
        self.f = f
        self._grad = None
        self._jacobian = None
        self._energy = None
        self._radial = None

        vals = np.asarray(f(self.points.reshape(-1, 4)), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        self.d = vals.shape[1]
        self.values = vals.reshape(n_radial, n_eta, n_phi, n_phi, self.d)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("map values must be finite")
        # sphere quadrature weights including the cos*sin area factor
        dphi = 2 * math.pi / n_phi
        self.sphere_weights = (
            self.w_eta[:, None, None]
            * np.cos(self.eta)[:, None, None]
            * np.sin(self.eta)[:, None, None]
            * dphi**2
            * np.ones((1, n_phi, n_phi))
        )

    @property
    def points(self) -> np.ndarray:
        """Node coordinates in R^4, shape (R,E,P,P,4), built on each access."""
        rho = self.radii[:, None, None, None]
        eta = self.eta[None, :, None, None]
        p1 = self.phi[None, None, :, None]
        p2 = self.phi[None, None, None, :]
        full = (len(self.radii), len(self.eta), self.n_phi, self.n_phi)
        return np.stack(
            [
                np.broadcast_to(rho * np.cos(eta) * np.cos(p1), full),
                np.broadcast_to(rho * np.cos(eta) * np.sin(p1), full),
                np.broadcast_to(rho * np.sin(eta) * np.cos(p2), full),
                np.broadcast_to(rho * np.sin(eta) * np.sin(p2), full),
            ],
            axis=-1,
        )

    # -- differentiation -------------------------------------------------

    def frame_partials(self):
        """Partials along the orthogonal polar frame, each (R,E,P,P,d).

        Order: d/d rho, (1/rho) d/d eta, the two normalized phi directions.
        The radial partial applies the 3-point stencil by slices; each
        angular partial is one matrix product along its axis: the eta
        differentiation matrix on the (R, E, P P d) values, the periodic
        one on the (R E, P, P d) values for phi1, read in place, and on a
        (R, E, P, d, P) copy for phi2, returned as a view with the axis
        moved back. Computed once per map; the arrays are read-only.
        """
        if self._grad is not None:
            return self._grad
        v = self.values
        R, E, P = v.shape[:3]
        D_phi = _periodic_diff_matrix(P)
        du_rho = _apply_stencil(v, _stencil_1d(self.radii))
        du_eta = np.matmul(_diff_matrix(self.eta),
                           v.reshape(R, E, -1)).reshape(v.shape)
        du_p1 = np.matmul(D_phi, v.reshape(R * E, P, -1)).reshape(v.shape)
        v2 = np.ascontiguousarray(np.moveaxis(v, 3, -1))
        du_p2 = np.moveaxis(
            np.matmul(v2.reshape(-1, P), D_phi.T).reshape(v2.shape), -1, 3)
        rho = self.radii[:, None, None, None, None]
        ce = np.cos(self.eta)[None, :, None, None, None]
        se = np.sin(self.eta)[None, :, None, None, None]
        # scaled in place: each array is this method's own fresh result
        du_eta /= rho
        du_p1 /= rho * ce
        du_p2 /= rho * se
        grad = (du_rho, du_eta, du_p1, du_p2)
        for g in grad:
            g.flags.writeable = False
        self._grad = grad
        return grad

    def frame_vectors(self):
        """Orthonormal frame (e_rho, e_eta, e_phi1, e_phi2) at the nodes."""
        eta = self.eta[None, :, None, None]
        p1 = self.phi[None, None, :, None]
        p2 = self.phi[None, None, None, :]
        shape = (1, len(self.eta), self.n_phi, self.n_phi)
        ce, se = np.cos(eta), np.sin(eta)
        c1, s1 = np.cos(p1), np.sin(p1)
        c2, s2 = np.cos(p2), np.sin(p2)
        zero = np.zeros(shape)

        def pack(*comps):
            return np.stack([np.broadcast_to(c, shape) for c in comps], axis=-1)

        e_rho = pack(ce * c1, ce * s1, se * c2, se * s2)
        e_eta = pack(-se * c1, -se * s1, ce * c2, ce * s2)
        e_p1 = pack(-s1, c1, zero, zero)
        e_p2 = pack(zero, zero, -s2, c2)
        return e_rho, e_eta, e_p1, e_p2

    def gradient(self):
        """Full Cartesian Jacobian at every node, shape (R,E,P,P,d,4);
        computed once, read-only."""
        if self._jacobian is None:
            out = np.zeros(self.values.shape + (4,))
            for du, e in zip(self.frame_partials(), self.frame_vectors()):
                out += du[..., :, None] * e[..., None, :]
            out.flags.writeable = False
            self._jacobian = out
        return self._jacobian

    def energy_density(self) -> np.ndarray:
        """|grad u|^2 per node, shape (R,E,P,P); computed once, read-only."""
        if self._energy is None:
            first, *rest = self.frame_partials()
            out = np.einsum("...d,...d->...", first, first)
            for p in rest:
                out += np.einsum("...d,...d->...", p, p)
            out.flags.writeable = False
            self._energy = out
        return self._energy

    def radial_density(self) -> np.ndarray:
        """|du/dR|^2 per node; computed once, read-only."""
        if self._radial is None:
            du = self.frame_partials()[0]
            out = np.einsum("...d,...d->...", du, du)
            out.flags.writeable = False
            self._radial = out
        return self._radial

    # -- integration -----------------------------------------------------

    def sphere_integral(self, density: np.ndarray) -> np.ndarray:
        """Integrate a (R,E,P,P) density over the sphere at each radius."""
        return np.einsum("reab,eab->r", density, self.sphere_weights)

    def _radius_index(self, r: float) -> int:
        k = int(np.argmin(np.abs(self.radii - r)))
        if abs(self.radii[k] - r) > 1e-9 * self.r_max:
            raise ValueError(f"radius {r} is not on the grid ladder")
        return k

    def ball_integral(self, density: np.ndarray, r: float,
                      radial_weight=None) -> float:
        """Integrate density * radial_weight(rho) over the ball B_r.

        The sphere integrals times rho^4 radial_weight(rho), the weight
        taken on the radius array, take `_gregory_weights` in s = log rho,
        uniform on the ladder, at every index; the hole below the innermost
        radius takes a local power law.
        """
        k = self._radius_index(r)
        rho = self.radii
        F = rho**3 * self.sphere_integral(density) * (
            1.0 if radial_weight is None else radial_weight(rho))
        h = -math.log(self.ratio)
        acc = h * float(_gregory_weights(k + 1) @ (F[: k + 1] * rho[: k + 1]))
        # hole: assume F ~ F(rho_0) * (rho/rho_0)^p with p from the first step
        if F[0] > 0 and F[1] > 0:
            p = math.log(F[1] / F[0]) / math.log(rho[1] / rho[0])
            p = min(max(p, 0.0), 8.0)
        else:
            p = 3.0
        acc += float(F[0] * rho[0] / (p + 1.0))
        return acc


def scaled_energy(u: SampledMap, r: float) -> float:
    """r^{2-2n} times the Dirichlet energy on B_r (domain dimension 2n=4)."""
    E = u.ball_integral(u.energy_density(), r)
    return E / r**2


def radial_energy(u: SampledMap, sigma: float, tau: float) -> float:
    """Integral of R^{2-2n} |du/dR|^2 over the annulus, sigma may be 0."""
    dens = u.radial_density()
    w = lambda t: t**-2
    top = u.ball_integral(dens, tau, w)
    if sigma <= 0:
        return top
    return top - u.ball_integral(dens, sigma, w)


def map_monotonicity_check(u: SampledMap, ladder, tol: float = 0.01):
    """Smallest C making both energy monotonicity inequalities hold.

    Direct form: (e^{C tau}/tau^2) E(tau) - (e^{C sigma}/sigma^2) E(sigma)
    >= 2 * radial energy of the annulus. Reverse form: the same difference
    with e^{-C rho} weights is <= (2 + C) times the radial energy; at C = 0
    both reduce to the exact monotonicity identity of holomorphic maps.
    The tolerance is relative to the largest scaled energy, but never to
    less than eps max |u_i|^2, about the energy that rounding alone gives a
    map of this size: a map with zero energy passes at C = 0. The direct
    form is scaled by e^{-s}, s = max(C max(ladder) - 700, 0), so that
    e^{C rho} cannot overflow; below that s = 0 and nothing is scaled.
    Returns (C, passed).
    """
    ladder = np.sort(np.asarray(ladder, dtype=float))
    if len(ladder) < 5:
        raise ValueError("at least 5 ladder scales required")
    E = np.array([u.ball_integral(u.energy_density(), r) for r in ladder])
    dens = u.radial_density()
    w = lambda t: t**-2
    cum = np.array([u.ball_integral(dens, r, w) for r in ladder])
    rad = np.diff(cum)
    theta = E / ladder**2
    size = max(u.values.max(), -u.values.min())
    scale = max(theta.max(), np.finfo(float).eps * size**2)

    def ok(c):
        s = max(c * ladder[-1] - 700.0, 0.0)
        up = np.exp(c * ladder - s) * theta
        down = np.exp(-c * ladder) * theta
        direct = np.all(np.diff(up) >= (2 * rad - tol * scale) * math.exp(-s))
        reverse = np.all(np.diff(down) <= (2 + c) * rad + tol * scale)
        return bool(direct and reverse)

    return bl._smallest_drift(ok)


class AlmostComplexField:
    """Domain almost complex structure J(x) with J(0) the standard one.

    Built as a conjugation J = T J0 T^{-1} so that J^2 = -Id holds exactly;
    the deviation from J0 grows linearly with a configurable slope. The
    structure is one batched function, points (P, 4) -> matrices (P, 4, 4).
    """

    def __init__(self, matrix_many_fn, slope: float = 0.0):
        self.J0 = ComplexStructure(4).matrix
        self._many = matrix_many_fn
        self.slope = slope

    @staticmethod
    def standard() -> "AlmostComplexField":
        J0 = ComplexStructure(4).matrix
        return AlmostComplexField(
            lambda pts: np.broadcast_to(J0, (len(pts), 4, 4)), slope=0.0
        )

    @staticmethod
    def perturbed(c: float, seed: int = 11) -> "AlmostComplexField":
        """Slope-c perturbation J(x) = T(x) J0 T(x)^{-1}, T = I + c x_1 K."""
        J0 = ComplexStructure(4).matrix
        rng = np.random.default_rng(seed)
        K = rng.normal(size=(4, 4))
        K /= np.linalg.norm(K, 2)

        def many(pts):
            T = np.eye(4)[None] + c * pts[:, 0, None, None] * K[None]
            return T @ J0 @ np.linalg.inv(T)

        return AlmostComplexField(many, slope=c)

    @staticmethod
    def from_diffeo(jac_many_fn, slope: float) -> "AlmostComplexField":
        """Pullback structure (D psi)^{-1} J0 (D psi) of a domain diffeo.

        jac_many_fn maps points (P, 4) to the Jacobians D psi (P, 4, 4).
        """
        J0 = ComplexStructure(4).matrix

        def many(pts):
            D = jac_many_fn(pts)
            return np.linalg.solve(D, J0 @ D)

        return AlmostComplexField(many, slope=slope)

    def matrix(self, x) -> np.ndarray:
        return self.matrix_many(np.asarray(x, dtype=float)[None])[0]

    def matrix_many(self, points) -> np.ndarray:
        return self._many(np.asarray(points, dtype=float))

    def verify(self, n_samples: int = 64, seed: int = 5, radius: float = 1.0):
        """Sampled structure checks: J^2 = -Id and linear deviation growth.

        Returns (max |J^2 + Id|, max |J - J0| / |x|).
        """
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n_samples, 4))
        pts *= radius * rng.uniform(0.05, 1, n_samples)[:, None] / np.linalg.norm(
            pts, axis=1
        )[:, None]
        J = self.matrix_many(pts)
        sq = np.abs(J @ J + np.eye(4)).max(initial=0.0)
        lin = np.linalg.norm(J - self.J0, 2, axis=(1, 2)) / np.linalg.norm(
            pts, axis=1
        )
        return float(sq), float(lin.max(initial=0.0))


@dataclass
class VectorField:
    """Compactly supported test field on B^4 with an analytic Jacobian."""

    value: callable  # (P, 4) -> (P, 4)
    jacobian: callable  # (P, 4) -> (P, 4, 4), entry [i, j] = d xi^j / d x_i
    support_radius: float = 1.0


def _bump(t: np.ndarray):
    """C^2 cutoff: 1 at t<=0, 0 at t>=1, with derivative."""
    tc = np.clip(t, 0.0, 1.0)
    val = 1.0 - tc**3 * (10.0 - 15.0 * tc + 6.0 * tc * tc)
    der = -30.0 * tc**2 * (1.0 - tc) ** 2
    der = np.where((t <= 0) | (t >= 1), 0.0, der)
    return val, der


def radial_bump_field(r0: float = 0.5, r1: float = 0.9) -> VectorField:
    """xi(x) = phi(|x|) x with a smooth cutoff between r0 and r1."""

    def value(x):
        r = np.linalg.norm(x, axis=1)
        val, _ = _bump((r - r0) / (r1 - r0))
        return val[:, None] * x

    def jacobian(x):
        r = np.linalg.norm(x, axis=1)
        val, der = _bump((r - r0) / (r1 - r0))
        der = der / (r1 - r0)
        rr = np.where(r > 1e-12, r, 1.0)
        out = np.einsum("p,ij->pij", val, np.eye(4))
        out += np.einsum("p,pi,pj->pij", der / rr, x, x)
        return out

    return VectorField(value, jacobian, r1)


def random_bump_field(seed: int, r1: float = 0.9) -> VectorField:
    """Quadratic polynomial field times the radial cutoff."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=4)
    B = rng.normal(size=(4, 4))

    def poly(x):
        return a[None, :] + x @ B.T

    def value(x):
        r = np.linalg.norm(x, axis=1)
        val, _ = _bump(r / r1)
        return val[:, None] * poly(x)

    def jacobian(x):
        r = np.linalg.norm(x, axis=1)
        val, der = _bump(r / r1)
        der = der / r1
        rr = np.where(r > 1e-12, r, 1.0)
        # d/dx_i [phi * p^j] = phi' (x_i/r) p^j + phi B_{ji}
        out = np.einsum("p,pi,pj->pij", der / rr, x, poly(x))
        out += np.einsum("p,ji->pij", val, B)
        return out

    return VectorField(value, jacobian, r1)


def inner_variation_residual(u: SampledMap, xi: VectorField,
                             J: AlmostComplexField) -> float:
    """Stationarity residual: stress-energy pairing minus the four
    structure-perturbation terms; zero (to quadrature) for standard-structure
    holomorphic maps, and O(slope * r) times the energy in general.
    """
    x = u.points
    if xi.support_radius >= u.r_max - 1e-12:
        # sampled compactness check on the outermost sphere
        edge = np.abs(xi.value(x[-1].reshape(-1, 4))).max()
        if edge > 1e-10:
            raise ValueError("test field must vanish near the boundary")
    pts = x.reshape(-1, 4)
    Du = u.gradient().reshape(-1, u.d, 4)
    dens = u.energy_density().reshape(-1)
    Dxi = xi.jacobian(pts)  # (P, i, j) = d xi^j / d x_i
    # kept as one einsum: a reordered sum moves the near-cancelling
    # standard-J residual by more than 1e-12 relative
    gram = np.einsum("pai,paj->pij", Du, Du)
    div = np.einsum("pii->p", Dxi)
    lhs = dens * div - 2.0 * np.einsum("pij,pij->p", gram, Dxi)
    B = ComplexStructure(u.d).matrix
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
    resid = lhs - rhs
    grid = resid.reshape(u.values.shape[:4])
    # integrate over the whole ball (xi vanishes near the boundary)
    return u.ball_integral(grid, u.r_max)


def coarea_slice_check(u: SampledMap, n_lines: int = 128, seed: int = 7,
                       density: np.ndarray | None = None):
    """Reassemble the ball integral from complex lines through the origin.

    Each line zeta -> zeta * a carries the Jacobian weight |zeta|^2; the
    average over uniformly sampled projective classes times the line-space
    volume pi must reproduce the ball integral. Returns (per-line values,
    reassembled integral, ball integral, consistency ratio).
    """
    if n_lines < 64:
        raise ValueError("at least 64 line samples required")
    if density is None:
        density = u.energy_density()
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_lines, 2)) + 1j * rng.normal(size=(n_lines, 2))
    a /= np.linalg.norm(a, axis=1)[:, None]
    # polar quadrature on the unit disk of the line parameter
    nr, nt = 24, 48
    tr = (np.arange(nr) + 0.5) / nr
    tt = 2 * math.pi * np.arange(nt) / nt
    zeta = (tr[:, None] * np.exp(1j * tt[None, :])).ravel()
    wq = (1.0 / nr) * (2 * math.pi / nt) * np.abs(zeta) * np.abs(zeta) ** 2
    # the quadrature points of every line, line by line, in one batch
    zpts = (zeta[None, :, None] * a[:, None, :]).reshape(-1, 2)
    rel = np.column_stack(
        [zpts[:, 0].real, zpts[:, 0].imag, zpts[:, 1].real, zpts[:, 1].imag]
    )
    rho = np.linalg.norm(rel, axis=1)
    z1 = np.abs(rel[:, 0] + 1j * rel[:, 1])
    eta = np.arctan2(np.abs(rel[:, 2] + 1j * rel[:, 3]), z1)
    p1 = np.arctan2(rel[:, 1], rel[:, 0]) % (2 * math.pi)
    p2 = np.arctan2(rel[:, 3], rel[:, 2]) % (2 * math.pi)
    eta = np.clip(eta, u.eta[0], u.eta[-1])
    rho = np.clip(rho, u.radii[0], u.radii[-1])
    vals = _periodic_multilinear(density, u.radii, u.eta, u.phi, (rho, eta, p1, p2))
    per_line = vals.reshape(n_lines, len(zeta)) @ wq
    reassembled = math.pi * per_line.mean()
    ball = u.ball_integral(density, u.r_max)
    ratio = reassembled / ball if ball else math.nan
    return per_line, reassembled, ball, ratio


def tangent_map_gap(u: SampledMap, sigma: float, tau: float) -> float:
    """L^2 sphere distance between the dilations u(tau x) and u(sigma x)."""
    if not 0 < sigma < tau:
        raise ValueError("need 0 < sigma < tau")
    ks = u._radius_index(sigma)
    kt = u._radius_index(tau)
    diff = u.values[kt] - u.values[ks]
    d2 = np.einsum("...d,...d->...", diff, diff)
    return math.sqrt(float(np.einsum("eab,eab->", d2, u.sphere_weights)))


def map_rate_fit(u: SampledMap, ladder, mode: str = "A",
                 theta_hat: float | None = None) -> bl.RateFit:
    """Power-law fit of the scaled-energy trace over a decreasing ladder."""
    ladder = np.asarray(sorted(ladder, reverse=True), dtype=float)
    masses = np.array(
        [u.ball_integral(u.energy_density(), r) for r in ladder]
    )
    trace = bl.DensityTrace(np.zeros(4), ladder, masses)
    return bl.rate_fit(trace, mode=mode, theta_hat=theta_hat)


def _hopf_point(z: np.ndarray) -> np.ndarray:
    """Class [z1:z2] as a point of the round 2-sphere."""
    n2 = np.abs(z[:, 0]) ** 2 + np.abs(z[:, 1]) ** 2
    n2 = np.maximum(n2, 1e-300)
    w = 2.0 * np.conj(z[:, 0]) * z[:, 1]
    return np.column_stack(
        [w.real / n2, w.imag / n2, (np.abs(z[:, 0]) ** 2 - np.abs(z[:, 1]) ** 2) / n2]
    )


MAP_EXAMPLE_NAMES = ("constant", "z1", "z1z2", "hopf", "z1-warped")


def map_example(name: str, slope: float = 0.1, **grid):
    """Named sampled maps; z1-warped is holomorphic for a perturbed
    structure (returned alongside the map)."""
    if name == "constant":
        return SampledMap(lambda x: np.tile([0.7, -0.2], (len(x), 1)), **grid)
    if name == "z1":
        return SampledMap(lambda x: x[:, :2].copy(), **grid)
    if name == "z1z2":

        def f(x):
            z = (x[:, 0] + 1j * x[:, 1]) * (x[:, 2] + 1j * x[:, 3])
            return np.column_stack([z.real, z.imag])

        return SampledMap(f, **grid)
    if name == "hopf":

        def f(x):
            z = np.column_stack([x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3]])
            return _hopf_point(z)

        return SampledMap(f, **grid)
    if name == "z1-warped":
        # u = z1 after the domain warp psi(x) = x + slope * q(x), q quadratic
        def psi(x):
            q = np.column_stack(
                [x[:, 0] * x[:, 2], x[:, 1] * x[:, 3],
                 np.zeros(len(x)), np.zeros(len(x))]
            )
            return x + slope * q

        def f(x):
            y = psi(x)
            return y[:, :2]

        def jac(x):
            D = np.tile(np.eye(4), (len(x), 1, 1))
            D[:, 0, 0] += slope * x[:, 2]
            D[:, 0, 2] = slope * x[:, 0]
            D[:, 1, 1] += slope * x[:, 3]
            D[:, 1, 3] = slope * x[:, 1]
            return D

        u = SampledMap(f, **grid)
        J = AlmostComplexField.from_diffeo(jac, slope)
        return u, J
    raise ValueError(f"unknown map example {name!r}")
