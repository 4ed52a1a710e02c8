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
    "scaled_energies",
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


_BLOCK_NODES = 1 << 15  # nodes per block of a map's radii or of coarea lines


def _blocks(n: int, size: int) -> list[slice]:
    """Consecutive slices of n items of `size` nodes, `_BLOCK_NODES` a slice."""
    step = max(1, _BLOCK_NODES // size)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _empty_partials(v: np.ndarray) -> list:
    """Frame partial arrays for (n,E,P,P,d) values; phi2's is (n,E,P,d,P)."""
    return [np.empty_like(v), np.empty_like(v), np.empty_like(v),
            np.moveaxis(np.empty(v.shape[:3] + v.shape[:2:-1]), -1, 3)]


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

        self.values = None  # sampled block by block into one array
        for rows in _blocks(n_radial, n_eta * n_phi**2):
            vals = np.asarray(f(self._points(rows).reshape(-1, 4)), dtype=float)
            if self.values is None:
                self.d = 1 if vals.ndim == 1 else vals.shape[1]
                self.values = np.empty((n_radial, n_eta, n_phi, n_phi, self.d))
            self.values[rows] = vals.reshape((-1,) + self.values.shape[1:])
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
        return self._points(slice(None))

    def _points(self, rows: slice) -> np.ndarray:
        """The node coordinates of the radii `rows`."""
        rho = self.radii[rows, None, None, None]
        eta = self.eta[None, :, None, None]
        p1 = self.phi[None, None, :, None]
        p2 = self.phi[None, None, None, :]
        full = (len(rho), len(self.eta), self.n_phi, self.n_phi)
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

    def _partial_blocks(self, out=None):
        """Yield (rows, partials) per block of radii: the block's four frame
        partials in `frame_partials` order and layout, fresh or the rows of
        `out`. The radial stencil is applied by slices that read one radius
        past the block, each row summed (w0 v0 + w1 v1) + w2 v2; each angular
        partial is one matrix product along its axis, on the values in place
        for eta and phi1 and on a block copy with phi2 last for phi2."""
        v = self.values
        R, E, P = v.shape[:3]
        w = _stencil_1d(self.radii).reshape(R, 3, 1, 1, 1, 1)
        D_eta, D_phi = _diff_matrix(self.eta), _periodic_diff_matrix(P)
        ce, se = (f(self.eta)[:, None, None, None] for f in (np.cos, np.sin))
        by_eta, by_phi1 = (-1, E, P * P * self.d), (-1, P, P * self.d)
        for rows in _blocks(R, E * P * P):
            lo, hi = rows.start, rows.stop
            vb = v[rows]
            du_rho, du_eta, du_p1, du_p2 = du = (
                _empty_partials(vb) if out is None else [o[rows] for o in out])
            # rows 0 and R-1 reuse the nearest centred triple
            a, b = max(lo, 1), min(hi, R - 1)
            mid = du_rho[a - lo:b - lo]
            np.multiply(w[a:b, 0], v[a - 1:b - 1], out=mid)
            mid += w[a:b, 1] * v[a:b]
            mid += w[a:b, 2] * v[a + 1:b + 1]
            for i, s in ((0, 0), (R - 1, R - 3)):
                if lo <= i < hi:
                    du_rho[i - lo] = (w[i, 0] * v[s] + w[i, 1] * v[s + 1]
                                      + w[i, 2] * v[s + 2])
            np.matmul(D_eta, vb.reshape(by_eta), out=du_eta.reshape(by_eta))
            np.matmul(D_phi, vb.reshape(by_phi1), out=du_p1.reshape(by_phi1))
            v2 = np.ascontiguousarray(np.moveaxis(vb, 3, -1)).reshape(-1, P)
            np.matmul(v2, D_phi.T, out=np.moveaxis(du_p2, 3, -1).reshape(-1, P))
            rho = self.radii[rows, None, None, None, None]
            du_eta /= rho
            du_p1 /= rho * ce
            du_p2 /= rho * se
            yield rows, du

    def frame_partials(self):
        """Partials along the orthogonal polar frame, each (R,E,P,P,d).

        Order: d/d rho, (1/rho) d/d eta, the two normalized phi directions.
        Written by `_partial_blocks` once per map, when first asked for
        (`gradient` asks; the densities do not); the arrays are read-only.
        """
        if self._grad is None:
            grad = _empty_partials(self.values)
            for _ in self._partial_blocks(out=grad):
                pass
            for g in grad:
                g.flags.writeable = False
            self._grad = tuple(grad)
        return self._grad

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
        """Full Cartesian Jacobian at every node, shape (R,E,P,P,d,4), filled
        block by block from `_partial_blocks`; computed once, read-only."""
        if self._jacobian is None:
            out = np.zeros(self.values.shape + (4,))
            frame = self.frame_vectors()
            for rows, du in self._partial_blocks():
                block = out[rows]
                for p, e in zip(du, frame):
                    block += p[..., :, None] * e[..., None, :]
            out.flags.writeable = False
            self._jacobian = out
        return self._jacobian

    def _densities(self):
        """Both densities in one pass over the blocks of radii: the squared
        radial partial, and that plus the other squares in frame order."""
        energy, radial = np.empty((2,) + self.values.shape[:4])
        for rows, (first, *rest) in self._partial_blocks():
            out = np.einsum("...d,...d->...", first, first)
            radial[rows] = out
            for p in rest:
                out += np.einsum("...d,...d->...", p, p)
            energy[rows] = out
        energy.flags.writeable = radial.flags.writeable = False
        self._energy, self._radial = energy, radial

    def energy_density(self) -> np.ndarray:
        """|grad u|^2 per node, shape (R,E,P,P); computed once, read-only."""
        if self._energy is None:
            self._densities()
        return self._energy

    def radial_density(self) -> np.ndarray:
        """|du/dR|^2 per node; computed once, read-only."""
        if self._radial is None:
            self._densities()
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
        return float(self._ball_integrals(density, [r], radial_weight)[0])

    def _ball_integrals(self, density: np.ndarray, ladder,
                        radial_weight=None) -> np.ndarray:
        """`ball_integral` at each radius of a ladder; the sphere integrals
        and the radial weight are taken once for all of them."""
        ks = [self._radius_index(r) for r in ladder]
        rho = self.radii
        F = rho**3 * self.sphere_integral(density) * (
            1.0 if radial_weight is None else radial_weight(rho))
        h = -math.log(self.ratio)
        # hole: assume F ~ F(rho_0) * (rho/rho_0)^p with p from the first step
        if F[0] > 0 and F[1] > 0:
            p = math.log(F[1] / F[0]) / math.log(rho[1] / rho[0])
            p = min(max(p, 0.0), 8.0)
        else:
            p = 3.0
        hole = float(F[0] * rho[0] / (p + 1.0))
        return np.array([h * float(_gregory_weights(k + 1) @ (F * rho)[: k + 1]) + hole
                         for k in ks])


def scaled_energy(u: SampledMap, r: float) -> float:
    """r^{2-2n} times the Dirichlet energy on B_r (domain dimension 2n=4)."""
    return float(scaled_energies(u, [r])[0])


def scaled_energies(u: SampledMap, ladder) -> np.ndarray:
    """`scaled_energy` at each radius of a ladder, from one `_ball_integrals`."""
    E = u._ball_integrals(u.energy_density(), ladder)
    return np.array([float(e) / r**2 for e, r in zip(E, ladder)])


def radial_energy(u: SampledMap, sigma: float, tau: float) -> float:
    """Integral of R^{2-2n} |du/dR|^2 over the annulus, sigma may be 0."""
    w = lambda t: t**-2
    if sigma <= 0:
        return u.ball_integral(u.radial_density(), tau, w)
    top, bottom = u._ball_integrals(u.radial_density(), [tau, sigma], w)
    return float(top - bottom)


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
    E = u._ball_integrals(u.energy_density(), ladder)
    cum = u._ball_integrals(u.radial_density(), ladder, lambda t: t**-2)
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
    if xi.support_radius >= u.r_max - 1e-12:
        # sampled compactness check on the outermost sphere
        edge = np.abs(xi.value(u._points(slice(-1, None)).reshape(-1, 4))).max()
        if edge > 1e-10:
            raise ValueError("test field must vanish near the boundary")
    B = ComplexStructure(u.d).matrix
    J0 = J.J0
    grid = np.empty(u.values.shape[:4])
    for rows in _blocks(len(u.radii), grid[0].size):
        pts = u._points(rows).reshape(-1, 4)
        Du = u.gradient()[rows].reshape(-1, u.d, 4)
        dens = u.energy_density()[rows].reshape(-1)
        Dxi = xi.jacobian(pts)  # (P, i, j) = d xi^j / d x_i
        # kept as one einsum: a reordered sum moves the near-cancelling
        # standard-J residual by more than 1e-12 relative
        gram = np.einsum("pai,paj->pij", Du, Du)
        div = np.einsum("pii->p", Dxi)
        lhs = dens * div - 2.0 * np.einsum("pij,pij->p", gram, Dxi)
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
        grid[rows] = (lhs - rhs).reshape(grid[rows].shape)
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
    # quadrature points by blocks of lines; all lines are summed at once
    vals = np.empty((n_lines, len(zeta)))
    for lines in _blocks(n_lines, len(zeta)):
        # (re z1, im z1, re z2, im z2) per point
        rel = (zeta[None, :, None] * a[lines, None, :]).reshape(-1, 2).view(float)
        rho = np.linalg.norm(rel, axis=1)
        z1 = np.abs(rel[:, 0] + 1j * rel[:, 1])
        eta = np.arctan2(np.abs(rel[:, 2] + 1j * rel[:, 3]), z1)
        p1 = np.arctan2(rel[:, 1], rel[:, 0]) % (2 * math.pi)
        p2 = np.arctan2(rel[:, 3], rel[:, 2]) % (2 * math.pi)
        eta = np.clip(eta, u.eta[0], u.eta[-1])
        rho = np.clip(rho, u.radii[0], u.radii[-1])
        vals[lines] = _periodic_multilinear(
            density, u.radii, u.eta, u.phi, (rho, eta, p1, p2)).reshape(-1, len(zeta))
    per_line = vals @ wq
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
    masses = u._ball_integrals(u.energy_density(), ladder)
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
