"""Discretized forward operator and synthetic boundary data.

The source disk is discretized on a polar tensor grid, Gauss-Legendre in
radius on (0, R0) and uniform in angle, so the area element rho drho dtheta
turns into positive weights that sum to pi R0^2 within round-off. The
measurement circle carries N_s equispaced samples with the arc-length weight
2 pi R / N_s.

apply_forward_analytic sums the kernel's cylinder-mode series (Graf's
addition theorem) by one FFT along each angular grid; it needs no matrix.
The dense collocation matrix that cross-checks it lives with the tests
(tests/oracles.py), which take its weights from source_grid's area
weights and the arc weight 2 pi R / N_s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .singular_system import (ProblemGeometry, _planned, _psi_project,
                              _spectrum_table, default_m_max)
from .specfun import _check_count

__all__ = [
    "SourceField",
    "BoundaryData",
    "source_grid",
    "apply_forward_analytic",
    "synthesize_measurement",
]


def _scaled_abs(v) -> tuple[np.ndarray, int]:
    """|v| 2^-e and e = frexp exponent of max|v|: exact, squares in range."""
    e = math.frexp(float(np.max(np.abs(v), initial=0.0)))[1]
    return np.ldexp(np.abs(v), -e), e


@dataclass(frozen=True)
class SourceField:
    """Complex samples of a source on the polar quadrature grid of the disk.

    values[i, j] belongs to the node (rho[i], theta[j] = 2 pi j / n_theta)
    of the rule _polar_grid derives from the geometry and values' shape.
    Node (i, j) weighs radial_weights[i] rho[i] 2 pi / n_theta, and these
    sum to the disk area within round-off; area_weights is that grid.
    """

    geometry: ProblemGeometry
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = np.shape(self.values)
        if len(shape) != 2 or min(shape) < 2:
            raise ValueError("values must be n_r x n_theta, both >= 2, "
                             f"not {shape}")
        _check_disk(self.geometry)

    n_r = property(lambda self: self.values.shape[0])
    n_theta = property(lambda self: self.values.shape[1])
    rho = property(lambda self: self._grid()[0])
    radial_weights = property(lambda self: self._grid()[1])
    theta = property(lambda self: self._grid()[2])

    def _grid(self) -> tuple:
        return _polar_grid(self.geometry, *self.values.shape)

    @property
    def area_weights(self) -> np.ndarray:
        rho, wr, _ = self._grid()
        n = self.n_theta
        return np.outer(wr * rho, np.full(n, 2.0 * math.pi / n))

    def norm(self) -> float:
        """Discrete L2 norm over the disk, at any scale (_scaled_abs)."""
        a, e = _scaled_abs(self.values)
        return math.ldexp(math.sqrt(np.sum(self.area_weights * a**2)), e)


@dataclass(frozen=True)
class BoundaryData:
    """Field samples at N_s equispaced angles theta_j = 2 pi j / N_s."""

    geometry: ProblemGeometry
    values: np.ndarray = field(repr=False)
    noise_level: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.noise_level) and self.noise_level >= 0.0):
            raise ValueError("noise_level must be finite and nonnegative")
        if np.ndim(self.values) != 1:
            raise ValueError("boundary values must be one-dimensional")
        if len(self.values) < 1:
            raise ValueError("boundary values need at least one sample")
        if not np.isfinite(self.values).all():
            raise ValueError("boundary values must be finite")

    @property
    def n_s(self) -> int:
        return len(self.values)

    @property
    def theta(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n_s) / self.n_s

    def norm(self) -> float:
        """Discrete L2 norm over the measurement circle, at any scale."""
        w = 2.0 * math.pi * self.geometry.R / self.n_s
        a, e = _scaled_abs(self.values)
        return math.ldexp(math.sqrt(w * float(np.sum(a**2))), e)


# Newton step in theta below which the rule's nodes count as converged,
# and the most passes it may take (three do at every n tried up to 2000)
_NEWTON_TOL = 1e-12
_NEWTON_PASSES = 8


@lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], n points,
    the nodes ascending.

    Newton's method in theta (x = cos theta) finds the nodes of the half
    x >= 0 from Tricomi's estimates, as in Hale & Townsend, SIAM J. Sci.
    Comput. 35 (2013) A652; the other half is their mirror image, and the
    middle node of odd n is 0. Each pass runs _legendre_at. The passes
    stop after a step of at most _NEWTON_TOL, which leaves an error of
    order n _NEWTON_TOL^2. A final pass at the converged angles gives the
    weights 2 sin^2 theta / (n q)^2, q = P_{n-1} - x P_n, in which
    1 - x^2 never cancels, and a last Newton step in x, taken from the
    exact point 1 + u the pass ran at rather than from cos theta.
    """
    # Tricomi's x_k ~ (1 - (n - 1)/(8 n^3)) cos phi_k to first order in
    # theta, for the ceil(n/2) nodes x >= 0, x descending
    phi = math.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4 * n + 2)
    theta = phi + (n - 1) / (8.0 * n**3) / np.tan(phi)
    for _ in range(_NEWTON_PASSES):
        p, q, _ = _legendre_at(n, theta)
        step = p * np.sin(theta) / (n * q)
        theta += step
        if np.max(np.abs(step)) <= _NEWTON_TOL:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre nodes for n={n} did not "
                              f"converge in {_NEWTON_PASSES} Newton passes")
    p, q, u = _legendre_at(n, theta)
    s = np.sin(theta)
    dx = s * (p * s / (n * q))
    # x = 1 + u - dx, rounded at the finer of the two scales: for |u| < 1/2
    # dx goes onto u first, and for u <= -1/2 the sum 1 + u is exact
    half_x = np.where(u > -0.5, 1.0 + (u - dx), (1.0 + u) - dx)
    half_w = 2.0 * (s / (n * q)) ** 2
    if n % 2:
        half_x[-1] = 0.0
    h = len(half_x)
    x, w = np.empty(n), np.empty(n)
    x[:h], w[:h] = -half_x, half_w
    x[n - h:], w[n - h:] = half_x[::-1], half_w[::-1]
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _legendre_at(n: int, theta: np.ndarray) -> tuple:
    """(P_n, P_{n-1} - x P_n, u) at x = 1 + u, u = -2 sin^2(theta/2).

    The three-term recurrence (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}
    (DLMF 18.9.1, Table 18.9.1) runs on the differences E_k = k (P_k -
    P_{k-1}), as in Reinsch's modification of the cosine recurrence:
    E_{k+1} = E_k + (2k + 1) u P_k, P_{k+1} = P_k + E_{k+1}/(k + 1). It
    carries u = x - 1 rather than x, so the nodes near x = 1 keep the
    precision of theta. Every scalar it multiplies or divides by is an
    integer.
    """
    u = -2.0 * np.sin(0.5 * theta) ** 2
    p, e, t = np.ones_like(theta), np.zeros_like(theta), np.empty_like(theta)
    for k in range(n):
        np.multiply(u, p, out=t)
        t *= 2 * k + 1
        e += t
        np.divide(e, k + 1, out=t)
        p += t
    return p, -(e / n + u * p), u


def _check_disk(g: ProblemGeometry) -> None:
    """Refuse a disk whose area pi R0^2 is not a finite double."""
    if not math.isfinite(math.pi * g.R0 * g.R0):
        raise ValueError(f"R0={g.R0!r}: the disk area pi R0^2 overflows")


def _grid_sizes(*sizes) -> tuple[int, ...]:
    """The source grid's sizes as ints, or ValueError unless each is an
    integer >= 2."""
    return tuple(_check_count(n, "grid sizes must be integers >= 2", 2)
                 for n in sizes)


def _resolving_grid(g: ProblemGeometry, modes: int, n_r: int | None = None,
                    n: int | None = None) -> tuple[int, int]:
    """(n_r, n) for the modes |m| <= modes of g, a size left None by the
    rule of every default grid: n = 2 modes + 2 angles or samples, and at
    least 64 rings, 16 or more over the kappa0/2 + c kappa0^(1/3) that hold
    |psi_m|^2, m <= kappa0, to 1e-10 (checked for kappa0 in [2, 1000])."""
    if n_r is None:
        n_r = max(64, math.ceil(g.kappa0 / 2 + 4 * g.kappa0 ** (1 / 3)) + 16)
    return n_r, (2 * modes + 2 if n is None else n)


def _check_bins(name: str, n: int, modes: int) -> None:
    """Refuse n angles or samples that alias the modes |m| <= modes."""
    if n < 2 * modes + 1:
        raise ValueError(f"{name}={n} cannot resolve modes up to {modes} "
                         f"without aliasing; need {name} >= {2 * modes + 1}")


def _radial_rule(g: ProblemGeometry, n_r: int) -> tuple:
    """Fresh (rho, radial weights) of the rule's n_r Gauss-Legendre rings
    on (0, R0)."""
    x, w = _gauss_legendre(*_grid_sizes(n_r))
    return 0.5 * g.R0 * (x + 1.0), 0.5 * g.R0 * w


def _polar_grid(g: ProblemGeometry, n_r: int, n_theta: int) -> tuple:
    """Fresh (rho, radial weights, theta) of the source disk's rule: n_r
    Gauss-Legendre nodes on (0, R0), n_theta angles 2 pi j / n_theta."""
    n_theta, = _grid_sizes(n_theta)
    return (*_radial_rule(g, n_r),
            2.0 * math.pi * np.arange(n_theta) / n_theta)


def source_grid(g: ProblemGeometry, n_r: int, n_theta: int,
                fn=None) -> SourceField:
    """Source field on the quadrature grid, filled from fn(rho, theta) or zero.

    fn gets _polar_grid's nodes, broadcast-ready: (n_r, 1) and (1, n_theta).
    """
    rho, _, theta = _polar_grid(g, n_r, n_theta)
    values = np.zeros((len(rho), len(theta)), dtype=complex)
    if fn is not None:
        values[...] = fn(rho[:, None], theta[None, :])
    return SourceField(geometry=g, values=values)


def apply_forward_analytic(s: SourceField, modes: int,
                           n_s: int | None = None) -> BoundaryData:
    """Forward map by Graf's series H_0^(1)(k|x - y|) = sum_m H_m^(1)(k|x|)
    J_m(k|y|) e^{im(phi - theta)} (DLMF 10.23.7).

    U(theta_j) = sum over |m| <= modes of H_|m|(kappa) (s, J_|m|(k .)
    e^{im .}) e^{im theta_j}, as J_{-m} H_{-m} = J_m H_m; the singular
    system's A_m, sigma_m and signs cancel out of it. The inner product is
    the source field's own quadrature, whose weight w_i rho_i 2 pi / n_theta
    is folded into the ring rows J_m(k rho_i), m = 0 .. modes (_planned),
    one column for each pair m and -m. The projection
    and the sum over m run as one FFT, with mode m in bin m mod n
    (n = n_theta, then n_s), which reproduces the per-mode sums on any
    grid and n_s >= 1 (modes that share a bin add; modal_decompose refuses
    that). H_m = exp(log|H_m|^2 / 2 + i arg H_m) comes from the memoized
    spectrum. Where it overflows, the ring rows are 0 (|J_m(x) Y_m(z)| is
    at most about 1 / (pi m) for x <= z), and so is the term.
    """
    g = s.geometry
    modes = _check_count(modes, "modes must be a nonnegative integer")
    table = _spectrum_table(g, modes)
    n_s = _resolving_grid(g, max(modes, default_m_max(g.kappa0)), n=n_s)[1]
    n_s = _check_count(n_s, "n_s must be a positive integer", 1)
    ms = np.arange(-modes, modes + 1)
    am = np.abs(ms)
    rho, wr, _ = s._grid()
    weight = wr * rho * (2.0 * math.pi / s.n_theta)
    coef = _psi_project(s.values, modes, np.multiply(
        weight[:, None], _planned(g, modes, rho)[:, :modes + 1]))
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.exp(0.5 * table.log_abs_h2[am] + 1j * table.phase[am])
        terms = np.where(coef == 0.0, 0.0, h * coef)
    bins = np.zeros(n_s, dtype=complex)
    np.add.at(bins, ms % n_s, terms)
    return BoundaryData(geometry=g, values=np.fft.ifft(bins, norm="forward"))


def synthesize_measurement(s: SourceField, noise_level: float, seed: int,
                           modes: int | None = None,
                           n_s: int | None = None) -> BoundaryData:
    """Boundary data from a source, optionally perturbed by complex noise.

    The perturbation is additive circular Gaussian noise whose RMS equals
    noise_level times the RMS of the clean trace; it is drawn once from a
    seeded generator, so fixed arguments give bitwise identical output.
    """
    g = s.geometry
    if modes is None:
        modes = default_m_max(g.kappa0)
    clean = apply_forward_analytic(s, modes, n_s=n_s)
    if noise_level == 0.0:
        return clean
    rng = np.random.default_rng(seed)
    n = clean.n_s
    rms = math.sqrt(float(np.mean(np.abs(clean.values)**2)))
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
    values = clean.values + noise_level * rms * noise
    return replace(clean, values=values, noise_level=float(noise_level))
