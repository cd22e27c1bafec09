"""Discretized forward operator and synthetic boundary data.

The source disk is discretized on a polar tensor grid, Gauss-Legendre in
radius on (0, R0) and uniform in angle, so the area element rho drho dtheta
turns into positive weights that sum to pi R0^2 exactly. The measurement
circle carries N_s equispaced samples with the arc-length weight 2 pi R / N_s.

The collocation matrix is scaled symmetrically by square roots of both
weight sets. That makes its ordinary SVD approximate the continuous
operator's singular system, which is what the cross-validation against the
closed-form spectrum leans on.

The geometry is rotationally symmetric, so the kernel seen by one source
ring depends on the angle difference alone. Each ring's block therefore
carries the band-limited kernel sum_{|q| <= Q} h_q(rho) e^{iq(phi - theta)},
with Q = (min(N_theta, N_s) - 1) // 2 the largest order both angular grids
resolve without aliasing, in place of point values of H_0^(1)(k|x - y|).
The coefficients h_q are the exact Fourier coefficients of the kernel on
the ring. They come from the log-kernel split of Colton & Kress, Inverse
Acoustic and Electromagnetic Scattering Theory, section 3.5:

    H_0^(1)(k d) = (2i/pi) J_0(k d) log(d / R) + S(t),   d = |R - rho e^{it}|

where J_0(k d) and S are analytic in t and resolved by an FFT on a fine
angular grid whose length follows from kappa, and log(d / R) enters through
its exact Laplace series -sum_{n != 0} (rho/R)^|n| e^{int} / (2|n|). Rings
close to the measurement circle, where the point kernel's log singularity
is too sharp for the angular grid, are thereby integrated exactly in angle.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .singular_system import (ProblemGeometry, _Plan, _planned,
                              _psi_project, _psi_radial, _signed_phase,
                              _spectrum_table, default_m_max)
from .specfun import _check_count

__all__ = [
    "SourceField",
    "BoundaryData",
    "ForwardMatrix",
    "source_grid",
    "assemble_forward",
    "apply_forward_analytic",
    "synthesize_measurement",
]

log = logging.getLogger(__name__)

# Fourier content of the smooth kernel parts past their band, relative to
# the largest coefficient of the same ring, that the fine grid may leave
_KERNEL_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class SourceField:
    """Complex samples of a source on the polar quadrature grid of the disk.

    values[i, j] belongs to the node (rho[i], theta[j] = 2 pi j / n_theta;
    the modal transforms rely on it, checked to 1e-12 rad). Node (i, j)
    weighs radial_weights[i] rho[i] 2 pi / n_theta, and these sum to the
    disk area within round-off; area_weights derives that grid on demand.
    """

    geometry: ProblemGeometry
    rho: np.ndarray = field(repr=False)
    radial_weights: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if np.any(self.radial_weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        area = math.pi * self.geometry.R0**2
        ring_area = 2.0 * math.pi * np.sum(self.radial_weights * self.rho)
        if abs(ring_area - area) > 1e-12 * area:
            raise ValueError("quadrature weights do not integrate the disk area")
        if self.values.shape != (len(self.rho), len(self.theta)):
            raise ValueError("values must be shaped (n_r, n_theta)")
        uniform = 2.0 * math.pi * np.arange(self.n_theta) / self.n_theta
        if np.any(np.abs(self.theta - uniform) > 1e-12):
            raise ValueError("theta must be the uniform angles 2 pi j / n_theta")

    @property
    def n_r(self) -> int:
        return len(self.rho)

    @property
    def n_theta(self) -> int:
        return len(self.theta)

    @property
    def area_weights(self) -> np.ndarray:
        w_ang = 2.0 * math.pi / self.n_theta
        return np.outer(self.radial_weights * self.rho,
                        np.full(self.n_theta, w_ang))

    def norm(self) -> float:
        """Discrete L2 norm over the disk."""
        return math.sqrt(float(np.sum(self.area_weights
                                      * np.abs(self.values)**2)))


@dataclass(frozen=True)
class BoundaryData:
    """Field samples at N_s equispaced angles theta_j = 2 pi j / N_s."""

    geometry: ProblemGeometry
    values: np.ndarray = field(repr=False)
    noise_level: float = 0.0
    plan: _Plan | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.noise_level) and self.noise_level >= 0.0):
            raise ValueError("noise_level must be finite and nonnegative")
        if not np.isfinite(self.values).all():
            raise ValueError("boundary values must be finite")

    @property
    def n_s(self) -> int:
        return len(self.values)

    @property
    def theta(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n_s) / self.n_s

    def norm(self) -> float:
        """Discrete L2 norm over the measurement circle."""
        w = 2.0 * math.pi * self.geometry.R / self.n_s
        return math.sqrt(w * float(np.sum(np.abs(self.values)**2)))


@dataclass(frozen=True)
class ForwardMatrix:
    """Symmetrically weighted collocation matrix of the forward operator.

    entries has one row per boundary sample and one column per source node,
    nodes flattened row-major over (rho, theta); each ring's kernel is
    band-limited in angle as described in assemble_forward.
    """

    geometry: ProblemGeometry
    entries: np.ndarray = field(repr=False)
    n_r: int
    n_theta: int
    n_s: int
    area_weights: np.ndarray = field(repr=False)
    boundary_weight: float


@lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], n points."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def source_grid(g: ProblemGeometry, n_r: int, n_theta: int,
                fn=None) -> SourceField:
    """Source field on the quadrature grid, filled from fn(rho, theta) or zero.

    fn receives broadcast-ready arrays shaped (n_r, 1) and (1, n_theta).
    """
    n_r, n_theta = (_check_count(n, "grid sizes must be integers >= 2", 2)
                    for n in (n_r, n_theta))
    x, w = _gauss_legendre(n_r)
    rho = 0.5 * g.R0 * (x + 1.0)
    wr = 0.5 * g.R0 * w
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    if fn is None:
        values = np.zeros((n_r, n_theta), dtype=complex)
    else:
        values = np.asarray(fn(rho[:, None], theta[None, :]), dtype=complex)
        values = np.broadcast_to(values, (n_r, n_theta)).copy()
    return SourceField(geometry=g, rho=rho, radial_weights=wr,
                       theta=theta, values=values)


def _kernel_band(kappa: float) -> int:
    """Order past which J_0(k d) and S carry no content in double precision.

    On a ring of radius rho <= R their Fourier coefficients behave like
    J_q(kappa) J_q(k rho), which falls below 1e-14 of its peak near
    q = kappa + 6.5 kappa^(1/3); the bound adds margin on both terms.
    """
    return int(math.ceil(kappa + 8.0 * kappa ** (1.0 / 3.0))) + 16


def _ring_coefficients(g: ProblemGeometry, rho: np.ndarray,
                       band: int) -> np.ndarray:
    """Fourier coefficients h_q(rho) of H_0^(1)(k|R - rho e^{it}|) in t.

    Returns shape (len(rho), 2 band + 1) for q = -band .. band; every rho
    must lie strictly inside R. See the module docstring for the split.

    Raises
    ------
    ArithmeticError
        if the fine grid leaves more than _KERNEL_TAIL_TOL of a ring's
        smooth kernel content past the derived band.
    """
    from scipy import special   # the dense cross-check alone needs scipy

    p_band = _kernel_band(g.kappa)
    n_fine = 1 << (2 * max(p_band, band) + 32).bit_length()
    t = 2.0 * math.pi * np.arange(n_fine) / n_fine
    r = rho[:, None] / g.R
    # d / R, written without the cancellation of 1 + r^2 - 2 r cos t
    d = np.sqrt((1.0 - r)**2 + 4.0 * r * np.sin(0.5 * t)**2)
    j0 = special.j0(g.kappa * d)
    j0_hat = np.fft.fft(j0, axis=1) / n_fine
    s_hat = np.fft.fft(special.hankel1(0, g.kappa * d)
                       - (2j / math.pi) * j0 * np.log(d), axis=1) / n_fine
    idx = np.arange(n_fine)
    beyond = np.minimum(idx, n_fine - idx) > p_band
    for c in (j0_hat, s_hat):
        tail = (np.abs(c[:, beyond]).max(axis=1)
                / np.abs(c).max(axis=1))
        if np.any(tail > _KERNEL_TAIL_TOL):
            raise ArithmeticError(
                f"kernel content past order {p_band} reaches "
                f"{tail.max():.1e} on a {n_fine}-point angular grid at "
                f"kappa={g.kappa:g}")
    # J_0(k d) log(d / R): convolve J_0's coefficients with the Laplace
    # series of log|1 - r e^{it}|, -r^|n| / (2|n|) for n != 0
    n = np.abs(np.arange(-(p_band + band), p_band + band + 1))
    laplace = np.where(n == 0, 0.0, -0.5 * r**n / np.maximum(n, 1))
    width = 4 * p_band + 2 * band + 1
    j0_band = j0_hat[:, np.arange(-p_band, p_band + 1) % n_fine]
    log_part = np.fft.ifft(np.fft.fft(j0_band, width, axis=1)
                           * np.fft.fft(laplace, width, axis=1), axis=1)
    q = np.arange(-band, band + 1)
    return (s_hat[:, q % n_fine]
            + (2j / math.pi) * log_part[:, q + band + 2 * p_band])


def assemble_forward(g: ProblemGeometry, n_r: int, n_theta: int,
                     n_s: int) -> ForwardMatrix:
    """Weighted kernel matrix, one boundary sample per row.

    Entry (j, i) is sqrt(w_j) K_a(phi_j - theta_l) sqrt(w_i) with w_j the
    boundary arc weight, w_i the area weight of source node i = (a, l)
    (nodes flattened row-major over (rho, theta)) and

        K_a(t) = sum_{|q| <= Q} h_q(rho_a) e^{iqt},
        Q = (min(n_theta, n_s) - 1) // 2,

    the kernel H_0^(1)(k|x - y|) on ring a cut to the orders both angular
    grids resolve, with exact coefficients h_q (see the module docstring).
    Away from the rim K_a agrees with the point kernel up to the truncated
    tail, of size (rho_a / R)^Q / Q.
    """
    n_r, n_theta, n_s = (_check_count(n, "grid sizes must be integers")
                         for n in (n_r, n_theta, n_s))
    if n_r < 8:
        raise ValueError("n_r must be at least 8")
    if n_theta < 2 * math.ceil(g.kappa0) + 16:
        raise ValueError(
            f"n_theta={n_theta} undersamples the source disk; "
            f"need at least {2 * math.ceil(g.kappa0) + 16}")
    if n_s < 2 * math.ceil(g.kappa) + 16:
        raise ValueError(
            f"n_s={n_s} undersamples the boundary; "
            f"need at least {2 * math.ceil(g.kappa) + 16}")
    grid = source_grid(g, n_r, n_theta)
    band = (min(n_theta, n_s) - 1) // 2
    q = np.arange(-band, band + 1)
    h = _ring_coefficients(g, grid.rho, band)
    # (order, ring, angle) factor of every column, then one product over q
    right = (h.T[:, :, None]
             * np.exp(-1j * np.outer(q, grid.theta))[:, None, :]
             * np.sqrt(grid.area_weights)[None, :, :])
    bangles = 2.0 * math.pi * np.arange(n_s) / n_s
    wb = 2.0 * math.pi * g.R / n_s
    entries = math.sqrt(wb) * (np.exp(1j * np.outer(bangles, q))
                               @ right.reshape(len(q), n_r * n_theta))
    log.debug("assembled %dx%d forward matrix, angular band %d",
              n_s, n_r * n_theta, band)
    return ForwardMatrix(geometry=g, entries=entries, n_r=n_r,
                         n_theta=n_theta, n_s=n_s,
                         area_weights=grid.area_weights,
                         boundary_weight=wb)


def apply_forward_analytic(s: SourceField, modes: int,
                           n_s: int | None = None) -> BoundaryData:
    """Forward map through the closed-form singular system.

    U(theta_j) = sum over |m| <= modes of sigma_{|m|} (s, psi_m) phi_m,
    with the inner product taken by the source field's own quadrature. Its
    weight w_i rho_i 2 pi / n_theta is one factor per ring, folded into
    the radial table. The projection and the sum over m run as one FFT, with
    mode m in bin m mod n (n = n_theta, then n_s), which reproduces the
    per-mode sums on any grid. sigma_m, A_m and arg H_m come from the
    memoized spectrum, the ring rows from one J pass, which the result
    carries as its plan. Degenerate modes (A_m = 0) are skipped with a
    warning.
    """
    g = s.geometry
    modes = _check_count(modes, "modes must be a nonnegative integer")
    table = _spectrum_table(g, max(modes, 1))
    plan = _planned(None, g, max(modes, 1), s.rho)
    if n_s is None:
        n_s = 2 * max(modes, default_m_max(g.kappa0)) + 2
    n_s = _check_count(n_s, "n_s must be a positive integer", 1)
    ms = np.arange(-modes, modes + 1)
    for m in ms[table.a[np.abs(ms)] == 0.0]:
        warnings.warn(f"skipping degenerate mode m={m} (A_m = 0)",
                      RuntimeWarning, stacklevel=2)
    ms = ms[table.a[np.abs(ms)] != 0.0]
    bins = np.zeros(n_s, dtype=complex)
    if ms.size:
        weight = s.radial_weights * s.rho * (2.0 * math.pi / s.n_theta)
        radial = _psi_radial(ms, plan.rings, table.a, g.R0)
        coef = _psi_project(s.values, ms, weight[:, None] * radial)
        np.add.at(bins, ms % n_s, table.sigma[np.abs(ms)] * coef
                  * np.exp(1j * _signed_phase(table.phase, ms))
                  / math.sqrt(2.0 * math.pi * g.R))
    return BoundaryData(geometry=g, values=np.fft.ifft(bins, norm="forward"),
                        plan=plan)


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
