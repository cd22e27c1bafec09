"""Closed-form singular system of the disk-to-circle radiation operator.

The forward map takes a source supported on the disk |y| <= R0 to its
radiated Helmholtz field sampled on the circle |x| = R, with kernel
H_0^(1)(k|x - y|). Separation in polar coordinates gives one singular
triple per angular frequency m:

    sigma_m = sqrt(2R) * pi * R0 * |H_m^(1)(kappa)| * A_m(kappa0)
    psi_m(y) = J_m(k|y|) e^{i m arg y} / (sqrt(pi) R0 A_m(kappa0))
    phi_m(x) = e^{i arg H_m^(1)(kappa)} e^{i m arg x} / sqrt(2 pi R)

with kappa0 = k R0, kappa = k R and

    A_m(kappa0) = sqrt(J_m(kappa0)^2 - J_{m-1}(kappa0) J_{m+1}(kappa0)).

sigma depends on |m| only, so every mode with m != 0 comes in a pair.
All spectrum-facing code works with log sigma; in the stopband the raw
values cross the double underflow line long before anything interesting
stops happening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .specfun import bessel_j_table, hankel_phase_row, log_hankel_abs2_row

__all__ = [
    "ProblemGeometry",
    "SpectrumTable",
    "a_m",
    "build_spectrum",
    "default_m_max",
    "psi_eval",
    "phi_eval",
]


@dataclass(frozen=True)
class ProblemGeometry:
    """Wavenumber and the two radii of the concentric setup.

    Parameters
    ----------
    k : float
        Wavenumber, k > 0.
    R0 : float
        Radius of the source-support disk.
    R : float
        Radius of the measurement circle, R >= R0.

    The dimensionless size parameters kappa0 = k R0 and kappa = k R are
    derived attributes; they are all the spectrum actually depends on,
    up to overall scale factors.
    """

    k: float
    R0: float
    R: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0.0):
            raise ValueError(f"wavenumber must be positive, got {self.k!r}")
        if not (math.isfinite(self.R0) and math.isfinite(self.R)
                and 0.0 < self.R0 <= self.R):
            raise ValueError(
                f"radii must satisfy 0 < R0 <= R, got R0={self.R0!r}, R={self.R!r}")

    @property
    def kappa0(self) -> float:
        return self.k * self.R0

    @property
    def kappa(self) -> float:
        return self.k * self.R

    @classmethod
    def from_size_params(cls, kappa0: float, kappa: float) -> "ProblemGeometry":
        """Geometry from size parameters alone, using the R = 1 convention."""
        if not (kappa0 > 0.0 and kappa > 0.0 and kappa0 <= kappa):
            raise ValueError(
                f"size parameters must satisfy 0 < kappa0 <= kappa, "
                f"got kappa0={kappa0!r}, kappa={kappa!r}")
        return cls(k=float(kappa), R0=float(kappa0) / float(kappa), R=1.0)


def default_m_max(kappa0: float) -> int:
    """Default spectrum horizon: passband, transition and stopband margin."""
    return int(math.ceil(kappa0) + math.ceil(3.0 * kappa0 ** (1.0 / 3.0)) + 40)


def a_m(m, kappa0: float):
    """Radial normalization factor A_m(kappa0), symmetric in m <-> -m.

    Computed from the product form
    sqrt(J_m^2 - J_{m-1} J_{m+1}) evaluated at kappa0. The radicand is
    nonnegative analytically; round-off can push it a hair below zero,
    which is clamped. A radicand that is genuinely negative (beyond
    a 1e-14 relative slack) indicates a broken evaluation and raises.

    Accepts a scalar or an integer array for m.
    """
    if not (math.isfinite(kappa0) and kappa0 > 0.0):
        raise ValueError(f"kappa0 must be positive, got {kappa0!r}")
    marr = np.abs(np.asarray(m, dtype=int))
    # one row J_{lo-1} .. J_{hi+1}, sliced for the orders m-1, m and m+1
    lo, hi = (int(marr.min()), int(marr.max())) if marr.size else (0, 0)
    row = special.jv(np.arange(lo - 1, hi + 2), kappa0)
    jm = row[marr - lo + 1]
    rad = jm * jm - row[marr - lo] * row[marr - lo + 2]
    scale = np.maximum(jm * jm, 1e-300)
    if np.any(rad < -1e-14 * scale):
        worst = int(marr.flat[int(np.argmin(rad / scale))])
        raise ArithmeticError(
            f"negative radicand in A_m at m={worst}, kappa0={kappa0:g}")
    out = np.sqrt(np.maximum(rad, 0.0))
    return float(out) if np.ndim(m) == 0 else out


@dataclass(frozen=True)
class SpectrumTable:
    """Per-mode singular data for m = 0 .. m_max.

    sigma carries exp(log_sigma) where representable and 0 on underflow;
    ranking and bandwidth logic must use log_sigma.
    """

    geometry: ProblemGeometry
    m: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)
    log_abs_h2: np.ndarray = field(repr=False)
    log_sigma: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)

    @property
    def m_max(self) -> int:
        return int(self.m[-1])

    def __len__(self) -> int:
        return len(self.m)


def build_spectrum(g: ProblemGeometry, m_max: int | None = None) -> SpectrumTable:
    """Assemble the spectrum rows m = 0 .. m_max for one geometry."""
    if m_max is None:
        m_max = default_m_max(g.kappa0)
    m_max = int(m_max)
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    ms = np.arange(m_max + 1)
    a = a_m(ms, g.kappa0)
    logh2 = log_hankel_abs2_row(m_max, g.kappa)
    const = 0.5 * math.log(2.0 * g.R) + math.log(math.pi) + math.log(g.R0)
    with np.errstate(divide="ignore"):
        ls = const + 0.5 * logh2 + np.log(a)
    with np.errstate(under="ignore"):
        sigma = np.where(np.isfinite(ls), np.exp(np.minimum(ls, 709.0)), 0.0)
    return SpectrumTable(geometry=g, m=ms, a=a, log_abs_h2=logh2,
                         log_sigma=ls, sigma=sigma)


def psi_eval(m: int, g: ProblemGeometry, rho, theta):
    """Right singular function psi_m at polar points of the source disk.

    rho and theta broadcast against each other. Requires |rho| <= R0 and a
    nondegenerate mode (A_{|m|}(kappa0) > 0).
    """
    m = int(m)
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(rho < 0.0) or np.any(rho > g.R0 * (1.0 + 1e-12)):
        raise ValueError("psi_eval points must lie in the source disk")
    a = a_m(abs(m), g.kappa0)
    if a == 0.0:
        raise ArithmeticError(
            f"mode m={m} is degenerate at kappa0={g.kappa0:g} (A_m = 0)")
    vals = special.jv(m, g.k * rho) * np.exp(1j * m * theta)
    out = vals / (math.sqrt(math.pi) * g.R0 * a)
    return complex(out) if out.ndim == 0 else out


def _psi_radial(ms, g: ProblemGeometry, rho) -> np.ndarray:
    """Radial factors J_m(k rho_i) / (sqrt(pi) R0 A_m) of nondegenerate
    modes psi_m, (n_r, len(ms)), from one bessel_j_table (Miller's downward
    recurrence over all rings) and J_{-m} = (-1)^m J_m. Within 1e-12 of
    each column's largest entry of the jv values psi_eval uses."""
    ms = np.asarray(ms)
    jm = bessel_j_table(int(np.abs(ms).max()), g.k * rho)
    sign = np.where((ms < 0) & (ms % 2 == 1), -1.0, 1.0)
    return (jm[:, np.abs(ms)] * sign
            / (math.sqrt(math.pi) * g.R0 * a_m(ms, g.kappa0)))


def _psi_synthesize(w, ms, radial, n_theta: int) -> np.ndarray:
    """sum_m w_m psi_m at (rho_i, 2 pi j / n_theta). Mode m lands in FFT bin
    m mod n_theta, so aliased grids get the per-mode sums too."""
    bins = np.zeros((len(radial), n_theta), dtype=complex)
    np.add.at(bins.T, np.asarray(ms) % n_theta, (radial * w).T)
    return np.fft.ifft(bins, axis=1, norm="forward")


def _psi_project(P, ms, radial) -> np.ndarray:
    """sum_ij P_ij conj(psi_m(rho_i, 2 pi j / n_theta)) for every m."""
    F = np.fft.fft(P, axis=1)
    return np.sum(radial * F[:, np.asarray(ms) % P.shape[1]], axis=0)


def _signed_hankel_phase_row(ms, kappa: float) -> np.ndarray:
    """arg H_m^(1)(kappa) for every m in ms, from one hankel_phase_row.

    H_{-m} = (-1)^m H_m, so odd negative orders pick up a phase of pi.
    """
    ms = np.asarray(ms)
    ph = hankel_phase_row(int(np.abs(ms).max()), kappa)[np.abs(ms)]
    ph[(ms < 0) & (ms % 2 == 1)] += math.pi
    return ph


def phi_eval(m: int, g: ProblemGeometry, theta):
    """Left singular function phi_m at angles theta of the measurement circle."""
    m = int(m)
    theta = np.asarray(theta, dtype=float)
    ph = float(_signed_hankel_phase_row([m], g.kappa)[0])
    out = np.exp(1j * (ph + m * theta)) / math.sqrt(2.0 * math.pi * g.R)
    return complex(out) if out.ndim == 0 else out
