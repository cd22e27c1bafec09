"""Truncated-SVD inversion of boundary data through the analytic system.

Because the left singular functions are (phased) Fourier modes on the
measurement circle, the modal coefficients c_m = (U, phi_m) of sampled
data come straight out of one FFT. Reconstruction keeps the modes
|m| <= N and divides each coefficient by its sigma, which is exactly
where stopband noise blows up; choosing N is the whole game, and the
band-edge integers from the bandwidth module are the natural policies.
A Reconstruction keeps its 2N + 1 coefficients c_m / sigma_|m|, from which
_synthesize redoes its grid bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bandwidth import bandwidth, bound_lower, bound_upper
from .forward import (SourceField, BoundaryData, _check_bins, _grid_sizes,
                      _radial_rule, _resolving_grid, _scaled_abs)
from .singular_system import (ProblemGeometry, _planned, _psi_synthesize,
                              _signed_phase, _spectrum_table, default_m_max)
from .specfun import _check_count

__all__ = [
    "SigmaUnderflowError",
    "ModalCoefficients",
    "Reconstruction",
    "modal_decompose",
    "tsvd_reconstruct",
    "pick_truncation",
]

_POLICIES = ("B", "B-", "B+", "N")


class SigmaUnderflowError(ArithmeticError):
    """A requested mode's singular value is too small to divide by."""


@dataclass(frozen=True)
class ModalCoefficients:
    """Coefficients (U, phi_m) for m = -m_max .. m_max, m_max = len(c) // 2;
    index with [m + m_max]."""

    geometry: ProblemGeometry
    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        if np.ndim(self.c) != 1 or len(self.c) % 2 != 1:
            raise ValueError("c must be 1-D of odd length 2 m_max + 1, not "
                             f"of shape {np.shape(self.c)}")

    m_max = property(lambda self: len(self.c) // 2)

    def coeff(self, m: int) -> complex:
        m = _check_count(m, "mode order must be an integer", -math.inf)
        if abs(m) > self.m_max:
            raise IndexError(f"mode {m} outside |m| <= {self.m_max}")
        return complex(self.c[m + self.m_max])


@dataclass(frozen=True)
class Reconstruction:
    """TSVD estimate: coefficients c_m / sigma_|m| for m = -N .. N, the grid
    they synthesize, truncation metadata, and the margin max |||psi_m||_h^2
    - 1| over |m| <= N by which the grid's rings miss the retained modes."""

    source: SourceField
    coefficients: np.ndarray = field(repr=False)
    residual: float
    margin: float
    policy: str = "N"

    def __post_init__(self):
        if np.ndim(self.coefficients) != 1 or len(self.coefficients) % 2 != 1:
            raise ValueError("coefficients must be 1-D of odd length 2 N + 1, "
                             f"not of shape {np.shape(self.coefficients)}")

    N = property(lambda self: len(self.coefficients) // 2)


def modal_decompose(U: BoundaryData, m_max: int) -> ModalCoefficients:
    """Project boundary samples onto the left singular functions.

    c_m = (2 pi R / N_s) sum_j U(theta_j) conj(phi_m(theta_j)), evaluated
    for all m at once via the FFT; exact for trigonometric polynomials of
    degree below N_s - m_max.
    """
    m_max = _check_count(m_max, "m_max must be a nonnegative integer")
    n_s = U.n_s
    _check_bins("n_s", n_s, m_max)
    g = U.geometry
    table = _spectrum_table(g, m_max)
    bins = np.fft.fft(U.values)
    front = math.sqrt(2.0 * math.pi * g.R) / n_s
    ms = np.arange(-m_max, m_max + 1)
    c = (front * np.exp(-1j * _signed_phase(table.phase, ms))
         * bins[ms % n_s])
    return ModalCoefficients(geometry=g, c=c)


def _usable_spectrum(g: ProblemGeometry, N: int):
    """Spectrum rows m = 0 .. N of g, unless a sigma lost all precision."""
    table = _spectrum_table(g, N)
    bad = ~np.isfinite(table.log_sigma) | (table.sigma == 0.0)
    if bad.any():
        m = int(np.argmax(bad))
        raise SigmaUnderflowError(
            f"sigma_{m} underflows at kappa0={g.kappa0:g}, "
            f"kappa={g.kappa:g}; mode {m} is unusable")
    return table


def _synthesize(g: ProblemGeometry, w, n_r: int,
                n_theta: int) -> tuple[SourceField, np.ndarray]:
    """(sum_m w_m psi_m on the n_r x n_theta grid, ||psi_m||_h^2 - 1) for
    m = -N .. N, N = len(w) // 2 <= (n_theta - 1) / 2, the norms being
    2 pi sum_i wr_i rho_i half[i, |m|]^2. half is the radial table
    J_m(k rho_i) / (sqrt(pi) R0 A_m), m = 0 .. N, divided per call from the
    memoized ring rows (_planned). The norms come first, from a squared
    copy gathered to m = -N .. N and dropped before the output is
    allocated: the matrix product over that full-width copy keeps their
    bits."""
    N = len(w) // 2
    rho, wr = _radial_rule(g, n_r)
    half = (_planned(g, N, rho)[:, :N + 1]
            / (math.sqrt(math.pi) * g.R0 * _usable_spectrum(g, N).a))
    sq = half[:, np.abs(np.arange(-N, N + 1))]
    norms = 2.0 * math.pi * ((wr * rho) @ np.square(sq, out=sq))
    del sq
    return SourceField(g, _psi_synthesize(w, half, n_theta)), norms - 1.0


def tsvd_reconstruct(c: ModalCoefficients, N: int, g: ProblemGeometry | None = None,
                     n_r: int | None = None, n_theta: int | None = None,
                     policy: str = "N") -> Reconstruction:
    """Invert the retained modes onto a fresh source grid.

    shat = sum over |m| <= N of c_m / sigma_{|m|} psi_m (_synthesize). The
    residual is the relative misfit between the retained coefficients and
    the modal content of shat pushed back through the forward map. With
    n_theta >= 2N + 1 no two modes share an FFT bin, so that content is
    exactly (c_m / sigma_m) ||psi_m||_h^2, and the residual is the
    |c_m|^2-weighted RMS of ||psi_m||_h^2 - 1 (round-off when the grid
    resolves every retained mode, as _resolving_grid(g, N), the default,
    does); the margin is reported, not enforced.

    g, if given, must equal c.geometry: the coefficients are divided by
    that geometry's sigma, so any other one is refused.
    """
    N = _check_count(N, "truncation index must be a nonnegative integer")
    if N > c.m_max:
        raise ValueError(f"truncation {N} exceeds available modes {c.m_max}")
    if g is None:
        g = c.geometry
    elif g != c.geometry:
        raise ValueError(f"geometry {g} is not the coefficients' geometry "
                         f"{c.geometry}")
    ms = np.arange(-N, N + 1)
    cm = c.c[ms + c.m_max]
    if not np.isfinite(cm).all():
        raise ValueError(f"c_{ms[np.argmin(np.isfinite(cm))]} is not finite")
    n_r, n_theta = _resolving_grid(g, N, n_r, n_theta)
    _check_bins("n_theta", n_theta, N)
    n_r, n_theta = _grid_sizes(n_r, n_theta)
    w = cm / _usable_spectrum(g, N).sigma[np.abs(ms)]
    shat, dev = _synthesize(g, w, n_r, n_theta)
    a = _scaled_abs(cm)[0]          # exact: the squares stay in range
    den = float(np.sum(a**2))
    residual = (math.sqrt(float(np.sum((a * dev)**2)) / den)
                if den > 0.0 else 0.0)
    return Reconstruction(source=shat, coefficients=w, residual=residual,
                          margin=float(np.max(np.abs(dev))), policy=policy)


def pick_truncation(g: ProblemGeometry, policy: str,
                    n: int | None = None) -> int:
    """Map a truncation policy to its integer.

    policy is one of "B", "B-", "B+" (band-edge integers of the geometry)
    or "N" (manual, takes n; no other policy does). B reads the memoized
    spectrum of g, and makes no Bessel pass once that exists; B- and B+
    run bound_lower and bound_upper, one short row at kappa0, each call.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {_POLICIES}")
    if policy == "N":
        return _check_count(n, "manual policy needs a nonnegative integer N")
    if n is not None:
        raise ValueError(f"n={n!r} needs policy 'N', not {policy!r}")
    if policy == "B":
        return bandwidth(_spectrum_table(g, default_m_max(g.kappa0)))
    return (bound_lower if policy == "B-" else bound_upper)(g.kappa0)
