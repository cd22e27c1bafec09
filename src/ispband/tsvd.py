"""Truncated-SVD inversion of boundary data through the analytic system.

Because the left singular functions are (phased) Fourier modes on the
measurement circle, the modal coefficients c_m = (U, phi_m) of sampled
data come straight out of one FFT. Reconstruction keeps the modes
|m| <= N and divides each coefficient by its sigma, which is exactly
where stopband noise blows up; choosing N is the whole game, and the
band-edge integers from the bandwidth module are the natural policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bandwidth import bandwidth, bound_lower, bound_upper
from .forward import SourceField, BoundaryData, source_grid
from .singular_system import (ProblemGeometry, _Plan, _planned,
                              _psi_radial, _psi_synthesize, _signed_phase,
                              _spectrum_table, default_m_max)
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
    """Coefficients (U, phi_m) for m = -m_max .. m_max; index with [m + m_max]."""

    geometry: ProblemGeometry
    m_max: int
    c: np.ndarray = field(repr=False)
    plan: _Plan | None = field(default=None, repr=False, compare=False)

    def coeff(self, m: int) -> complex:
        if abs(m) > self.m_max:
            raise IndexError(f"mode {m} outside |m| <= {self.m_max}")
        return complex(self.c[m + self.m_max])


@dataclass(frozen=True)
class Reconstruction:
    """TSVD estimate of the source together with its truncation metadata."""

    source: SourceField
    N: int
    residual: float
    policy: str = "N"


def modal_decompose(U: BoundaryData, m_max: int) -> ModalCoefficients:
    """Project boundary samples onto the left singular functions.

    c_m = (2 pi R / N_s) sum_j U(theta_j) conj(phi_m(theta_j)), evaluated
    for all m at once via the FFT; exact for trigonometric polynomials of
    degree below N_s - m_max.
    """
    m_max = _check_count(m_max, "m_max must be a nonnegative integer")
    n_s = U.n_s
    if n_s < 2 * m_max + 1:
        raise ValueError(
            f"n_s={n_s} cannot resolve modes up to {m_max} without aliasing; "
            f"need n_s >= {2 * m_max + 1}")
    g = U.geometry
    table = _spectrum_table(g, max(m_max, 1))
    bins = np.fft.fft(U.values)
    front = math.sqrt(2.0 * math.pi * g.R) / n_s
    ms = np.arange(-m_max, m_max + 1)
    c = (front * np.exp(-1j * _signed_phase(table.phase, ms))
         * bins[ms % n_s])
    return ModalCoefficients(geometry=g, m_max=m_max, c=c, plan=U.plan)


def tsvd_reconstruct(c: ModalCoefficients, N: int, g: ProblemGeometry | None = None,
                     n_r: int = 64, n_theta: int | None = None,
                     policy: str = "N") -> Reconstruction:
    """Invert the retained modes onto a fresh source grid.

    shat = sum over |m| <= N of c_m / sigma_{|m|} psi_m. The residual is
    the relative misfit between the retained coefficients and the modal
    content of shat pushed back through the forward map. With
    n_theta >= 2N + 1 no two modes share an FFT bin, so that content is
    exactly (c_m / sigma_m) ||psi_m||_h^2, and the residual is the
    |c_m|^2-weighted RMS of ||psi_m||_h^2 - 1, from the discrete norms
    2 pi sum_i w_i rho_i radial[i, m]^2 of the ring table (round-off
    when the grid resolves every retained mode).

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
    if n_theta is None:
        n_theta = max(64, 2 * N + 8)
    if n_theta < 2 * N + 1:
        raise ValueError(
            f"n_theta={n_theta} cannot resolve modes up to {N} without "
            f"aliasing; need n_theta >= {2 * N + 1}")
    grid = source_grid(g, n_r, n_theta)
    table = _spectrum_table(g, max(N, 1))
    # refuse to divide by anything that lost all precision
    bad = ~np.isfinite(table.log_sigma[:N + 1]) | (table.sigma[:N + 1] == 0.0)
    if bad.any():
        m = int(np.argmax(bad))
        raise SigmaUnderflowError(
            f"sigma_{m} underflows at kappa0={g.kappa0:g}, "
            f"kappa={g.kappa:g}; mode {m} is unusable")
    sigma = table.sigma[np.abs(ms)]
    radial = _psi_radial(ms, _planned(c.plan, g, max(N, 1), grid.rho).rings,
                         table.a, g.R0)
    shat = replace(grid, values=_psi_synthesize(cm / sigma, ms, radial,
                                                n_theta))
    norms = 2.0 * math.pi * ((grid.radial_weights * grid.rho) @ radial**2)
    den = float(np.sum(np.abs(cm)**2))
    residual = (math.sqrt(float(np.sum((np.abs(cm) * (norms - 1.0))**2))
                          / den) if den > 0.0 else 0.0)
    return Reconstruction(source=shat, N=N, residual=residual, policy=policy)


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
