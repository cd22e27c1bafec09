"""Bandwidth of the singular spectrum and its Bessel-zero bounds.

The bandwidth B is the smallest mode index from which the singular values
decrease strictly for every later index. Computed over a finite horizon,
which is safe because deep in the stopband the decrease is provably
monotone; the horizon preconditions below make sure the table actually
reaches that regime.

The two rigorous/conjectured bounds come from first Bessel zeros,

    B_-  = min { m : j_{m,1} >= kappa0 }
    B_+  = min { m : y_{m,1} >= kappa0 }

and both have cheap closed-form surrogates: B~- from inverting the
large-order expansion j_{m,1} ~ m + a_- m^(1/3) (a cubic in m^(1/3)),
and B~+ = ceil(kappa0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .singular_system import (ProblemGeometry, SpectrumTable, build_spectrum,
                              default_m_max)
from .specfun import A_MINUS, first_zero_j, first_zero_y

__all__ = [
    "HorizonError",
    "BandwidthReport",
    "bandwidth",
    "bound_lower",
    "bound_upper",
    "bound_lower_approx",
    "bound_upper_approx",
    "report",
    "max_angular_sampling",
]

# inclusive-tie slack for the threshold comparisons j_{m,1} >= kappa0
_TIE_TOL = 1e-9

# number of trailing rows whose decay is sanity-checked before trusting
# the finite horizon
_TAIL_ROWS = 10


class HorizonError(RuntimeError):
    """The spectrum table is too short to pin down the bandwidth."""


def _min_horizon(kappa0: float) -> int:
    return int(math.ceil(kappa0) + math.ceil(3.0 * kappa0 ** (1.0 / 3.0)) + 20)


def bandwidth(spectrum: SpectrumTable) -> int:
    """Smallest m with sigma strictly decreasing on [m, m_max].

    Comparisons happen in the log domain with zero tolerance; the
    definition is a strict inequality and the stopband separations are
    orders of magnitude wider than round-off.

    Raises
    ------
    HorizonError
        if the table has fewer rows than the transition region needs, or
        if the trailing rows fail to decrease strictly (a horizon ending
        before the stopband would otherwise produce a silently wrong B).
    """
    g = spectrum.geometry
    need = _min_horizon(g.kappa0)
    if spectrum.m_max < need:
        raise HorizonError(
            f"m_max={spectrum.m_max} is below the required horizon {need} "
            f"for kappa0={g.kappa0:g}")
    ls = spectrum.log_sigma
    finite = np.isfinite(ls)
    if not finite.all():
        # trailing underflow of A_m: everything past the first -inf is
        # -inf as well, which counts as decayed-below-floor
        t = int(np.argmin(finite))
        if t <= need or not np.all(~finite[t:]):
            raise HorizonError(
                f"log sigma lost representability at m={t} before the "
                "horizon; shrink m_max or rescale the geometry")
        ls = ls[:t]
    tail = ls[-_TAIL_ROWS:]
    if not np.all(np.diff(tail) < 0.0):
        raise HorizonError(
            "trailing rows of the spectrum are not strictly decreasing; "
            "the horizon ends before the stopband, increase m_max")
    viol = np.nonzero(ls[:-1] <= ls[1:])[0]
    return int(viol[-1] + 1) if viol.size else 0


def _threshold_search(kappa0: float, zero_of) -> int:
    """Smallest m with zero_of(m) >= kappa0, ties inclusive.

    zero_of(m) is strictly increasing in m and exceeds m itself, so the
    predicate is monotone and m = ceil(kappa0) is always a witness;
    bisect below it.
    """
    if not (math.isfinite(kappa0) and kappa0 > 0.0):
        raise ValueError(f"kappa0 must be positive, got {kappa0!r}")

    def hit(m: int) -> bool:
        return zero_of(m).value >= kappa0 - _TIE_TOL

    lo, hi = 0, int(math.ceil(kappa0)) + 1
    if hit(lo):
        return 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if hit(mid):
            hi = mid
        else:
            lo = mid
    return hi


def bound_lower(kappa0: float) -> int:
    """B_- : first order whose J zero clears kappa0."""
    return _threshold_search(kappa0, first_zero_j)


def bound_upper(kappa0: float) -> int:
    """B_+ : first order whose Y zero clears kappa0."""
    return _threshold_search(kappa0, first_zero_y)


def bound_lower_approx(kappa0: float) -> int:
    """Closed-form surrogate for B_-.

    Inverts kappa0 = n^3 + a_- n with n = m^(1/3) through the depressed
    cubic's real root and returns ceil(n^3).
    """
    if not (math.isfinite(kappa0) and kappa0 > 0.0):
        raise ValueError(f"kappa0 must be positive, got {kappa0!r}")
    t = (108.0 * kappa0
         + 12.0 * math.sqrt(12.0 * A_MINUS**3 + 81.0 * kappa0**2)) ** (1.0 / 3.0)
    n = t / 6.0 - 2.0 * A_MINUS / t
    return int(math.ceil(n**3))


def bound_upper_approx(kappa0: float) -> int:
    """Closed-form surrogate for B_+ : ceil(kappa0)."""
    if not (math.isfinite(kappa0) and kappa0 > 0.0):
        raise ValueError(f"kappa0 must be positive, got {kappa0!r}")
    return int(math.ceil(kappa0))


@dataclass(frozen=True)
class BandwidthReport:
    """All five band-edge integers for one geometry."""
    geometry: ProblemGeometry
    B: int
    B_minus: int
    B_plus: int
    B_tilde_minus: int
    B_tilde_plus: int
    horizon: int


def report(g: ProblemGeometry, m_max: int | None = None) -> BandwidthReport:
    """Bandwidth and all four bounds from a single spectrum build."""
    if m_max is None:
        m_max = default_m_max(g.kappa0)
    return _report(build_spectrum(g, m_max))


def _report(spectrum: SpectrumTable) -> BandwidthReport:
    """Bandwidth and all four bounds of a spectrum already built."""
    g = spectrum.geometry
    return BandwidthReport(
        geometry=g,
        B=bandwidth(spectrum),
        B_minus=bound_lower(g.kappa0),
        B_plus=bound_upper(g.kappa0),
        B_tilde_minus=bound_lower_approx(g.kappa0),
        B_tilde_plus=bound_upper_approx(g.kappa0),
        horizon=spectrum.m_max,
    )


def max_angular_sampling(g: ProblemGeometry) -> float:
    """Coarsest useful angular step for boundary sampling, pi / B_-."""
    b = bound_lower(g.kappa0)
    if b < 1:
        raise ValueError(
            f"no stable band at kappa0={g.kappa0:g} (B_- = 0); the sampling "
            "bound pi / B_- is undefined")
    return math.pi / b
