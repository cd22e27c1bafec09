"""Bandwidth of the singular spectrum and its Bessel-zero bounds.

The bandwidth B is the smallest mode index from which the singular values
decrease strictly for every later index. Computed over a finite horizon,
which is safe because deep in the stopband the decrease is provably
monotone; the horizon preconditions below make sure the table actually
reaches that regime.

The two rigorous/conjectured bounds come from first Bessel zeros,

    B_-  = min { m : j_{m,1} >= kappa0 }
    B_+  = min { m : y_{m,1} >= kappa0 }

where a zero within _TIE_TOL below kappa0 counts as clearing it. No zero
is searched for. The zeros interlace, j_{m,1} < j_{m+1,1} < j_{m,2}
(DLMF 10.21.2, and the same for y). So if M is the last order with
j_{M,1} < kappa0, then kappa0 <= j_{M+1,1} < j_{M,2} gives J_M(kappa0) < 0,
while J_m(kappa0) >= 0 for every m > M: B_- = M + 1 is one more than the
last order whose J_m(kappa0) is negative, and 0 if none is. B_+ comes
likewise from the last positive Y_m(kappa0). As j_{m,1} > m and
y_{m,1} > m, only the orders below kappa0 need to be read. The tie rule
is kept by the Newton distance f_M / f_M' from the first zero of f_M
to kappa0, with f_M' = (M/kappa0) f_M - f_{M+1} (DLMF 10.6.2): by the same
interlacing f_M' has no zero between that zero and kappa0, so the
distance is positive, and where it is at most _TIE_TOL the bound is M
itself. The rows read are the J and Y rows at kappa0 that _reports
takes from the Bessel pass of the spectrum, for report and run_sweep
alike; bound_lower and bound_upper build their own.

Both bounds have cheap closed-form surrogates: B~- from inverting the
large-order expansion j_{m,1} ~ m + a_- m^(1/3) (a cubic in m^(1/3)),
and B~+ = ceil(kappa0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .singular_system import (ProblemGeometry, SpectrumTable, _bessel_rows,
                              _horizon, _log_spectrum)
from .specfun import A_MINUS, bessel_j_table, bessel_y_table

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
    return _band_edge(spectrum.log_sigma, spectrum.geometry.kappa0)


def _band_edge(ls: np.ndarray, kappa0: float) -> int:
    """bandwidth of the log sigma row ls of m = 0 .. len(ls) - 1."""
    need = _min_horizon(kappa0)
    if len(ls) - 1 < need:
        raise HorizonError(
            f"m_max={len(ls) - 1} is below the required horizon {need} "
            f"for kappa0={kappa0:g}")
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


def _sign_bounds(f: np.ndarray, kappa0: np.ndarray, sign: float,
                 e=None) -> np.ndarray:
    """The bound of each lane i from its row f[i, m] ~ F_m(kappa0_i),
    m = 0 .. ceil(kappa0_i) at least: one more than the last order
    m < kappa0_i with sign F_m(kappa0_i) > 0, or that order M itself
    where its Newton distance to the first zero of F_M is at most
    _TIE_TOL; 0 where no order has that sign. -1 where an entry it reads
    is not finite, so that such a row never picks a bound.

    f may be a mantissa table with its exponent table e, as
    bessel_y_table gives them: the signs are those of f, and the tie rule
    reads f 2^e.
    """
    scan = np.arange(f.shape[1]) < np.ceil(kappa0)[:, None]
    hit = scan & (sign * f > 0.0)
    last = np.where(hit.any(axis=1),
                    f.shape[1] - 1 - np.argmax(hit[:, ::-1], axis=1), -1)
    lanes, at = np.arange(len(f)), np.maximum(last, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        g_at, g_up = (sign * (f[lanes, m] if e is None else
                              np.ldexp(f[lanes, m], e[lanes, m]))
                      for m in (at, at + 1))
        slope = (at / kappa0) * g_at - g_up          # sign F_M'(kappa0)
        tie = (last >= 0) & (slope > 0.0) & (g_at <= _TIE_TOL * slope)
    ok = (np.all(np.isfinite(f) | ~scan, axis=1)
          & ((last < 0) | np.isfinite(g_up)))
    return np.where(ok, last + 1 - tie, -1)


def _check_kappa0(kappa0) -> np.ndarray:
    k = np.asarray(kappa0, dtype=float)
    if not np.all(np.isfinite(k) & (k > 0.0)):
        raise ValueError(f"kappa0 must be positive, got {kappa0!r}")
    return k


def _bound_result(b: np.ndarray, kappa0, kind: str):
    if np.any(b < 0):
        raise ArithmeticError(
            f"{kind}_m(kappa0) is not finite where B reads it, at "
            f"kappa0={np.asarray(kappa0).flat[int(np.argmin(b))]:g}")
    return int(b[0]) if np.ndim(kappa0) == 0 else b.reshape(np.shape(kappa0))


def bound_lower(kappa0):
    """B_- : first order whose J zero clears kappa0, from the signs of
    the J row at kappa0 to ceil(kappa0) + 2 (see the module docstring).
    kappa0 is one size parameter or an array of them, one lane each."""
    k = _check_kappa0(kappa0).reshape(-1)
    j = bessel_j_table(np.ceil(k).astype(np.int64) + 2, k)
    return _bound_result(_sign_bounds(j, k, -1.0), kappa0, "J")


def bound_upper(kappa0):
    """B_+ : first order whose Y zero clears kappa0, from the signs of
    the Y row at kappa0 to ceil(kappa0) + 2; as bound_lower."""
    k = _check_kappa0(kappa0).reshape(-1)
    y, e = bessel_y_table(np.ceil(k).astype(np.int64) + 2, k)
    return _bound_result(_sign_bounds(y, k, 1.0, e), kappa0, "Y")


def bound_lower_approx(kappa0: float) -> int:
    """Closed-form surrogate for B_-.

    Inverts kappa0 = n^3 + a_- n with n = m^(1/3) through the depressed
    cubic's real root and returns ceil(n^3).
    """
    _check_kappa0(kappa0)
    t = (108.0 * kappa0
         + 12.0 * math.sqrt(12.0 * A_MINUS**3 + 81.0 * kappa0**2)) ** (1.0 / 3.0)
    n = t / 6.0 - 2.0 * A_MINUS / t
    return int(math.ceil(n**3))


def bound_upper_approx(kappa0: float) -> int:
    """Closed-form surrogate for B_+ : ceil(kappa0)."""
    _check_kappa0(kappa0)
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
    """Bandwidth and all four bounds from a single Bessel pass: _reports
    of a batch of one."""
    (rep,) = _reports([g], [_horizon(g, m_max)])
    return rep


def _reports(gs, m_maxes):
    """The BandwidthReport of each geometry g to m_max from one
    _bessel_rows pass and one scan of all their J and Y rows at kappa0.
    The reports come back lazily, in order: each is assembled, and
    raises if it must, only when it is taken. A report gets the same
    bits in a batch as on its own."""
    rows = _bessel_rows(gs, m_maxes, at_kappa0=True)
    kappa0 = np.array([g.kappa0 for g in gs])
    n = math.ceil(kappa0.max()) + 1
    # the J stack goes before the Y stacks come, so the three never coexist
    b_minus = _sign_bounds(np.array([r[0][:n] for r in rows]), kappa0,
                           -1.0).tolist()
    y, e = (np.array([r[i][:n] for r in rows]) for i in (4, 5))
    b_plus = _sign_bounds(y, kappa0, 1.0, e).tolist()

    def one(p: int) -> BandwidthReport:
        g = gs[p]
        b = _band_edge(_log_spectrum(g, m_maxes[p], rows[p])[2], g.kappa0)
        if b_minus[p] < 0 or b_plus[p] < 0:
            raise ArithmeticError(
                f"Bessel rows at kappa0={g.kappa0:g} are not finite where "
                "the bounds read them")
        return BandwidthReport(
            geometry=g, B=b, B_minus=b_minus[p], B_plus=b_plus[p],
            B_tilde_minus=bound_lower_approx(g.kappa0),
            B_tilde_plus=bound_upper_approx(g.kappa0), horizon=m_maxes[p])

    return map(one, range(len(gs)))


def max_angular_sampling(g: ProblemGeometry) -> float:
    """Coarsest useful angular step for boundary sampling, pi / B_-."""
    b = bound_lower(g.kappa0)
    if b < 1:
        raise ValueError(
            f"no stable band at kappa0={g.kappa0:g} (B_- = 0); the sampling "
            "bound pi / B_- is undefined")
    return math.pi / b
