"""Stable evaluation of integer-order Bessel quantities.

Everything the rest of the package needs from special-function land lives
here: a row of log|H_m^(1)|^2, a row of arg H_m^(1), and the first positive
zeros j_{m,1} and y_{m,1}. J_m alone is taken from scipy.special.jv.

Both rows come from one jv/yv row. Y_m(x) overflows the double range once m
is a few hundred above x, and this module owns what happens past that
order: the magnitude row switches to a rescaled upward recurrence, whose
products stay representable in the log domain, and the phase row is -pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

__all__ = [
    "ZeroRecord",
    "log_hankel_abs2_row",
    "hankel_phase_row",
    "first_zero_j",
    "first_zero_y",
]

# first correction coefficients of the large-order expansions of the first
# zeros, j_{m,1} ~ m + A_MINUS m^(1/3) and y_{m,1} ~ m + A_PLUS m^(1/3)
A_MINUS = 1.855757
A_PLUS = 0.931577

# |Y_m| threshold at which the recurrence pair is renormalized
_RESCALE_AT = 1e250


def _check_order(m) -> int:
    m = int(m)
    if m < 0:
        raise ValueError("order must be a nonnegative integer; map negative "
                         "orders through J_{-m} = (-1)^m J_m at the call site")
    return m


def _check_arg(x) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"argument must be a positive finite real, got {x!r}")
    return x


def _jy_row(m_max: int, x: float):
    """J_m(x) and Y_m(x) for m = 0 .. m_max from one library call each,
    and t, the number of leading orders where Y_m is representable (Y grows
    monotonically in m, so the finite prefix is contiguous)."""
    ms = np.arange(_check_order(m_max) + 1)
    x = _check_arg(x)
    J, Y = special.jv(ms, x), special.yv(ms, x)
    finite = np.isfinite(Y)
    return J, Y, (ms.size if finite.all() else int(np.argmin(finite)))


def log_hankel_abs2_row(m_max: int, x: float) -> np.ndarray:
    """Vector of log|H_m^(1)(x)|^2 for m = 0 .. m_max in one pass,
    overflow-free for m <= 1e4, x <= 1e4.

    Direct evaluation wherever Y_m is representable. The saturated tail, if
    any, is completed by an upward recurrence on the jointly rescaled
    (J_m, Y_m) pair, seeded from the last two representable orders. The
    upward direction is stable for Y (the dominant solution), and the J
    component it drags along only matters through hypot, where it is
    negligible against Y in exactly the regime the recurrence is used.
    """
    J, Y, t = _jy_row(m_max, x)
    out = np.empty(J.size)
    out[:t] = 2.0 * np.log(np.hypot(J[:t], Y[:t]))
    if t == J.size:
        return out
    if t < 2:
        raise ArithmeticError(f"Y_m({x:g}) saturates already at m={t}")
    j0, j1 = float(J[t - 2]), float(J[t - 1])
    y0, y1 = float(Y[t - 2]), float(Y[t - 1])
    logscale = 0.0
    for mu in range(t - 1, J.size - 1):
        j0, j1 = j1, (2.0 * mu / x) * j1 - j0
        y0, y1 = y1, (2.0 * mu / x) * y1 - y0
        a = abs(y1)
        if a > _RESCALE_AT:
            j0, j1, y0, y1 = j0 / a, j1 / a, y0 / a, y1 / a
            logscale += math.log(a)
        out[mu + 1] = 2.0 * (math.log(math.hypot(j1, y1)) + logscale)
    return out


def hankel_phase_row(m_max: int, x: float) -> np.ndarray:
    """Vector of arg H_m^(1)(x) in (-pi, pi] for m = 0 .. m_max.

    atan2(Y_m, J_m) wherever Y_m is representable (math.atan2, which is not
    bitwise the same as np.arctan2). Past that, |Y_m| > 1.8e308 while
    J_m |Y_m| = O(1/m) (DLMF 10.19.1), so J_m / |Y_m| < 1e-600 and
    the phase is atan2(-1, 0) = -pi/2 to every digit.
    """
    J, Y, t = _jy_row(m_max, x)
    out = np.full(J.size, math.atan2(-1.0, 0.0))
    out[:t] = [math.atan2(y, j) for j, y in zip(J[:t].tolist(), Y[:t].tolist())]
    return out


@dataclass(frozen=True)
class ZeroRecord:
    """First positive zero of J_m or Y_m."""
    m: int
    kind: str        # "J" or "Y"
    value: float


def _first_root(f, lo: float, hi: float, label: str) -> float:
    """The zero of f in [lo, hi], bisected until lo and hi are adjacent
    doubles; the caller's bracket must hold exactly one zero."""
    flo, fhi = f(lo), f(hi)
    if not flo * fhi <= 0.0:
        raise ArithmeticError(f"no sign change of {label} on [{lo}, {hi}]")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        fmid = f(mid)
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return lo if abs(flo) <= abs(fhi) else hi


@lru_cache(maxsize=None)
def first_zero_j(m) -> ZeroRecord:
    """First positive zero j_{m,1} of J_m, to 1e-11 absolute or better.

    For m >= 1 the bracket is [m, guess + 1.5]. J_m > 0 on (0, m] since
    m < j_{m,1}, and for m <= 1e4 the top end lies 1.50 to 1.56 above
    j_{m,1}, short of j_{m,2} > j_{m,1} + pi: one zero in the bracket.
    """
    m = _check_order(m)
    lo, hi = (2.0, 3.0) if m == 0 else (
        float(m), m + A_MINUS * m**(1.0 / 3.0) + 1.0331 * m**(-1.0 / 3.0) + 1.5)
    return ZeroRecord(m, "J", _first_root(lambda t: special.jv(m, t),
                                          lo, hi, f"J_{m}"))


@lru_cache(maxsize=None)
def first_zero_y(m) -> ZeroRecord:
    """First positive zero y_{m,1} of Y_m, to 1e-11 absolute or better.

    For m >= 1 the bracket is [m, guess + 1.2]. Y_m < 0 on (0, m] since
    m < y_{m,1}, and for m <= 1e4 the top end lies 0.93 to 1.19 above
    y_{m,1}, short of y_{m,2} > y_{m,1} + pi: one zero in the bracket.
    """
    m = _check_order(m)
    lo, hi = (0.5, 1.5) if m == 0 else (
        float(m), m + A_PLUS * m**(1.0 / 3.0) + 1.2)
    return ZeroRecord(m, "Y", _first_root(lambda t: special.yv(m, t),
                                          lo, hi, f"Y_{m}"))
