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
from scipy import optimize, special

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
    x = _check_arg(x)
    ms = np.arange(m_max + 1)
    J, Y = special.jv(ms, x), special.yv(ms, x)
    finite = np.isfinite(Y)
    return J, Y, (m_max + 1 if finite.all() else int(np.argmin(finite)))


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
    m_max = max(int(m_max), 1)
    J, Y, t = _jy_row(m_max, x)
    out = np.empty(m_max + 1)
    out[:t] = 2.0 * np.log(np.hypot(J[:t], Y[:t]))
    if t > m_max:
        return out
    if t < 2:
        raise ArithmeticError(f"Y_m({x:g}) saturates already at m={t}")
    j0, j1 = float(J[t - 2]), float(J[t - 1])
    y0, y1 = float(Y[t - 2]), float(Y[t - 1])
    logscale = 0.0
    for mu in range(t - 1, m_max):
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
    m_max = int(m_max)
    J, Y, t = _jy_row(m_max, x)
    out = np.full(m_max + 1, math.atan2(-1.0, 0.0))
    out[:t] = [math.atan2(y, j) for j, y in zip(J[:t].tolist(), Y[:t].tolist())]
    return out


@dataclass(frozen=True)
class ZeroRecord:
    """First positive zero of J_m or Y_m."""
    m: int
    kind: str        # "J" or "Y"
    value: float


def _guarded_first_root(f, lo: float, hi: float, guard_lo: float,
                        label: str) -> float:
    """Bracketed root of f in [lo, hi], verified to be the first one.

    The guard samples (guard_lo, lo) and insists f keeps one sign there,
    which rules out silently landing on a later zero.
    """
    flo, fhi = f(lo), f(hi)
    # widen the bracket a little if the initial guess was off
    grow = 0
    while flo * fhi > 0.0 and grow < 60:
        lo = max(guard_lo + 1e-12, lo - 0.25)
        hi += 0.25
        flo, fhi = f(lo), f(hi)
        grow += 1
    if flo * fhi > 0.0:
        raise ArithmeticError(f"could not bracket the first zero of {label}")
    root = optimize.brentq(f, lo, hi, xtol=1e-12, rtol=8.9e-16, maxiter=200)
    if lo - guard_lo > 1e-9:
        probes = np.linspace(guard_lo + 1e-9, lo, 24)
        signs = np.sign([f(p) for p in probes])
        signs = signs[signs != 0]
        if signs.size and not np.all(signs == signs[0]):
            raise ArithmeticError(
                f"sign change below the bracket while locating {label}; "
                "a later zero would have been returned")
    return float(root)


@lru_cache(maxsize=None)
def first_zero_j(m) -> ZeroRecord:
    """First positive zero j_{m,1} of J_m, to 1e-10 absolute or better."""
    m = _check_order(m)
    if m == 0:
        root = _guarded_first_root(lambda t: special.jv(0, t),
                                   2.0, 3.0, 0.05, "J_0")
    else:
        guess = m + A_MINUS * m**(1.0 / 3.0) + 1.0331 * m**(-1.0 / 3.0)
        root = _guarded_first_root(lambda t: special.jv(m, t),
                                   max(float(m), guess - 1.5), guess + 1.5,
                                   float(m) * 0.5, f"J_{m}")
    return ZeroRecord(m, "J", root)


@lru_cache(maxsize=None)
def first_zero_y(m) -> ZeroRecord:
    """First positive zero y_{m,1} of Y_m, to 1e-10 absolute or better.

    Bracketed inside (m, j_{m,1}) via the classical interlacing
    y_{m,1} < j_{m,1}.
    """
    m = _check_order(m)
    if m == 0:
        root = _guarded_first_root(lambda t: special.yv(0, t),
                                   0.5, 1.5, 0.02, "Y_0")
    else:
        guess = m + A_PLUS * m**(1.0 / 3.0)
        root = _guarded_first_root(lambda t: special.yv(m, t),
                                   max(float(m), guess - 1.2), guess + 1.2,
                                   float(m) * 0.5, f"Y_{m}")
    return ZeroRecord(m, "Y", root)
