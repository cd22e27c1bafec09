"""Stable evaluation of integer-order Bessel quantities.

Everything the rest of the package needs from special-function land lives
here: a row of log|H_m^(1)|^2, a row of arg H_m^(1), a table of J_m over
many arguments, and the first positive zeros j_{m,1} and y_{m,1}.

Both Hankel rows come from one jv/yv row. Y_m(x) overflows the double range
once m is a few hundred above x, and this module owns what happens past
that order: the magnitude row switches to a rescaled upward recurrence,
whose products stay representable in the log domain, and the phase row is
-pi/2. The J_m table comes from Miller's downward recurrence, rescaled the
same way, at a small fraction of jv's cost per entry. scipy.special.jv and
yv remain the source of the rows and of the zeros.
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
    "bessel_j_table",
    "first_zero_j",
    "first_zero_y",
]

# first correction coefficients of the large-order expansions of the first
# zeros, j_{m,1} ~ m + A_MINUS m^(1/3) and y_{m,1} ~ m + A_PLUS m^(1/3)
A_MINUS = 1.855757
A_PLUS = 0.931577

# |Y_m| (or |J_m|) threshold at which a recurrence pair is renormalized
_RESCALE_AT = 1e250

# below this argument J_m(x) = (x/2)^m / m! to double precision
_SERIES_BELOW = 1e-20

# J_m table entries below this are flushed to 0. scipy's jv returns 0 for
# entries up to about 5e-290 (4000 random x in [1e-4, 1e3], m <= 1400), so
# the floor puts a 0 wherever jv has one and moves nothing above 1e-285.
_J_FLOOR = 1e-285


def _check_order(m) -> int:
    try:
        k = int(m)
    except (TypeError, ValueError, OverflowError):
        k = -1
    if k < 0 or k != m:
        raise ValueError("order must be a nonnegative integer; map negative "
                         "orders through J_{-m} = (-1)^m J_m at the call site")
    return k


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


def bessel_j_table(m_max: int, x) -> np.ndarray:
    """J_m(x_i) for m = 0 .. m_max at every x_i >= 0, shape
    x.shape + (m_max + 1,), by Miller's algorithm (Gautschi, SIAM Rev. 9,
    1967; DLMF 10.74(iv)).

    One downward pass f_{m-1} = (2m/x) f_m - f_{m+1}, a vector step across
    all x, starts from f_{S+1} = 0, f_S = 1 at the even order
    S >= top + 10 + 6 top^(1/3) + sqrt(40 top), top = max(m_max, max x);
    J is the minimal solution for m > x, so the start error dies out long
    before m_max. Each argument is normalised by J_0 + 2 sum_k J_2k = 1.
    Where an argument's pair passes _RESCALE_AT, the pair, its running sum
    and the orders already stored for it are divided by |f|, so small
    arguments, whose f grows by about 2m/x a step, stay finite; entries
    below _J_FLOOR come out 0, as jv's do there. Against jv the error is
    below 1e-12 of each order's largest |J_m| over the x_i, and below
    1e-11 relative wherever m > x + 5 and |J_m| > 1e-280 (checked for
    kappa0 up to 1000 on Gauss-Legendre rings). Arguments below
    _SERIES_BELOW take the leading series term, which gives the exact row
    (1, 0, 0, ...) at 0.
    """
    m_max = _check_order(m_max)
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    if not np.all(np.isfinite(flat) & (flat >= 0.0)):
        raise ValueError("arguments must be nonnegative finite reals")
    rows = np.empty((m_max + 1, flat.size))
    tiny = flat < _SERIES_BELOW
    if tiny.any():
        terms = np.empty((m_max + 1, int(tiny.sum())))
        terms[0] = 1.0
        terms[1:] = 0.5 * flat[tiny] / np.arange(1, m_max + 1)[:, None]
        rows[:, tiny] = np.cumprod(terms, axis=0)
    if not tiny.all():
        rows[:, ~tiny] = _miller_rows(m_max, flat[~tiny])
    rows[np.abs(rows) < _J_FLOOR] = 0.0
    return rows.T.reshape(x.shape + (m_max + 1,))


def _miller_rows(m_max: int, x: np.ndarray) -> np.ndarray:
    """J_m(x_i) as rows m = 0 .. m_max for x_i >= _SERIES_BELOW."""
    top = max(m_max, float(x.max()))
    start = 2 * math.ceil(
        0.5 * (top + 10.0 + 6.0 * top ** (1.0 / 3.0) + math.sqrt(40.0 * top)))
    rows = np.empty((m_max + 1, x.size))
    f_up, f = np.zeros(x.size), np.ones(x.size)     # f_{m+1}, f_m
    even_sum = np.zeros(x.size)                     # sum of f_2k, k >= 1
    for m in range(start, 0, -1):
        if m <= m_max:
            rows[m] = f
        if m % 2 == 0:
            even_sum += f
        f_up, f = f, (2.0 * m / x) * f - f_up
        big = np.abs(f) > _RESCALE_AT
        if big.any():
            i = np.flatnonzero(big)
            a = np.abs(f[i])
            f[i] /= a
            f_up[i] /= a
            even_sum[i] /= a
            rows[m:, i] /= a
    rows[0] = f
    rows /= f + 2.0 * even_sum
    return rows


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
