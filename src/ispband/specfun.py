"""Stable evaluation of integer-order Bessel quantities.

Everything the rest of the package needs from special-function land lives
here: tables of J_m and Y_m over many arguments, the rows of
log|H_m^(1)|^2 and arg H_m^(1) read from them, and the first positive
zeros j_{m,1} and y_{m,1}.

The two tables come from the recurrences Gautschi prescribes for the
minimal and the dominant solution (SIAM Rev. 9, 1967; DLMF 10.74(iv)):
J_m by Miller's downward recurrence and Y_m upward from Y_0 and Y_1. Each
is one vector step per order across all arguments, so the rows of a whole
batch of geometries cost about what the rows of one do. Y_m overflows the
double range once m is a few hundred above x; its table carries a
power-of-two exponent per entry instead, so the Hankel rows stay finite
there and the phase is -pi/2 to every digit. scipy.special.yv gives the
two seeds of the Y table, and jv and yv the values the zero search
bisects; nothing else here calls scipy.
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
    "hankel_log_abs2",
    "hankel_arg",
    "bessel_j_table",
    "bessel_y_table",
    "first_zero_j",
    "first_zero_y",
]

# first correction coefficients of the large-order expansions of the first
# zeros, j_{m,1} ~ m + A_MINUS m^(1/3) and y_{m,1} ~ m + A_PLUS m^(1/3)
A_MINUS = 1.855757
A_PLUS = 0.931577

# |f| threshold at which a recurrence pair is renormalized (for Y, at
# arguments x < 1, the threshold is this times x)
_RESCALE_AT = 1e250

# below this argument J_m(x) = (x/2)^m / m! to double precision
_SERIES_BELOW = 1e-20

# J_m table entries below this are flushed to 0. scipy's jv returns 0 for
# entries up to about 5e-290 (4000 random x in [1e-4, 1e3], m <= 1400), so
# the floor puts a 0 wherever jv has one and moves nothing above 1e-285.
_J_FLOOR = 1e-285

_LN2 = math.log(2.0)

_ORDER_MESSAGE = ("order must be a nonnegative integer; map negative "
                  "orders through J_{-m} = (-1)^m J_m at the call site")


def _check_order(m) -> int:
    try:
        k = int(m)
    except (TypeError, ValueError, OverflowError):
        k = -1
    if k < 0 or k != m:
        raise ValueError(_ORDER_MESSAGE)
    return k


def _check_arg(x) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"argument must be a positive finite real, got {x!r}")
    return x


def _hankel_tables(m_max, x):
    """The J row and the Y row (mantissa and exponent) of one argument."""
    m_max, x = _check_order(m_max), _check_arg(x)
    return (bessel_j_table(m_max, x), *bessel_y_table(m_max, x))


def log_hankel_abs2_row(m_max: int, x: float) -> np.ndarray:
    """Vector of log|H_m^(1)(x)|^2 for m = 0 .. m_max, from one J row and
    one Y row (bessel_j_table, bessel_y_table), finite for m <= 1e4 and
    1.2e-304 <= x <= 1e4. ArithmeticError where Y_m overflows anyway."""
    return hankel_log_abs2(*_hankel_tables(m_max, x))


def hankel_phase_row(m_max: int, x: float) -> np.ndarray:
    """Vector of arg H_m^(1)(x) in (-pi, pi] for m = 0 .. m_max, from the
    same two rows as log_hankel_abs2_row."""
    return hankel_arg(*_hankel_tables(m_max, x))


def _check_y(y) -> None:
    bad = ~np.isfinite(y)
    if bad.any():
        raise ArithmeticError(
            f"Y_m overflows the rescaled range at m={int(np.argmax(bad))}")


def hankel_log_abs2(j, y, e) -> np.ndarray:
    """log|H_m^(1)|^2 = log(J_m^2 + Y_m^2) entrywise from J_m = j and
    Y_m = y 2^e, as bessel_j_table and bessel_y_table give them.

    The sum is taken at the scale of y, where J_m 2^-e underflows
    harmlessly once Y_m dominates, and the exponent comes back as e log 2.
    ArithmeticError if a Y entry is not finite.
    """
    _check_y(y)
    return 2.0 * (np.log(np.hypot(np.ldexp(j, -e), y)) + _LN2 * e)


def hankel_arg(j, y, e) -> np.ndarray:
    """arg H_m^(1) = atan2(Y_m, J_m) entrywise in (-pi, pi], from the same
    inputs as hankel_log_abs2. Where |Y_m| > 1.8e308, J_m |Y_m| = O(1/m)
    (DLMF 10.19.1) makes J_m / |Y_m| < 1e-600, and the phase is -pi/2 to
    every digit.
    """
    _check_y(y)
    return np.arctan2(y, np.ldexp(j, -e))


def bessel_j_table(m_max, x) -> np.ndarray:
    """J_m(x_i) for m = 0 .. m_max at every x_i >= 0, shape
    x.shape + (m_max + 1,), by Miller's algorithm (Gautschi,
    SIAM Rev. 9, 1967; DLMF 10.74(iv)).

    m_max is one order, or an integer array of orders m_max_i that
    broadcasts against x; the table then runs to the largest, and the
    entries of x_i past its own m_max_i are 0. Each argument runs a
    downward pass f_{m-1} = (2m/x_i) f_m - f_{m+1} from f_{S+1} = 0,
    f_S = 1 at its own even start order S >= top + 10 + 6 top^(1/3) +
    sqrt(40 top), top = max(m_max_i, x_i), and the passes of all arguments
    share one vector step per order. A row therefore depends on x_i and
    m_max_i alone, never on the other arguments of the call. J is the
    minimal solution for m > x, so the start error dies out long before
    m_max_i. Each argument is normalised by J_0 + 2 sum_k J_2k = 1. Where
    an argument's pair passes _RESCALE_AT, the pair, its running sum and
    the orders already stored for it are divided by |f|, so small
    arguments, whose f grows by about 2m/x a step, stay finite; entries
    below _J_FLOOR come out 0, as jv's do there. Against jv the error is
    below 1e-12 of each order's largest |J_m| over the x_i, and below
    1e-11 relative wherever m > x + 5 and |J_m| > 1e-280 (checked for
    kappa0 up to 1000 on Gauss-Legendre rings). Arguments below
    _SERIES_BELOW take the leading series term, which gives the exact row
    (1, 0, 0, ...) at 0.
    """
    orders = np.asarray(m_max)
    if orders.ndim == 0:
        orders = np.asarray(_check_order(m_max))
    elif not np.issubdtype(orders.dtype, np.integer) or np.any(orders < 0):
        raise ValueError(_ORDER_MESSAGE)
    top = int(orders.max(initial=0))
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    if not np.all(np.isfinite(flat) & (flat >= 0.0)):
        raise ValueError("arguments must be nonnegative finite reals")
    orders = np.broadcast_to(orders, x.shape).reshape(-1)
    rows = _miller_rows(orders, flat, top)
    rows[((rows < _J_FLOOR) & (rows > -_J_FLOOR))
         | (np.arange(top + 1)[:, None] > orders)] = 0.0
    return rows.T.reshape(x.shape + (top + 1,))


def _miller_start(top) -> int:
    return 2 * math.ceil(
        0.5 * (top + 10.0 + 6.0 * top ** (1.0 / 3.0) + math.sqrt(40.0 * top)))


def _miller_rows(orders: np.ndarray, x: np.ndarray, top: int) -> np.ndarray:
    """J_m(x_i) as rows m = 0 .. top, columns i, before the floor.

    Arguments below _SERIES_BELOW take the series term. Every other one
    stays 0 until the downward pass reaches its own start order, where it
    joins with f = 1; from there on its arithmetic is that of a pass run
    for x_i alone. A step multiplies |f| by at most 2m/min(x) + 1, so a
    scalar bound on all |f| and |f_up| tells when a step may have passed
    _RESCALE_AT; only then are the columns looked at, which rescales the
    same columns at the same orders as looking at every step would.
    """
    tiny = x < _SERIES_BELOW
    step_x = np.where(tiny, 1.0, x)
    joins: dict[int, list[int]] = {}
    for i, (order, xi, t) in enumerate(zip(orders.tolist(), x.tolist(),
                                           tiny.tolist())):
        if not t:
            joins.setdefault(_miller_start(max(order, xi)), []).append(i)
    rows = np.zeros((top + 1, x.size))    # orders above every start stay 0
    f_up, f = np.zeros(x.size), np.zeros(x.size)   # f_{m+1}, f_m
    even_sum = np.zeros(x.size)                     # sum of f_2k, k >= 1
    growth = 2.0 / float(step_x.min(initial=1.0))
    bound = 0.0                                     # >= every |f|, |f_up|
    for m in range(max(joins, default=0), 0, -1):
        if m in joins:
            f[joins[m]] = 1.0
            bound = max(bound, 1.0)
        if m <= top:
            rows[m] = f
        if m % 2 == 0:
            even_sum += f
        f_up, f = f, (2.0 * m / step_x) * f - f_up
        bound *= growth * m + 1.0
        if bound > _RESCALE_AT:
            af = np.abs(f)
            big = af > _RESCALE_AT
            if big.any():
                i = np.flatnonzero(big)
                a = af[i]
                f[i] /= a
                f_up[i] /= a
                even_sum[i] /= a
                rows[m:, i] /= a
                # every |f| and |f_up| is now <= _RESCALE_AT; where some
                # column rescales, others tend to be close, so look again
                # at the next step rather than pay for the exact maximum
                bound = _RESCALE_AT
            else:
                bound = max(float(af.max()), float(np.abs(f_up).max()))
    rows[0] = f
    norm = f + 2.0 * even_sum
    norm[tiny] = 1.0
    rows /= norm
    if tiny.any():
        terms = np.empty((top + 1, int(tiny.sum())))
        terms[0] = 1.0
        terms[1:] = 0.5 * x[tiny] / np.arange(1, top + 1)[:, None]
        rows[:, tiny] = np.cumprod(terms, axis=0)
    return rows


def bessel_y_table(m_max: int, x) -> tuple[np.ndarray, np.ndarray]:
    """Y_m(x_i) = y 2^e for m = 0 .. m_max at every x_i > 0: the mantissa
    table y and the integer exponent table e, both of shape
    x.shape + (m_max + 1,) and C-contiguous.

    One upward pass Y_{m+1} = (2m/x) Y_m - Y_{m-1}, a vector step across
    all x, seeded by yv(0, x) and yv(1, x) (one scipy call); upward is the
    stable direction for Y, the dominant solution (Gautschi, SIAM Rev. 9,
    1967; DLMF 10.74(iv)). Where an argument's |Y_m| passes
    _RESCALE_AT min(1, x), its working pair is divided by the power of two
    that brings |Y_m| into [0.5, 1), which is exact, and the power moves
    into e. One step multiplies |Y| by at most 2m/x + 1, so no entry
    overflows for m <= 1e4 and x >= 1.2e-304. An entry depends on x_i and
    m alone, never on m_max or the other arguments, so a longer table
    extends a shorter one bit for bit. Below x = 3.6e-309, where yv(1, x)
    overflows, and wherever a step overflows all the same, the entries are
    not finite; hankel_log_abs2 and hankel_arg refuse them.
    """
    m_max = _check_order(m_max)
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    if not np.all(np.isfinite(flat) & (flat > 0.0)):
        raise ValueError("arguments must be positive finite reals")
    y = np.empty((flat.size, m_max + 1))
    e = np.zeros((flat.size, m_max + 1), dtype=np.int64)   # steps, then sums
    seeds = special.yv(np.arange(2)[:, None], flat)
    y[:, 0] = seeds[0]
    limit = _RESCALE_AT * np.minimum(1.0, flat)
    growth = 2.0 / float(flat.min()) if flat.size else 0.0
    bound = math.inf                    # >= every |Y_m| / limit, as the
    y_lo, y_hi = seeds                  # bound in _miller_rows; Y_{m-1}, Y_m
    rescaled = False
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, m_max + 1):
            if m > 1:
                y_lo, y_hi = y_hi, (2.0 * (m - 1) / flat) * y_hi - y_lo
                bound *= growth * (m - 1) + 1.0
            if bound > 1.0:
                big = np.abs(y_hi) > limit
                if big.any():
                    i = np.flatnonzero(big)
                    k = np.frexp(y_hi[i])[1]
                    y_hi[i] = np.ldexp(y_hi[i], -k)
                    y_lo[i] = np.ldexp(y_lo[i], -k)
                    e[i, m] = k
                    rescaled = True
                # a column that has overflowed is lost anyway and must
                # not hold up the others
                r = np.maximum(np.abs(y_hi), np.abs(y_lo)) / limit
                bound = float(r.max(initial=0.0, where=np.isfinite(r)))
            y[:, m] = y_hi
    if rescaled:                        # else e stays untouched zeros
        np.cumsum(e, axis=1, out=e)
    shape = x.shape + (m_max + 1,)
    return y.reshape(shape), e.reshape(shape)


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
