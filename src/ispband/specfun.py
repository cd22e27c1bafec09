"""Stable evaluation of integer-order Bessel quantities.

Everything the rest of the package needs from special-function land lives
here: tables of J_m and Y_m over many arguments, the rows of
log|H_m^(1)|^2 and arg H_m^(1) read from them, and the first positive
zeros j_{m,1} and y_{m,1}.

The two tables come from the recurrences Gautschi prescribes for the
minimal and the dominant solution (SIAM Rev. 9, 1967; DLMF 10.74(iv)):
J_m by Miller's downward recurrence and Y_m upward from Y_0 and Y_1. Each
is one vector step per order across all arguments, so the rows of a whole
batch of geometries cost about what the rows of one do, and each step
writes its order in place into the row that keeps it, with no temporary.
Y_m overflows the double range once m is a few hundred above x; its table
carries a power-of-two exponent per entry instead, so the Hankel rows stay
finite there and the phase is -pi/2 to every digit.

The Y table needs Y_0 and Y_1 to start from. Below x = 25 they come from
Neumann's series (DLMF 10.8.2, and its derivative for Y_1) over one J
table; from 25 on, from Hankel's expansion (DLMF 10.17.3-4). Nothing on
these paths calls scipy: only the zero search (jv, yv) and the dense
kernel of forward.assemble_forward (j0, hankel1) import it, when they run.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
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

# bytes of the 2m/x rows made at a time (_ratios) and of Y's ring of rows,
# and entries of each block bessel_j_table floors
_STEP_BLOCK = 1 << 14

# below this argument J_m(x) = (x/2)^m / m! to double precision
_SERIES_BELOW = 1e-20

# J_m table entries below this are flushed to 0. scipy's jv returns 0 for
# entries up to about 5e-290 (4000 random x in [1e-4, 1e3], m <= 1400), so
# the floor puts a 0 wherever jv has one and moves nothing above 1e-285.
_J_FLOOR = 1e-285

_LN2 = math.log(2.0)

_TWO_OVER_PI = 2.0 / math.pi

# Euler's constant
_EULER_GAMMA = 0.5772156649015329

# Y_0 and Y_1 come from Neumann's series below this argument and from
# Hankel's expansion from it on
_HANKEL_FROM = 25.0

# top order of the J table behind Neumann's series: past it J_m(x) < 1e-19
# for every x < _HANKEL_FROM
_NEUMANN_TOP = 64


def _hankel_coefficients(nu: int, n: int) -> list[float]:
    """a_k(nu) of Hankel's expansion for k = 0 .. n - 1 (DLMF 10.17.1)."""
    a = [1.0]
    for k in range(1, n):
        a.append(a[-1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
    return a


# Hankel's P_0, Q_0 / t, P_1, Q_1 / t as polynomials in t^2, t = 1/x: row k
# holds the coefficients (-1)^k a_2k(nu), (-1)^k a_2k+1(nu) of t^2k for
# k < 11. The last term, a_21 / x^21, is below 2e-18 at x = _HANKEL_FROM
# and falls with x.
_HANKEL_PQ = np.array([[(-1) ** k * a[2 * k + i] for a in
                        (_hankel_coefficients(0, 22),
                         _hankel_coefficients(1, 22)) for i in (0, 1)]
                       for k in range(11)])

_ORDER_MESSAGE = ("order must be a nonnegative integer; map negative "
                  "orders through J_{-m} = (-1)^m J_m at the call site")


def _check_count(n, message: str, low: float = 0) -> int:
    """n as an int of at least low, for every order and count the package
    takes: 3, np.int64(3) and 3.0 pass; 2.5, nan, None and counts below
    low raise ValueError. Signed orders take low = -inf."""
    try:
        k = int(n)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(message) from None
    if k != n or k < low:
        raise ValueError(message)
    return k


def _check_order(m) -> int:
    return _check_count(m, _ORDER_MESSAGE)


def _lanes(m_max, x) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """x as floats, flat x, the order of each flat argument and the
    largest order, from m_max as both tables take it."""
    orders = np.asarray(m_max)
    if orders.ndim == 0:
        orders = np.asarray(_check_order(m_max))
    elif not np.issubdtype(orders.dtype, np.integer) or np.any(orders < 0):
        raise ValueError(_ORDER_MESSAGE)
    x = np.asarray(x, dtype=float)
    return (x, x.reshape(-1), np.broadcast_to(orders, x.shape).reshape(-1),
            int(orders.max(initial=0)))


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

    The table is a transposed view of the (orders, arguments) pass, whose
    steps write each order in place into its row (_miller_rows), so it is
    F-ordered: the entries of one order lie contiguous across the
    arguments. The radial tables cut from it are column-major, and sums
    over the rings (_psi_project) run along that axis.
    """
    x, flat, orders, top = _lanes(m_max, x)
    if not np.all(np.isfinite(flat) & (flat >= 0.0)):
        raise ValueError("arguments must be nonnegative finite reals")
    rows = _miller_rows(orders, flat, top)
    # the floor goes a block of _STEP_BLOCK entries at a time, so its mask
    # is that small, and each argument's orders past its own by a slice
    step = max(1, _STEP_BLOCK // max(flat.size, 1))
    for first in range(0, top + 1, step):
        block = rows[first:first + step]
        floor = block < _J_FLOOR
        floor &= block > -_J_FLOOR
        block[floor] = 0.0
    for i, order in enumerate(orders.tolist()):
        if order < top:
            rows[order + 1:, i] = 0.0
    return rows.T.reshape(x.shape + (top + 1,))


def _miller_start(top) -> int:
    return 2 * math.ceil(
        0.5 * (top + 10.0 + 6.0 * top ** (1.0 / 3.0) + math.sqrt(40.0 * top)))


def _ratios(orders: range, x: np.ndarray):
    """(m, 2m/x) for each m of orders in turn, the orders and their rows
    made a block of _STEP_BLOCK row bytes at a time; 2.0 m is exact, so a
    row has the bits of 2.0 * m / x."""
    step = max(1, _STEP_BLOCK // (8 * max(x.size, 1)))
    for k in range(0, len(orders), step):
        block = orders[k:k + step]
        ms = np.arange(block.start, block.stop, block.step)
        yield from zip(block, 2.0 * ms[:, None] / x)


def _miller_rows(orders: np.ndarray, x: np.ndarray, top: int) -> np.ndarray:
    """J_m(x_i) as rows m = 0 .. top, columns i, before the floor.

    Arguments below _SERIES_BELOW take the series term. Every other one
    stays 0 until the downward pass reaches its own start order, where it
    joins with f = 1; from there on its arithmetic is that of a pass run
    for x_i alone. A step writes f_{m-1} in place into its table row, or
    above top into spill row (m - 1) % 3, so no taller table is made. It
    multiplies |f| by at most 2m/min(x) + 1, so a scalar bound on all |f|
    and |f_up| tells when a step may have passed _RESCALE_AT; only then
    are the columns looked at, which rescales the same columns at the same
    orders as looking at every step would. A rescale divides the running
    sum's columns, their rows from f up and, above top, the spill rows.
    """
    tiny = x < _SERIES_BELOW
    step_x = np.where(tiny, 1.0, x)
    joins: dict[int, list[int]] = {}
    for i, (order, xi, t) in enumerate(zip(orders.tolist(), x.tolist(),
                                           tiny.tolist())):
        if not t:
            joins.setdefault(_miller_start(max(order, xi)), []).append(i)
    start = max(joins, default=0)
    rows = np.zeros((top + 1, x.size))    # orders above every start stay 0
    spill = np.zeros((3, x.size))         # f_m above top, in row m % 3
    f_up, f = (np.zeros(x.size),                       # f_{m+1}, f_m
               rows[start] if start <= top else spill[start % 3])
    even_sum = np.zeros(x.size)                     # sum of f_2k, k >= 1
    growth = 2.0 / float(step_x.min(initial=1.0))
    bound = 0.0                                     # >= every |f|, |f_up|
    multiply, subtract = np.multiply, np.subtract   # looked up once
    for m, coef in _ratios(range(start, 0, -1), step_x):
        if m in joins:
            f[joins[m]] = 1.0
            bound = max(bound, 1.0)
        if m % 2 == 0:
            even_sum += f
        out = rows[m - 1] if m <= top + 1 else spill[(m - 1) % 3]
        multiply(coef, f, out=out)
        f_up, f = f, subtract(out, f_up, out=out)
        bound *= growth * m + 1.0
        if bound > _RESCALE_AT:
            af = np.abs(f)
            big = af > _RESCALE_AT
            if big.any():
                i = np.flatnonzero(big)
                a = af[i]
                even_sum[i] /= a
                rows[m - 1:, i] /= a        # f, and f_up up to top
                if m > top:                 # f_up, and f above top
                    spill[:, i] /= a
                # every |f| and |f_up| is now <= _RESCALE_AT; where some
                # column rescales, others tend to be close, so look again
                # at the next step rather than pay for the exact maximum
                bound = _RESCALE_AT
            else:
                bound = max(float(af.max()), float(np.abs(f_up).max()))
    norm = f + 2.0 * even_sum                       # f is rows[0]
    norm[tiny] = 1.0
    rows /= norm
    if tiny.any():
        terms = np.empty((top + 1, int(tiny.sum())))
        terms[0] = 1.0
        terms[1:] = 0.5 * x[tiny] / np.arange(1, top + 1)[:, None]
        rows[:, tiny] = np.cumprod(terms, axis=0)
    return rows


def bessel_y_table(m_max, x) -> tuple[np.ndarray, np.ndarray]:
    """Y_m(x_i) = y 2^e for m = 0 .. m_max at every x_i > 0: the mantissa
    table y and the integer exponent table e, both of shape
    x.shape + (m_max + 1,) and C-contiguous. m_max is one order or an
    integer array of orders, as for bessel_j_table; y of x_i is 0 past
    its own m_max_i, so a short lane takes no rescaling steps.

    One upward pass Y_{m+1} = (2m/x) Y_m - Y_{m-1}, a vector step across
    all x, seeded by _y_seeds; upward is the stable direction for Y, the
    dominant solution (Gautschi, SIAM Rev. 9, 1967; DLMF 10.74(iv)). A
    step writes Y_{m+1} in place into a ring of (orders, arguments) work
    rows, which go into y's columns a block at a time. Where an argument's
    |Y_m| passes _RESCALE_AT min(1, x), its working pair is divided by the
    power of two that brings |Y_m| into [0.5, 1), which is exact, and the
    power moves into e. That and a lane's end change Y_m in its row and
    Y_{m-1} on a copy, so Y_{m-1}'s row keeps its stored value. A step
    multiplies |Y| by at most 2m/x + 1, so no entry overflows for m <= 1e4
    and x >= 1.2e-304. An entry up to m_max_i depends on x_i and m alone,
    never on the orders or the other arguments, so a longer table extends
    a shorter one bit for bit. Below x = 3.6e-309, where Y_1(x) ~
    -2 / (pi x) overflows, and wherever a step overflows all the same, the
    entries are not finite; hankel_log_abs2 and hankel_arg refuse them.
    """
    return _y_table(m_max, x, None)


def _y_table(m_max, x, neumann_j) -> tuple[np.ndarray, np.ndarray]:
    """bessel_y_table, with neumann_j as in _y_seeds."""
    x, flat, orders, top = _lanes(m_max, x)
    if not np.all(np.isfinite(flat) & (flat > 0.0)):
        raise ValueError("arguments must be positive finite reals")
    y = np.empty((flat.size, top + 1))
    ring = min(max(3, _STEP_BLOCK // (8 * max(flat.size, 1))), max(top, 1) + 1)
    w = np.empty((ring, flat.size))     # row m % ring: Y_m as stored
    w[:2] = _y_seeds(flat, neumann_j)
    e = np.zeros((flat.size, top + 1), dtype=np.int64)     # steps, then sums
    limit = _RESCALE_AT * np.minimum(1.0, flat)
    growth = 2.0 / float(flat.min()) if flat.size else 0.0
    bound = math.inf                    # >= every |Y_m| / limit, as the
    lo, hi = w[0], w[1]                 # bound in _miller_rows; Y_{m-1}, Y_m
    ends: dict[int, list[int]] = {}     # order -> lanes that end before it
    for i, order in enumerate(orders.tolist()):
        ends.setdefault(order + 1, []).append(i)
    rescaled = False
    multiply, subtract = np.multiply, np.subtract
    with np.errstate(over="ignore", invalid="ignore"):
        for m, coef in _ratios(range(1, top + 1), flat):
            if m in ends:               # a zero pair stays zero
                lo = lo.copy()
                hi[ends[m]] = 0.0
                lo[ends[m]] = 0.0
            if bound > 1.0:
                big = np.abs(hi) > limit
                if big.any():
                    i = np.flatnonzero(big)
                    k = np.frexp(hi[i])[1]
                    lo = lo if m in ends else lo.copy()
                    hi[i] = np.ldexp(hi[i], -k)
                    lo[i] = np.ldexp(lo[i], -k)
                    e[i, m] = k
                    rescaled = True
                # a column that has overflowed is lost anyway and must
                # not hold up the others
                r = np.maximum(np.abs(hi), np.abs(lo)) / limit
                bound = float(r.max(initial=0.0, where=np.isfinite(r)))
            if m % ring == ring - 1:    # a full ring: into y's columns
                y[:, m + 1 - ring:m + 1] = w.T
            if m < top:
                out = w[(m + 1) % ring]
                multiply(coef, hi, out=out)
                lo, hi = hi, subtract(out, lo, out=out)
                bound *= growth * m + 1.0
    y[:, top - top % ring:] = w[:top % ring + 1].T
    if rescaled:                        # else e stays untouched zeros
        np.cumsum(e, axis=1, out=e)
    shape = x.shape + (top + 1,)
    return y.reshape(shape), e.reshape(shape)


def _y_seeds(x: np.ndarray,
             neumann_j=None) -> tuple[np.ndarray, np.ndarray]:
    """Y_0(x_i) and Y_1(x_i) at every x_i > 0 of a flat array, each from
    x_i alone. For 1e-300 <= x <= 1e4 the error is at most 1.6e-15 of
    max(|Y|, sqrt(2 / (pi x))) on the tests' sample against 40-digit
    mpmath, which they bound by 4e-15.

    neumann_j, if not None, holds the rows bessel_j_table(_NEUMANN_TOP,
    x_i) (zeros past that order allowed) of the x_i < _HANKEL_FROM in
    order: a caller that runs a J pass over these arguments anyway adds
    them to it, so that the seeds take no pass of their own.
    """
    y0, y1 = np.empty_like(x), np.empty_like(x)
    near = x < _HANKEL_FROM
    if near.any():
        y0[near], y1[near] = _neumann_seeds(
            x[near], bessel_j_table(_NEUMANN_TOP, x[near])
            if neumann_j is None else neumann_j)
    if not near.all():
        y0[~near], y1[~near] = _hankel_seeds(x[~near])
    return y0, y1


def _neumann_seeds(x: np.ndarray,
                   j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Y_0 and Y_1 at 0 < x < _HANKEL_FROM from Neumann's series

        Y_0 = (2/pi) [(ln(x/2) + gamma) J_0 - 2 sum_k (-1)^k J_2k / k]

    (DLMF 10.8.2) and Y_1 = -Y_0', which with J_0' = -J_1 and
    2 J_n' = J_{n-1} - J_{n+1} reads

        Y_1 = (2/pi) [(ln(x/2) + gamma - 1) J_1 - J_0 / x
                      + sum_k (-1)^(k+1) (1/k + 1/(k+1)) J_2k+1],

    over the rows j = bessel_j_table(_NEUMANN_TOP, x). Each sum runs
    along its own row, so each entry depends on its x alone.
    """
    # cumsum adds along each row in order: the sums run from the top
    # order down, the smallest terms first
    k = np.arange(_NEUMANN_TOP // 2, 0, -1)
    even = np.cumsum(j[:, _NEUMANN_TOP:1:-2] * ((-1.0) ** k / k),
                     axis=1)[:, -1]
    k = k[1:]
    odd = np.cumsum(j[:, _NEUMANN_TOP - 1:2:-2]
                    * ((-1.0) ** (k + 1) * (1.0 / k + 1.0 / (k + 1))),
                    axis=1)[:, -1]
    log_term = np.log(x) - _LN2 + _EULER_GAMMA
    y0 = _TWO_OVER_PI * (log_term * j[:, 0] - 2.0 * even)
    # (2/pi) / x rather than 2/pi times 1/x, which would overflow from
    # x = 5.6e-309 on instead of where Y_1 itself does, at 3.6e-309
    with np.errstate(over="ignore"):
        y1 = (_TWO_OVER_PI * ((log_term - 1.0) * j[:, 1] + odd)
              - j[:, 0] * (_TWO_OVER_PI / x))
    return y0, y1


def _hankel_seeds(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Y_0 and Y_1 at x >= _HANKEL_FROM from Hankel's expansion

        Y_nu = sqrt(2 / (pi x)) (P_nu sin w + Q_nu cos w),
        w = x - nu pi/2 - pi/4,

    P_nu = sum_k (-1)^k a_2k(nu) / x^2k and
    Q_nu = sum_k (-1)^k a_2k+1(nu) / x^(2k+1) (DLMF 10.17.3-4), with
    cos(x - pi/4) and sin(x - pi/4) formed from math.cos(x) and
    math.sin(x), whose argument reduction is exact.
    """
    t = 1.0 / x
    t2 = t * t
    pq = np.zeros((4, x.size))
    for c in _HANKEL_PQ[::-1]:                      # Horner in t^2
        pq = pq * t2 + c[:, None]
    p0, q0, p1, q1 = pq[0], pq[1] * t, pq[2], pq[3] * t
    xs = x.tolist()
    cos = np.array([math.cos(v) for v in xs])
    sin = np.array([math.sin(v) for v in xs])
    # sqrt(2) cos(x - pi/4) = cos + sin, sqrt(2) sin(x - pi/4) = sin - cos,
    # and w = x - 3 pi/4 for nu = 1 turns sin w, cos w into -cos, sin of
    # x - pi/4
    scale = 1.0 / np.sqrt(math.pi * x)
    return (scale * (p0 * (sin - cos) + q0 * (cos + sin)),
            scale * (q1 * (sin - cos) - p1 * (cos + sin)))


def _first_zero(kind: str, m, m0_bracket: tuple, top) -> float:
    """First positive zero of J_m (kind "J") or Y_m ("Y"), bisected on
    m0_bracket for m = 0 and on [m, top(m)] above until the ends are
    adjacent doubles; the bracket must hold exactly one zero."""
    from scipy import special   # only the zero search needs scipy

    m = _check_order(m)
    f = special.jv if kind == "J" else special.yv
    lo, hi = m0_bracket if m == 0 else (float(m), top(m))
    flo, fhi = f(m, lo), f(m, hi)
    if not flo * fhi <= 0.0:
        raise ArithmeticError(f"no sign change of {kind}_{m} on [{lo}, {hi}]")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        fmid = f(m, mid)
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return lo if abs(flo) <= abs(fhi) else hi


@lru_cache(maxsize=None)
def first_zero_j(m) -> float:
    """First positive zero j_{m,1} of J_m, to 1e-11 absolute or better.

    For m >= 1 the bracket is [m, guess + 1.5]. J_m > 0 on (0, m] since
    m < j_{m,1}, and for m <= 1e4 the top end lies 1.50 to 1.56 above
    j_{m,1}, short of j_{m,2} > j_{m,1} + pi: one zero in the bracket.
    """
    return _first_zero("J", m, (2.0, 3.0), lambda m: (
        m + A_MINUS * m**(1.0 / 3.0) + 1.0331 * m**(-1.0 / 3.0) + 1.5))


@lru_cache(maxsize=None)
def first_zero_y(m) -> float:
    """First positive zero y_{m,1} of Y_m, to 1e-11 absolute or better.

    For m >= 1 the bracket is [m, guess + 1.2]. Y_m < 0 on (0, m] since
    m < y_{m,1}, and for m <= 1e4 the top end lies 0.93 to 1.19 above
    y_{m,1}, short of y_{m,2} > y_{m,1} + pi: one zero in the bracket.
    """
    return _first_zero("Y", m, (0.5, 1.5),
                       lambda m: m + A_PLUS * m**(1.0 / 3.0) + 1.2)
