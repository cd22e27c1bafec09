"""Stable evaluation of integer-order Bessel quantities.

Everything the rest of the package needs from special-function land lives
here: tables of J_m and Y_m over many arguments, the rows of
log|H_m^(1)|^2 and arg H_m^(1) read from them, and the first positive
zeros j_{m,1} and y_{m,1}.

The two tables come from the recurrences Gautschi prescribes for the
minimal and the dominant solution (SIAM Rev. 9, 1967; DLMF 10.74(iv)):
J_m by Miller's downward recurrence and Y_m upward from Y_0 and Y_1. Both
are f_next = (2m/x) f - f_prev, so one loop (_recur) runs them: each
argument is a lane, J lanes step down and Y lanes step up, and a step is
one multiply and one subtract across all lanes of a call, whichever kind.
The rows of a whole batch of geometries, J and Y, cost about what one
kind's rows of one geometry do, and each step writes its order in place
into the row that keeps it, with no temporary. Y_m overflows the double
range once m is a few hundred above x; its table carries a power-of-two
exponent per entry instead, so the Hankel rows stay finite there and the
phase is -pi/2 to every digit.

The Y table needs Y_0 and Y_1 to start from. Below x = 25 they come from
Neumann's series (DLMF 10.8.2, and its derivative for Y_1) over one J
table; from 25 on, from Hankel's expansion (DLMF 10.17.3-4).

The first zeros are bisected on the same two tables, every order of a
batch a lane of one vector bisection, so the package has one Bessel
route and needs numpy alone.
"""

from __future__ import annotations

import math
from itertools import chain, cycle, islice

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

# bytes of the 2m/x rows made at a time (_ratios), and entries of each
# block bessel_j_table floors
_STEP_BLOCK = 1 << 14

# below this argument J_m(x) = (x/2)^m / m! to double precision
_SERIES_BELOW = 1e-20

# J_m table entries below this are flushed to 0. The tests' reference jv
# returns 0 for entries up to about 5e-290 (4000 random x in [1e-4, 1e3],
# m <= 1400), so the floor puts a 0 wherever jv has one and moves nothing
# above 1e-285.
_J_FLOOR = 1e-285

_LN2 = math.log(2.0)

_TWO_OVER_PI = 2.0 / math.pi

# Euler's constant
_EULER_GAMMA = 0.5772156649015329

# Y_0 and Y_1 come from Neumann's series below this argument and from
# Hankel's expansion from it on
_HANKEL_FROM = 25.0

# the orders, arguments or seeds of a kind of lane a _recur call does not
# have
_NO_LANES = np.zeros(0, dtype=np.int64)

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


def _orders(m) -> np.ndarray:
    """m, one order or an integer array of them, as an array of
    nonnegative integer orders; ValueError otherwise."""
    orders = np.asarray(m)
    if orders.ndim == 0:
        return np.asarray(_check_order(m))
    if not np.issubdtype(orders.dtype, np.integer) or np.any(orders < 0):
        raise ValueError(_ORDER_MESSAGE)
    return orders


def _lanes(m_max, x) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """x as floats, flat x, the order of each flat argument and the
    largest order, from m_max as both tables take it."""
    orders = _orders(m_max)
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
    share one vector step per order (_recur, called with J lanes alone).
    A row therefore depends on x_i and m_max_i alone, never on the other
    arguments of the call. J is the
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
    steps write each order in place into its row, so it is F-ordered: the
    entries of one order lie contiguous across the arguments. The radial
    tables cut from it are column-major, and sums over the rings
    (_psi_project) run along that axis.
    """
    x, flat, orders, top = _lanes(m_max, x)
    if not np.all(np.isfinite(flat) & (flat >= 0.0)):
        raise ValueError("arguments must be nonnegative finite reals")
    return _floor(_miller_rows(orders, flat), orders).T.reshape(
        x.shape + (top + 1,))


def _floor(rows: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """The J rows (orders, lanes) of _recur as bessel_j_table gives them,
    in place: entries below _J_FLOOR set to 0 a block of _STEP_BLOCK
    entries at a time, so the mask is that small, and each lane's orders
    past its own by a slice."""
    step = max(1, _STEP_BLOCK // max(rows.shape[1], 1))
    for first in range(0, len(rows), step):
        block = rows[first:first + step]
        floor = block < _J_FLOOR
        floor &= block > -_J_FLOOR
        block[floor] = 0.0
    top = len(rows) - 1
    for i, order in enumerate(orders.tolist()):
        if order < top:
            rows[order + 1:, i] = 0.0
    return rows


def _miller_start(top) -> int:
    return 2 * math.ceil(
        0.5 * (top + 10.0 + 6.0 * top ** (1.0 / 3.0) + math.sqrt(40.0 * top)))


def _ratios(n: int, x: np.ndarray, kinds):
    """The rows 2 m_i / x_i of the steps k = 0 .. n - 1, lane i at the
    order m_i = base + sign k of its kind, for each (lanes, base, sign) of
    kinds, lanes a slice. The rows are made a block of _STEP_BLOCK bytes
    at a time into one buffer, each kind's part by one division of its
    orders column; 2.0 m is exact, so a row has the bits of 2.0 * m / x."""
    step = max(1, _STEP_BLOCK // (8 * max(x.size, 1)))
    buffer = np.empty((min(step, n), x.size))
    for first in range(0, n, step):
        rows = buffer[:min(step, n - first)]
        for lanes, base, sign in kinds:
            m = base + sign * first
            orders = np.arange(m, m + sign * len(rows), sign, dtype=float)
            np.divide(2.0 * orders[:, None], x[lanes], out=rows[:, lanes])
        yield from rows


def _miller_rows(orders: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_m(x_i) as rows m = 0 .. max(orders), columns i, before the floor:
    _recur with J lanes alone."""
    return _recur(orders, x, _NO_LANES, _NO_LANES, (_NO_LANES, _NO_LANES))[0]


def _recur(j_orders: np.ndarray, j_x: np.ndarray, y_orders: np.ndarray,
           y_x: np.ndarray, y_seeds) -> tuple[np.ndarray, ...]:
    """The one recurrence loop behind every Bessel table: J lanes (J_m
    of j_x_i to j_orders_i) stepped down and Y lanes (Y_m of y_x_i to
    y_orders_i, from y_seeds = (Y_0, Y_1)) stepped up, each kind's lanes
    by the rules of its docstring (bessel_j_table, bessel_y_table).

    Both are f_next = (2m/x) f - f_prev with one 2m/x per lane, so step k
    is one multiply and one subtract across all lanes: J lanes at order
    S - k, Y lanes at order k + 1, where S is the largest Miller start
    and at least the top Y order. Row r of the pass holds J at order
    S + 1 - r and Y at order r. Step k first makes the events of its
    orders: J lanes joining at their own start, Y lanes ending past their
    own order (a zero pair stays zero), and the power-of-two rescale of
    the Y lanes; then it adds even J orders to the running sum, steps,
    and rescales J lanes by |f|. Each kind keeps its own scalar bound on
    its |f| (as a multiple of its limit for Y), grown by 2m/min(x) + 1 a
    step, and looks at its lanes only when the bound says a lane may have
    passed its limit, which rescales the same lanes at the same orders as
    looking at every step would. So every lane's arithmetic is that of a
    pass run for it alone, bit for bit, whatever else the call holds.

    With J lanes alone, the rows kept are the orders 0 .. max(j_orders),
    and the rows above go round three spill rows, so no taller table is
    made than the one returned. With Y lanes, all S + 2 rows are kept in
    pass order, since the Y lanes need every one: the J rows are then a
    reversed view, and the table is taller than the J rows' top + 1 by
    the Miller overshoot S + 1 - top (26 % at a J horizon of 1071, kappa =
    1000; 2 % at kappa = 1e5). The J rows come back (orders, J lanes),
    normalised but not floored, and the Y mantissas and exponents
    (orders, Y lanes), all views.
    """
    nj, ny = j_x.size, y_x.size
    n = nj + ny
    tiny = j_x < _SERIES_BELOW
    step_x = np.where(tiny, 1.0, j_x)
    x = np.concatenate((step_x, y_x))
    top_j = int(j_orders.max(initial=0))
    top_y = int(y_orders.max(initial=0))
    starts = [(i, _miller_start(max(order, xi))) for i, (order, xi, t)
              in enumerate(zip(j_orders.tolist(), j_x.tolist(),
                               tiny.tolist())) if not t]
    S = max(max((s for _, s in starts), default=0), top_y)
    # step k -> (J lanes joining at order S - k, Y lanes ending at k + 1)
    events: dict[int, tuple[list[int], list[int]]] = {}
    for i, start in starts:
        events.setdefault(S - start, ([], []))[0].append(i)
    for i, order in enumerate(y_orders.tolist(), nj):
        events.setdefault(order, ([], []))[1].append(i)
    # row r of the pass is table[r - skip], or spill row r % 3 if r < skip;
    # j_rows: the rows of the J orders 0 .. top_j, contiguous, all lanes
    if ny:          # every row, in pass order; rows above S + 1 for J
        pad = max(0, top_j - S - 1)         # orders of tiny J lanes only
        table = np.zeros((pad + S + 2, n))
        skip = -pad
        j_rows = table[max(0, S + 1 - top_j):]
    else:           # the J orders, and the rows above in spill rows
        j_rows = np.zeros((top_j + 1, n))
        table = j_rows[::-1]
        skip = S + 1 - top_j
    spill = np.zeros((min(max(skip, 0), 3), n))
    rows = chain(islice(cycle(spill), max(skip, 0)), table[max(-skip, 0):])
    prev, cur = next(rows), next(rows)
    prev[nj:], cur[nj:] = y_seeds
    even_sum = np.zeros(n)              # J: sum of f_2k, k >= 1
    is_j = np.arange(n) < nj
    j_mask = is_j if ny else True       # the J lanes, for their maxima
    j_limit = np.where(is_j, _RESCALE_AT, math.inf)
    y_limit = np.where(is_j, math.inf,
                       _RESCALE_AT * np.minimum(1.0, x))
    j_growth = 2.0 / float(step_x.min(initial=1.0))
    y_growth = 2.0 / float(y_x.min()) if ny else 0.0
    j_bound = 0.0                       # >= every J |f|, |f_prev|
    y_bound = math.inf if ny else 0.0   # >= every Y |f| / y_limit
    parity = S % 2 if nj else -1        # steps at even J orders
    top_row = S + 1 - top_j             # row of the J order top_j
    # the Y exponent steps, then their sums; made at the first Y rescale,
    # so that a call with none touches no table of them before its end
    e = None
    kinds = ([(slice(0, nj), S, -1)] if nj else []) + (
        [(slice(nj, n), 1, 1)] if ny else [])
    copied = -1
    # looked up once
    multiply, subtract, rescale_at = np.multiply, np.subtract, _RESCALE_AT
    with np.errstate(over="ignore", invalid="ignore"):
        for k, coef, out in zip(range(S), _ratios(S, x, kinds), rows):
            if k in events:
                joins, ends = events[k]
                if joins:
                    cur[joins] = 1.0
                    j_bound = max(j_bound, 1.0)
                if ends:
                    prev, copied = prev.copy(), k
                    cur[ends] = 0.0
                    prev[ends] = 0.0
            if y_bound > 1.0:
                big = np.abs(cur) > y_limit
                if big.any():
                    i = np.flatnonzero(big)
                    p = np.frexp(cur[i])[1]
                    prev = prev if copied == k else prev.copy()
                    cur[i] = np.ldexp(cur[i], -p)
                    prev[i] = np.ldexp(prev[i], -p)
                    if e is None:
                        e = np.zeros((top_y + 1, ny), dtype=np.int64)
                    e[k + 1, i - nj] = p
                # a Y lane that has overflowed is lost anyway and must
                # not hold up the others
                ratio = np.maximum(np.abs(cur), np.abs(prev)) / y_limit
                y_bound = float(ratio.max(initial=0.0,
                                          where=np.isfinite(ratio)))
            if k & 1 == parity:
                even_sum += cur
            multiply(coef, cur, out)
            prev, cur = cur, subtract(out, prev, out)
            if ny:
                y_bound *= y_growth * (k + 1) + 1.0
            if not nj:
                continue
            j_bound *= j_growth * (S - k) + 1.0
            if j_bound > rescale_at:
                af = np.abs(cur)
                big = af > j_limit
                if big.any():
                    i = np.flatnonzero(big)
                    a = af[i]
                    even_sum[i] /= a
                    # f, f_prev and the J orders stored from top_j down:
                    # table rows up to f's, r, and spill rows if f_prev
                    # is one
                    r = k + 2 - skip
                    if r >= 0:
                        table[max(0, min(r - 1, top_row - skip)):r + 1,
                              i] /= a
                    if r < 1:
                        spill[:, i] /= a
                    # every J |f| and |f_prev| is now <= _RESCALE_AT; where
                    # some lane rescales, others tend to be close, so look
                    # again at the next step rather than pay for the
                    # exact maximum
                    j_bound = rescale_at
                else:
                    j_bound = max(float(af.max(initial=0.0, where=j_mask)),
                                  float(np.abs(prev).max(initial=0.0,
                                                         where=j_mask)))
    j = table[S + 1 - skip::-1][:top_j + 1, :nj]    # cur is J order 0
    norm = np.ones(n)                   # Y lanes: exact
    norm[:nj] = cur[:nj] + 2.0 * even_sum[:nj]
    norm[:nj][tiny] = 1.0
    # all lanes of the contiguous rows: numpy divides a strided view (the
    # J lanes beside Y lanes) through a copy of it
    j_rows /= norm
    if tiny.any():
        terms = np.empty((top_j + 1, int(tiny.sum())))
        terms[0] = 1.0
        terms[1:] = 0.5 * j_x[tiny] / np.arange(1, top_j + 1)[:, None]
        j[:, tiny] = np.cumprod(terms, axis=0)
    if e is None:
        e = np.zeros((top_y + 1, ny), dtype=np.int64)
    else:
        np.cumsum(e, axis=0, out=e)
    return j, table[-skip:][:top_y + 1, nj:], e


def bessel_y_table(m_max, x) -> tuple[np.ndarray, np.ndarray]:
    """Y_m(x_i) = y 2^e for m = 0 .. m_max at every x_i > 0: the mantissa
    table y and the integer exponent table e, both of shape
    x.shape + (m_max + 1,) and F-ordered. m_max is one order or an integer
    array of orders, as for bessel_j_table; y of x_i is 0 past its own
    m_max_i, so a short lane takes no rescaling steps.

    One upward pass Y_{m+1} = (2m/x) Y_m - Y_{m-1}, a vector step across
    all x (_recur, called with Y lanes alone), seeded by _y_seeds; upward
    is the stable direction for Y, the dominant solution (Gautschi,
    SIAM Rev. 9, 1967; DLMF 10.74(iv)). A step writes Y_{m+1} in place
    into its row of an (orders, arguments) table, of which y is the
    transposed view, as for J. Where an argument's |Y_m| passes
    _RESCALE_AT min(1, x), its working pair is divided by the power of two
    that brings |Y_m| into [0.5, 1), which is exact, and the power moves
    into e. That and a lane's end change Y_m in its row and Y_{m-1} on a
    copy, so Y_{m-1}'s row keeps its stored value. A step multiplies |Y|
    by at most 2m/x + 1, so no entry overflows for m <= 1e4 and
    x >= 1.2e-304. An entry up to m_max_i depends on x_i and m alone,
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
    _, y, e = _recur(_NO_LANES, _NO_LANES, orders, flat,
                     _y_seeds(flat, neumann_j))
    shape = x.shape + (top + 1,)
    return y.T.reshape(shape), e.T.reshape(shape)


def _bessel_tables(j_orders: np.ndarray, j_x: np.ndarray,
                   y_orders: np.ndarray, y_x: np.ndarray):
    """bessel_j_table(j_orders, j_x), and bessel_y_table(y_orders, y_x) as
    (y, e), for flat lanes, from one call of _recur: each lane's rows have
    the bits of its own table. With Y lanes the three are views into the
    pass's table of S + 2 rows in pass order, taller than the J table by
    the Miller overshoot (see _recur). A Y lane below _HANKEL_FROM seeds
    from a J table of its own, so a caller with such lanes passes their
    seeds' J lanes here and steps them with _y_table after."""
    j, y, e = _recur(j_orders, j_x, y_orders, y_x, _y_seeds(y_x))
    return _floor(j, j_orders).T, y.T, e.T


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




# table entries (lanes times orders) of one pass of the zero search: a
# batch of orders runs that many entries' worth of lanes at a time, so
# its tables stay near 16 MiB; every m <= 1000 fits in one chunk
_ZERO_BLOCK = 1 << 21


def _j_at(ms: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_{ms_i}(x_i) from one bessel_j_table pass, a lane per order."""
    return bessel_j_table(ms, x)[np.arange(ms.size), ms]


def _y_at(ms: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Y_{ms_i}(x_i) from one bessel_y_table pass, a lane per order."""
    y, e = bessel_y_table(ms, x)
    i = np.arange(ms.size)
    return np.ldexp(y[i, ms], e[i, ms])


def _first_zeros(kind: str, m, m0_bracket: tuple, top):
    """First positive zero of J_m (kind "J") or Y_m ("Y") for each order
    of m, a float for one order and an array of m's shape for an array:
    _ZERO_BLOCK entries' worth of orders at a time go to _bisect."""
    orders = _orders(m)
    flat = orders.reshape(-1)
    z = np.empty(flat.size)
    step = max(1, _ZERO_BLOCK // (int(flat.max(initial=0)) + 1))
    for k in range(0, flat.size, step):
        z[k:k + step] = _bisect(kind, flat[k:k + step], m0_bracket, top)
    return float(z[0]) if orders.ndim == 0 else z.reshape(orders.shape)


def _bisect(kind: str, ms: np.ndarray, m0_bracket: tuple,
            top) -> np.ndarray:
    """First zeros of the orders ms, bisected on m0_bracket for m = 0 and
    on [m, top(m)] above until the ends are adjacent doubles; each
    bracket must hold exactly one zero. Each step evaluates the midpoints
    of the lanes still open in one table pass, and an order's lane
    depends on that order alone (a table row depends on its own argument
    and order), so a zero does not depend on the batch it came in."""
    at = _j_at if kind == "J" else _y_at
    x = ms.astype(float)
    first = ms == 0
    lo = np.where(first, m0_bracket[0], x)
    hi = np.where(first, m0_bracket[1], top(np.maximum(x, 1.0)))
    flo, fhi = at(ms, lo), at(ms, hi)
    bad = ~(flo * fhi <= 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ArithmeticError(f"no sign change of {kind}_{ms[i]} on "
                              f"[{lo[i]}, {hi[i]}]")
    live = np.arange(ms.size)
    while True:
        mid = 0.5 * (lo[live] + hi[live])
        inside = (lo[live] < mid) & (mid < hi[live])
        if not inside.any():
            break
        live, mid = live[inside], mid[inside]
        fmid = at(ms[live], mid)
        left = (fmid > 0.0) == (flo[live] > 0.0)
        lo[live[left]], flo[live[left]] = mid[left], fmid[left]
        hi[live[~left]], fhi[live[~left]] = mid[~left], fmid[~left]
    return np.where(np.abs(flo) <= np.abs(fhi), lo, hi)


def first_zero_j(m):
    """First positive zero j_{m,1} of J_m, for one order m (a float) or an
    integer array of orders (an array of the same shape). It agrees with
    a bisection of the tests' reference jv within 2.3e-13 for m <= 1000
    and 1.9e-12, one unit in the last place at 1e4, up to m = 1e4.

    The bracket is [2, 3] for m = 0 and [m, guess + 1.5] above. J_m > 0
    on (0, m] since m < j_{m,1}, and for m <= 1e4 the top end lies 1.50
    to 1.56 above j_{m,1}, short of j_{m,2} > j_{m,1} + pi: one zero in
    the bracket. The bisection reads J_m from bessel_j_table, all orders
    of a batch in one pass per step, about 53 steps; a pass costs about
    as much as the largest order, so one zero at m = 1e4 takes about a
    second and a batch of orders hardly more: batch the orders of a call.
    """
    return _first_zeros("J", m, (2.0, 3.0), lambda m: (
        m + A_MINUS * m**(1.0 / 3.0) + 1.0331 * m**(-1.0 / 3.0) + 1.5))


def first_zero_y(m):
    """First positive zero y_{m,1} of Y_m, for one order or an array of
    orders as first_zero_j, and within the same bounds of a bisection of
    the tests' reference yv.

    The bracket is [0.5, 1.5] for m = 0 and [m, guess + 1.2] above.
    Y_m < 0 on (0, m] since m < y_{m,1}, and for m <= 1e4 the top end
    lies 0.93 to 1.19 above y_{m,1}, short of y_{m,2} > y_{m,1} + pi: one
    zero in the bracket. The bisection reads Y_m from bessel_y_table, at
    the same cost as first_zero_j's.
    """
    return _first_zeros("Y", m, (0.5, 1.5),
                        lambda m: m + A_PLUS * m**(1.0 / 3.0) + 1.2)
