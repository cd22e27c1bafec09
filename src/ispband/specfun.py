"""Stable evaluation of integer-order Bessel quantities.

Everything the rest of the package needs from special-function land lives
here: J_m, Y_m, the log of the squared Hankel magnitude |H_m^(1)|^2, the
phase arg H_m^(1), the K_0-integral cross-check for |H_m^(1)|^2, and the
first positive zeros j_{m,1} and y_{m,1}.

The Hankel magnitude is the delicate one. Y_m(x) overflows the double range
once m is a few hundred above x, while the products the caller forms stay
perfectly representable in the log domain, so `log_hankel_abs2` switches to
a rescaled upward recurrence as soon as the direct route saturates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize, special

__all__ = [
    "ZeroRecord",
    "bessel_j",
    "bessel_y",
    "log_hankel_abs2",
    "hankel_phase",
    "nicholson_abs2_oracle",
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


def bessel_j(m, x):
    """Bessel function of the first kind J_m(x) for integer m >= 0, x > 0.

    Thin wrapper over the order-stable library routine; kept as a named
    seam so every consumer of J goes through one checked entry point.
    """
    m = _check_order(m)
    if np.ndim(x):
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
            raise ValueError("arguments must be positive finite reals")
        return special.jv(m, x)
    return float(special.jv(m, _check_arg(x)))


def bessel_y(m, x):
    """Bessel function of the second kind Y_m(x) for integer m >= 0, x > 0.

    Raises
    ------
    OverflowError
        when the value saturates the double range (m far above x).
        Callers that need large-order magnitudes must use
        :func:`log_hankel_abs2` instead.
    """
    m = _check_order(m)
    x = _check_arg(x)
    y = float(special.yv(m, x))
    if not math.isfinite(y):
        raise OverflowError(
            f"Y_{m}({x:g}) saturates double precision; "
            "use log_hankel_abs2 for large-order work")
    return y


def _hankel_recurrence(m: int, x: float, start: int = 1, seed=None,
                       out=None):
    """Continue (J, Y) upward from orders (start-1, start) to m with joint
    rescaling. Returns (log|H_m|^2, arg H_m).

    seed is (J_{start-1}, J_start, Y_{start-1}, Y_start) and defaults to the
    library values at orders 0 and 1. If out is given, out[mu] receives
    log|H_mu|^2 for every order start < mu <= m.
    """
    if seed is None:
        seed = (special.jv(0, x), special.jv(1, x),
                special.yv(0, x), special.yv(1, x))
    j0, j1, y0, y1 = seed
    logscale = 0.0
    for mu in range(start, m):
        j2 = (2.0 * mu / x) * j1 - j0
        y2 = (2.0 * mu / x) * y1 - y0
        j0, j1, y0, y1 = j1, j2, y1, y2
        a = abs(y1)
        if a > _RESCALE_AT:
            j0 /= a
            j1 /= a
            y0 /= a
            y1 /= a
            logscale += math.log(a)
        if out is not None:
            out[mu + 1] = 2.0 * (math.log(math.hypot(j1, y1)) + logscale)
    return 2.0 * (math.log(math.hypot(j1, y1)) + logscale), math.atan2(y1, j1)


def log_hankel_abs2(m, x) -> float:
    """log(J_m(x)^2 + Y_m(x)^2), overflow-free for m <= 1e4, x <= 1e4.

    Direct evaluation wherever Y_m is representable; otherwise the function
    switches to an upward recurrence on the rescaled (J_m, Y_m) pair. The
    upward direction is stable for Y (the dominant solution), and the J
    component it drags along only matters through hypot, where it is
    negligible against Y in exactly the regime the recurrence is used.
    """
    m = _check_order(m)
    x = _check_arg(x)
    y = special.yv(m, x)
    if math.isfinite(y):
        j = special.jv(m, x)
        return 2.0 * math.log(math.hypot(j, y))
    return _hankel_recurrence(m, x)[0]


def hankel_phase(m, x) -> float:
    """arg H_m^(1)(x) in (-pi, pi] for integer m >= 0, x > 0.

    Uses atan2(Y_m, J_m) directly when both parts are representable, and
    the jointly rescaled recurrence pair otherwise (only the ratio enters
    the phase, so the common scale cancels).
    """
    m = _check_order(m)
    x = _check_arg(x)
    y = special.yv(m, x)
    if math.isfinite(y):
        j = special.jv(m, x)
        if abs(j) > 1e-280 or abs(y) > 1e-280:
            return math.atan2(y, j)
    return _hankel_recurrence(m, x)[1]


def log_hankel_abs2_row(m_max: int, x: float) -> np.ndarray:
    """Vector of log|H_m^(1)(x)|^2 for m = 0 .. m_max in one pass.

    The bulk is a single vectorized library call; the saturated tail, if
    any, is completed by the rescaled recurrence starting from the last
    two representable orders.
    """
    if m_max < 1:
        m_max = 1
    x = _check_arg(x)
    ms = np.arange(m_max + 1)
    J = special.jv(ms, x)
    Y = special.yv(ms, x)
    out = np.empty(m_max + 1)
    finite = np.isfinite(Y)
    out[finite] = 2.0 * np.log(np.hypot(J[finite], Y[finite]))
    if finite.all():
        return out
    # Y grows monotonically in m, so the finite prefix is contiguous
    t = int(np.argmin(finite))
    if t < 2:
        raise ArithmeticError(f"Y_m({x:g}) saturates already at m={t}")
    seed = (float(J[t - 2]), float(J[t - 1]), float(Y[t - 2]), float(Y[t - 1]))
    _hankel_recurrence(m_max, x, start=t - 1, seed=seed, out=out)
    return out


def nicholson_abs2_oracle(m, x, rtol: float = 1e-11) -> float:
    """log|H_m^(1)(x)|^2 through the K_0 integral representation.

    Evaluates log of (8/pi^2) * int_0^inf K_0(2 x sinh t) cosh(2 m t) dt
    by factoring the integrand's peak out of the exponent and applying
    adaptive quadrature to the normalized remainder. Entirely independent
    of the recurrence/direct route above, which is the point: it exists as
    a cross-check, not as a production path.

    Raises
    ------
    ArithmeticError
        if the quadrature does not reach the requested tolerance; the
        message reports the tolerance actually achieved.
    """
    m = _check_order(m)
    x = _check_arg(x)

    def log_integrand(t):
        z = 2.0 * x * np.sinh(t)
        # log K_0(z) = log k0e(z) - z; log cosh(u) = |u| + log1p(e^{-2|u|}) - log 2
        u = np.abs(2.0 * m * t)
        return (np.log(special.k0e(z)) - z
                + u + np.log1p(np.exp(-2.0 * u)) - np.log(2.0))

    # beyond t_hi the integrand has fallen ~60 e-folds below its peak
    t_hi = math.asinh((2.0 * m + 60.0) / (2.0 * x)) + 1.0
    ts = np.linspace(1e-12, t_hi, 4001)
    gmax = float(np.max(log_integrand(ts)))
    val, err = integrate.quad(lambda t: math.exp(log_integrand(t) - gmax),
                              0.0, t_hi, limit=500, epsabs=1e-300, epsrel=rtol)
    if not (val > 0.0) or err > 10.0 * rtol * val:
        achieved = err / val if val > 0 else math.inf
        raise ArithmeticError(
            f"Nicholson quadrature did not converge at (m={m}, x={x:g}); "
            f"achieved relative tolerance {achieved:.2e}")
    return math.log(8.0 / math.pi**2) + gmax + math.log(val)


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
