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

report and run_sweep take a block of geometries through one flat pass
(_reports): each point's rows are joined at its own length into
contiguous arrays, and A_m, log|H_m|^2, log sigma, the finiteness and
tail guards, the last violation and both bounds each take one numpy
call, or a few, over the block, whatever its number of points.
bandwidth runs the same pass on the one segment of its table.

Both bounds have cheap closed-form surrogates: B~- from inverting the
large-order expansion j_{m,1} ~ m + a_- m^(1/3) (a cubic in m^(1/3)),
and B~+ = ceil(kappa0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .singular_system import (ProblemGeometry, SpectrumTable, _bessel_rows,
                              _flat, _horizon, _log_sigma, _modal_flat,
                              _modal_inputs, _sigma_const)
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
    """bandwidth of the log sigma row ls of m = 0 .. len(ls) - 1: the
    flat pass's guards and search (_band_edges) on one segment, raising
    its error."""
    (b,) = _band_edges(ls, np.array([len(ls)]), [kappa0])
    return _handed_out(b)


def _last_true(mask: np.ndarray, starts, ends) -> np.ndarray:
    """For each segment [starts[p], ends[p]) of the flat array mask, the
    offset from starts[p] of its last true entry, -1 if it has none."""
    at = np.flatnonzero(mask)
    last = np.append(-1, at)[np.searchsorted(at, ends)]
    return np.where(last >= starts, last - starts, -1)


def _band_edges(ls: np.ndarray, lens, kappa0) -> list:
    """The bandwidth of each segment p of the flat log sigma array ls,
    m = 0 .. lens[p] - 1 at kappa0[p], or the HorizonError it raises.

    The guards run in order: the horizon (_min_horizon, one integer per
    segment), then the first non-finite entry (trailing underflow of
    A_m, where everything past the first -inf must be -inf as well,
    counts as decayed-below-floor and cuts the segment there), then the
    last _TAIL_ROWS rows of the cut segment, which must decrease
    strictly. B is one past the segment's last order m with
    sigma_m <= sigma_{m+1}, the same search that finds a violation in
    the tail. Each search is a few numpy calls over the whole block.
    """
    ends = np.cumsum(lens)
    starts = ends - lens
    lost = np.flatnonzero(~np.isfinite(ls))
    cut = np.minimum(np.append(lost, ls.size)[np.searchsorted(lost, starts)]
                     - starts, lens)
    n_lost = np.searchsorted(lost, ends) - np.searchsorted(lost, starts)
    last = _last_true(ls[:-1] <= ls[1:], starts, starts + cut - 1)
    out = []
    for n, t, gone, b, k in zip(lens.tolist(), cut.tolist(),
                                n_lost.tolist(), last.tolist(), kappa0):
        need = _min_horizon(k)
        if n - 1 < need:
            out.append(HorizonError(
                f"m_max={n - 1} is below the required horizon {need} "
                f"for kappa0={k:g}"))
        elif t < n and (t <= need or gone != n - t):
            out.append(HorizonError(
                f"log sigma lost representability at m={t} before the "
                "horizon; shrink m_max or rescale the geometry"))
        elif b >= t - _TAIL_ROWS:
            out.append(HorizonError(
                "trailing rows of the spectrum are not strictly decreasing; "
                "the horizon ends before the stopband, increase m_max"))
        else:
            out.append(b + 1)
    return out


def _sign_bounds(f: np.ndarray, kappa0: np.ndarray, sign: float,
                 e=None) -> np.ndarray:
    """The bound of each lane i from its segment of the flat array f,
    F_m(kappa0_i) for m = 0 .. ceil(kappa0_i), the lanes' segments joined
    in order: one more than the last order m < kappa0_i with
    sign F_m(kappa0_i) > 0, or that order M itself where its Newton
    distance to the first zero of F_M is at most _TIE_TOL; 0 where no
    order has that sign. -1 where an entry it reads is not finite, so
    that such a lane never picks a bound.

    f may be a mantissa row with its exponent row e, as bessel_y_table
    gives them: the signs are those of f, and the tie rule reads f 2^e.
    """
    ends = np.cumsum(np.ceil(kappa0).astype(np.int64) + 1)
    starts = np.append(0, ends[:-1])
    hit = sign * f > 0.0
    hit[ends - 1] = False           # order ceil(kappa0) is read, not scanned
    last = _last_true(hit, starts, ends)
    at = np.maximum(last, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        g_at, g_up = (sign * (f[k] if e is None else np.ldexp(f[k], e[k]))
                      for k in (starts + at, starts + at + 1))
        slope = (at / kappa0) * g_at - g_up          # sign F_M'(kappa0)
        tie = (last >= 0) & (slope > 0.0) & (g_at <= _TIE_TOL * slope)
    finite = np.isfinite(f)
    finite[ends - 1] = True
    ok = (np.logical_and.reduceat(finite, starts)
          & ((last < 0) | np.isfinite(g_up)))
    return np.where(ok, last + 1 - tie, -1)


def _scanned(table: np.ndarray, kappa0: np.ndarray) -> np.ndarray:
    """The orders 0 .. ceil(kappa0_i) of each lane i of a table, joined in
    order into the flat array _sign_bounds reads."""
    return table[np.arange(table.shape[1]) <= np.ceil(kappa0)[:, None]]


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
    return _bound_result(_sign_bounds(_scanned(j, k), k, -1.0), kappa0, "J")


def bound_upper(kappa0):
    """B_+ : first order whose Y zero clears kappa0, from the signs of
    the Y row at kappa0 to ceil(kappa0) + 2; as bound_lower."""
    k = _check_kappa0(kappa0).reshape(-1)
    y, e = bessel_y_table(np.ceil(k).astype(np.int64) + 2, k)
    return _bound_result(_sign_bounds(_scanned(y, k), k, 1.0, _scanned(e, k)),
                         kappa0, "Y")


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
    """All five band-edge integers for one geometry: B and its bounds
    stored, the stand-ins derived from the geometry's kappa0."""
    geometry: ProblemGeometry
    B: int
    B_minus: int
    B_plus: int
    horizon: int

    @property
    def B_tilde_minus(self) -> int:
        return bound_lower_approx(self.geometry.kappa0)

    @property
    def B_tilde_plus(self) -> int:
        return bound_upper_approx(self.geometry.kappa0)


def report(g: ProblemGeometry, m_max: int | None = None) -> BandwidthReport:
    """Bandwidth and all four bounds from a single Bessel pass: _reports
    of a batch of one."""
    (rep,) = _reports([g], [_horizon(g, m_max)])
    return rep


def _reports(gs, m_maxes):
    """The BandwidthReport of each geometry g to m_max from one
    _bessel_rows pass and one flat pass over the block's rows.

    Each point's rows are joined at its own length into contiguous
    arrays, one concatenation of their slices per array: its J and Y
    rows at kappa0 to ceil(kappa0) for the bounds (_sign_bounds), then
    its J row at kappa0 and its J, Y and exponent rows at kappa to m_max
    for the spectrum (_modal_flat, _log_sigma, _band_edges). Every step
    after that runs once over the block. The pass's tables are
    dropped once gathered, before the spectrum's arithmetic, and the
    work is done before the first report is handed out, so no report
    holds a row. The reports come back lazily, in order: a point's
    error, the class and message it raises alone, derived from its own
    segment, is raised only when its report is taken. A report gets the
    same bits in a batch as on its own.
    """
    rows = _bessel_rows(gs, m_maxes, at_kappa0=True)
    kappa0 = np.array([g.kappa0 for g in gs])
    scan = np.ceil(kappa0).astype(np.int64) + 1
    b_minus = _sign_bounds(_flat(rows, 0, scan), kappa0, -1.0).tolist()
    b_plus = _sign_bounds(_flat(rows, 4, scan), kappa0, 1.0,
                          _flat(rows, 5, scan)).tolist()
    lens = np.array(m_maxes) + 1
    inputs = _modal_inputs(rows, lens)
    del rows
    a, log_abs_h2, errors = _modal_flat(*inputs, lens, kappa0)
    del inputs
    with np.errstate(invalid="ignore"):     # inf - inf of a failed point
        ls = _log_sigma(np.repeat([_sigma_const(g) for g in gs], lens), a,
                        log_abs_h2)
    del a, log_abs_h2
    edges = _band_edges(ls, lens, kappa0)
    out = []
    for g, m_max, err, b, lower, upper in zip(gs, m_maxes, errors, edges,
                                              b_minus, b_plus):
        if err is None and isinstance(b, HorizonError):
            err = b
        if err is None and min(lower, upper) < 0:
            err = ArithmeticError(
                f"Bessel rows at kappa0={g.kappa0:g} are not finite where "
                "the bounds read them")
        out.append(err or BandwidthReport(geometry=g, B=b, B_minus=lower,
                                          B_plus=upper, horizon=m_max))
    return map(_handed_out, out)


def _handed_out(outcome):
    """A report as _reports hands it out: raised if it is an error."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def max_angular_sampling(g: ProblemGeometry) -> float:
    """Coarsest useful angular step for boundary sampling, pi / B_-."""
    b = bound_lower(g.kappa0)
    if b < 1:
        raise ValueError(
            f"no stable band at kappa0={g.kappa0:g} (B_- = 0); the sampling "
            "bound pi / B_- is undefined")
    return math.pi / b
