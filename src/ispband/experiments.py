"""Parameter sweeps, regression summaries and asymptotic-regime checks.

The main study sweeps the size parameter kappa (with kappa0 = kappa unless
a ratio is requested) over a uniform grid, records the bandwidth and its
four bounds at every point, and summarizes how well each bound tracks the
bandwidth. The fits quantify the near-linear growth of the band edges in
kappa; the asymptotic checks compare the spectrum against its closed-form
plateau and small-argument limits.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .bandwidth import (HorizonError, _reports, bandwidth,
                        bound_lower_approx, bound_upper_approx)
from .singular_system import ProblemGeometry, build_spectrum, default_m_max
from .specfun import _check_count

__all__ = [
    "SweepRecord",
    "RegressionFit",
    "AsymptoticRecord",
    "run_sweep",
    "fit_linear",
    "r_independence_study",
    "asymptotic_checks",
]

log = logging.getLogger(__name__)

KAPPA_SWEEP_RANGE = (2.0, 100.0 * math.pi)

# sweep points per Bessel pass; bounds run_sweep's tables whatever n_points
_SWEEP_BLOCK = 64


def _relerr(bound: int, B: int) -> float:
    """|bound - B| / B; on an empty band (B = 0) a bound of 0 has no
    error and any other overshoots it without limit."""
    if B > 0:
        return abs(bound - B) / B
    return 0.0 if bound == 0 else math.inf


@dataclass(frozen=True)
class SweepRecord:
    """Band edges at one sweep point. The stand-ins derive from kappa0,
    and the bound errors from the three edges."""

    kappa: float
    kappa0: float
    B: int
    B_minus: int
    B_plus: int

    @property
    def B_tilde_minus(self) -> int:
        return bound_lower_approx(self.kappa0)

    @property
    def B_tilde_plus(self) -> int:
        return bound_upper_approx(self.kappa0)

    @property
    def eps_minus(self) -> int:
        return self.B_minus - self.B

    @property
    def eps_plus(self) -> int:
        return self.B_plus - self.B

    @property
    def relerr_minus(self) -> float:
        return _relerr(self.B_minus, self.B)

    @property
    def relerr_plus(self) -> float:
        return _relerr(self.B_plus, self.B)


@dataclass(frozen=True)
class RegressionFit:
    """Ordinary least squares of one band-edge integer against kappa.

    std_dev is the standard error of the fitted slope.
    """

    target: str
    slope: float
    intercept: float
    mean_abs_error: float
    std_dev: float


@dataclass(frozen=True)
class AsymptoticRecord:
    """Deviation of sigma_m from a closed-form limit at one (m, geometry)."""

    kind: str          # "plateau" or "decay"
    m: int
    kappa0: float
    kappa: float
    sigma: float
    reference: float
    in_regime: bool

    @property
    def rel_dev(self) -> float:
        return abs(self.sigma - self.reference) / self.reference


def run_sweep(n_points: int = 300,
              kappa_range: tuple[float, float] = KAPPA_SWEEP_RANGE,
              equal_sizes: bool = True,
              ratio: float = 1.0) -> list[SweepRecord]:
    """Band edges over a uniform inclusive grid on a finite kappa range.

    n_points is an integer of at least 2. With equal_sizes the source
    fills the measurement disk (kappa0 = kappa) and ratio must be 1;
    otherwise kappa0 = kappa / ratio for a finite ratio >= 1. The points
    go _SWEEP_BLOCK at a time through bandwidth._reports, the batched
    report behind report: one Bessel pass and one bound scan per block,
    so each point gets the record that report gives it alone. A failing
    point raises its own exception class with its kappa in the message.
    """
    n_points = _check_count(n_points, "need an integer n_points >= 2", 2)
    if equal_sizes and ratio != 1.0:
        raise ValueError(f"ratio={ratio!r} needs equal_sizes=False")
    if not 1.0 <= ratio < math.inf:
        raise ValueError(f"ratio must be finite and >= 1, got {ratio!r}")
    lo, hi = float(kappa_range[0]), float(kappa_range[1])
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"bad kappa range {kappa_range!r}; need 0 < lo < hi < inf")
    if not math.isfinite((hi - lo) * (n_points - 1)):
        raise ValueError(f"kappa range {kappa_range!r} is too wide for "
                         f"{n_points} points: (hi - lo) (n_points - 1) "
                         "overflows")
    kappas = lo + np.arange(n_points) * (hi - lo) / (n_points - 1)
    out = []
    for first in range(0, n_points, _SWEEP_BLOCK):
        block = kappas[first:first + _SWEEP_BLOCK].tolist()
        gs = [ProblemGeometry.from_size_params(kappa / ratio, kappa)
              for kappa in block]
        reports = _reports(gs, [default_m_max(g.kappa0) for g in gs])
        for kappa in block:
            try:
                rep = next(reports)
            except (ArithmeticError, HorizonError, ValueError) as exc:
                # the class picks the CLI's exit code, so keep it
                raise type(exc)(
                    f"sweep failed at kappa={kappa:.6g}: {exc}") from exc
            out.append(SweepRecord(kappa, kappa / ratio, rep.B,
                                   rep.B_minus, rep.B_plus))
    log.info("sweep finished: %d points over [%g, %g]", n_points, lo, hi)
    return out


def fit_linear(records: list[SweepRecord], target: str) -> RegressionFit:
    """Least-squares line through (kappa, target) over the sweep records."""
    pick = {"B": "B", "B-": "B_minus", "B+": "B_plus"}
    if target not in pick:
        raise ValueError(f"unknown fit target {target!r}")
    if len(records) < 2:
        raise ValueError("need at least 2 records to fit")
    x = np.array([r.kappa for r in records])
    y = np.array([float(getattr(r, pick[target])) for r in records])
    x_bar, y_bar = float(x.mean()), float(y.mean())
    dx = x - x_bar
    sxx = float(np.sum(dx**2))
    if sxx == 0.0:
        raise ValueError("degenerate fit: all kappa values are equal")
    # the centred normal equations, solved in closed form
    slope = float(np.sum(dx * (y - y_bar))) / sxx
    intercept = y_bar - slope * x_bar
    resid = y - (slope * x + intercept)
    dof = len(records) - 2
    slope_se = math.sqrt(float(np.sum(resid**2)) / dof / sxx) if dof > 0 else 0.0
    return RegressionFit(target=target, slope=slope, intercept=intercept,
                         mean_abs_error=float(np.mean(np.abs(resid))),
                         std_dev=slope_se)


def r_independence_study(kappa0: float, r_ratios: list[float]) -> list[dict]:
    """Bandwidth and peak singular value while the measurement circle grows.

    kappa0 is held fixed; each ratio R / R0 >= 1 rescales only the
    measurement radius.
    """
    if any(r < 1.0 for r in r_ratios):
        raise ValueError("ratios must be >= 1")
    rows = []
    for ratio in r_ratios:
        g = ProblemGeometry(k=1.0, R0=float(kappa0),
                            R=float(kappa0) * float(ratio))
        table = build_spectrum(g)
        rows.append({
            "ratio": float(ratio),
            "B": bandwidth(table),
            "peak_sigma": float(table.sigma.max()),
        })
    return rows


def asymptotic_checks(g_list: list[ProblemGeometry],
                      plateau_ms: range = range(0, 6),
                      decay_ms: range = range(8, 17)) -> list[AsymptoticRecord]:
    """Compare sigma_m against the plateau and small-argument limits.

    Plateau (applies near the spectrum's flat top, kappa0 well above
    m^2 - 1/4, and only when the source fills the measurement disk):

        sigma_m ~ (sqrt(2) / pi) * lambda * sqrt(R0)

    Small-argument decay (kappa^2 well below m + 1):

        sigma_m ~ (1/m) sqrt(2 / (m + 1)) (R0 / R)^(m - 1/2) R0^(3/2)

    Out-of-regime combinations are recorded with in_regime False rather
    than rejected, so a caller can see how the formulas degrade.
    """
    m_max = max([1, *map(abs, plateau_ms), *map(abs, decay_ms)])
    out = []
    for g in g_list:
        log_sigma = build_spectrum(g, m_max).log_sigma
        lam = 2.0 * math.pi / g.k
        plateau_ref = (math.sqrt(2.0) / math.pi) * lam * math.sqrt(g.R0)
        for m in plateau_ms:
            sig = math.exp(log_sigma[abs(m)])
            in_regime = (g.kappa0 >= 10.0 * max(m * m - 0.25, 1.0)
                         and g.R0 == g.R)
            out.append(AsymptoticRecord("plateau", m, g.kappa0, g.kappa,
                                        sig, plateau_ref, in_regime))
        for m in decay_ms:
            ref = ((1.0 / m) * math.sqrt(2.0 / (m + 1))
                   * (g.R0 / g.R)**(m - 0.5) * g.R0**1.5)
            sig = math.exp(log_sigma[abs(m)])
            in_regime = g.kappa**2 <= 0.25 * (m + 1)
            out.append(AsymptoticRecord("decay", m, g.kappa0, g.kappa,
                                        sig, ref, in_regime))
    return out
