"""Closed-form singular system of the disk-to-circle radiation operator.

The forward map takes a source supported on the disk |y| <= R0 to its
radiated Helmholtz field sampled on the circle |x| = R, with kernel
H_0^(1)(k|x - y|). Separation in polar coordinates gives one singular
triple per angular frequency m:

    sigma_m = sqrt(2R) * pi * R0 * |H_m^(1)(kappa)| * A_m(kappa0)
    psi_m(y) = J_m(k|y|) e^{i m arg y} / (sqrt(pi) R0 A_m(kappa0))
    phi_m(x) = e^{i arg H_m^(1)(kappa)} e^{i m arg x} / sqrt(2 pi R)

with kappa0 = k R0, kappa = k R and

    A_m(kappa0) = sqrt(J_m(kappa0)^2 - J_{m-1}(kappa0) J_{m+1}(kappa0)).

sigma depends on |m| only, so every mode with m != 0 comes in a pair.
All spectrum-facing code works with log sigma; in the stopband the raw
values cross the double underflow line long before anything interesting
stops happening.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .specfun import (_HANKEL_FROM, _NEUMANN_TOP, _check_count, _y_table,
                      bessel_j_table, hankel_arg, hankel_log_abs2)

__all__ = [
    "ProblemGeometry",
    "SpectrumTable",
    "a_m",
    "build_spectrum",
    "default_m_max",
    "psi_eval",
    "phi_eval",
]


@dataclass(frozen=True)
class ProblemGeometry:
    """Wavenumber and the two radii of the concentric setup.

    Parameters
    ----------
    k : float
        Wavenumber, k > 0.
    R0 : float
        Radius of the source-support disk.
    R : float
        Radius of the measurement circle, R >= R0.

    The dimensionless size parameters kappa0 = k R0 and kappa = k R are
    derived attributes; they are all the spectrum actually depends on,
    up to overall scale factors.
    """

    k: float
    R0: float
    R: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0.0):
            raise ValueError(f"wavenumber must be positive, got {self.k!r}")
        if not (math.isfinite(self.R0) and math.isfinite(self.R)
                and 0.0 < self.R0 <= self.R):
            raise ValueError(
                f"radii must satisfy 0 < R0 <= R, got R0={self.R0!r}, R={self.R!r}")

    @property
    def kappa0(self) -> float:
        return self.k * self.R0

    @property
    def kappa(self) -> float:
        return self.k * self.R

    @classmethod
    def from_size_params(cls, kappa0: float, kappa: float) -> "ProblemGeometry":
        """Geometry from size parameters alone, using the R = 1 convention."""
        if not (kappa0 > 0.0 and kappa > 0.0 and kappa0 <= kappa):
            raise ValueError(
                f"size parameters must satisfy 0 < kappa0 <= kappa, "
                f"got kappa0={kappa0!r}, kappa={kappa!r}")
        return cls(k=float(kappa), R0=float(kappa0) / float(kappa), R=1.0)


def default_m_max(kappa0: float) -> int:
    """Default spectrum horizon: passband, transition and stopband margin."""
    return int(math.ceil(kappa0) + math.ceil(3.0 * kappa0 ** (1.0 / 3.0)) + 40)


def _j_horizon(kappa0: float, m_max: int) -> int:
    """Top order of the J rows behind a spectrum to m_max: m_max + 1, and
    never below default_m_max(kappa0) + 1, so that A_m of one order does
    not depend on the other orders asked for with it."""
    return max(int(m_max), default_m_max(kappa0)) + 1


def _a_from_row(j: np.ndarray, m: np.ndarray, kappa0: float) -> np.ndarray:
    """A_|m| from the J row j = J_0 .. J_{max|m|+1} at kappa0, with
    J_{-1} = -J_1; see a_m."""
    ext = np.concatenate(([-j[1]], j))              # ext[k] = J_{k-1}
    jm = ext[m + 1]
    rad = jm * jm - ext[m] * ext[m + 2]
    scale = np.maximum(jm * jm, 1e-300)
    if np.any(rad < -1e-14 * scale):
        worst = int(m.flat[int(np.argmin(rad / scale))])
        raise ArithmeticError(
            f"negative radicand in A_m at m={worst}, kappa0={kappa0:g}")
    return np.sqrt(np.maximum(rad, 0.0))


def a_m(m, kappa0: float):
    """Radial normalization factor A_m(kappa0), symmetric in m <-> -m.

    Computed from the product form
    sqrt(J_m^2 - J_{m-1} J_{m+1}) evaluated at kappa0, on one J row from
    bessel_j_table (Miller's recurrence) run to _j_horizon; build_spectrum
    reads the same row. The radicand is nonnegative analytically;
    round-off can push it a hair below zero, which is clamped. A radicand
    that is genuinely negative (beyond a 1e-14 relative slack) indicates a
    broken evaluation and raises.

    Accepts a scalar or an integer array for m.
    """
    if not (math.isfinite(kappa0) and kappa0 > 0.0):
        raise ValueError(f"kappa0 must be positive, got {kappa0!r}")
    marr = np.abs(np.asarray(m, dtype=int))
    hi = int(marr.max()) if marr.size else 0
    out = _a_from_row(bessel_j_table(_j_horizon(kappa0, hi), kappa0), marr,
                      kappa0)
    return float(out) if np.ndim(m) == 0 else out


@dataclass(frozen=True)
class SpectrumTable:
    """Per-mode singular data for m = 0 .. m_max.

    sigma carries exp(log_sigma) where representable and 0 on underflow;
    ranking and bandwidth logic must use log_sigma. phase holds
    arg H_m^(1)(kappa), the phase of phi_m. build_spectrum returns a fresh
    table; the package shares read-only ones (_spectrum_table).
    """

    geometry: ProblemGeometry
    m: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)
    log_abs_h2: np.ndarray = field(repr=False)
    log_sigma: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    phase: np.ndarray = field(repr=False)

    @property
    def m_max(self) -> int:
        return int(self.m[-1])

    def __len__(self) -> int:
        return len(self.m)


def _bessel_rows(gs, m_maxes, at_kappa0: bool = False) -> list[tuple]:
    """The Bessel rows of several geometries from one pass.

    Entry p is (J at kappa0_p, J at kappa_p, Y mantissa and exponent at
    kappa_p to m_max_p), then with at_kappa0 (for bandwidth._reports) the
    Y mantissa and exponent at kappa0_p to ceil(kappa0_p) + 2. All J rows
    run to _j_horizon in one bessel_j_table call, with those that seed Y
    below x = 25 (Neumann's series). All Y rows take one Y pass with one
    lane per argument, run to the last order any geometry needs of it and
    0 past it. Each row depends on its own argument and horizon alone, so
    a geometry gets the same bits in a batch as on its own, and its Y rows
    are bessel_y_table's up to the orders needed.
    """
    j_lanes: dict[tuple[float, int], int] = {}
    y_last: dict[float, int] = {}           # argument -> last order needed
    picks = []
    for g, m_max in zip(gs, m_maxes):
        h = _j_horizon(g.kappa0, m_max)
        y_args = [(g.kappa, m_max)]
        if at_kappa0:
            y_args.append((g.kappa0, math.ceil(g.kappa0) + 2))
        for x, last in y_args:
            y_last[x] = max(y_last.get(x, 0), last)
        picks.append(([j_lanes.setdefault((x, h), len(j_lanes))
                       for x in (g.kappa0, g.kappa)], [x for x, _ in y_args]))
    seed_lanes = [j_lanes.setdefault((x, _NEUMANN_TOP), len(j_lanes))
                  for x in y_last if x < _HANKEL_FROM]
    x, h = zip(*j_lanes)
    j = bessel_j_table(np.array(h), np.array(x))
    y_rows = dict(zip(y_last, zip(*_y_table(
        np.array(list(y_last.values())), np.array(list(y_last)),
        j[seed_lanes]))))
    return [(j[a], j[b], *(r for c in ys for r in y_rows[c]))
            for (a, b), ys in picks]


def _log_spectrum(g: ProblemGeometry, m_max: int, rows):
    """A_m, log|H_m^(1)(kappa)|^2 and log sigma_m for m = 0 .. m_max of g
    from its _bessel_rows entry."""
    j0, j, y, e = rows[:4]
    n = m_max + 1
    a = _a_from_row(j0, np.arange(n), g.kappa0)
    logh2 = hankel_log_abs2(j[:n], y[:n], e[:n])
    const = 0.5 * math.log(2.0 * g.R) + math.log(math.pi) + math.log(g.R0)
    with np.errstate(divide="ignore"):
        ls = const + 0.5 * logh2 + np.log(a)
    return a, logh2, ls


def _spectrum(g: ProblemGeometry, m_max: int, rows) -> SpectrumTable:
    """The spectrum rows m = 0 .. m_max of g from its _bessel_rows entry."""
    a, logh2, ls = _log_spectrum(g, m_max, rows)
    _, j, y, e = rows[:4]
    n = m_max + 1
    with np.errstate(under="ignore"):
        sigma = np.where(np.isfinite(ls), np.exp(np.minimum(ls, 709.0)), 0.0)
    return SpectrumTable(geometry=g, m=np.arange(n), a=a, log_abs_h2=logh2,
                         log_sigma=ls, sigma=sigma,
                         phase=hankel_arg(j[:n], y[:n], e[:n]))


def _horizon(g: ProblemGeometry, m_max) -> int:
    """The spectrum horizon asked for, default_m_max(kappa0) if None."""
    if m_max is None:
        return default_m_max(g.kappa0)
    return _check_count(m_max, "m_max must be an integer of at least 1", 1)


def build_spectrum(g: ProblemGeometry, m_max: int | None = None) -> SpectrumTable:
    """Assemble the spectrum rows m = 0 .. m_max for one geometry, from
    one Bessel pass with one lane per argument."""
    m_max = _horizon(g, m_max)
    return _spectrum(g, m_max, _bessel_rows([g], [m_max])[0])


# Tables _memo_table keeps, one per (geometry, J horizon), least recently
# used out first. At six 8-byte columns per row a default-horizon table at
# kappa0 = 1000 (1071 rows) takes 51 KB, and a full memo of them 3.3 MB.
_SPECTRUM_MEMO = 64
_COLUMNS = ("m", "a", "log_abs_h2", "log_sigma", "sigma", "phase")


@functools.lru_cache(maxsize=_SPECTRUM_MEMO)
def _memo_table(g: ProblemGeometry, h: int) -> SpectrumTable:
    table = build_spectrum(g, h - 1)
    for name in _COLUMNS:
        getattr(table, name).flags.writeable = False
    return table


def _spectrum_table(g: ProblemGeometry, m_max: int) -> SpectrumTable:
    """build_spectrum(g, m_max >= 1), read-only, as a prefix of the memoized
    table of g to _j_horizon(kappa0, m_max) - 1; bitwise, since a J row
    depends on its argument and horizon alone and a longer Y row extends a
    shorter one bit for bit. Read by the maps, phi_eval and pick_truncation."""
    table = _memo_table(g, _j_horizon(g.kappa0, m_max))
    return replace(table, **{name: getattr(table, name)[:m_max + 1]
                             for name in _COLUMNS})


@dataclass(frozen=True)
class _Plan:
    """Ring rows J_m(k rho_i) to the J horizon, for the forward map's data."""

    k: float
    horizon: int
    rho: np.ndarray
    rings: np.ndarray


def _planned(plan: _Plan | None, g: ProblemGeometry, m_max: int, rho) -> _Plan:
    """The ring rows of rho for g's spectrum to m_max: plan's where k, the
    J horizon and rho match it bitwise (a ring row depends on its argument
    and horizon alone), else one bessel_j_table call."""
    h = _j_horizon(g.kappa0, m_max)
    if (plan is not None and plan.k == g.k and plan.horizon == h
            and np.array_equal(plan.rho, rho)):
        return plan
    return _Plan(g.k, h, rho, bessel_j_table(h, g.k * rho))


def psi_eval(m: int, g: ProblemGeometry, rho, theta):
    """Right singular function psi_m at polar points of the source disk.

    rho and theta broadcast against each other. Requires an integer m,
    |rho| <= R0 and a nondegenerate mode (A_{|m|}(kappa0) > 0). One
    bessel_j_table call gives J at kappa0 to _j_horizon, as a_m reads it,
    and J_{|m|} at the distinct radii; _psi_radial does the rest.
    """
    m = _check_count(m, "mode order must be an integer", -math.inf)
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(rho < 0.0) or np.any(rho > g.R0 * (1.0 + 1e-12)):
        raise ValueError("psi_eval points must lie in the source disk")
    n = abs(m)
    radii, at = np.unique(g.k * rho, return_inverse=True)
    j = bessel_j_table(np.r_[_j_horizon(g.kappa0, n), np.full(radii.size, n)],
                       np.r_[g.kappa0, radii])
    a = _a_from_row(j[0], np.arange(n + 1), g.kappa0)
    if a[n] == 0.0:
        raise ArithmeticError(
            f"mode m={m} is degenerate at kappa0={g.kappa0:g} (A_m = 0)")
    radial = _psi_radial([m], j[1:], a, g.R0)[at, 0].reshape(rho.shape)
    out = radial * np.exp(1j * m * theta)
    return complex(out) if out.ndim == 0 else out


def _psi_radial(ms, rings, a, R0: float) -> np.ndarray:
    """Radial factors J_m(k rho_i) / (sqrt(pi) R0 A_m) of nondegenerate
    modes psi_m, (n_r, len(ms)), from the ring rows rings[i, |m|] =
    J_|m|(k rho_i) and A row a[|m|], both reaching max |m|, and
    J_{-m} = (-1)^m J_m; psi_eval and the modal transform both read it.
    Within 1e-12 of each column's largest entry of jv."""
    ms = np.asarray(ms)
    sign = np.where((ms < 0) & (ms % 2 == 1), -1.0, 1.0)
    return (rings[:, np.abs(ms)] * sign
            / (math.sqrt(math.pi) * R0 * a[np.abs(ms)]))


def _psi_synthesize(w, ms, radial, n_theta: int) -> np.ndarray:
    """sum_m w_m psi_m at (rho_i, 2 pi j / n_theta). Mode m lands in FFT bin
    m mod n_theta, and no two modes of ms may share a bin: for
    ms = -N .. N that is n_theta >= 2N + 1, which tsvd_reconstruct checks."""
    bins = np.zeros((len(radial), n_theta), dtype=complex)
    bins[:, np.asarray(ms) % n_theta] = radial * w
    return np.fft.ifft(bins, axis=1, norm="forward")


def _psi_project(P, ms, radial) -> np.ndarray:
    """sum_ij P_ij conj(psi_m(rho_i, 2 pi j / n_theta)) for every m.

    radial comes from the F-ordered bessel_j_table, so the product is
    column-major and np.sum(axis=0) adds pairwise along the rings of each
    column. A C-ordered product sums in another order and changes the
    last bits of the result.
    """
    F = np.fft.fft(P, axis=1)[:, np.asarray(ms) % P.shape[1]]
    return np.sum(radial * F, axis=0)


def _signed_phase(phase: np.ndarray, ms) -> np.ndarray:
    """arg H_m^(1) for every m in ms from the row phase of orders 0 .. max|m|.

    H_{-m} = (-1)^m H_m, so odd negative orders pick up a phase of pi.
    """
    ms = np.asarray(ms)
    ph = phase[np.abs(ms)]
    ph[(ms < 0) & (ms % 2 == 1)] += math.pi
    return ph


def phi_eval(m: int, g: ProblemGeometry, theta):
    """Left singular function phi_m at angles theta of the measurement circle."""
    m = _check_count(m, "mode order must be an integer", -math.inf)
    theta = np.asarray(theta, dtype=float)
    ph = float(_signed_phase(_spectrum_table(g, max(abs(m), 1)).phase,
                             [m])[0])
    out = np.exp(1j * (ph + m * theta)) / math.sqrt(2.0 * math.pi * g.R)
    return complex(out) if out.ndim == 0 else out
