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

from .specfun import (_HANKEL_FROM, _NEUMANN_TOP, _ZERO_BLOCK, _bessel_tables,
                      _check_count, _y_table, bessel_j_table, hankel_arg,
                      hankel_log_abs2)

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

    Accepts an order or an array of orders for m, each by the count rule
    (_check_count): 3, np.int64(3) and 3.0 pass, 2.5 raises ValueError.
    """
    if not (math.isfinite(kappa0) and kappa0 > 0.0):
        raise ValueError(f"kappa0 must be positive, got {kappa0!r}")
    marr = np.abs(np.array(
        [_check_count(v, "mode orders must be integers", -math.inf)
         for v in np.ravel(m)], dtype=int).reshape(np.shape(m)))
    hi = int(marr.max()) if marr.size else 0
    out = _a_from_row(bessel_j_table(_j_horizon(kappa0, hi), kappa0), marr,
                      kappa0)
    return float(out) if np.ndim(m) == 0 else out


@dataclass(frozen=True)
class SpectrumTable:
    """Per-mode singular data for m = 0 .. m_max: the rows of one Bessel pass.

    a holds A_m(kappa0), log_abs_h2 log|H_m^(1)(kappa)|^2 and phase
    arg H_m^(1)(kappa), the phase of phi_m, all of one length m_max + 1.
    m, m_max, log_sigma and sigma derive from them. sigma carries
    exp(log_sigma): inf on overflow and 0 on underflow; ranking and
    bandwidth logic must use log_sigma. build_spectrum returns a fresh
    table; the package shares read-only ones (_spectrum_table).
    """

    geometry: ProblemGeometry
    a: np.ndarray = field(repr=False)
    log_abs_h2: np.ndarray = field(repr=False)
    phase: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = np.shape(self.a)
        if len(shape) != 1 or not shape[0] or any(
                np.shape(getattr(self, name)) != shape for name in _COLUMNS):
            raise ValueError("a, log_abs_h2 and phase must be 1-D rows of "
                             "one length >= 1")

    m = property(lambda self: np.arange(len(self)))
    m_max = property(lambda self: len(self) - 1)
    log_sigma = property(
        lambda self: _log_sigma(self.geometry, self.a, self.log_abs_h2))

    def __len__(self) -> int:
        return len(self.a)

    @property
    def sigma(self) -> np.ndarray:
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(self.log_sigma)


# the rows a SpectrumTable stores
_COLUMNS = ("a", "log_abs_h2", "phase")


def _log_sigma(g: ProblemGeometry, a, log_abs_h2) -> np.ndarray:
    """log sigma_m = log(sqrt(2R) pi R0) + log|H_m|^2 / 2 + log A_m,
    -inf where A_m = 0."""
    const = 0.5 * math.log(2.0 * g.R) + math.log(math.pi) + math.log(g.R0)
    with np.errstate(divide="ignore"):
        return const + 0.5 * log_abs_h2 + np.log(a)


def _bessel_rows(gs, m_maxes, at_kappa0: bool = False) -> list[tuple]:
    """The Bessel rows of several geometries from one recurrence call.

    Entry p is (J at kappa0_p, J at kappa_p, Y mantissa and exponent at
    kappa_p to m_max_p), then with at_kappa0 (for bandwidth._reports) the
    Y mantissa and exponent at kappa0_p to ceil(kappa0_p) + 2. All J rows
    run to _j_horizon, with those that seed Y below x = 25 (Neumann's
    series), and every Y row from x = 25 on (Hankel's seeds) takes the
    same call, one lane per argument, run to the last order any geometry
    needs of it and 0 past it: one loop steps the J lanes down and the Y
    lanes up (specfun._recur). The Y rows below x = 25 need the finished
    seed rows, so they take one short Y call after it. Each row depends on
    its own argument and horizon alone, so a geometry gets the same bits
    in a batch as on its own, and its Y rows are bessel_y_table's up to
    the orders needed.
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
    near = [x for x in y_last if x < _HANKEL_FROM]
    far = [x for x in y_last if x >= _HANKEL_FROM]
    seed_lanes = [j_lanes.setdefault((x, _NEUMANN_TOP), len(j_lanes))
                  for x in near]
    x, h = zip(*j_lanes)
    j, y, e = _bessel_tables(
        np.array(h), np.array(x),
        np.array([y_last[c] for c in far], dtype=np.int64),
        np.array(far, dtype=float))
    y_rows = dict(zip(far, zip(y, e)))
    if near:
        y_rows.update(zip(near, zip(*_y_table(
            np.array([y_last[c] for c in near]), np.array(near),
            j[seed_lanes, :_NEUMANN_TOP + 1]))))
    return [(j[a], j[b], *(r for c in ys for r in y_rows[c]))
            for (a, b), ys in picks]


def _modal_rows(g: ProblemGeometry, m_max: int, rows):
    """A_m and log|H_m^(1)(kappa)|^2 for m = 0 .. m_max of g from its
    _bessel_rows entry; log sigma and sigma derive from them."""
    j0, j, y, e = rows[:4]
    n = m_max + 1
    return (_a_from_row(j0, np.arange(n), g.kappa0),
            hankel_log_abs2(j[:n], y[:n], e[:n]))


def _horizon(g: ProblemGeometry, m_max) -> int:
    """The spectrum horizon asked for, default_m_max(kappa0) if None."""
    if m_max is None:
        return default_m_max(g.kappa0)
    return _check_count(m_max, "m_max must be an integer of at least 1", 1)


def build_spectrum(g: ProblemGeometry, m_max: int | None = None) -> SpectrumTable:
    """Assemble the spectrum rows m = 0 .. m_max for one geometry, from
    one Bessel pass with one lane per argument."""
    m_max = _horizon(g, m_max)
    rows = _bessel_rows([g], [m_max])[0]
    _, j, y, e = rows[:4]
    n = m_max + 1
    return SpectrumTable(g, *_modal_rows(g, m_max, rows),
                         phase=hankel_arg(j[:n], y[:n], e[:n]))


# Tables _memo_table keeps, one per (geometry, J horizon), least recently
# used out first. At three stored 8-byte columns per row a default-horizon
# table at kappa0 = 1000 (1071 rows) takes 26 KB, and a full memo of them
# 1.6 MB.
_SPECTRUM_MEMO = 64


@functools.lru_cache(maxsize=_SPECTRUM_MEMO)
def _memo_table(g: ProblemGeometry, h: int) -> SpectrumTable:
    table = build_spectrum(g, h - 1)
    for name in _COLUMNS:
        getattr(table, name).flags.writeable = False
    return table


def _spectrum_table(g: ProblemGeometry, m_max: int) -> SpectrumTable:
    """Rows m = 0 .. m_max >= 0 of the memoized table of g to
    _j_horizon(kappa0, m_max) - 1, stored rows read-only; bitwise
    build_spectrum(g, m_max), since a J row depends on its argument and
    horizon alone and a longer Y row extends a shorter one bit for bit
    (m_max = 0: the first row of m_max = 1). Read by the maps, phi_eval
    and pick_truncation."""
    table = _memo_table(g, _j_horizon(g.kappa0, m_max))
    return replace(table, **{name: getattr(table, name)[:m_max + 1]
                             for name in _COLUMNS})


# Ring tables _memo_rings keeps, least recently used out first. An entry
# takes n_r (h + 1) 8 bytes: 0.77 MB for 256 rings to h = 377 (kappa0 =
# 100 pi), 4.8 MB for the 556 rings of a default reconstruct at kappa0 = 1000.
_RING_MEMO = 4


@functools.lru_cache(maxsize=_RING_MEMO)
def _memo_rings(h: int, x: bytes) -> np.ndarray:
    rings = bessel_j_table(h, np.frombuffer(x))
    rings.flags.writeable = False
    return rings


def _planned(g: ProblemGeometry, m_max: int, rho) -> np.ndarray:
    """Ring rows J_m(k rho_i), m = 0 .. _j_horizon(kappa0, m_max), read-only
    from a memo keyed by that horizon and the bytes of k rho; bitwise
    bessel_j_table's (a row depends on its argument and horizon alone)."""
    return _memo_rings(_j_horizon(g.kappa0, m_max),
                       (g.k * np.asarray(rho, dtype=float)).tobytes())


def _ring_column(g: ProblemGeometry, m: int, radii: np.ndarray) -> np.ndarray:
    """Column m of _planned(g, m, radii), bit for bit (a row depends on its
    argument and horizon alone); past a _ZERO_BLOCK-entry table, a chunk of
    radii at a time and outside the memo, which keeps nothing."""
    h = _j_horizon(g.kappa0, m)
    step = max(1, _ZERO_BLOCK // (h + 1))
    if radii.size <= step:
        return _planned(g, m, radii)[:, m]
    column = np.empty(radii.size)
    for i in range(0, radii.size, step):
        column[i:i + step] = bessel_j_table(h, g.k * radii[i:i + step])[:, m]
    return column


def psi_eval(m: int, g: ProblemGeometry, rho, theta):
    """Right singular function psi_m at polar points of the source disk.

    rho and theta broadcast against each other. Requires an integer m,
    finite points with |rho| <= R0 and A_{|m|}(kappa0) > 0. A and the
    ring rows of the distinct radii come from the maps' memos
    (_spectrum_table, _ring_column): the radial factor is the column
    J_|m|(k rho_i) divided by (-1)^m sqrt(pi) R0 A_|m| for odd negative m
    (J_{-m} = (-1)^m J_m) and by sqrt(pi) R0 A_|m| otherwise, the sign in
    the divisor (exact). Within 1e-12 of the column's largest entry of jv.
    """
    m = _check_count(m, "mode order must be an integer", -math.inf)
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if not (np.all((rho >= 0.0) & (rho <= g.R0 * (1.0 + 1e-12)))
            and np.all(np.isfinite(theta))):
        raise ValueError("psi_eval points must be finite and in the disk")
    a = _spectrum_table(g, abs(m)).a
    if a[abs(m)] == 0.0:
        # A_m > 0 for every kappa0 > 0 by Turan's inequality
        # J_m^2 - J_{m-1} J_{m+1} > 0; a 0 here is underflow
        raise ArithmeticError(
            f"A_m of mode m={m} underflows to 0 in double precision at "
            f"kappa0={g.kappa0:g}")
    radii, at = np.unique(rho, return_inverse=True)
    sign = -1.0 if m < 0 and m % 2 else 1.0
    radial = (_ring_column(g, abs(m), radii)
              / (sign * (math.sqrt(math.pi) * g.R0 * a[abs(m)])))
    out = radial[at].reshape(rho.shape) * np.exp(1j * m * theta)
    return complex(out) if out.ndim == 0 else out


def _psi_synthesize(w, half, n_theta: int) -> np.ndarray:
    """sum_m w_m psi_m at (rho_i, 2 pi j / n_theta) for m = -N .. N, the
    entries of w, from the half-width radial table half[i, m] =
    J_m(k rho_i) / (sqrt(pi) R0 A_m), m = 0 .. N, with n_theta >= 2N + 1
    (tsvd_reconstruct checks it). psi_{-m} is (-1)^m psi_m's radial factor
    times e^{-im theta}, so modes 0 .. N fill FFT bins 0 .. N from half and
    -N .. -1 fill bins n_theta - N .. n_theta - 1 from half[:, N:0:-1],
    two contiguous blocks, with the sign of odd negative orders on w (an
    exact negation); the inverse FFT then runs in place on those bins."""
    N = len(w) // 2
    neg = np.where((N - np.arange(N)) % 2 == 1, -w[:N], w[:N])
    bins = np.zeros((len(half), n_theta), dtype=complex)
    np.multiply(half, w[N:], out=bins[:, :N + 1])
    np.multiply(half[:, N:0:-1], neg, out=bins[:, n_theta - N:])
    return np.fft.ifft(bins, axis=1, norm="forward", out=bins)


# Bytes of FFT output _psi_project makes per block of rows (40 rows of 800
# angles, 15 of 2142), so the projection never holds a full-grid FFT. A
# block of 1 MiB brought minor page faults back into the warm forward.
_PROJECT_BLOCK = 1 << 19


def _psi_project(P, M: int, half) -> np.ndarray:
    """sum_ij P_ij half[i, |m|] e^{-2 pi i m j / n_theta} for m = -M .. M,
    from the half-width table half of the orders 0 .. M: the projections on
    half[:, |m|] e^{im theta}, the same column for m and -m.

    The FFT along each row runs over blocks of rows, about _PROJECT_BLOCK
    bytes of output at a time, and each block's columns m mod n_theta go
    straight into one (n_r, 2M + 1) buffer. A row's FFT does not depend
    on the rows beside it, so the buffer holds the bits of the gathered
    whole-grid FFT. Its columns m >= 0 are multiplied by half and m < 0 by
    half[:, M:0:-1], in place. The buffer is F-ordered, so np.sum(axis=0)
    adds pairwise along the rings of each column and the bits do not
    change. A C-ordered product sums in another order and changes the
    last bits of the result.
    """
    n_r, n = P.shape
    cols = np.arange(-M, M + 1) % n
    F = np.empty((n_r, len(cols)), dtype=complex, order="F")
    step = max(1, _PROJECT_BLOCK // (16 * n))
    for i in range(0, n_r, step):
        F[i:i + step] = np.fft.fft(P[i:i + step], axis=1)[:, cols]
    np.multiply(half, F[:, M:], out=F[:, M:])
    np.multiply(half[:, M:0:-1], F[:, :M], out=F[:, :M])
    return np.sum(F, axis=0)


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
    if not np.all(np.isfinite(theta)):
        raise ValueError("phi_eval points must be finite")
    ph = float(_signed_phase(_spectrum_table(g, abs(m)).phase, [m])[0])
    out = np.exp(1j * (ph + m * theta)) / math.sqrt(2.0 * math.pi * g.R)
    return complex(out) if out.ndim == 0 else out
