"""Independent reference evaluations that the test suite checks the
library against. Nothing in the package imports this module."""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy import integrate, special

from ispband import singular_system as ss
from ispband.bandwidth import _TIE_TOL
from ispband.forward import _scaled_abs, source_grid
from ispband import specfun as sf
from ispband.specfun import _check_count, _check_order


def _first_zero(kind: str, m, m0_bracket: tuple, top) -> float:
    """First positive zero of scipy's jv (kind "J") or yv ("Y") of order
    m, bisected on m0_bracket for m = 0 and on [m, top(m)] above until
    the ends are adjacent doubles; the bracket must hold exactly one
    zero. The package bisects its own tables on the same brackets."""
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
    """j_{m,1} by bisecting scipy's jv, independent of the package's
    Bessel tables, to 1e-11 absolute or better for m <= 1e4."""
    return _first_zero("J", m, (2.0, 3.0), lambda m: (
        m + sf.A_MINUS * m**(1.0 / 3.0) + 1.0331 * m**(-1.0 / 3.0) + 1.5))


@lru_cache(maxsize=None)
def first_zero_y(m) -> float:
    """y_{m,1} by bisecting scipy's yv, as first_zero_j."""
    return _first_zero("Y", m, (0.5, 1.5),
                       lambda m: m + sf.A_PLUS * m**(1.0 / 3.0) + 1.2)


def zero_threshold_bound(kappa0: float, zero_of) -> int:
    """Smallest m with zero_of(m) >= kappa0 - _TIE_TOL: B_- with
    zero_of = first_zero_j, B_+ with first_zero_y, by the definition.

    zero_of(m) is strictly increasing in m and exceeds m itself, so the
    predicate is monotone and m = ceil(kappa0) is always a witness;
    bisect below it.
    """
    def hit(m: int) -> bool:
        return zero_of(m) >= kappa0 - _TIE_TOL

    lo, hi = 0, int(math.ceil(kappa0)) + 1
    if hit(lo):
        return 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if hit(mid):
            hi = mid
        else:
            lo = mid
    return hi


def nicholson_abs2_oracle(m, x, rtol: float = 1e-11) -> float:
    """log|H_m^(1)(x)|^2 through the K_0 integral representation.

    Evaluates log of (8/pi^2) * int_0^inf K_0(2 x sinh t) cosh(2 m t) dt
    by factoring the integrand's peak out of the exponent and applying
    adaptive quadrature to the normalized remainder. Entirely independent
    of the library's recurrence/direct route, which is the point: it exists as
    a cross-check, not as a production path.

    Raises
    ------
    ArithmeticError
        if the quadrature does not reach the requested tolerance; the
        message reports the tolerance actually achieved.
    """
    m = _check_order(m)
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"argument must be a positive finite real, got {x!r}")

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


def psi_oracle(m: int, g, rho, theta):
    """psi_m(rho, theta) = J_m(k rho) e^{i m theta} / (sqrt(pi) R0 A_m),
    with A_m = sqrt(J_m^2 - J_{m-1} J_{m+1}) at kappa0 and every Bessel
    value from scipy's jv at the signed order itself."""
    j = [special.jv(m + d, g.kappa0) for d in (-1, 0, 1)]
    a = math.sqrt(j[1] ** 2 - j[0] * j[2])
    return (special.jv(m, g.k * np.asarray(rho))
            * np.exp(1j * m * np.asarray(theta))
            / (math.sqrt(math.pi) * g.R0 * a))


def psi_radial_out_of_place(ms, rings, a, R0: float) -> np.ndarray:
    """The radial table J_m(k rho_i) / (sqrt(pi) R0 A_m) as a sign product
    and a quotient, each on a fresh array."""
    ms = np.asarray(ms)
    sign = np.where((ms < 0) & (ms % 2 == 1), -1.0, 1.0)
    return (rings[:, np.abs(ms)] * sign
            / (math.sqrt(math.pi) * R0 * a[np.abs(ms)]))


def psi_synthesize_out_of_place(w, ms, radial, n_theta: int) -> np.ndarray:
    """sum_m w_m psi_m on the angles 2 pi j / n_theta: each mode scattered
    into bin m mod n_theta by a fancy-index assignment, then an inverse FFT
    into a fresh array. Any ms whose modes have bins of their own."""
    bins = np.zeros((len(radial), n_theta), dtype=complex)
    bins[:, np.asarray(ms) % n_theta] = radial * w
    return np.fft.ifft(bins, axis=1, norm="forward")


def psi_project_out_of_place(P, ms, radial) -> np.ndarray:
    """sum_ij P_ij conj(psi_m) for every m of ms, from a fresh product of
    radial and the gathered FFT columns."""
    F = np.fft.fft(P, axis=1)[:, np.asarray(ms) % P.shape[1]]
    return np.sum(radial * F, axis=0)


def forward_out_of_place(s, modes: int, n_s: int) -> np.ndarray:
    """Boundary values of apply_forward_analytic(s, modes, n_s) on fresh
    arrays: Graf's series sum_m H_|m|(kappa) (s, J_|m|(k .) e^{im .})
    e^{im theta}, with a zero term wherever the coefficient is 0; H_m,
    the ring rows and the projection from the package."""
    g = s.geometry
    table = ss._spectrum_table(g, modes)
    ms = np.arange(-modes, modes + 1)
    weight = s.radial_weights * s.rho * (2.0 * math.pi / s.n_theta)
    coef = psi_project_out_of_place(
        s.values, ms,
        weight[:, None] * ss._planned(g, modes, s.rho)[:, np.abs(ms)])
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.exp(0.5 * table.log_abs_h2[np.abs(ms)]
                   + 1j * table.phase[np.abs(ms)])
        terms = np.where(coef == 0.0, 0.0, h * coef)
    bins = np.zeros(n_s, dtype=complex)
    np.add.at(bins, ms % n_s, terms)
    return np.fft.ifft(bins, norm="forward")


def forward_singular_system(s, modes: int, n_s: int) -> np.ndarray:
    """Boundary values of the forward map as sum_m sigma_|m| (s, psi_m)
    phi_m, through the radial table of psi_m and the signed phase of
    phi_m, for a geometry with no degenerate mode up to modes."""
    g = s.geometry
    table = ss._spectrum_table(g, modes)
    ms = np.arange(-modes, modes + 1)
    weight = s.radial_weights * s.rho * (2.0 * math.pi / s.n_theta)
    radial = psi_radial_out_of_place(ms, ss._planned(g, modes, s.rho),
                                     table.a, g.R0)
    coef = psi_project_out_of_place(s.values, ms, weight[:, None] * radial)
    bins = np.zeros(n_s, dtype=complex)
    np.add.at(bins, ms % n_s, table.sigma[np.abs(ms)] * coef
              * np.exp(1j * ss._signed_phase(table.phase, ms))
              / math.sqrt(2.0 * math.pi * g.R))
    return np.fft.ifft(bins, norm="forward")


def tsvd_out_of_place(c, N: int, n_r: int, n_theta: int):
    """(values, residual) of tsvd_reconstruct(c, N, n_r=n_r,
    n_theta=n_theta) on the out-of-place expressions above, for nonzero
    retained coefficients and sigma_m > 0."""
    g = c.geometry
    ms = np.arange(-N, N + 1)
    cm = c.c[ms + c.m_max]
    grid = source_grid(g, n_r, n_theta)
    table = ss._spectrum_table(g, N)
    radial = psi_radial_out_of_place(ms, ss._planned(g, N, grid.rho),
                                     table.a, g.R0)
    values = psi_synthesize_out_of_place(cm / table.sigma[np.abs(ms)], ms,
                                         radial, n_theta)
    norms = 2.0 * math.pi * ((grid.radial_weights * grid.rho) @ radial**2)
    a = _scaled_abs(cm)[0]
    residual = math.sqrt(float(np.sum((a * (norms - 1.0))**2))
                         / float(np.sum(a**2)))
    return values, residual


_PER_CELL = {int: lambda v: str(int(v)), float: lambda v: format(float(v), ".17g"),
             str: str}


def per_cell_csv(columns, rows, meta: dict | None = None) -> str:
    """A CSV formatted one cell at a time: an optional `# key=value ...`
    line, the header, then one `",".join` per row, each int cell as
    str(int(v)), each float as format(float(v), ".17g"), each text as is.
    columns is a sequence of (header name, kind) pairs."""
    lines = [] if meta is None else [
        "# " + " ".join(f"{k}={_PER_CELL[type(v)](v)}" for k, v in meta.items())]
    lines.append(",".join(name for name, _ in columns))
    fmts = [_PER_CELL[kind] for _, kind in columns]
    lines += [",".join(f(v) for f, v in zip(fmts, row)) for row in rows]
    return "\n".join(lines) + "\n"


def per_line_read(fh, columns, meta: bool = False):
    """(metadata dict of strings or None, one packed array or list per
    column) of a CSV read one line at a time: blank lines skipped, every
    other line split on commas and converted field by field."""
    from array import array
    cols = [array("q") if kind is int else array("d") if kind is float
            else [] for _, kind in columns]
    info = None
    if meta:
        line = fh.readline().rstrip("\n")
        info = dict(tok.partition("=")[::2] for tok in line[2:].split())
    assert fh.readline().strip() == ",".join(name for name, _ in columns)
    for line in fh:
        fields = line.strip().split(",")
        if fields == [""]:
            continue
        assert len(fields) == len(columns)
        for col, (_, kind), val in zip(cols, columns, fields):
            col.append(kind(val))
    return info, cols


def miller_rows_reference(orders: np.ndarray, x: np.ndarray,
                          top: int) -> np.ndarray:
    """specfun._miller_rows as a loop of out-of-place steps: each step
    makes f_{m-1} on a fresh array from a fresh 2m/x row and copies f_m
    into the table. The in-place pass must match it bit for bit."""
    tiny = x < sf._SERIES_BELOW
    step_x = np.where(tiny, 1.0, x)
    joins: dict[int, list[int]] = {}
    for i, (order, xi, t) in enumerate(zip(orders.tolist(), x.tolist(),
                                           tiny.tolist())):
        if not t:
            joins.setdefault(sf._miller_start(max(order, xi)), []).append(i)
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
        if bound > sf._RESCALE_AT:
            af = np.abs(f)
            big = af > sf._RESCALE_AT
            if big.any():
                i = np.flatnonzero(big)
                a = af[i]
                f[i] /= a
                f_up[i] /= a
                even_sum[i] /= a
                rows[m:, i] /= a
                bound = sf._RESCALE_AT
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


def j_table_reference(orders: np.ndarray, x: np.ndarray) -> np.ndarray:
    """bessel_j_table(orders, x) for flat x: the out-of-place pass floored
    with whole-table masks, entries below _J_FLOOR and past each
    argument's own order set to 0."""
    top = int(orders.max())
    rows = miller_rows_reference(orders, x, top)
    rows[(np.abs(rows) < sf._J_FLOOR)
         | (np.arange(top + 1)[:, None] > orders)] = 0.0
    return rows.T


def y_table_reference(m_max, x, neumann_j=None) -> tuple[np.ndarray,
                                                         np.ndarray]:
    """specfun._y_table as a loop of out-of-place steps: each step makes
    Y_{m+1} on a fresh array from a fresh 2m/x row and copies it into a
    column of the (arguments, orders) table. The in-place pass must match
    it bit for bit."""
    x, flat, orders, top = sf._lanes(m_max, x)
    if not np.all(np.isfinite(flat) & (flat > 0.0)):
        raise ValueError("arguments must be positive finite reals")
    y = np.empty((flat.size, top + 1))
    e = np.zeros((flat.size, top + 1), dtype=np.int64)     # steps, then sums
    seeds = sf._y_seeds(flat, neumann_j)
    y[:, 0] = seeds[0]
    limit = sf._RESCALE_AT * np.minimum(1.0, flat)
    growth = 2.0 / float(flat.min()) if flat.size else 0.0
    bound = math.inf
    y_lo, y_hi = seeds
    ends: dict[int, list[int]] = {}     # order -> lanes that end before it
    for i, order in enumerate(orders.tolist()):
        ends.setdefault(order + 1, []).append(i)
    rescaled = False
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, top + 1):
            if m > 1:
                y_lo, y_hi = y_hi, (2.0 * (m - 1) / flat) * y_hi - y_lo
                bound *= growth * (m - 1) + 1.0
            if m in ends:               # a zero pair stays zero
                y_hi[ends[m]] = 0.0
                y_lo[ends[m]] = 0.0
            if bound > 1.0:
                big = np.abs(y_hi) > limit
                if big.any():
                    i = np.flatnonzero(big)
                    k = np.frexp(y_hi[i])[1]
                    y_hi[i] = np.ldexp(y_hi[i], -k)
                    y_lo[i] = np.ldexp(y_lo[i], -k)
                    e[i, m] = k
                    rescaled = True
                r = np.maximum(np.abs(y_hi), np.abs(y_lo)) / limit
                bound = float(r.max(initial=0.0, where=np.isfinite(r)))
            y[:, m] = y_hi
    if rescaled:                        # else e stays untouched zeros
        np.cumsum(e, axis=1, out=e)
    shape = x.shape + (top + 1,)
    return y.reshape(shape), e.reshape(shape)


def gauss_legendre_reference(n: int, estimates) -> tuple[list, list]:
    """The n-point Gauss-Legendre nodes nearest each estimate, and their
    weights 2 / ((1 - x^2) P_n'(x)^2), in 40-digit mpmath.

    P_n and P_n' come from the three-term recurrence and P_n' = n (P_{n-1}
    - x P_n) / (1 - x^2). Newton steps run until one moves the node by at
    most 1e-14, after which it is right to far more digits than a double
    holds; P_n' at the moved node adds its Taylor term, with P_n'' from
    Legendre's equation.
    """
    nodes, weights = [], []
    with mp.workdps(40):
        for estimate in estimates:
            x = mp.mpf(float(estimate))
            while True:
                p_prev, p = mp.mpf(1), x
                for k in range(1, n):
                    p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
                one_minus_x2 = 1 - x * x
                dp = n * (p_prev - x * p) / one_minus_x2
                step = -p / dp
                x += step
                if abs(step) <= 1e-14:
                    break
            dp += step * (2 * (x - step) * dp - n * (n + 1) * p) / one_minus_x2
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


# Fourier content of the smooth kernel parts past their band, relative to
# the largest coefficient of the same ring, that the fine grid may leave
_KERNEL_TAIL_TOL = 1e-10


def _kernel_band(kappa: float) -> int:
    """Order past which J_0(k d) and S carry no content in double precision.

    On a ring of radius rho <= R their Fourier coefficients behave like
    J_q(kappa) J_q(k rho), which falls below 1e-14 of its peak near
    q = kappa + 6.5 kappa^(1/3); the bound adds margin on both terms.
    """
    return int(math.ceil(kappa + 8.0 * kappa ** (1.0 / 3.0))) + 16


def _ring_coefficients(g, rho: np.ndarray, band: int) -> np.ndarray:
    """Fourier coefficients h_q(rho) of H_0^(1)(k|R - rho e^{it}|) in t.

    Returns shape (len(rho), 2 band + 1) for q = -band .. band; every rho
    must lie strictly inside R. The coefficients come from the log-kernel
    split of Colton & Kress, Inverse Acoustic and Electromagnetic
    Scattering Theory, section 3.5:

        H_0^(1)(k d) = (2i/pi) J_0(k d) log(d / R) + S(t),
        d = |R - rho e^{it}|,

    where J_0(k d) and S are analytic in t and resolved by an FFT on a
    fine angular grid whose length follows from kappa, and log(d / R)
    enters through its exact Laplace series
    -sum_{n != 0} (rho/R)^|n| e^{int} / (2|n|). Rings close to the
    measurement circle, where the point kernel's log singularity is too
    sharp for the angular grid, are thereby integrated exactly in angle.

    Raises
    ------
    ArithmeticError
        if the fine grid leaves more than _KERNEL_TAIL_TOL of a ring's
        smooth kernel content past the derived band.
    """
    p_band = _kernel_band(g.kappa)
    n_fine = 1 << (2 * max(p_band, band) + 32).bit_length()
    t = 2.0 * math.pi * np.arange(n_fine) / n_fine
    r = rho[:, None] / g.R
    # d / R, written without the cancellation of 1 + r^2 - 2 r cos t
    d = np.sqrt((1.0 - r)**2 + 4.0 * r * np.sin(0.5 * t)**2)
    j0 = special.j0(g.kappa * d)
    j0_hat = np.fft.fft(j0, axis=1) / n_fine
    s_hat = np.fft.fft(special.hankel1(0, g.kappa * d)
                       - (2j / math.pi) * j0 * np.log(d), axis=1) / n_fine
    idx = np.arange(n_fine)
    beyond = np.minimum(idx, n_fine - idx) > p_band
    for c in (j0_hat, s_hat):
        tail = (np.abs(c[:, beyond]).max(axis=1)
                / np.abs(c).max(axis=1))
        if np.any(tail > _KERNEL_TAIL_TOL):
            raise ArithmeticError(
                f"kernel content past order {p_band} reaches "
                f"{tail.max():.1e} on a {n_fine}-point angular grid at "
                f"kappa={g.kappa:g}")
    # J_0(k d) log(d / R): convolve J_0's coefficients with the Laplace
    # series of log|1 - r e^{it}|, -r^|n| / (2|n|) for n != 0
    n = np.abs(np.arange(-(p_band + band), p_band + band + 1))
    laplace = np.where(n == 0, 0.0, -0.5 * r**n / np.maximum(n, 1))
    width = 4 * p_band + 2 * band + 1
    j0_band = j0_hat[:, np.arange(-p_band, p_band + 1) % n_fine]
    log_part = np.fft.ifft(np.fft.fft(j0_band, width, axis=1)
                           * np.fft.fft(laplace, width, axis=1), axis=1)
    q = np.arange(-band, band + 1)
    return (s_hat[:, q % n_fine]
            + (2j / math.pi) * log_part[:, q + band + 2 * p_band])


def assemble_forward(g, n_r, n_theta, n_s) -> np.ndarray:
    """Symmetrically weighted collocation matrix of the forward operator,
    one boundary sample per row and one source node of
    source_grid(g, n_r, n_theta) per column, the nodes flattened
    row-major over (rho, theta).

    Entry (j, i) is sqrt(w_j) K_a(phi_j - theta_l) sqrt(w_i), with w_j =
    2 pi R / n_s the boundary arc weight, w_i the grid's area weight of
    node i = (a, l) and

        K_a(t) = sum_{|q| <= Q} h_q(rho_a) e^{iqt},
        Q = (min(n_theta, n_s) - 1) // 2,

    the kernel H_0^(1)(k|x - y|) on ring a cut to the orders both angular
    grids resolve, with the exact coefficients h_q of _ring_coefficients.
    The weights make the matrix's ordinary SVD approximate the continuous
    operator's singular system. Away from the rim K_a agrees with the
    point kernel up to the truncated tail, of size (rho_a / R)^Q / Q.
    """
    n_s = _check_count(n_s, "grid sizes must be integers")
    grid = source_grid(g, n_r, n_theta)
    n_r, n_theta = grid.n_r, grid.n_theta
    if n_r < 8:
        raise ValueError("n_r must be at least 8")
    if n_theta < 2 * math.ceil(g.kappa0) + 16:
        raise ValueError(
            f"n_theta={n_theta} undersamples the source disk; "
            f"need at least {2 * math.ceil(g.kappa0) + 16}")
    if n_s < 2 * math.ceil(g.kappa) + 16:
        raise ValueError(
            f"n_s={n_s} undersamples the boundary; "
            f"need at least {2 * math.ceil(g.kappa) + 16}")
    band = (min(n_theta, n_s) - 1) // 2
    q = np.arange(-band, band + 1)
    h = _ring_coefficients(g, grid.rho, band)
    # (order, ring, angle) factor of every column, then one product over q
    right = (h.T[:, :, None]
             * np.exp(-1j * np.outer(q, grid.theta))[:, None, :]
             * np.sqrt(grid.area_weights)[None, :, :])
    bangles = 2.0 * math.pi * np.arange(n_s) / n_s
    wb = 2.0 * math.pi * g.R / n_s
    return math.sqrt(wb) * (np.exp(1j * np.outer(bangles, q))
                            @ right.reshape(len(q), n_r * n_theta))
