import math
import warnings
from dataclasses import fields, replace

import mpmath as mp
import numpy as np
import pytest
from scipy.special import hankel1, jv

import ispband as ib
from ispband import singular_system as ss
from oracles import assemble_forward, gauss_legendre_reference

TEN_PI = 10.0 * math.pi


def bump_kernel_source(g, rho, theta):
    """(Laplacian + k^2) of a radial bump supported inside the disk.

    Any source of this form radiates nothing outside the disk, so the
    forward operator must annihilate it up to quadrature error.
    """
    u = (rho / g.R0) ** 2
    f = np.exp(-1.0 / (1.0 - u))
    fp = -f / (1.0 - u) ** 2
    fpp = f / (1.0 - u) ** 4 - 2.0 * f / (1.0 - u) ** 3
    lap = fpp * (2.0 * rho / g.R0**2) ** 2 + fp * (4.0 / g.R0**2)
    return (lap + g.k**2 * f) * np.ones_like(theta)


def fresh_rule(n: int):
    """The Gauss-Legendre rule of n points computed afresh, past the
    cache of _gauss_legendre."""
    return ib.forward._gauss_legendre.__wrapped__(n)


class TestGaussLegendreRule:
    """The radial rule against 40-digit mpmath (oracles), with the bounds
    of the Newton rule: nodes to 2e-16, weights to 1e-13 relative up to
    n = 201 and 5e-12 at n = 556 (numpy's eigenvalue rule read 1.3e-9
    there), exact mirror symmetry, and a weight sum of 2 to 1e-15."""

    @pytest.mark.parametrize("n, w_rtol", [(8, 1e-13), (64, 1e-13),
                                           (201, 1e-13), (556, 5e-12)])
    def test_against_mpmath(self, n, w_rtol):
        x, w = ib.forward._gauss_legendre(n)
        half = slice(n // 2, n)      # x >= 0; the mirror is checked below
        ref_x, ref_w = gauss_legendre_reference(n, x[half])
        with mp.workdps(40):
            node_err = max(abs(mp.mpf(float(a)) - b)
                           for a, b in zip(x[half], ref_x))
            weight_err = max(abs(mp.mpf(float(a)) / b - 1)
                             for a, b in zip(w[half], ref_w))
        assert node_err <= 2e-16
        assert weight_err <= w_rtol
        assert np.all(np.diff(x) > 0.0)
        assert -1.0 < x[0] and x[-1] < 1.0

    @pytest.mark.parametrize("n", [2, 3, 8, 17, 64, 201, 256, 555, 556])
    def test_mirror_symmetric_and_sums_to_two(self, n):
        x, w = ib.forward._gauss_legendre(n)
        assert np.array_equal(x[::-1], -x)
        assert np.array_equal(w[::-1], w)
        if n % 2:
            assert x[n // 2] == 0.0
        assert abs(float(np.sum(w)) - 2.0) <= 1e-15
        assert np.all(w > 0.0)

    def test_unconverged_newton_raises(self, monkeypatch):
        # three passes converge at every n tried; one pass cannot
        monkeypatch.setattr(ib.forward, "_NEWTON_PASSES", 1)
        with pytest.raises(ArithmeticError, match="n=64 did not converge"):
            fresh_rule(64)

    def test_integrates_polynomials_of_degree_2n_minus_1(self):
        # x^k integrates to 2 / (k + 1) for even k and to 0 for odd k
        for n in (2, 5, 12):
            x, w = ib.forward._gauss_legendre(n)
            for k in range(2 * n):
                exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
                assert float(np.sum(w * x**k)) == pytest.approx(
                    exact, abs=1e-15)


class TestSourceGrid:
    def test_weights_integrate_disk_area(self, g_equal_10pi):
        for n_r, n_th in [(8, 16), (64, 128), (17, 33)]:
            grid = ib.source_grid(g_equal_10pi, n_r, n_th)
            area = math.pi * g_equal_10pi.R0**2
            assert abs(grid.area_weights.sum() - area) <= 1e-12 * area
            assert np.all(grid.radial_weights > 0.0)
            assert np.all((0.0 < grid.rho) & (grid.rho < g_equal_10pi.R0))

    def test_cached_rule_gives_same_bits(self, g_equal_10pi):
        # source_grid reads the rule of n_r rings from a cache; the grid it
        # builds is bitwise the one built from a fresh, uncached rule
        g = g_equal_10pi
        for n_r in (7, 64, 256):
            x, w = fresh_rule(n_r)
            for _ in range(2):
                grid = ib.source_grid(g, n_r, 4)
                assert np.array_equal(grid.rho, 0.5 * g.R0 * (x + 1.0))
                assert np.array_equal(grid.radial_weights, 0.5 * g.R0 * w)
                assert grid.rho.flags.writeable
        with pytest.raises(ValueError):
            ib.forward._gauss_legendre(64)[0][0] = 0.0

    def test_fill_function_broadcasts(self, g_equal_10pi):
        grid = ib.source_grid(g_equal_10pi, 6, 10,
                              fn=lambda r, t: r * np.exp(1j * t))
        assert grid.values.shape == (6, 10)
        assert grid.values[2, 3] == pytest.approx(
            grid.rho[2] * np.exp(1j * grid.theta[3]))

    def test_norm_of_unit_field(self, g_equal_10pi):
        grid = ib.source_grid(g_equal_10pi, 24, 48, fn=lambda r, t: 1.0 + 0j)
        area = math.pi * g_equal_10pi.R0**2
        assert grid.norm() == pytest.approx(math.sqrt(area), rel=1e-12)
        # the squares of 1e-160 are subnormal and those of 1e200 overflow;
        # a power-of-two scale comes out exactly
        for scale in (1e-160, 1e200, 2.0**-600):
            scaled = replace(grid, values=scale * grid.values)
            assert scaled.norm() == pytest.approx(scale * grid.norm(),
                                                  rel=1e-14)
        assert scaled.norm() == 2.0**-600 * grid.norm()

    def test_validation(self, g_equal_10pi):
        with pytest.raises(ValueError):
            ib.source_grid(g_equal_10pi, 1, 10)

    def test_fields_are_geometry_and_values(self):
        assert [f.name for f in fields(ib.SourceField)] == [
            "geometry", "values"]

    @pytest.mark.parametrize("R0", [0.5, 1.0, 1e150])
    @pytest.mark.parametrize("n_r", [2, 8, 64, 201, 556])
    def test_derived_grid_is_the_rule_bitwise(self, R0, n_r):
        # the expressions source_grid stored before the grid was derived
        g = ib.ProblemGeometry(k=1.0 / R0, R0=R0, R=2.0 * R0)
        n_theta = 7
        s = ib.SourceField(g, np.zeros((n_r, n_theta), dtype=complex))
        x, w = fresh_rule(n_r)
        rho, wr = 0.5 * R0 * (x + 1.0), 0.5 * R0 * w
        theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
        area = np.outer(wr * rho, np.full(n_theta, 2.0 * math.pi / n_theta))
        for got in (s, ib.source_grid(g, n_r, n_theta)):
            assert (got.n_r, got.n_theta) == (n_r, n_theta)
            assert np.array_equal(got.rho, rho)
            assert np.array_equal(got.radial_weights, wr)
            assert np.array_equal(got.theta, theta)
            assert np.array_equal(got.area_weights, area)

    @pytest.mark.parametrize("shape", [(10,), (1, 10), (6, 1), (0, 4),
                                       (2, 3, 4)])
    def test_shape_refused(self, g_equal_10pi, shape):
        with pytest.raises(ValueError, match="n_r x n_theta"):
            ib.SourceField(g_equal_10pi, np.zeros(shape, dtype=complex))

    def test_disk_area_out_of_range_refused(self):
        # pi R0**2 once raised a bare OverflowError from the area check
        g = ib.ProblemGeometry(k=1e-250, R0=1e250, R=1e250)
        with pytest.raises(ValueError, match="R0=1e"):
            ib.SourceField(g, np.zeros((8, 16), dtype=complex))
        with pytest.raises(ValueError, match="R0=1e"):
            ib.source_grid(g, 8, 16)
        with pytest.raises(ValueError, match="R0=1e"):
            assemble_forward(g, 8, 32, 32)
        big = ib.source_grid(ib.ProblemGeometry(k=1e-150, R0=1e150,
                                                R=1e150), 8, 16)
        assert 0.0 < big.area_weights.sum() < math.inf


class TestBoundaryData:
    def test_angles_and_norm(self, g_equal_10pi):
        bd = ib.BoundaryData(geometry=g_equal_10pi,
                             values=np.ones(20, dtype=complex))
        assert bd.theta[1] == pytest.approx(2.0 * math.pi / 20)
        circ = 2.0 * math.pi * g_equal_10pi.R
        assert bd.norm() == pytest.approx(math.sqrt(circ), rel=1e-12)
        for scale in (1e-160, 1e200):
            scaled = ib.BoundaryData(geometry=g_equal_10pi,
                                     values=scale * bd.values)
            assert scaled.norm() == pytest.approx(scale * bd.norm(), rel=1e-14)
        with pytest.raises(ValueError):
            ib.BoundaryData(geometry=g_equal_10pi,
                            values=np.ones(4, dtype=complex),
                            noise_level=-0.1)

    @pytest.mark.parametrize("values, noise", [
        ([1.0, complex(math.nan, 0.0)], 0.0), ([1.0, math.inf], 0.0),
        ([1.0, 2.0], math.nan), ([1.0, 2.0], math.inf)])
    def test_non_finite_refused(self, g_equal_10pi, values, noise):
        with pytest.raises(ValueError, match="finite"):
            ib.BoundaryData(geometry=g_equal_10pi,
                            values=np.array(values, dtype=complex),
                            noise_level=noise)

    def test_empty_trace_refused(self, g_equal_10pi):
        # an empty trace once built and then raised ZeroDivisionError in
        # norm()
        with pytest.raises(ValueError, match="at least one sample"):
            ib.BoundaryData(geometry=g_equal_10pi, values=np.array([]))

    @pytest.mark.parametrize("width", [1, 3])
    def test_values_not_one_dimensional_refused(self, g_equal_10pi, width):
        # an (n, 1) column once went through modal_decompose as a 21 x 21
        # table of garbage coefficients
        values = np.exp(0.1j * np.arange(100))
        with pytest.raises(ValueError, match="one-dimensional"):
            ib.BoundaryData(geometry=g_equal_10pi,
                            values=np.repeat(values[:, None], width, axis=1))

    @pytest.mark.parametrize("noise", [math.nan, math.inf])
    def test_measurement_refuses_non_finite_noise(self, g_equal_10pi, noise):
        grid = ib.source_grid(g_equal_10pi, 8, 8, fn=lambda r, t: r)
        with pytest.raises(ValueError, match="noise_level"):
            ib.synthesize_measurement(grid, noise, seed=0)


class TestAssembleForward:
    def test_preconditions(self, g_equal_10pi):
        g = g_equal_10pi
        need = 2 * math.ceil(g.kappa0) + 16
        with pytest.raises(ValueError):
            assemble_forward(g, 7, 128, 128)
        with pytest.raises(ValueError):
            assemble_forward(g, 8, need - 1, 128)
        with pytest.raises(ValueError):
            assemble_forward(g, 8, need, need - 1)

    def test_counts_are_refused_not_floored(self, g_equal_10pi, g_small_4):
        # (8.5, 80.2, 80.9) used to build an 80 x 640 matrix
        for sizes in ((8.5, 80, 80), (8, 80.2, 80), (8, 80, 80.9),
                      (8.5, 80.2, 80.9)):
            with pytest.raises(ValueError, match="integers"):
                assemble_forward(g_equal_10pi, *sizes)
        a = assemble_forward(g_small_4, 8.0, np.int64(32), 32.0)
        assert a.shape == (32, 8 * 32)

    def test_shape_weights_determinism(self, g_small_4):
        a = assemble_forward(g_small_4, 8, 32, 32)
        b = assemble_forward(g_small_4, 8, 32, 32)
        assert a.shape == (32, 8 * 32)
        assert np.array_equal(a, b)
        assert np.all(np.isfinite(a.real))

    @pytest.mark.parametrize("n_r, n_theta", [(2.5, 4), (4, 2.5), (1, 10),
                                              (10, 1), (None, 10), ("5", 2)])
    def test_grid_sizes_refused(self, g_small_4, n_r, n_theta):
        # the matrix's grid is source_grid's, whose sizes must be integers
        # >= 2: n_r = 2.5, n_theta = 4 once built a matrix whose area
        # weights raised only when read
        with pytest.raises(ValueError, match="grid sizes must be integers"):
            assemble_forward(g_small_4, n_r, n_theta, 40)
        assert ib.source_grid(g_small_4, 5.0,
                              np.int64(2)).area_weights.shape == (5, 2)

    def test_kernel_mode_expansion(self, g_equal_10pi):
        # H_0(k|x - y|) against its cylinder-mode series, both at interior
        # depth where the default truncation converges and near the rim
        # where many more terms are needed.
        g = g_equal_10pi
        rng = np.random.default_rng(5)
        for depth, vmax, tol in [(0.6, math.ceil(g.kappa0) + 40, 1e-8),
                                 (0.9, 180, 1e-8)]:
            for _ in range(6):
                rho = depth * g.R0 * rng.uniform(0.2, 1.0)
                ty = rng.uniform(0.0, 2.0 * math.pi)
                tx = rng.uniform(0.0, 2.0 * math.pi)
                y = rho * np.exp(1j * ty)
                x = g.R * np.exp(1j * tx)
                direct = hankel1(0, g.k * abs(x - y))
                nus = np.arange(-vmax, vmax + 1)
                series = np.sum(hankel1(nus, g.kappa) * jv(nus, g.k * rho)
                                * np.exp(1j * nus * (tx - ty)))
                assert abs(series - direct) < tol

    def test_singular_value_pairs(self, g_small_4):
        g = g_small_4
        fm = assemble_forward(g, 64, 128, 128)
        sv = np.linalg.svd(fm, compute_uv=False)
        table = ss.build_spectrum(g, 8)
        multiset = [(table.sigma[0], 0)]
        for m in range(1, 6):
            multiset += [(table.sigma[m], m)] * 2
        multiset.sort(key=lambda p: -p[0])
        for pos in range(len(multiset) - 1):
            if multiset[pos][1] == multiset[pos + 1][1]:
                gap = abs(sv[pos] - sv[pos + 1]) / sv[pos]
                assert gap < 1e-6

    def test_radial_quadrature_convergence(self):
        g = ib.ProblemGeometry(k=2.0, R0=1.0, R=2.0)
        table = ss.build_spectrum(g, 4)
        analytic = [table.sigma[0]] + [
            s for m in range(1, 5) for s in (table.sigma[m],) * 2]
        analytic = np.sort(analytic)[::-1]

        def err(n_r):
            fm = assemble_forward(g, n_r, 48, 64)
            sv = np.linalg.svd(fm, compute_uv=False)[: len(analytic)]
            return float(np.max(np.abs(sv - analytic) / analytic))

        e8, e16 = err(8), err(16)
        assert e16 <= max(e8 / 4.0, 5e-12)

    def test_annihilates_kernel_directions(self, g_small_4):
        g = g_small_4
        table = ss.build_spectrum(g, 1)
        rs = []
        for n in (16, 32, 64):
            fm = assemble_forward(g, n, 2 * n, 2 * n)
            grid = ib.source_grid(g, n, 2 * n,
                                  fn=lambda r, t: bump_kernel_source(g, r, t))
            x = np.sqrt(grid.area_weights.ravel()) * grid.values.ravel()
            r = float(np.linalg.norm(fm @ x)
                      / (table.sigma[0] * np.linalg.norm(x)))
            rs.append(r)
        assert rs[0] > rs[1] > rs[2]
        assert rs[2] < 1e-5

    def test_matches_point_kernel_off_rim(self):
        # With the sensors at twice the source radius the band-limited
        # kernel differs from H_0(k|x - y|) only by its tail past Q = 23,
        # of size 2^-23 / 23, so the same code path reproduces the point
        # kernel without any special case for the touching geometry.
        g = ib.ProblemGeometry(k=2.0, R0=1.0, R=2.0)
        fm = assemble_forward(g, 16, 48, 64)
        grid = ib.source_grid(g, 16, 48)
        nodes = (grid.rho[:, None] * np.exp(1j * grid.theta[None, :])).ravel()
        bpoints = g.R * np.exp(2j * math.pi * np.arange(64) / 64)
        point = (math.sqrt(2.0 * math.pi * g.R / 64)
                 * hankel1(0, g.k * np.abs(bpoints[:, None] - nodes[None, :]))
                 * np.sqrt(grid.area_weights.ravel())[None, :])
        assert float(np.max(np.abs(fm - point) / np.abs(point))) < 1e-8

    def test_rim_ring_matches_addition_theorem(self):
        # The outermost ring at kappa = kappa0 = 100 pi against the series
        # sum_q H_q(kappa) J_q(k rho) e^{iq(phi - theta)}; a fine grid too
        # short for this kappa would alias the kernel's content near
        # q = kappa into the block.
        g = ib.ProblemGeometry.from_size_params(100.0 * math.pi,
                                                100.0 * math.pi)
        n = 2 * math.ceil(g.kappa) + 16
        fm = assemble_forward(g, 8, n, n)
        grid = ib.source_grid(g, 8, n)
        band = (n - 1) // 2
        q = np.arange(-band, band + 1)
        coef = hankel1(q, g.kappa) * jv(q, g.k * grid.rho[-1])
        angles = 2.0 * math.pi * np.arange(n) / n
        series = (np.exp(1j * np.outer(angles, q))
                  @ (coef[:, None] * np.exp(-1j * np.outer(q, grid.theta))))
        block = (fm[:, -n:] / math.sqrt(2.0 * math.pi * g.R / n)
                 / np.sqrt(grid.area_weights[-1])[None, :])
        scale = float(np.max(np.abs(series)))
        assert float(np.max(np.abs(block - series))) <= 1e-8 * scale

    def test_matches_analytic_forward(self, g_small_4):
        g = g_small_4
        fm = assemble_forward(g, 64, 128, 128)
        grid = ib.source_grid(
            g, 64, 128, fn=lambda r, t: np.exp(-8.0 * (r / g.R0) ** 2)
            * np.ones_like(t))
        x = np.sqrt(grid.area_weights.ravel()) * grid.values.ravel()
        u_matrix = (fm @ x) / math.sqrt(2.0 * math.pi * g.R / 128)
        u_exact = ib.apply_forward_analytic(grid, 49, n_s=128).values
        scale = float(np.max(np.abs(u_exact)))
        assert float(np.max(np.abs(u_matrix - u_exact))) <= 1e-4 * scale


class TestAnalyticForward:
    def test_maps_psi_to_sigma_phi(self, g_equal_10pi):
        g = g_equal_10pi
        sigma = ss.build_spectrum(g).sigma
        for m in (0, 5, -12):
            grid = ib.source_grid(
                g, 64, 128,
                fn=lambda r, t: ss.psi_eval(m, g, r, t))
            bd = ib.apply_forward_analytic(grid, 20, n_s=96)
            ref = sigma[abs(m)] * ss.phi_eval(m, g, bd.theta)
            assert float(np.max(np.abs(bd.values - ref))) < 1e-8

    def test_deep_modes_match_scipy_series(self):
        # A_m underflows to 0 from m = 78 on here, and the forward once
        # skipped those modes with 166 warnings; the Graf series needs no
        # A_m, and |H_m(1)| leaves the double range (from m = 139 in
        # scipy) only where the ring rows J_m(k rho) are 0 (m >= 125)
        g = ib.ProblemGeometry(k=1.0, R0=0.5, R=1.0)
        grid = ib.source_grid(g, 12, 24, fn=lambda r, t: 1.0 + 0j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ib.apply_forward_analytic(grid, 160, n_s=350).values
        assert np.isfinite(got).all()
        ms = np.arange(-160, 161)
        w = grid.radial_weights * grid.rho * (2.0 * math.pi / grid.n_theta)
        ring = grid.values @ np.exp(-1j * np.outer(grid.theta, ms))
        with np.errstate(over="ignore", invalid="ignore"):
            coef = np.sum(w[:, None] * jv(ms, g.k * grid.rho[:, None])
                          * ring, axis=0)
            terms = np.where(coef == 0.0, 0.0, hankel1(ms, g.kappa) * coef)
        theta = 2.0 * math.pi * np.arange(350) / 350
        ref = np.exp(1j * np.outer(theta, ms)) @ terms
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSynthesizeMeasurement:
    def test_zero_noise_returns_clean_trace(self, g_equal_10pi):
        grid = ib.source_grid(
            g_equal_10pi, 32, 96,
            fn=lambda r, t: np.exp(-8.0 * (r / g_equal_10pi.R0) ** 2)
            * np.ones_like(t))
        clean = ib.apply_forward_analytic(grid, 40, n_s=256)
        noisy = ib.synthesize_measurement(grid, 0.0, seed=1, modes=40, n_s=256)
        assert np.array_equal(clean.values, noisy.values)
        assert noisy.noise_level == 0.0

    def test_noise_rms_is_calibrated(self, g_equal_10pi):
        grid = ib.source_grid(
            g_equal_10pi, 32, 96,
            fn=lambda r, t: np.exp(-8.0 * (r / g_equal_10pi.R0) ** 2)
            * np.ones_like(t))
        clean = ib.apply_forward_analytic(grid, 40, n_s=4096)
        noisy = ib.synthesize_measurement(grid, 0.1, seed=3, modes=40,
                                          n_s=4096)
        diff = noisy.values - clean.values
        ratio = (math.sqrt(float(np.mean(np.abs(diff) ** 2)))
                 / math.sqrt(float(np.mean(np.abs(clean.values) ** 2))))
        assert abs(ratio - 0.1) <= 0.005
        assert noisy.noise_level == 0.1

    def test_seed_reproducibility(self, g_equal_10pi):
        grid = ib.source_grid(g_equal_10pi, 16, 64,
                              fn=lambda r, t: 1.0 + 0j * t)
        a = ib.synthesize_measurement(grid, 0.05, seed=11, modes=20, n_s=128)
        b = ib.synthesize_measurement(grid, 0.05, seed=11, modes=20, n_s=128)
        c = ib.synthesize_measurement(grid, 0.05, seed=12, modes=20, n_s=128)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_negative_noise_rejected(self, g_equal_10pi):
        grid = ib.source_grid(g_equal_10pi, 16, 64)
        with pytest.raises(ValueError):
            ib.synthesize_measurement(grid, -0.1, seed=0)

    @pytest.mark.parametrize("n_s", [7, 82, 166])
    def test_any_n_s_samples_the_truncated_series(self, n_s):
        # the default horizon is 82, so 7 and 82 put several modes in a
        # bin; the trace is still the series cut at 82 at theta_j, exactly
        # (aliasing is the decomposition's to refuse)
        g = ib.ProblemGeometry.from_size_params(TEN_PI, 2.0 * TEN_PI)
        modes = ib.default_m_max(g.kappa0)
        assert 2 * modes + 1 == 165
        rng = np.random.default_rng(12)
        grid = ib.source_grid(g, 64, 96)
        grid.values[:] = (rng.standard_normal(grid.values.shape)
                          + 1j * rng.standard_normal(grid.values.shape))
        got = ib.synthesize_measurement(grid, 0.0, 0, n_s=n_s).values
        ms = np.arange(-modes, modes + 1)
        w = grid.radial_weights * grid.rho * (2.0 * math.pi / grid.n_theta)
        ring = grid.values @ np.exp(-1j * np.outer(grid.theta, ms))
        coef = np.sum(w[:, None] * jv(ms, g.k * grid.rho[:, None]) * ring,
                      axis=0)
        theta = 2.0 * math.pi * np.arange(n_s) / n_s
        ref = np.exp(1j * np.outer(theta, ms)) @ (hankel1(ms, g.kappa) * coef)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
