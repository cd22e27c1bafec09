import math

import numpy as np
import pytest
from scipy.special import hankel1, jv

import ispband as ib
from ispband import singular_system as ss

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


class TestSourceGrid:
    def test_weights_integrate_disk_area(self, g_equal_10pi):
        for n_r, n_th in [(8, 16), (64, 128), (17, 33)]:
            grid = ib.source_grid(g_equal_10pi, n_r, n_th)
            area = math.pi * g_equal_10pi.R0**2
            assert abs(grid.area_weights.sum() - area) <= 1e-12 * area
            assert np.all(grid.radial_weights > 0.0)
            assert np.all((0.0 < grid.rho) & (grid.rho < g_equal_10pi.R0))

    def test_cached_rule_gives_same_bits(self, g_equal_10pi):
        # source_grid reads leggauss(n_r) from a cache; the grid it builds is
        # bitwise the one built from a fresh leggauss call, every time
        g = g_equal_10pi
        for n_r in (7, 64, 256):
            x, w = np.polynomial.legendre.leggauss(n_r)
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

    def test_validation(self, g_equal_10pi):
        with pytest.raises(ValueError):
            ib.source_grid(g_equal_10pi, 1, 10)
        grid = ib.source_grid(g_equal_10pi, 6, 10)
        with pytest.raises(ValueError):
            ib.SourceField(geometry=g_equal_10pi, rho=grid.rho,
                           radial_weights=-grid.radial_weights,
                           theta=grid.theta, values=grid.values)
        with pytest.raises(ValueError):
            ib.SourceField(geometry=g_equal_10pi, rho=grid.rho,
                           radial_weights=grid.radial_weights,
                           theta=grid.theta,
                           values=np.zeros((3, 3), dtype=complex))

    def test_non_uniform_angles_rejected(self, g_equal_10pi):
        # the modal transforms put theta_j at 2 pi j / n_theta
        grid = ib.source_grid(g_equal_10pi, 6, 10)
        for theta in (grid.theta + 1e-6, grid.theta[::-1].copy()):
            with pytest.raises(ValueError, match="uniform"):
                ib.SourceField(geometry=g_equal_10pi, rho=grid.rho,
                               radial_weights=grid.radial_weights,
                               theta=theta, values=grid.values)


class TestBoundaryData:
    def test_angles_and_norm(self, g_equal_10pi):
        bd = ib.BoundaryData(geometry=g_equal_10pi,
                             values=np.ones(20, dtype=complex))
        assert bd.theta[1] == pytest.approx(2.0 * math.pi / 20)
        circ = 2.0 * math.pi * g_equal_10pi.R
        assert bd.norm() == pytest.approx(math.sqrt(circ), rel=1e-12)
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
            ib.assemble_forward(g, 7, 128, 128)
        with pytest.raises(ValueError):
            ib.assemble_forward(g, 8, need - 1, 128)
        with pytest.raises(ValueError):
            ib.assemble_forward(g, 8, need, need - 1)

    def test_counts_are_refused_not_floored(self, g_equal_10pi, g_small_4):
        # (8.5, 80.2, 80.9) used to build an 80 x 640 matrix
        for sizes in ((8.5, 80, 80), (8, 80.2, 80), (8, 80, 80.9),
                      (8.5, 80.2, 80.9)):
            with pytest.raises(ValueError, match="integers"):
                ib.assemble_forward(g_equal_10pi, *sizes)
        a = ib.assemble_forward(g_small_4, 8.0, np.int64(32), 32.0)
        assert (a.n_r, a.n_theta, a.n_s) == (8, 32, 32)
        assert a.entries.shape == (32, 8 * 32)

    def test_shape_weights_determinism(self, g_small_4):
        a = ib.assemble_forward(g_small_4, 8, 32, 32)
        b = ib.assemble_forward(g_small_4, 8, 32, 32)
        assert a.entries.shape == (32, 8 * 32)
        assert np.array_equal(a.entries, b.entries)
        assert a.boundary_weight == pytest.approx(
            2.0 * math.pi * g_small_4.R / 32)
        assert np.all(np.isfinite(a.entries.real))

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
        fm = ib.assemble_forward(g, 64, 128, 128)
        sv = np.linalg.svd(fm.entries, compute_uv=False)
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
            fm = ib.assemble_forward(g, n_r, 48, 64)
            sv = np.linalg.svd(fm.entries, compute_uv=False)[: len(analytic)]
            return float(np.max(np.abs(sv - analytic) / analytic))

        e8, e16 = err(8), err(16)
        assert e16 <= max(e8 / 4.0, 5e-12)

    def test_annihilates_kernel_directions(self, g_small_4):
        g = g_small_4
        table = ss.build_spectrum(g, 1)
        rs = []
        for n in (16, 32, 64):
            fm = ib.assemble_forward(g, n, 2 * n, 2 * n)
            grid = ib.source_grid(g, n, 2 * n,
                                  fn=lambda r, t: bump_kernel_source(g, r, t))
            x = np.sqrt(fm.area_weights.ravel()) * grid.values.ravel()
            r = float(np.linalg.norm(fm.entries @ x)
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
        fm = ib.assemble_forward(g, 16, 48, 64)
        grid = ib.source_grid(g, 16, 48)
        nodes = (grid.rho[:, None] * np.exp(1j * grid.theta[None, :])).ravel()
        bpoints = g.R * np.exp(2j * math.pi * np.arange(64) / 64)
        point = (math.sqrt(fm.boundary_weight)
                 * hankel1(0, g.k * np.abs(bpoints[:, None] - nodes[None, :]))
                 * np.sqrt(fm.area_weights.ravel())[None, :])
        assert float(np.max(np.abs(fm.entries - point) / np.abs(point))) < 1e-8

    def test_rim_ring_matches_addition_theorem(self):
        # The outermost ring at kappa = kappa0 = 100 pi against the series
        # sum_q H_q(kappa) J_q(k rho) e^{iq(phi - theta)}; a fine grid too
        # short for this kappa would alias the kernel's content near
        # q = kappa into the block.
        g = ib.ProblemGeometry.from_size_params(100.0 * math.pi,
                                                100.0 * math.pi)
        n = 2 * math.ceil(g.kappa) + 16
        fm = ib.assemble_forward(g, 8, n, n)
        grid = ib.source_grid(g, 8, n)
        band = (n - 1) // 2
        q = np.arange(-band, band + 1)
        coef = hankel1(q, g.kappa) * jv(q, g.k * grid.rho[-1])
        angles = 2.0 * math.pi * np.arange(n) / n
        series = (np.exp(1j * np.outer(angles, q))
                  @ (coef[:, None] * np.exp(-1j * np.outer(q, grid.theta))))
        block = (fm.entries[:, -n:] / math.sqrt(fm.boundary_weight)
                 / np.sqrt(fm.area_weights[-1])[None, :])
        scale = float(np.max(np.abs(series)))
        assert float(np.max(np.abs(block - series))) <= 1e-8 * scale

    def test_matches_analytic_forward(self, g_small_4):
        g = g_small_4
        fm = ib.assemble_forward(g, 64, 128, 128)
        grid = ib.source_grid(
            g, 64, 128, fn=lambda r, t: np.exp(-8.0 * (r / g.R0) ** 2)
            * np.ones_like(t))
        x = np.sqrt(fm.area_weights.ravel()) * grid.values.ravel()
        u_matrix = (fm.entries @ x) / math.sqrt(fm.boundary_weight)
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

    def test_skips_degenerate_modes_with_warning(self):
        g = ib.ProblemGeometry(k=1.0, R0=0.5, R=1.0)
        grid = ib.source_grid(g, 12, 24, fn=lambda r, t: 1.0 + 0j)
        with pytest.warns(RuntimeWarning):
            ib.apply_forward_analytic(grid, 160, n_s=350)


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
