import math

import numpy as np
import pytest

import ispband as ib
from ispband import singular_system as ss

from conftest import disk_rel_l2

TEN_PI = 10.0 * math.pi


def psi_mix(g, modes):
    """Source field combining right singular functions with set weights."""
    def fn(r, t):
        out = np.zeros(np.broadcast_shapes(r.shape, t.shape), dtype=complex)
        for m, w in modes.items():
            out = out + w * ss.psi_eval(m, g, r, t)
        return out
    return fn


class TestModalDecompose:
    def test_pure_left_function_hits_one_bin(self, g_equal_10pi):
        g = g_equal_10pi
        n_s = 128
        theta = 2.0 * math.pi * np.arange(n_s) / n_s
        bd = ib.BoundaryData(geometry=g, values=ss.phi_eval(7, g, theta))
        c = ib.modal_decompose(bd, 20)
        assert abs(c.coeff(7) - 1.0) < 1e-12
        for m in range(-20, 21):
            if m != 7:
                assert abs(c.coeff(m)) < 1e-12

    def test_linearity(self, g_equal_10pi):
        g = g_equal_10pi
        rng = np.random.default_rng(2)
        u1 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        u2 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        a, b = 1.3 - 0.7j, -0.4 + 2.1j
        c1 = ib.modal_decompose(ib.BoundaryData(geometry=g, values=u1), 10).c
        c2 = ib.modal_decompose(ib.BoundaryData(geometry=g, values=u2), 10).c
        c12 = ib.modal_decompose(
            ib.BoundaryData(geometry=g, values=a * u1 + b * u2), 10).c
        assert np.allclose(c12, a * c1 + b * c2, rtol=1e-13, atol=1e-13)

    def test_forward_mode_carries_sigma(self, g_equal_10pi):
        g = g_equal_10pi
        grid = ib.source_grid(g, 64, 128, fn=psi_mix(g, {3: 1.0}))
        bd = ib.apply_forward_analytic(grid, 12, n_s=96)
        c = ib.modal_decompose(bd, 12)
        sig3 = ss.build_spectrum(g).sigma[3]
        assert abs(c.coeff(3) - sig3) < 1e-8
        for m in (-3, 0, 5, 12):
            assert abs(c.coeff(m)) < 1e-8 * sig3

    def test_aliasing_guard(self, g_equal_10pi):
        bd = ib.BoundaryData(geometry=g_equal_10pi,
                             values=np.zeros(10, dtype=complex))
        with pytest.raises(ValueError):
            ib.modal_decompose(bd, 6)

    def test_coeff_index_guard(self, g_equal_10pi):
        bd = ib.BoundaryData(geometry=g_equal_10pi,
                             values=np.zeros(32, dtype=complex))
        c = ib.modal_decompose(bd, 4)
        with pytest.raises(IndexError):
            c.coeff(5)


class TestReconstruction:
    def test_clean_two_mode_recovery(self, g_equal_10pi):
        g = g_equal_10pi
        weights = {2: 1.0, -9: 0.5}
        grid = ib.source_grid(g, 80, 192, fn=psi_mix(g, weights))
        bd = ib.synthesize_measurement(grid, 0.0, seed=0, modes=40, n_s=192)
        c = ib.modal_decompose(bd, 40)
        rec = ib.tsvd_reconstruct(c, 9, n_r=80, n_theta=192)
        err = disk_rel_l2(rec.source.values, grid.values, grid.area_weights)
        assert err < 1e-6
        assert rec.residual < 1e-8
        assert rec.N == 9

    def test_truncation_projects_out_high_modes(self, g_equal_10pi):
        g = g_equal_10pi
        weights = {2: 1.0, -9: 0.5}
        grid = ib.source_grid(g, 80, 192, fn=psi_mix(g, weights))
        bd = ib.synthesize_measurement(grid, 0.0, seed=0, modes=40, n_s=192)
        c = ib.modal_decompose(bd, 40)
        rec = ib.tsvd_reconstruct(c, 5, n_r=80, n_theta=192)
        num = disk_rel_l2(rec.source.values, grid.values, grid.area_weights)
        # || s - P_5 s || / || s || for unit psi_2 plus half psi_{-9}
        expected = 0.5 / math.sqrt(1.25)
        assert abs(num - expected) < 1e-6

    def test_modal_projection_property(self, g_equal_10pi):
        g = g_equal_10pi
        weights = {1: 1.0, -4: 0.25j, 7: -0.5}
        grid = ib.source_grid(g, 80, 192, fn=psi_mix(g, weights))
        bd = ib.synthesize_measurement(grid, 0.0, seed=0, modes=30, n_s=192)
        c = ib.modal_decompose(bd, 30)
        rec = ib.tsvd_reconstruct(c, 4, n_r=80, n_theta=192)
        wa = rec.source.area_weights
        for m, w in weights.items():
            inner = complex(np.sum(
                wa * rec.source.values
                * np.conj(ss.psi_eval(m, g, rec.source.rho[:, None],
                                      rec.source.theta[None, :]))))
            target = w if abs(m) <= 4 else 0.0
            assert abs(inner - target) < 1e-8

    def test_axisymmetric_truncation(self, g_equal_10pi):
        g = g_equal_10pi
        grid = ib.source_grid(g, 64, 128,
                              fn=psi_mix(g, {0: 2.0, 3: 1.0}))
        bd = ib.synthesize_measurement(grid, 0.0, seed=0, modes=20, n_s=128)
        c = ib.modal_decompose(bd, 20)
        rec = ib.tsvd_reconstruct(c, 0, n_r=32, n_theta=64)
        spread = float(np.max(np.std(rec.source.values, axis=1)))
        scale = float(np.max(np.abs(rec.source.values)))
        assert spread < 1e-10 * scale

    def test_matches_discrete_svd_route(self, g_small_4):
        g = g_small_4
        n_r, n_theta, n_s = 64, 512, 512
        weights = {1: 1.0, -2: 0.5, 3: 0.25j}
        grid = ib.source_grid(g, n_r, n_theta, fn=psi_mix(g, weights))
        bd = ib.synthesize_measurement(grid, 0.0, seed=0, modes=10, n_s=n_s)
        c = ib.modal_decompose(bd, 10)
        rec = ib.tsvd_reconstruct(c, 3, n_r=n_r, n_theta=n_theta)

        fm = ib.assemble_forward(g, n_r, n_theta, n_s)
        u_mat, sv, vh = np.linalg.svd(fm.entries, full_matrices=False)
        b = math.sqrt(fm.boundary_weight) * bd.values
        keep = 7
        x = (vh[:keep].conj().T
             @ ((u_mat[:, :keep].conj().T @ b) / sv[:keep]))
        shat = (x / np.sqrt(fm.area_weights.ravel())).reshape(n_r, n_theta)

        err = disk_rel_l2(rec.source.values, shat, fm.area_weights)
        assert err < 1e-3

    def test_validation(self, g_equal_10pi):
        g = g_equal_10pi
        bd = ib.BoundaryData(geometry=g, values=np.zeros(64, dtype=complex))
        c = ib.modal_decompose(bd, 8)
        with pytest.raises(ValueError):
            ib.tsvd_reconstruct(c, -1)
        with pytest.raises(ValueError):
            ib.tsvd_reconstruct(c, 9)

    def test_aliased_angular_grid_refused(self, g_equal_10pi):
        bd = ib.BoundaryData(geometry=g_equal_10pi,
                             values=np.zeros(64, dtype=complex))
        c = ib.modal_decompose(bd, 8)
        ib.tsvd_reconstruct(c, 8, n_r=8, n_theta=17)
        with pytest.raises(ValueError, match="n_theta >= 17"):
            ib.tsvd_reconstruct(c, 8, n_r=8, n_theta=16)

    def test_sigma_underflow_names_mode(self):
        g = ib.ProblemGeometry(k=1.0, R0=0.5, R=50.0)
        c = ib.ModalCoefficients(geometry=g, m_max=190,
                                 c=np.zeros(381, dtype=complex))
        with pytest.raises(ib.SigmaUnderflowError, match="unusable"):
            ib.tsvd_reconstruct(c, 190)


class TestNoiseAmplification:
    def test_error_grows_past_the_band(self, g_equal_10pi):
        g = g_equal_10pi
        rep = ib.report(g)
        weights = {0: 1.0, 2: 0.7, -5: 0.4}
        grid = ib.source_grid(g, 80, 192, fn=psi_mix(g, weights))
        bd = ib.synthesize_measurement(grid, 1e-2, seed=42, modes=45,
                                       n_s=192)
        c = ib.modal_decompose(bd, 45)

        def recon_err(n):
            rec = ib.tsvd_reconstruct(c, n, n_r=80, n_theta=192)
            return disk_rel_l2(rec.source.values, grid.values,
                               grid.area_weights)

        at_band = recon_err(rep.B_minus)
        beyond = recon_err(rep.B_plus + 10)
        assert beyond > 2.0 * at_band

    def test_large_gap_geometry_amplifies_tenfold(self):
        g = ib.ProblemGeometry.from_size_params(TEN_PI, 2.0 * TEN_PI)
        rep = ib.report(g)
        weights = {0: 1.0, 2: 0.7, -5: 0.4}
        grid = ib.source_grid(g, 80, 192, fn=psi_mix(g, weights))
        bd = ib.synthesize_measurement(grid, 1e-2, seed=42, modes=45,
                                       n_s=192)
        c = ib.modal_decompose(bd, 45)

        def recon_err(n):
            rec = ib.tsvd_reconstruct(c, n, n_r=80, n_theta=192)
            return disk_rel_l2(rec.source.values, grid.values,
                               grid.area_weights)

        assert recon_err(rep.B_plus + 10) > 10.0 * recon_err(rep.B_minus)


class TestPickTruncation:
    def test_policies(self, g_equal_10pi):
        g = g_equal_10pi
        assert ib.pick_truncation(g, "B") == 27
        assert ib.pick_truncation(g, "B-") == 26
        assert ib.pick_truncation(g, "B+") == 29
        assert ib.pick_truncation(g, "N", n=5) == 5
        assert ib.pick_truncation(g, "N", n=0) == 0

    def test_validation(self, g_equal_10pi):
        with pytest.raises(ValueError):
            ib.pick_truncation(g_equal_10pi, "N")
        with pytest.raises(ValueError):
            ib.pick_truncation(g_equal_10pi, "N", n=-1)
        with pytest.raises(ValueError):
            ib.pick_truncation(g_equal_10pi, "waterline")
