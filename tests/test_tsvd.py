import math
from dataclasses import replace

import numpy as np
import pytest

import ispband as ib
from ispband import singular_system as ss
from ispband import tsvd

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

    @pytest.mark.slow
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

    def test_other_geometry_refused(self, g_equal_10pi):
        # dividing by another geometry's sigma once gave a source 4.7x
        # off in relative L2, with a round-off residual and no error
        g = g_equal_10pi
        c = ib.modal_decompose(
            ib.BoundaryData(geometry=g, values=np.zeros(64, dtype=complex)),
            8)
        other = ib.ProblemGeometry.from_size_params(TEN_PI, 2.0 * TEN_PI)
        with pytest.raises(ValueError) as exc:
            ib.tsvd_reconstruct(c, 5, other, n_r=16)
        assert str(other) in str(exc.value) and str(g) in str(exc.value)
        same = ib.ProblemGeometry(k=g.k, R0=g.R0, R=g.R)   # equal, not g
        assert same is not g
        rec = ib.tsvd_reconstruct(c, 5, same, n_r=16)
        assert rec.source.geometry == g

    def test_sigma_underflow_names_mode(self):
        g = ib.ProblemGeometry(k=1.0, R0=0.5, R=50.0)
        c = ib.ModalCoefficients(geometry=g, m_max=190,
                                 c=np.zeros(381, dtype=complex))
        # the first unusable order is named: A_78(0.5) underflows
        with pytest.raises(ib.SigmaUnderflowError,
                           match="sigma_78 underflows.*mode 78 is unusable"):
            ib.tsvd_reconstruct(c, 190)

    @pytest.mark.parametrize("bad", [math.nan, math.inf,
                                     complex(0.0, -math.inf)])
    def test_non_finite_coefficients_refused(self, g_equal_10pi, bad):
        # a non-finite coefficient once gave a residual of 0.0
        values = np.zeros(17, dtype=complex)
        values[8 - 3] = bad
        c = ib.ModalCoefficients(geometry=g_equal_10pi, m_max=8, c=values)
        with pytest.raises(ValueError, match="c_-3 is not finite"):
            ib.tsvd_reconstruct(c, 5, n_r=16)
        # a mode past the truncation is not read
        assert ib.tsvd_reconstruct(c, 2, n_r=16).residual == 0.0


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
        # a warm memo changes none of the manual policy's refusals
        for warm in (False, True):
            if warm:
                ib.pick_truncation(g_equal_10pi, "B")
            with pytest.raises(ValueError):
                ib.pick_truncation(g_equal_10pi, "N")
            with pytest.raises(ValueError):
                ib.pick_truncation(g_equal_10pi, "N", n=-1)
            with pytest.raises(ValueError):
                ib.pick_truncation(g_equal_10pi, "waterline")
            assert ib.pick_truncation(g_equal_10pi, "N", n=3) == 3

    @pytest.mark.parametrize("policy", ["B", "B-", "B+"])
    def test_n_needs_policy_N(self, count_passes, g_equal_10pi, policy):
        # n once went unread under the band-edge policies: B with n=5 gave
        # 27; now it is refused before any Bessel pass
        counts = count_passes()
        with pytest.raises(ValueError, match="policy 'N'"):
            ib.pick_truncation(g_equal_10pi, policy, n=5)
        assert counts == {"J": 0, "Y": 0}

    @pytest.mark.parametrize("kappa0, kappa", [(TEN_PI, TEN_PI),
                                               (5.0 * math.pi, TEN_PI),
                                               (100.0 * math.pi,
                                                100.0 * math.pi)])
    @pytest.mark.parametrize("policy", ["B", "B-", "B+"])
    def test_memo_runs_no_pass_and_keeps_the_integer(self, count_passes,
                                                     kappa0, kappa, policy):
        # B reads the geometry's memoized spectrum, so a warm call, for g
        # or for an equal geometry, runs no pass. B- and B+ keep no memo:
        # each call runs the passes of its bound's own row and no more
        g = ib.ProblemGeometry.from_size_params(kappa0, kappa)
        same = ib.ProblemGeometry(k=g.k, R0=g.R0, R=g.R)   # equal, not g
        counts = count_passes()
        direct = {"B": lambda: ib.bandwidth(ib.build_spectrum(g)),
                  "B-": lambda: ib.bound_lower(g.kappa0),
                  "B+": lambda: ib.bound_upper(g.kappa0)}[policy]()
        bound_cost = dict(counts)
        assert ib.pick_truncation(g, policy) == direct
        counts.update(J=0, Y=0)
        assert ib.pick_truncation(g, policy) == direct
        assert ib.pick_truncation(same, policy) == direct
        if policy == "B":
            assert counts == {"J": 0, "Y": 0}
        else:
            assert counts == {k: 2 * v for k, v in bound_cost.items()}

    def test_exceptions_are_not_memoized(self, monkeypatch, count_passes,
                                         g_equal_10pi):
        # B+ keeps no memo: a route that fails once is run again on the
        # next call, and on every call after it
        calls = []

        def fails_once(kappa0):
            calls.append(kappa0)
            if len(calls) == 1:
                raise ArithmeticError("transient")
            return ib.bound_upper(kappa0)

        monkeypatch.setattr(tsvd, "bound_upper", fails_once)
        with pytest.raises(ArithmeticError, match="transient"):
            ib.pick_truncation(g_equal_10pi, "B+")
        assert ib.pick_truncation(g_equal_10pi, "B+") == 29
        assert ib.pick_truncation(g_equal_10pi, "B+") == 29
        assert len(calls) == 3
        # a spectrum pass that fails is not memoized: the next call runs
        # it again
        builds = []
        build = ss.build_spectrum

        def spectrum_fails_once(g, m_max=None):
            builds.append(m_max)
            if len(builds) == 1:
                raise ArithmeticError("transient spectrum")
            return build(g, m_max)

        monkeypatch.setattr(ss, "build_spectrum", spectrum_fails_once)
        with pytest.raises(ArithmeticError, match="transient spectrum"):
            ib.pick_truncation(g_equal_10pi, "B")
        assert ib.pick_truncation(g_equal_10pi, "B") == 27
        assert ib.pick_truncation(g_equal_10pi, "B") == 27
        assert len(builds) == 2
        # a spectrum whose band edge cannot be read is memoized, and B
        # raises on every call, from its one pass
        g = ib.ProblemGeometry.from_size_params(1e-300, 1e-300)
        counts = count_passes()
        for _ in range(2):
            with pytest.raises(ib.HorizonError):
                ib.pick_truncation(g, "B")
        assert counts["J"] == 1


class TestForwardPlan:
    """The ring rows that apply_forward_analytic builds travel with its
    data to modal_decompose and tsvd_reconstruct, and all of them read one
    memoized spectrum per geometry: they save passes and change no bit."""

    N_R = 48

    def _data(self, g, noise, modes=None):
        horizon = ib.default_m_max(g.kappa0) if modes is None else modes
        n = 2 * horizon + 2
        truth = ib.source_grid(g, self.N_R, n,
                               fn=psi_mix(g, {2: 1.0, -5: 0.5 - 0.25j}))
        return truth, horizon, n

    @pytest.mark.parametrize("kappa0, kappa", [(TEN_PI, TEN_PI), (8.0, 20.0)])
    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_two_bessel_passes_per_op(self, count_passes, kappa0, kappa,
                                      noise):
        # the memoized spectrum's pass (J at kappa0 and kappa, Y at kappa,
        # and below kappa = 25 the J rows of the Y seeds), which the forward
        # map, modal_decompose, pick_truncation and the TSVD share, and the
        # forward map's ring rows (one J pass), which the TSVD reuses
        g = ib.ProblemGeometry.from_size_params(kappa0, kappa)
        truth, horizon, n = self._data(g, noise)
        counts = count_passes()
        data = ib.synthesize_measurement(truth, noise, 5, modes=horizon,
                                         n_s=n)
        c = ib.modal_decompose(data, horizon)
        rec = ib.tsvd_reconstruct(c, ib.pick_truncation(g, "B"), g,
                                  n_r=self.N_R, n_theta=n)
        assert counts == {"J": 2, "Y": 1}
        assert rec.residual <= 1e-8

    @pytest.mark.parametrize("kappa0, kappa", [(TEN_PI, TEN_PI), (8.0, 20.0)])
    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_warm_memo_leaves_the_forward_pass(self, count_passes, kappa0,
                                               kappa, noise):
        # once the spectrum of a geometry is memoized, an op runs the
        # forward map's ring rows alone (one J pass, no Y pass) and gives
        # the bits of the cold op
        g = ib.ProblemGeometry.from_size_params(kappa0, kappa)
        truth, horizon, n = self._data(g, noise)

        def op():
            data = ib.synthesize_measurement(truth, noise, 5, modes=horizon,
                                             n_s=n)
            c = ib.modal_decompose(data, horizon)
            return ib.tsvd_reconstruct(c, ib.pick_truncation(g, "B"), g,
                                       n_r=self.N_R, n_theta=n)

        cold = op()
        counts = count_passes()
        warm = op()
        assert counts == {"J": 1, "Y": 0}
        assert warm.N == cold.N
        assert np.array_equal(warm.source.values, cold.source.values)
        assert warm.residual == cold.residual <= 1e-8

    def test_warm_table_readers_run_no_pass(self, count_passes,
                                            g_equal_10pi):
        # once a geometry's spectrum is memoized, B, the modal
        # decomposition and phi_eval read it and run no Bessel pass
        g = g_equal_10pi
        horizon = ib.default_m_max(g.kappa0)
        bd = ib.BoundaryData(geometry=g,
                             values=np.ones(2 * horizon + 2, dtype=complex))
        assert ib.pick_truncation(g, "B") == 27
        counts = count_passes()
        assert ib.pick_truncation(g, "B") == 27
        for m_max in (horizon, 10):
            ib.modal_decompose(bd, m_max)
        for m in (0, -7, horizon):
            ib.phi_eval(m, g, np.array([0.1, 0.2]))
        assert counts == {"J": 0, "Y": 0}

    @pytest.mark.parametrize("kappa0, kappa", [(TEN_PI, TEN_PI), (8.0, 20.0)])
    def test_new_radii_rebuild_ring_rows_only(self, count_passes, kappa0,
                                              kappa):
        # the memoized spectrum is kept, and only the ring rows of the
        # other radii are built: one J pass and no Y pass
        g = ib.ProblemGeometry.from_size_params(kappa0, kappa)
        truth, horizon, n = self._data(g, 0.0)
        data = ib.synthesize_measurement(truth, 0.0, 5, modes=horizon, n_s=n)
        c = ib.modal_decompose(data, horizon)
        c_bare = ib.modal_decompose(replace(data, plan=None), horizon)
        N = ib.pick_truncation(g, "B")
        counts = count_passes()
        rec = ib.tsvd_reconstruct(c, N, g, n_r=self.N_R + 8, n_theta=n)
        assert counts == {"J": 1, "Y": 0}
        fresh = ib.tsvd_reconstruct(c_bare, N, g, n_r=self.N_R + 8,
                                    n_theta=n)
        assert np.array_equal(rec.source.values, fresh.source.values)
        assert rec.residual == fresh.residual <= 1e-8

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_plan_changes_no_bits(self, g_equal_10pi, noise):
        g = g_equal_10pi
        truth, horizon, n = self._data(g, noise)
        data = ib.synthesize_measurement(truth, noise, 5, modes=horizon,
                                         n_s=n)
        assert data.plan is not None
        bare = replace(data, plan=None)
        N = ib.pick_truncation(g, "B")
        for m_max in (horizon, 40):
            c, c_bare = (ib.modal_decompose(d, m_max) for d in (data, bare))
            assert c.plan is data.plan and c_bare.plan is None
            assert np.array_equal(c.c, c_bare.c)
            for n_r in (self.N_R, self.N_R + 8):     # rings reused, rebuilt
                rec, rec_bare = (ib.tsvd_reconstruct(x, N, g, n_r=n_r,
                                                     n_theta=n)
                                 for x in (c, c_bare))
                assert np.array_equal(rec.source.values,
                                      rec_bare.source.values)
                assert rec.residual == rec_bare.residual
                assert rec.residual <= 1e-8

    def test_plan_past_the_default_horizon_is_not_reused(self, g_equal_10pi):
        # a spectrum to modes > default_m_max runs its J rows to another
        # horizon than the inverse's own, so the inverse builds its own
        g = g_equal_10pi
        modes = ib.default_m_max(g.kappa0) + 10
        truth, _, n = self._data(g, 0.0, modes)
        data = ib.synthesize_measurement(truth, 0.0, 5, modes=modes, n_s=n)
        N = ib.pick_truncation(g, "B")
        recs = [ib.tsvd_reconstruct(ib.modal_decompose(d, modes), N, g,
                                    n_r=self.N_R, n_theta=n)
                for d in (data, replace(data, plan=None))]
        assert np.array_equal(recs[0].source.values, recs[1].source.values)
        assert recs[0].residual == recs[1].residual <= 1e-8

    def test_hand_made_data_falls_back(self, g_equal_10pi):
        g = g_equal_10pi
        truth, horizon, n = self._data(g, 0.0)
        values = ib.apply_forward_analytic(truth, horizon, n_s=n).values
        bd = ib.BoundaryData(geometry=g, values=values.copy())
        assert bd.plan is None
        rec = ib.tsvd_reconstruct(ib.modal_decompose(bd, horizon),
                                  ib.pick_truncation(g, "B"), g,
                                  n_r=self.N_R + 8, n_theta=n)
        assert rec.residual <= 1e-8


class TestModeNorms:
    """tsvd_reconstruct's residual from the discrete mode norms, and a
    reconstruct path that weighs by ring and builds no weight grid."""

    @staticmethod
    def _op(kappa0, kappa, n_r, n_theta, noise, policy, modes):
        g = ib.ProblemGeometry.from_size_params(kappa0, kappa)
        horizon = ib.default_m_max(g.kappa0)
        n_s = 2 * horizon + 2
        n_theta = n_s if n_theta is None else n_theta
        truth = ib.source_grid(g, n_r, n_theta, fn=psi_mix(g, modes))
        data = ib.synthesize_measurement(truth, noise, 3, modes=horizon,
                                         n_s=n_s)
        c = ib.modal_decompose(data, horizon)
        N = ib.pick_truncation(g, policy)
        return c, ib.tsvd_reconstruct(c, N, g, n_r=n_r, n_theta=n_theta,
                                      policy=policy)

    @staticmethod
    def _projected_residual(c, rec):
        """The residual by its definition: project the reconstruction back
        through the area-weight grid and compare with the retained data."""
        g, src, N = c.geometry, rec.source, rec.N
        ms = np.arange(-N, N + 1)
        plan = ss._planned(None, g, max(N, 1), src.rho)
        table = ss.build_spectrum(g, max(N, 1))
        sigma, cm = table.sigma[np.abs(ms)], c.c[ms + c.m_max]
        radial = ss._psi_radial(ms, plan.rings, table.a, g.R0)
        coef = ss._psi_project(src.area_weights * src.values, ms, radial)
        return math.sqrt(float(np.sum(np.abs(sigma * coef - cm)**2))
                         / float(np.sum(np.abs(cm)**2)))

    @pytest.mark.parametrize("kappa0, kappa, n_r, n_theta, noise, policy", [
        (100.0 * math.pi, 100.0 * math.pi, 256, 800, 0.0, "B"),
        (5.0 * math.pi, 10.0 * math.pi, 64, None, 0.01, "B-"),
    ])
    def test_matches_projection_on_resolved_grids(self, kappa0, kappa, n_r,
                                                  n_theta, noise, policy):
        # the geometries and grids of the benchmark's reconstruct ops
        c, rec = self._op(kappa0, kappa, n_r, n_theta, noise, policy,
                          {3: 1.0, -7: 0.5 - 0.25j, 12: 0.3j})
        assert abs(rec.residual - self._projected_residual(c, rec)) <= 1e-14

    def test_matches_projection_on_an_under_resolved_grid(self):
        # 64 rings leave |norm - 1| up to 0.40 among the retained modes at
        # kappa0 = 100 pi: the residual is large, and still the same
        c, rec = self._op(100.0 * math.pi, 100.0 * math.pi, 64, None, 0.0,
                          "B", {2: 1.0, -9: 0.5j})
        ref = self._projected_residual(c, rec)
        assert abs(rec.residual - ref) <= 1e-12 * ref
        assert rec.residual > 1e-2

    def test_reconstruct_path_builds_no_weight_grid(self, monkeypatch,
                                                    g_equal_10pi):
        g = g_equal_10pi
        horizon = ib.default_m_max(g.kappa0)
        n = 2 * horizon + 2
        truth = ib.source_grid(g, 48, n, fn=psi_mix(g, {2: 1.0, -5: 0.5j}))

        def refuse(_):
            raise AssertionError("the (n_r, n_theta) weight grid was built")

        monkeypatch.setattr(ib.SourceField, "area_weights", property(refuse))
        data = ib.synthesize_measurement(truth, 0.01, 5, modes=horizon,
                                         n_s=n)
        c = ib.modal_decompose(data, horizon)
        N = ib.pick_truncation(g, "B")
        for n_r in (48, 56):                 # forward rings, other rings
            rec = ib.tsvd_reconstruct(c, N, g, n_r=n_r, n_theta=n)
            assert rec.residual <= 1e-8


def _count_calls(g) -> dict:
    """Each call that takes a count, as a function of that count."""
    src = ib.source_grid(g, 16, 64, psi_mix(g, {2: 1.0}))
    data = ib.apply_forward_analytic(src, 40, n_s=128)
    coeffs = ib.modal_decompose(data, 40)
    return {
        "modes": lambda n: ib.apply_forward_analytic(src, n, n_s=128).n_s,
        "n": lambda n: ib.pick_truncation(g, "N", n=n),
        "N": lambda n: ib.tsvd_reconstruct(coeffs, n).N,
        "m_max": lambda n: ib.modal_decompose(data, n).m_max,
        "horizon": lambda n: ib.build_spectrum(g, n).m_max,
        "n_points": lambda n: len(ib.run_sweep(n, (2.0, 10.0))),
        "n_r": lambda n: ib.source_grid(g, n, 64).n_r,
        "n_theta": lambda n: ib.source_grid(g, 16, n).n_theta,
        "n_s": lambda n: ib.apply_forward_analytic(src, 20, n_s=n).n_s,
    }


@pytest.mark.parametrize("name, bad", [
    ("modes", -3), ("n", 2.5), ("N", 20.9), ("m_max", 30.7),
    ("horizon", 60.5), ("n_points", 2.5), ("n_r", 16.9), ("n_theta", 64.7),
    ("n_s", 100.6), ("n_s", 0)])
def test_counts_are_refused_not_floored(g_equal_10pi, name, bad):
    # counts follow the order rule of the Bessel tables: 3, np.int64(3)
    # and 3.0 are 3, and a negative or fractional count is refused
    call = _count_calls(g_equal_10pi)[name]
    with pytest.raises(ValueError):
        call(bad)
    want = 128 if name == "modes" else 3
    assert [call(n) for n in (3, np.int64(3), 3.0)] == [want] * 3
