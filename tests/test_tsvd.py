import importlib
import io
import math
import pkgutil
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import ispband as ib
from ispband import csvio, forward
from ispband import singular_system as ss
from ispband import specfun as sf
from ispband import tsvd

from conftest import (RUNTIME_MEMOS, WARM_MEMOS, cold_memos, disk_rel_l2,
                      psi_half, psi_project)
from oracles import (assemble_forward, forward_out_of_place,
                     forward_singular_system, psi_radial_out_of_place,
                     tsvd_out_of_place)

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

    def test_coeff_takes_orders_by_the_count_rule(self, g_equal_10pi):
        # coeff(2.0) once raised numpy's IndexError, and coeff(2.5) named
        # the range |m| <= 4 that it lies in
        c = ib.ModalCoefficients(g_equal_10pi, np.arange(9) + 0j)
        for m in (2.0, np.int64(2), -4.0):
            assert c.coeff(m) == c.c[int(m) + 4]
        for bad in (2.5, math.nan, None, "2"):
            with pytest.raises(ValueError, match="must be an integer"):
                c.coeff(bad)

    def test_fields_are_geometry_and_values(self):
        assert [f.name for f in fields(ib.ModalCoefficients)] == [
            "geometry", "c"]

    @pytest.mark.parametrize("n", [0, 8, 10])
    def test_m_max_is_read_off_c(self, g_equal_10pi, n):
        # m_max = 2 once read the modes -2 .. 2 off a c of 9 entries; a c
        # that is not 2 m_max + 1 long, or not 1-D, is refused
        c = ib.modal_decompose(ib.BoundaryData(
            g_equal_10pi, np.ones(32, dtype=complex)), 4)
        assert c.m_max == 4 and len(c.c) == 9
        with pytest.raises(ValueError, match="odd length"):
            replace(c, c=np.zeros(n, dtype=complex))
        with pytest.raises(ValueError, match="odd length"):
            replace(c, c=np.zeros((1, 9), dtype=complex))


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

        fm = assemble_forward(g, n_r, n_theta, n_s)
        u_mat, sv, vh = np.linalg.svd(fm, full_matrices=False)
        b = math.sqrt(2.0 * math.pi * g.R / n_s) * bd.values
        keep = 7
        x = (vh[:keep].conj().T
             @ ((u_mat[:, :keep].conj().T @ b) / sv[:keep]))
        shat = (x / np.sqrt(grid.area_weights.ravel())).reshape(n_r, n_theta)

        err = disk_rel_l2(rec.source.values, shat, grid.area_weights)
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
        c = ib.ModalCoefficients(geometry=g, c=np.zeros(381, dtype=complex))
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
        c = ib.ModalCoefficients(geometry=g_equal_10pi, c=values)
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
        assert counts == {"J": 0, "Y": 0, "JY": 0}

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
        counts.update(J=0, Y=0, JY=0)
        assert ib.pick_truncation(g, policy) == direct
        assert ib.pick_truncation(same, policy) == direct
        if policy == "B":
            assert counts == {"J": 0, "Y": 0, "JY": 0}
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
    """The forward map and tsvd_reconstruct read the ring rows J_m(k rho_i)
    of a grid from one ring memo, and all of them read one memoized
    spectrum per geometry: a warm op saves every pass, and its bits are
    those of a cold one."""

    N_R = 48

    def _data(self, g, noise, modes=None):
        horizon = ib.default_m_max(g.kappa0) if modes is None else modes
        n = 2 * horizon + 2
        truth = ib.source_grid(g, self.N_R, n,
                               fn=psi_mix(g, {2: 1.0, -5: 0.5 - 0.25j}))
        return truth, horizon, n

    @staticmethod
    def _warm_and_cold(c, N, g, n_r, n_theta):
        """tsvd_reconstruct from warm memos, then from cold ones."""
        def run():
            return ib.tsvd_reconstruct(c, N, g, n_r=n_r, n_theta=n_theta)
        run()
        warm = run()
        cold_memos()
        return warm, run()

    @pytest.mark.parametrize("kappa0, kappa", [(TEN_PI, TEN_PI), (8.0, 20.0)])
    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_two_bessel_passes_per_op(self, count_passes, kappa0, kappa,
                                      noise):
        # the memoized spectrum's pass (J at kappa0 and kappa, Y at kappa,
        # and below kappa = 25 the J rows of the Y seeds), which the forward
        # map, modal_decompose, pick_truncation and the TSVD share, and the
        # forward map's ring rows (one J pass), which the TSVD reads from
        # the ring memo. The spectrum's pass is one call of the loop with
        # its J and Y lanes, or below kappa = 25 a J call and then a Y call
        # from the seed rows it made
        g = ib.ProblemGeometry.from_size_params(kappa0, kappa)
        truth, horizon, n = self._data(g, noise)
        cold_memos()            # psi_eval's truth warmed both memos
        counts = count_passes()
        data = ib.synthesize_measurement(truth, noise, 5, modes=horizon,
                                         n_s=n)
        c = ib.modal_decompose(data, horizon)
        rec = ib.tsvd_reconstruct(c, ib.pick_truncation(g, "B"), g,
                                  n_r=self.N_R, n_theta=n)
        assert counts == ({"J": 1, "Y": 0, "JY": 1} if kappa >= 25.0
                          else {"J": 2, "Y": 1, "JY": 0})
        assert rec.residual <= 1e-8

    @pytest.mark.parametrize("kappa0, kappa", [(TEN_PI, TEN_PI), (8.0, 20.0)])
    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_warm_memo_leaves_the_forward_pass(self, count_passes, kappa0,
                                               kappa, noise):
        # once the spectrum of a geometry and the ring rows of its grid are
        # memoized, an op runs no Bessel pass and gives the bits of the
        # cold op
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
        assert counts == {"J": 0, "Y": 0, "JY": 0}
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
        assert counts == {"J": 0, "Y": 0, "JY": 0}

    @pytest.mark.parametrize("kappa0, kappa", [(TEN_PI, TEN_PI), (8.0, 20.0)])
    def test_new_radii_rebuild_ring_rows_only(self, count_passes, kappa0,
                                              kappa):
        # the memoized spectrum is kept, and only the ring rows of the
        # other radii are built: one J pass and no Y pass
        g = ib.ProblemGeometry.from_size_params(kappa0, kappa)
        truth, horizon, n = self._data(g, 0.0)
        data = ib.synthesize_measurement(truth, 0.0, 5, modes=horizon, n_s=n)
        c = ib.modal_decompose(data, horizon)
        N = ib.pick_truncation(g, "B")
        counts = count_passes()
        rec = ib.tsvd_reconstruct(c, N, g, n_r=self.N_R + 8, n_theta=n)
        assert counts == {"J": 1, "Y": 0, "JY": 0}
        ss._memo_rings.cache_clear()
        fresh = ib.tsvd_reconstruct(c, N, g, n_r=self.N_R + 8, n_theta=n)
        assert np.array_equal(rec.source.values, fresh.source.values)
        assert rec.residual == fresh.residual <= 1e-8

    def test_cold_memos_clears_every_runtime_memo(self):
        # a memo that cold_memos missed would start the next test warm and
        # hide the passes it saves from the counts above
        found = sorted(
            obj.__name__
            for info in pkgutil.iter_modules(ib.__path__)
            for obj in vars(importlib.import_module(
                f"ispband.{info.name}")).values()
            if hasattr(obj, "cache_clear")
            and obj.__module__ == f"ispband.{info.name}")
        assert found == sorted([m.__name__ for m in RUNTIME_MEMOS]
                               + list(WARM_MEMOS))

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_plan_changes_no_bits(self, g_equal_10pi, noise):
        # the memos change no bit: coefficients from a warm spectrum memo
        # and a cleared one, reconstructions from a warm ring memo and a
        # cleared one
        g = g_equal_10pi
        truth, horizon, n = self._data(g, noise)
        data = ib.synthesize_measurement(truth, noise, 5, modes=horizon,
                                         n_s=n)
        N = ib.pick_truncation(g, "B")
        for m_max in (horizon, 40):
            c = ib.modal_decompose(data, m_max)
            ss._memo_table.cache_clear()
            assert np.array_equal(c.c, ib.modal_decompose(data, m_max).c)
            for n_r in (self.N_R, self.N_R + 8):   # forward's rings, others
                warm, cold = self._warm_and_cold(c, N, g, n_r, n)
                assert np.array_equal(warm.source.values, cold.source.values)
                assert warm.residual == cold.residual
                assert warm.residual <= 1e-8

    def test_plan_past_the_default_horizon_is_not_reused(self, count_passes,
                                                         g_equal_10pi):
        # a spectrum to modes > default_m_max runs its J rows to another
        # horizon than the inverse's own, so the inverse builds its own
        g = g_equal_10pi
        modes = ib.default_m_max(g.kappa0) + 10
        truth, _, n = self._data(g, 0.0, modes)
        cold_memos()            # psi_eval's truth warmed both memos
        data = ib.synthesize_measurement(truth, 0.0, 5, modes=modes, n_s=n)
        c = ib.modal_decompose(data, modes)
        N = ib.pick_truncation(g, "B")
        counts = count_passes()
        ib.tsvd_reconstruct(c, N, g, n_r=self.N_R, n_theta=n)
        assert counts == {"J": 1, "Y": 0, "JY": 0}
        warm, cold = self._warm_and_cold(c, N, g, self.N_R, n)
        assert np.array_equal(warm.source.values, cold.source.values)
        assert warm.residual == cold.residual <= 1e-8

    def test_hand_made_data_falls_back(self, count_passes, g_equal_10pi):
        # data that did not come from the forward map (made by hand, read
        # from a CSV) on the forward map's grid reuses its ring rows
        g = g_equal_10pi
        truth, horizon, n = self._data(g, 0.0)
        values = ib.apply_forward_analytic(truth, horizon, n_s=n).values
        bd = ib.BoundaryData(geometry=g, values=values.copy())
        c = ib.modal_decompose(bd, horizon)
        N = ib.pick_truncation(g, "B")
        counts = count_passes()
        rec = ib.tsvd_reconstruct(c, N, g, n_r=self.N_R, n_theta=n)
        assert counts == {"J": 0, "Y": 0, "JY": 0}
        assert rec.residual <= 1e-8
        rec = ib.tsvd_reconstruct(c, N, g, n_r=self.N_R + 8, n_theta=n)
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
        sigma = ss.build_spectrum(g, max(N, 1)).sigma[np.abs(ms)]
        cm = c.c[ms + c.m_max]
        coef = psi_project(src.area_weights * src.values, ms,
                           psi_half(g, src.rho, N))
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


class TestDefaultGrid:
    """A tsvd_reconstruct call that leaves out its grid gets the grid of
    forward._resolving_grid, whose rings resolve the retained modes."""

    @pytest.mark.parametrize("kappa0, N, shape", [
        (100.0 * math.pi, None, (201, 610)), (1000.0, 986, (556, 1974)),
        # the ends of the rule's checked range: the 64-ring floor at the
        # horizon of a small disk, and N = kappa0 past 1000
        (0.01, 42, (64, 86)), (1.0, 44, (64, 90)),
        (1500.0, 1500, (812, 3002)), (2000.0, 2000, (1067, 4002))])
    def test_margin_at_round_off(self, kappa0, N, shape):
        # 64 rings, the default before, gave margins 0.40 and 0.61 at
        # kappa0 = 100 pi and 1000
        g = ib.ProblemGeometry.from_size_params(kappa0, kappa0)
        if N is None:
            N = ib.pick_truncation(g, "B")
            assert N == 304
        assert N <= max(kappa0, ib.default_m_max(kappa0))
        rng = np.random.default_rng(4)
        c = ib.ModalCoefficients(g, rng.standard_normal(2 * N + 1)
                                 + 1j * rng.standard_normal(2 * N + 1))
        rec = ib.tsvd_reconstruct(c, N)
        assert rec.source.values.shape == shape
        assert forward._resolving_grid(g, N) == shape
        assert rec.margin <= 1e-13 and rec.residual <= 1e-13
        explicit = ib.tsvd_reconstruct(c, N, n_r=shape[0], n_theta=shape[1])
        # bitwise, through integer views: no copy of the 68 MB grid at 2000
        assert np.array_equal(explicit.source.values.view(np.uint64),
                              rec.source.values.view(np.uint64))

    def test_one_size_left_out(self, g_equal_10pi):
        c = ib.modal_decompose(ib.BoundaryData(
            geometry=g_equal_10pi, values=np.ones(64, dtype=complex)), 8)
        n_r, n_theta = forward._resolving_grid(g_equal_10pi, 5)
        assert (n_r, n_theta) == (64, 12)
        assert ib.tsvd_reconstruct(c, 5, n_r=9).source.values.shape == (
            9, n_theta)
        assert ib.tsvd_reconstruct(c, 5, n_theta=11).source.values.shape == (
            n_r, 11)


def test_one_aliasing_refusal(g_equal_10pi):
    # the decomposition, the TSVD and the reconstruction reader refuse an
    # aliasing grid with one message, from forward._check_bins
    g = g_equal_10pi
    c = ib.modal_decompose(ib.BoundaryData(
        geometry=g, values=np.ones(16, dtype=complex)), 7)
    rec = ib.tsvd_reconstruct(c, 7, n_r=6, n_theta=15)
    text = csvio.dumps(csvio.write_reconstruction, rec).replace(
        " n_theta=15 ", " n_theta=14 ")
    calls = [
        ("n_s", lambda: ib.modal_decompose(ib.BoundaryData(
            geometry=g, values=np.ones(14, dtype=complex)), 7)),
        ("n_theta", lambda: ib.tsvd_reconstruct(c, 7, n_r=6, n_theta=14)),
        ("n_theta", lambda: csvio.read_reconstruction(io.StringIO(text))),
    ]
    for name, call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == (f"{name}=14 cannot resolve modes up to 7 "
                                  f"without aliasing; need {name} >= 15")


# the benchmark's two reconstruct ops, and a CLI-sized grid (--nr 64)
_OPS = [(100.0 * math.pi, 100.0 * math.pi, 256, 800, 0.0, "B"),
        (5.0 * math.pi, 10.0 * math.pi, 64, None, 0.01, "B-"),
        (8.0 * math.pi, 12.0 * math.pi, 64, None, 0.0, "B")]
# ring counts that _psi_project's blocks (15 rings of 2142 angles) do not
# divide, on the default CLI grid's angles at kappa0 = kappa = 1000
_RAGGED = [(1000.0, 1000.0, n_r, 2142, 0.0, "B") for n_r in (7, 33, 556)]


class TestInPlaceTransform:
    """The modal transform works in place on arrays it owns: bitwise the
    out-of-place expressions of tests/oracles.py, and never a write into
    the caller's arrays or the memos."""

    @staticmethod
    def _run(kappa0, kappa, n_r, n_theta, noise, policy):
        g = ib.ProblemGeometry.from_size_params(kappa0, kappa)
        horizon = ib.default_m_max(g.kappa0)
        n_s = 2 * horizon + 2
        n_theta = n_s if n_theta is None else n_theta
        truth = ib.source_grid(g, n_r, n_theta,
                               fn=psi_mix(g, {3: 1.0, -7: 0.5 - 0.25j,
                                              12: 0.3j}))
        kept = truth.values.copy()
        data = ib.synthesize_measurement(truth, noise, 3, modes=horizon,
                                         n_s=n_s)
        assert np.array_equal(truth.values, kept)
        c = ib.modal_decompose(data, horizon)
        kept = c.c.copy()
        rec = ib.tsvd_reconstruct(c, ib.pick_truncation(g, policy), g,
                                  n_r=n_r, n_theta=n_theta, policy=policy)
        assert np.array_equal(c.c, kept)
        return truth, data, c, rec

    @pytest.mark.parametrize("op", _OPS + _RAGGED)
    def test_bitwise_the_out_of_place_expressions(self, monkeypatch, op):
        truth, data, c, rec = self._run(*op)
        g, horizon = c.geometry, c.m_max
        # the first op filled the memos; a warm one gives the same bits
        _, warm_data, warm_c, warm = self._run(*op)
        assert np.array_equal(warm_data.values, data.values)
        assert np.array_equal(warm_c.c, c.c)
        assert np.array_equal(warm.source.values, rec.source.values)
        assert warm.residual == rec.residual
        monkeypatch.setattr(
            forward, "apply_forward_analytic",
            lambda s, modes, n_s: ib.BoundaryData(
                geometry=g, values=forward_out_of_place(s, modes, n_s)))
        ref = ib.synthesize_measurement(truth, op[4], 3, modes=horizon,
                                        n_s=data.n_s)
        assert np.array_equal(data.values, ref.values)
        ref_c = ib.modal_decompose(ref, horizon)
        assert np.array_equal(c.c, ref_c.c)
        values, residual = tsvd_out_of_place(ref_c, rec.N, truth.n_r,
                                             truth.n_theta)
        assert np.array_equal(rec.source.values, values)
        assert rec.residual == residual

    @pytest.mark.parametrize("op", _OPS + [(1000.0, 1000.0, 556, 2142)])
    def test_graf_series_is_the_singular_system_sum(self, op):
        # A_m, sigma_m and the signs of psi_m and phi_m cancel in
        # sigma_m (s, psi_m) phi_m; the two routes part in round-off only
        g = ib.ProblemGeometry.from_size_params(*op[:2])
        horizon = ib.default_m_max(g.kappa0)
        n_s = 2 * horizon + 2
        s = ib.source_grid(g, op[2], op[3] or n_s,
                           fn=psi_mix(g, {3: 1.0, -7: 0.5 - 0.25j, 12: 0.3j}))
        got = ib.apply_forward_analytic(s, horizon, n_s=n_s).values
        ref = forward_singular_system(s, horizon, n_s)
        assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("op", _OPS)
    def test_memos_stay_read_only_and_unchanged(self, monkeypatch, op):
        # one spectrum and one ring table serve the forward and the TSVD,
        # both only read them, and the TSVD's radial table is the columns
        # m >= 0 of the out-of-place one
        truth, _, c, rec = self._run(*op)
        g = c.geometry
        h = ss._j_horizon(g.kappa0, c.m_max)
        assert all(m.cache_info().currsize == 1 for m in RUNTIME_MEMOS)
        rings = ss._planned(g, c.m_max, truth.rho)
        table = ss._memo_table(g, h)
        seen = []
        monkeypatch.setattr(tsvd, "_psi_synthesize", lambda w, half, n: (
            seen.append(half) or ss._psi_synthesize(w, half, n)))
        ib.tsvd_reconstruct(c, rec.N, g, n_r=truth.n_r,
                            n_theta=truth.n_theta)
        assert all(m.cache_info().currsize == 1 for m in RUNTIME_MEMOS)
        assert not rings.flags.writeable
        assert np.array_equal(rings, sf.bessel_j_table(h, g.k * truth.rho))
        expected = psi_radial_out_of_place(np.arange(-rec.N, rec.N + 1),
                                           rings, table.a, g.R0)
        assert np.array_equal(seen[0], expected[:, rec.N:])
        fresh = ss.build_spectrum(g, h - 1)
        for name in ss._COLUMNS:
            column = getattr(table, name)
            assert not column.flags.writeable
            assert np.array_equal(column, getattr(fresh, name)), name


class TestAllocationBudget:
    """A warm op of the benchmark's big size (kappa0 = kappa = 100 pi,
    256 x 800, 376 modes, N = 304) makes no full-grid temporary: the
    forward holds its mode buffer, its weighted half-width ring table and
    one block of rings, the TSVD its output and its half-width radial
    table (orders 0 .. N, one column for m and -m). Measured by
    tracemalloc's peak, which counts numpy's buffers and does not depend
    on the C allocator."""

    N_R, N_THETA = 256, 800
    # numpy's casting buffers (np.getbufsize() elements of at most 16
    # bytes for each of up to four operands) and small arrays
    SLACK = 4 * 16 * np.getbufsize()

    @staticmethod
    def _peak(fn) -> int:
        """Bytes fn() holds at most over what was held before, warm."""
        fn()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            if not tracing:
                tracemalloc.stop()

    @pytest.fixture
    def big(self):
        g = ib.ProblemGeometry.from_size_params(100.0 * math.pi,
                                                100.0 * math.pi)
        rng = np.random.default_rng(8)
        s = ib.source_grid(g, self.N_R, self.N_THETA)
        s.values[:] = rng.standard_normal(s.values.shape)
        return s, ib.default_m_max(g.kappa0)

    def test_forward_holds_the_mode_buffer_table_and_one_block(self, big):
        s, horizon = big
        peak = self._peak(lambda: ib.apply_forward_analytic(
            s, horizon, n_s=2 * horizon + 2))
        modes = self.N_R * (2 * horizon + 1) * 16
        table = modes // 4
        # a block's FFT and its gathered mode columns
        block = 2 * ss._PROJECT_BLOCK
        assert peak <= modes + table + block + self.SLACK

    def test_tsvd_holds_its_output(self, big):
        s, horizon = big
        g = s.geometry
        c = ib.modal_decompose(ib.apply_forward_analytic(
            s, horizon, n_s=2 * horizon + 2), horizon)
        N = ib.pick_truncation(g, "B")
        assert N == 304
        peak = self._peak(lambda: ib.tsvd_reconstruct(
            c, N, g, n_r=self.N_R, n_theta=self.N_THETA))
        half = self.N_R * (N + 1) * 8
        assert peak <= self.N_R * self.N_THETA * 16 + half + self.SLACK


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


@pytest.mark.parametrize("power", [-600, 600])
def test_residual_is_scale_invariant(g_equal_10pi, power):
    # |c_m|^2 once underflowed to a zero residual (2^-600) or overflowed
    # to nan (2^600); scaling by a power of two now leaves every bit
    rng = np.random.default_rng(8)
    bd = ib.BoundaryData(geometry=g_equal_10pi, values=(
        rng.standard_normal(64) + 1j * rng.standard_normal(64)))
    c = ib.modal_decompose(bd, 20)
    ref = ib.tsvd_reconstruct(c, 12, n_r=12, n_theta=40)
    assert 0.0 < ref.residual < 1.0
    scaled = ib.tsvd_reconstruct(replace(c, c=c.c * 2.0**power), 12,
                                 n_r=12, n_theta=40)
    assert scaled.residual == ref.residual
