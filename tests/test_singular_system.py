import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import hankel1, jv, yv

import ispband as ib
from ispband import singular_system as ss
from ispband import specfun as sf

from oracles import psi_oracle
from test_specfun import arg_row

mp.mp.dps = 30
TEN_PI = 10.0 * math.pi


class TestGeometry:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            ib.ProblemGeometry(k=0.0, R0=1.0, R=1.0)
        with pytest.raises(ValueError):
            ib.ProblemGeometry(k=1.0, R0=-1.0, R=1.0)
        with pytest.raises(ValueError):
            ib.ProblemGeometry(k=1.0, R0=2.0, R=1.0)

    def test_size_parameter_properties(self):
        g = ib.ProblemGeometry(k=2.0, R0=3.0, R=5.0)
        assert g.kappa0 == pytest.approx(6.0)
        assert g.kappa == pytest.approx(10.0)

    def test_from_size_params_unit_outer_radius(self):
        g = ib.ProblemGeometry.from_size_params(TEN_PI, 4.0 * TEN_PI)
        assert g.R == 1.0
        assert g.kappa == pytest.approx(4.0 * TEN_PI)
        assert g.kappa0 == pytest.approx(TEN_PI)
        assert g.R0 == pytest.approx(0.25)
        with pytest.raises(ValueError):
            ib.ProblemGeometry.from_size_params(4.0, 2.0)

    def test_default_m_max(self):
        got = ss.default_m_max(TEN_PI)
        expected = math.ceil(TEN_PI) + math.ceil(3.0 * TEN_PI ** (1.0 / 3.0)) + 40
        assert got == expected


class TestEnvelopeCoefficient:
    @settings(max_examples=120, deadline=None)
    @given(
        m=st.integers(min_value=0, max_value=150),
        kappa0=st.floats(min_value=0.3, max_value=150.0),
    )
    def test_dual_forms_agree(self, m, kappa0):
        # The dual form cancels by a factor ~m deep in the stopband, so
        # agreement is measured against the size of the uncancelled terms.
        a2 = ss.a_m(m, kappa0) ** 2
        jm = jv(m, kappa0)
        jp = jv(m + 1, kappa0)
        alt = jm * jm + jp * jp - (2.0 * m / kappa0) * jm * jp
        scale = max(a2, abs(alt), jm * jm, jp * jp, 1e-280)
        assert abs(a2 - alt) <= 1e-12 * scale

    @settings(max_examples=120, deadline=None)
    @given(
        m=st.integers(min_value=0, max_value=150),
        kappa0=st.floats(min_value=0.3, max_value=150.0),
    )
    def test_difference_identity(self, m, kappa0):
        lhs = ss.a_m(m, kappa0) ** 2 - ss.a_m(m + 1, kappa0) ** 2
        jm = jv(m, kappa0)
        jp = jv(m + 1, kappa0)
        rhs = (2.0 / kappa0) * jm * jp
        scale = max(ss.a_m(m, kappa0) ** 2, ss.a_m(m + 1, kappa0) ** 2,
                    jm * jm, jp * jp, 1e-280)
        assert abs(lhs - rhs) <= 1e-12 * scale

    def test_quadrature_identity(self):
        # (R0^2 / 2) A_m(kR0)^2 equals the radial moment of J_m(k rho)^2.
        for m, k, r0 in [(0, 2.0, 1.0), (3, TEN_PI, 1.0), (11, 17.3, 0.6), (30, 40.0, 1.2)]:
            target = 0.5 * r0 * r0 * ss.a_m(m, k * r0) ** 2
            val, err = quad(
                lambda rho: rho * jv(m, k * rho) ** 2, 0.0, r0, limit=400
            )
            assert abs(val - target) <= 1e-10 * max(target, 1e-12)

    def test_symmetric_in_sign_via_arrays(self):
        ms = np.arange(0, 40)
        vals = ss.a_m(ms, TEN_PI)
        assert vals.shape == ms.shape
        for m in (1, 7, 20):
            assert ss.a_m(m, TEN_PI) == vals[m]
            assert ss.a_m(-m, TEN_PI) == vals[m]

    def test_accuracy_against_mpmath(self):
        # jv's row put A_1062(1000) off by 4.8e-11
        m, x = 1062, mp.mpf(1000)
        with mp.workprec(300):
            j = [mp.besselj(k, x) for k in (m - 1, m, m + 1)]
            ref = float(mp.sqrt(j[1] ** 2 - j[0] * j[2]))
        assert abs(ss.a_m(m, 1000.0) - ref) <= 1e-13 * ref

    def test_deep_underflow_returns_zero(self):
        assert ss.a_m(400, 0.5) == 0.0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            ss.a_m(0, 0.0)


class TestSpectrum:
    def test_batched_rows_match_one_geometry(self):
        # one Bessel pass over several geometries gives each the bits of
        # its own build_spectrum, and Y rows (seeded from J rows of the
        # same pass below x = 25) that are bessel_y_table's up to the
        # orders the geometry needs
        gs = [ib.ProblemGeometry.from_size_params(k0, k) for k0, k in
              [(2.0, 2.0), (TEN_PI, 4 * TEN_PI), (1000.0, 1000.0),
               (0.3, 0.3), (100.0, 300.0), (TEN_PI, TEN_PI)]]
        horizons = [ss.default_m_max(g.kappa0) for g in gs]
        horizons[-1] = 70
        for g, m_max, rows in zip(gs, horizons,
                                  ss._bessel_rows(gs, horizons,
                                                  at_kappa0=True)):
            got = ss._spectrum(g, m_max, rows)
            ref = ss.build_spectrum(g, m_max)
            for name in ("a", "log_abs_h2", "log_sigma", "sigma", "phase"):
                assert np.array_equal(getattr(got, name),
                                      getattr(ref, name)), name
            for y, e, x, last in ((*rows[2:4], g.kappa, m_max),
                                  (*rows[4:6], g.kappa0,
                                   math.ceil(g.kappa0) + 2)):
                y_ref, e_ref = sf.bessel_y_table(last, x)
                assert np.array_equal(y[:last + 1], y_ref)
                assert np.array_equal(e[:last + 1], e_ref)

    @pytest.mark.parametrize("kappa0, kappa", [(TEN_PI, TEN_PI), (8.0, 20.0),
                                               (1000.0, 1000.0)])
    def test_memo_prefix_is_build_spectrum(self, count_passes, kappa0,
                                           kappa):
        # the package's readers share one read-only table per geometry and
        # J horizon, and each m_max reads a prefix of it with the bits of
        # a fresh build_spectrum(g, m_max), which stays writable
        g = ib.ProblemGeometry.from_size_params(kappa0, kappa)
        top = ss.default_m_max(g.kappa0)
        for m_max in (17, top, top + 30):
            fresh = ss.build_spectrum(g, m_max)
            shared = ss._spectrum_table(g, m_max)
            assert shared.geometry == g and shared.m_max == m_max
            for name in ss._COLUMNS:
                got, ref = getattr(shared, name), getattr(fresh, name)
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
                assert ref.flags.writeable and not got.flags.writeable
        # every m_max up to the default horizon reads one table, so one
        # pass; a longer horizon takes a table and a pass of its own
        ss._memo_table.cache_clear()
        counts = count_passes()
        for m_max in (1, 17, top):
            ss._spectrum_table(g, m_max)
        assert counts == {"J": 1, "Y": 1}
        ss._spectrum_table(g, top + 30)
        assert counts == {"J": 2, "Y": 2}

    def test_log_sigma_symmetry(self, g_equal_10pi):
        # sigma_{-m} = sigma_m because A_{-m} = A_m and |H_{-m}| = |H_m|
        g = g_equal_10pi
        table = ss.build_spectrum(g)
        for m in (1, 5, 26, 40):
            assert ss.a_m(-m, g.kappa0) == table.a[m]
            log_h2 = 2.0 * math.log(abs(hankel1(-m, g.kappa)))
            assert log_h2 == pytest.approx(table.log_abs_h2[m], rel=1e-12)

    def test_plateau_value(self):
        g = ib.ProblemGeometry.from_size_params(200.0 * math.pi, 200.0 * math.pi)
        lam = 2.0 * math.pi / g.k
        ref = math.sqrt(2.0) / math.pi * lam * math.sqrt(g.R0)
        got = math.exp(ss.build_spectrum(g).log_sigma[0])
        assert abs(got - ref) <= 0.05 * ref

    def test_stopband_two_to_one_ratio(self):
        g = ib.ProblemGeometry(k=1.0, R0=0.5, R=1.0)
        m = 10
        ref = (1.0 / m) * math.sqrt(2.0 / (m + 1)) * (g.R0 / g.R) ** (m - 0.5) * g.R0**1.5
        got = math.exp(ss.build_spectrum(g).log_sigma[m])
        assert abs(got - ref) <= 0.20 * ref

    def test_table_shape_and_transition(self, g_equal_10pi):
        table = ss.build_spectrum(g_equal_10pi, 70)
        assert len(table) == 71
        assert table.m_max == 70
        ls = table.log_sigma
        # Final non-decrease sits between m=26 and m=27, strict decay after.
        assert ls[26] <= ls[27]
        assert np.all(np.diff(ls[27:]) < 0.0)

    def test_far_boundary_shrinks_every_mode(self, g_equal_10pi, g_far_10pi):
        near = ss.build_spectrum(g_equal_10pi, 70)
        far = ss.build_spectrum(g_far_10pi, 70)
        assert np.all(far.sigma < near.sigma)
        viol = np.nonzero(far.log_sigma[:-1] <= far.log_sigma[1:])[0]
        assert viol[-1] == 25

    def test_minimal_table(self, g_equal_10pi):
        table = ss.build_spectrum(g_equal_10pi, 1)
        assert len(table) == 2

    def test_sigma_positive_and_finite_in_band(self, g_equal_10pi):
        table = ss.build_spectrum(g_equal_10pi, 40)
        assert np.all(table.sigma > 0.0)
        assert np.all(np.isfinite(table.log_sigma))

    def test_domain_validation(self, g_equal_10pi):
        with pytest.raises(ValueError):
            ss.build_spectrum(g_equal_10pi, -1)


class TestSingularFunctions:
    def test_psi_normalization(self, g_equal_10pi):
        g = g_equal_10pi
        grid = ib.source_grid(g, 96, 256)
        w = grid.area_weights
        for m in (0, 1, 7, 26):
            vals = ss.psi_eval(m, g, grid.rho[:, None], grid.theta[None, :])
            assert float(np.sum(w * np.abs(vals) ** 2)) == pytest.approx(
                1.0, abs=1e-8
            )

    def test_psi_orthogonality(self, g_equal_10pi):
        g = g_equal_10pi
        grid = ib.source_grid(g, 96, 256)
        w = grid.area_weights
        pairs = [(0, 1), (3, -3), (5, 9), (-2, 7)]
        for m, n in pairs:
            vm = ss.psi_eval(m, g, grid.rho[:, None], grid.theta[None, :])
            vn = ss.psi_eval(n, g, grid.rho[:, None], grid.theta[None, :])
            inner = complex(np.sum(w * vm * np.conj(vn)))
            assert abs(inner) < 1e-8

    def test_phi_modulus_and_orthonormality(self, g_equal_10pi):
        g = g_equal_10pi
        n = 128
        theta = 2.0 * math.pi * np.arange(n) / n
        wb = 2.0 * math.pi * g.R / n
        for m in (0, 4, -11, 30):
            vals = ss.phi_eval(m, g, theta)
            assert np.allclose(np.abs(vals), 1.0 / math.sqrt(2.0 * math.pi * g.R))
        v1 = ss.phi_eval(3, g, theta)
        v2 = ss.phi_eval(-5, g, theta)
        assert float(np.sum(wb * v1 * np.conj(v1)).real) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.sum(wb * v1 * np.conj(v2))) < 1e-12

    def test_psi_at_center_and_domain(self, g_equal_10pi):
        g = g_equal_10pi
        center = ss.psi_eval(0, g, 0.0, 0.0)
        expected = 1.0 / (math.sqrt(math.pi) * g.R0 * ss.a_m(0, g.kappa0))
        assert complex(center) == pytest.approx(expected, rel=1e-12)
        with pytest.raises(ValueError):
            ss.psi_eval(0, g, 1.5 * g.R0, 0.0)

    @pytest.mark.parametrize("geometry", ["g_equal_10pi", "g_far_10pi"])
    def test_psi_matches_jv_off_the_grid(self, request, geometry):
        # an oracle that shares no code with psi_eval: jv at the signed
        # order, random points off every quadrature grid, rim and centre
        g = request.getfixturevalue(geometry)
        rng = np.random.default_rng(17)
        rho = g.R0 * np.r_[0.0, np.sqrt(rng.uniform(size=300)), 1.0]
        theta = rng.uniform(0.0, 2.0 * math.pi, size=rho.size)
        for m in (0, 5, -7, -8, 26):
            got = ss.psi_eval(m, g, rho, theta)
            ref = psi_oracle(m, g, rho, theta)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_psi_eval_takes_one_j_pass(self, count_passes, g_equal_10pi):
        # the J row at kappa0 behind A_m and the ring rows share one call
        g = g_equal_10pi
        grid = ib.source_grid(g, 32, 16)
        for m in (0, -7, 26, 120):     # 120: past the default horizon
            counts = count_passes()
            ss.psi_eval(m, g, grid.rho[:, None], grid.theta[None, :])
            assert counts == {"J": 1, "Y": 0}

    def test_orders_refused_not_floored(self, g_equal_10pi):
        g = g_equal_10pi
        for bad in (2.7, -3.5, math.nan, None, "3"):
            with pytest.raises(ValueError, match="mode order"):
                ss.psi_eval(bad, g, 0.5 * g.R0, 0.3)
            with pytest.raises(ValueError, match="mode order"):
                ss.phi_eval(bad, g, 0.3)
        for m in (-3.0, np.int64(-3)):
            assert ss.psi_eval(m, g, 0.5 * g.R0, 0.3) == ss.psi_eval(
                -3, g, 0.5 * g.R0, 0.3)
            assert ss.phi_eval(m, g, 0.3) == ss.phi_eval(-3, g, 0.3)

    def test_degenerate_mode_rejected(self):
        g = ib.ProblemGeometry(k=1.0, R0=0.5, R=1.0)
        with pytest.raises(ArithmeticError):
            ss.psi_eval(400, g, 0.2, 0.0)

    def test_singular_triple_via_mode_kernel(self, g_equal_10pi):
        # Apply the boundary-trace operator to psi_m with the kernel expanded
        # in cylinder modes; the result must be sigma_m phi_m on the circle.
        g = g_equal_10pi
        n_r, n_th = 96, 256
        grid = ib.source_grid(g, n_r, n_th)
        w = grid.area_weights
        theta_x = 2.0 * math.pi * np.arange(16) / 16
        sigma = ss.build_spectrum(g).sigma
        for m in (0, 1, 2, 5, 12, 30, -3, -8):
            vmax = abs(m) + 60
            psi = ss.psi_eval(m, g, grid.rho[:, None], grid.theta[None, :])
            out = np.zeros(theta_x.size, dtype=complex)
            for nu in range(-vmax, vmax + 1):
                jn = jv(nu, g.k * grid.rho)[:, None]
                h = hankel1(nu, g.kappa)
                proj = np.sum(w * psi * jn * np.exp(-1j * nu * grid.theta)[None, :])
                out += h * proj * np.exp(1j * nu * theta_x)
            ref = sigma[abs(m)] * ss.phi_eval(m, g, theta_x)
            assert float(np.max(np.abs(out - ref))) < 1e-6

    def test_ordering_flip_on_interior_resonance(self):
        # When some J_mu with mu in [m, m+1] vanishes at kappa0, the envelope
        # coefficient must not decrease across that step.
        for kappa0 in (TEN_PI, 31.7, 100.0, 100.0 * math.pi):
            for m in range(0, 200):
                jm = jv(m, kappa0)
                jp = jv(m + 1, kappa0)
                if jm == 0.0 or jm * jp < 0.0:
                    am = ss.a_m(m, kappa0)
                    ap = ss.a_m(m + 1, kappa0)
                    assert am <= ap * (1.0 + 1e-12)

    def test_multiplicity_two_off_axis(self, g_equal_10pi):
        # the forward map carries psi_m and psi_{-m} with the same sigma_{|m|}
        g = g_equal_10pi
        table = ss.build_spectrum(g, 50)
        for m in (1, 9, 27, 41):
            grid = ib.source_grid(
                g, 64, 128,
                fn=lambda r, t: ss.psi_eval(m, g, r, t) + ss.psi_eval(-m, g, r, t))
            c = ib.modal_decompose(ib.apply_forward_analytic(grid, 50), 50)
            for n in (m, -m):
                assert abs(c.coeff(n) - table.sigma[m]) <= 1e-8 * table.sigma[m]


def _loop_synthesize(w, ms, g, rho, n_theta):
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    out = np.zeros((len(rho), n_theta), dtype=complex)
    for wm, m in zip(w, ms):
        out += wm * ss.psi_eval(int(m), g, rho[:, None], theta[None, :])
    return out


def _loop_project(P, ms, g, rho):
    theta = 2.0 * math.pi * np.arange(P.shape[1]) / P.shape[1]
    return np.array([np.sum(P * np.conj(ss.psi_eval(int(m), g, rho[:, None],
                                                    theta[None, :])))
                     for m in ms])


def _synthesize_at(w, ms, radial, n_theta):
    """_psi_synthesize at the angles 2 pi j / n_theta, also where modes of
    ms share a bin there: it runs on the smallest multiple of n_theta that
    gives each mode its own bin, and every step-th angle is kept."""
    step = -(-(int(np.ptp(ms)) + 1) // n_theta)
    return ss._psi_synthesize(w, ms, radial, step * n_theta)[:, ::step]


class TestModalTransform:
    """The Bessel-table-times-FFT transform against per-mode psi_eval sums.
    Synthesis takes resolved grids only; on an aliased n_theta it is read
    off a resolved multiple of it, while the projection aliases."""

    @staticmethod
    def _case(g, n_r, n_theta, ms, seed):
        rng = np.random.default_rng(seed)
        rho = ib.source_grid(g, n_r, 2).rho
        w = rng.standard_normal(len(ms)) + 1j * rng.standard_normal(len(ms))
        P = (rng.standard_normal((n_r, n_theta))
             + 1j * rng.standard_normal((n_r, n_theta)))
        plan = ss._planned(None, g, ss.default_m_max(g.kappa0), rho)
        return rho, w, P, ss._psi_radial(ms, plan.rings,
                                         ss.build_spectrum(g).a, g.R0)

    @pytest.mark.parametrize("n_theta, ms", [
        (64, np.arange(-20, 21)),              # resolved: n_theta >= 2N + 1
        (16, np.arange(-20, 21)),              # aliased: many modes per bin
        (12, np.array([-9, -7, -1, 0, 3, 11])),  # negative odd orders
    ])
    def test_matches_per_mode_loops(self, g_equal_10pi, n_theta, ms):
        g = g_equal_10pi
        rho, w, P, radial = self._case(g, 24, n_theta, ms, seed=4)
        synth = _synthesize_at(w, ms, radial, n_theta)
        ref = _loop_synthesize(w, ms, g, rho, n_theta)
        assert np.max(np.abs(synth - ref)) <= 1e-12 * np.max(np.abs(ref))
        proj = ss._psi_project(P, ms, radial)
        ref = _loop_project(P, ms, g, rho)
        assert np.max(np.abs(proj - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_negative_orders_by_reflection(self, g_equal_10pi):
        g = g_equal_10pi
        rho = ib.source_grid(g, 16, 2).rho
        ms = np.arange(-40, 41)
        plan = ss._planned(None, g, ss.default_m_max(g.kappa0), rho)
        radial = ss._psi_radial(ms, plan.rings, ss.build_spectrum(g).a, g.R0)
        # column -m is (-1)^m times column m, bit for bit
        sign = np.where(ms[41:] % 2 == 1, -1.0, 1.0)
        assert np.array_equal(radial[:, 39::-1], radial[:, 41:] * sign)
        # and the table is the jv one to 1e-12 of each column's maximum
        expected = jv(ms[None, :], g.k * rho[:, None]) / (
            math.sqrt(math.pi) * g.R0 * ss.a_m(ms, g.kappa0))
        err = np.max(np.abs(radial - expected), axis=0)
        assert np.all(err <= 1e-12 * np.max(np.abs(expected), axis=0))

    @pytest.mark.parametrize("n_theta", [64, 16])
    def test_adjoint_pair(self, g_equal_10pi, n_theta):
        ms = np.arange(-20, 21)
        _, w, P, radial = self._case(g_equal_10pi, 24, n_theta, ms, seed=9)
        lhs = np.sum(_synthesize_at(w, ms, radial, n_theta) * np.conj(P))
        rhs = np.sum(w * np.conj(ss._psi_project(P, ms, radial)))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("modes, n_s", [(20, 96), (30, 40)])
    def test_forward_matches_per_mode_sum(self, g_equal_10pi, modes, n_s):
        # n_s = 40 < 2 modes + 1: several modes share each boundary bin
        g = g_equal_10pi
        rng = np.random.default_rng(1)
        grid = ib.source_grid(g, 32, 48)
        grid.values[:] = (rng.standard_normal(grid.values.shape)
                          + 1j * rng.standard_normal(grid.values.shape))
        got = ib.apply_forward_analytic(grid, modes, n_s=n_s).values
        table = ss.build_spectrum(g, modes)
        theta = 2.0 * math.pi * np.arange(n_s) / n_s
        ms = np.arange(-modes, modes + 1)
        coef = _loop_project(grid.area_weights * grid.values, ms, g, grid.rho)
        ref = sum(table.sigma[abs(m)] * cm * ss.phi_eval(int(m), g, theta)
                  for m, cm in zip(ms, coef))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_phase_row_exact_on_saturated_tail(self):
        # where Y_m saturates the phase is exactly -pi/2, or +pi/2 on odd
        # negative orders; below that, 60 orders spread evenly are arg H_m
        # of 40-digit mpmath to 1e-14 (every order is within 5.6e-15;
        # scipy's own atan2(yv, jv) is off by 7.2e-13 at x = 1000, m = 193,
        # so it cannot serve as the reference)
        ms = np.arange(-3000, 3001)
        odd_negative = (ms < 0) & (ms % 2 == 1)
        for x in (0.5, 7.3, TEN_PI, 100.0 * math.pi, 1000.0):
            row = ss._signed_phase(arg_row(3000, x), ms)
            # H_{-m} = (-1)^m H_m: odd negative orders add pi, bit for bit
            pos = row[3001:]
            assert np.array_equal(row[2999::-1],
                                  np.where(ms[3001:] % 2 == 1,
                                           pos + math.pi, pos))
            saturated = ~np.isfinite(yv(np.abs(ms), x))
            assert saturated.any()
            assert np.all(row[saturated & ~odd_negative] == -0.5 * math.pi)
            assert np.all(row[saturated & odd_negative] == 0.5 * math.pi)
            first = int(np.argmax(saturated[3000:]))
            with mp.workdps(40):
                for m in range(0, first, -(-first // 60)):
                    ref = float(mp.arg(mp.hankel1(m, mp.mpf(x))))
                    delta = math.remainder(row[3000 + m] - ref, 2.0 * math.pi)
                    assert abs(delta) <= 1e-14, (x, m)
