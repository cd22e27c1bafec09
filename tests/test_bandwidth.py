import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ispband as ib
from ispband import singular_system as ss
from ispband import specfun as sf
from oracles import first_zero_j, first_zero_y, zero_threshold_bound

# the module; the package's name `bandwidth` is the function
bw = importlib.import_module("ispband.bandwidth")

TEN_PI = 10.0 * math.pi


class TestBandwidthIndex:
    def test_reference_geometry(self, g_equal_10pi):
        table = ss.build_spectrum(g_equal_10pi, ss.default_m_max(TEN_PI))
        assert ib.bandwidth(table) == 27

    def test_far_boundary_geometry(self, g_far_10pi):
        # Moving the measurement circle ten source radii out advances the
        # final log-slope sign change by one mode.
        table = ss.build_spectrum(g_far_10pi, 80)
        assert ib.bandwidth(table) == 26

    def test_small_size_parameter_is_zero(self):
        for kappa in (1.5, 2.0):
            g = ib.ProblemGeometry.from_size_params(kappa, kappa)
            table = ss.build_spectrum(g, 40)
            assert ib.bandwidth(table) == 0

    def test_horizon_guard(self, g_equal_10pi):
        with pytest.raises(ib.HorizonError):
            table = ss.build_spectrum(g_equal_10pi, 30)
            ib.bandwidth(table)

    def test_tail_guard_on_synthetic_table(self, g_equal_10pi):
        table = ss.build_spectrum(g_equal_10pi, ss.default_m_max(TEN_PI))
        # log sigma follows log|H|^2 / 2: lift row -3 one above row -4
        ls = table.log_sigma
        doctored = np.array(table.log_abs_h2)
        doctored[-3] += 2.0 * (ls[-4] - ls[-3] + 1.0)
        bad = dataclasses.replace(table, log_abs_h2=doctored)
        assert bad.log_sigma[-3] > bad.log_sigma[-4]
        with pytest.raises(ib.HorizonError):
            ib.bandwidth(bad)


class TestZeroBounds:
    def test_reference_values(self):
        assert ib.bound_lower(TEN_PI) == 26
        assert ib.bound_upper(TEN_PI) == 29

    def test_below_first_zeros(self):
        assert ib.bound_lower(2.0) == 0
        assert ib.bound_lower(2.404825) == 0
        assert ib.bound_upper(0.5) == 0
        assert ib.bound_upper(0.893576) == 0

    def test_tie_is_inclusive(self):
        z5 = first_zero_j(5)
        assert ib.bound_lower(z5) == 5
        assert ib.bound_lower(z5 + 1e-12) == 5
        assert ib.bound_lower(z5 + 1e-6) == 6
        y7 = first_zero_y(7)
        assert ib.bound_upper(y7) == 7
        assert ib.bound_upper(y7 + 1e-6) == 8

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(min_value=0.5, max_value=200.0),
        b=st.floats(min_value=0.5, max_value=200.0),
    )
    def test_monotone_in_size_parameter(self, a, b):
        lo, hi = sorted((a, b))
        assert ib.bound_lower(lo) <= ib.bound_lower(hi)
        assert ib.bound_upper(lo) <= ib.bound_upper(hi)

    def test_lower_at_most_upper(self):
        for kappa0 in np.linspace(1.0, 150.0, 40):
            assert ib.bound_lower(float(kappa0)) <= ib.bound_upper(float(kappa0))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            ib.bound_lower(0.0)
        with pytest.raises(ValueError):
            ib.bound_upper(-3.0)


def _oracle(kappa0s):
    """(B_-, B_+) of every kappa0 by the zero search on scipy's jv and yv,
    independent of the Bessel tables that both the bounds and the
    package's own zeros read."""
    return (np.array([zero_threshold_bound(k, first_zero_j)
                      for k in kappa0s]),
            np.array([zero_threshold_bound(k, first_zero_y)
                      for k in kappa0s]))


class TestBoundsFromRowSigns:
    """B_- and B_+ from the signs of the J and Y rows at kappa0 against
    the definition, the threshold search over the first zeros."""

    def check(self, kappa0s):
        kappa0s = np.asarray(kappa0s, dtype=float)
        lower, upper = _oracle(kappa0s)
        assert np.array_equal(ib.bound_lower(kappa0s), lower)
        assert np.array_equal(ib.bound_upper(kappa0s), upper)

    def test_seeded_grid(self):
        rng = np.random.default_rng(20)
        for _ in range(2):
            self.check(1100.0 * (1.0 - rng.random(1000)))   # (0, 1100]

    @pytest.mark.parametrize("zero_of", [first_zero_j, first_zero_y])
    def test_around_every_zero(self, zero_of):
        # ties within _TIE_TOL = 1e-9 count as cleared: offsets on both
        # sides of the zero and of the tie line
        zeros = np.array([zero_of(m) for m in range(1001)])
        for offset in (-1e-6, -2e-9, -5e-10, -1e-10, 0.0,
                       1e-10, 5e-10, 2e-9, 1e-6):
            self.check(zeros + offset)

    def test_tiny_and_large_arguments(self):
        # Y_1 overflows at 1e-310, but the bound reads Y_0 < 0 alone there
        self.check([1e-310, 1e-300, 1e-20, 0.5])
        self.check([2500.3, 5000.0, 9999.5, 1e4])

    def test_scalar_gives_int(self):
        assert type(ib.bound_lower(TEN_PI)) is int
        assert type(ib.bound_upper(np.float64(TEN_PI))) is int
        assert ib.bound_upper([[TEN_PI]]).shape == (1, 1)

    def test_sweep_and_report_rows(self):
        # run_sweep and report read the bounds from their own rows at
        # kappa0, with and without a Y lane shared with kappa
        for ratio in (1.0, 1.7):
            records = ib.run_sweep(150, (1.0, 1100.0),
                                   equal_sizes=ratio == 1.0, ratio=ratio)
            k0 = [ib.ProblemGeometry.from_size_params(r.kappa0,
                                                      r.kappa).kappa0
                  for r in records]
            lower, upper = _oracle(k0)
            assert [r.B_minus for r in records] == lower.tolist()
            assert [r.B_plus for r in records] == upper.tolist()

    def test_non_finite_y_never_picks_a_bound(self, monkeypatch):
        def broken(real, at):
            def table(m_max, x, *seed_rows):
                y, e = real(m_max, x, *seed_rows)
                y = np.array(y)
                y[np.asarray(x) == at, 5] = math.nan
                return y, e
            return table

        def broken_loop(at):
            # the Y rows of every call of the loop, whatever its lanes
            real = sf._recur

            def loop(j_orders, j_x, y_orders, y_x, *args):
                j, y, e = real(j_orders, j_x, y_orders, y_x, *args)
                y[5, np.asarray(y_x) == at] = math.nan
                return j, y, e
            return loop

        monkeypatch.setattr(bw, "bessel_y_table",
                            broken(sf.bessel_y_table, TEN_PI))
        with pytest.raises(ArithmeticError):
            ib.bound_upper(TEN_PI)
        with pytest.raises(ArithmeticError):
            ib.bound_upper([2.0, TEN_PI])
        # the nan sits in the Y lane at kappa0 alone: the spectrum at
        # kappa is finite, and the report must still refuse
        g = ib.ProblemGeometry.from_size_params(TEN_PI, 2.0 * TEN_PI)
        monkeypatch.setattr(sf, "_recur", broken_loop(g.kappa0))
        with pytest.raises(ArithmeticError, match="not finite"):
            ib.report(g)


class TestClosedFormApproximations:
    def test_reference_values(self):
        assert ib.bound_lower_approx(TEN_PI) == 26
        assert ib.bound_upper_approx(TEN_PI) == 32
        assert ib.bound_upper_approx(7.0) == 7

    def test_cubic_root_matches_polynomial_solver(self):
        for kappa0 in np.linspace(3.0, 400.0, 25):
            roots = np.roots([1.0, 0.0, sf.A_MINUS, -float(kappa0)])
            real = roots[np.abs(roots.imag) < 1e-9].real
            n = float(np.max(real))
            got = ib.bound_lower_approx(float(kappa0))
            assert got == math.ceil(n**3 - 1e-9) or got == math.ceil(n**3)

    def test_tracks_exact_lower_bound(self):
        for kappa0 in np.linspace(10.0, 100.0 * math.pi, 50):
            exact = ib.bound_lower(float(kappa0))
            approx = ib.bound_lower_approx(float(kappa0))
            assert abs(approx - exact) <= 1


class TestReport:
    def test_reference_report(self, g_equal_10pi):
        rep = ib.report(g_equal_10pi)
        assert rep.B == 27
        assert rep.B_minus == 26
        assert rep.B_plus == 29
        assert rep.B_tilde_minus == 26
        assert rep.B_tilde_plus == 32

    def test_tiny_geometry_report(self):
        g = ib.ProblemGeometry.from_size_params(2.0, 2.0)
        rep = ib.report(g)
        assert rep.B == 0
        assert rep.B_minus == 0
        assert rep.B_plus == 1
        assert rep.B_tilde_minus == 1
        assert rep.B_tilde_plus == 2

    def test_bounds_sandwich_bandwidth(self):
        for kappa in (5.0, 9.0, 17.0, 40.0, 77.0):
            g = ib.ProblemGeometry.from_size_params(kappa, kappa)
            rep = ib.report(g)
            assert rep.B_minus <= rep.B <= rep.B_plus


class TestAngularSampling:
    def test_reference_step(self, g_equal_10pi):
        assert ib.max_angular_sampling(g_equal_10pi) == pytest.approx(math.pi / 26.0)

    def test_no_stable_band(self):
        g = ib.ProblemGeometry.from_size_params(2.0, 2.0)
        with pytest.raises(ValueError):
            ib.max_angular_sampling(g)

    def test_halves_when_size_doubles(self, g_equal_10pi):
        g2 = ib.ProblemGeometry.from_size_params(2.0 * TEN_PI, 2.0 * TEN_PI)
        ratio = ib.max_angular_sampling(g2) / ib.max_angular_sampling(g_equal_10pi)
        assert abs(ratio - 0.5) < 0.075


class TestBoundaryRadiusDependence:
    def test_band_nearly_independent_of_measurement_radius(self):
        values = {}
        for ratio in (1.0, 2.0, 5.0, 10.0):
            g = ib.ProblemGeometry(k=TEN_PI, R0=1.0, R=ratio)
            table = ss.build_spectrum(g, 80)
            values[ratio] = ib.bandwidth(table)
        assert values[1.0] == 27
        assert all(abs(v - values[1.0]) <= 1 for v in values.values())
