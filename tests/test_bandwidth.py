import dataclasses
import importlib
import math
import tracemalloc

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

    @pytest.mark.parametrize("lost", [0, 10])
    def test_guards_at_their_edges(self, lost):
        # a log sigma row m = 0 .. 59 at kappa0 = 1 (horizon 24) that
        # decreases but for sigma_v <= sigma_{v+1}, then `lost` orders of
        # -inf (A_m underflowed), which cut the row at m = 60: a violation
        # in the last 10 rows of the cut row is refused, one before them
        # gives B = v + 1
        def row(v):
            ls = np.concatenate((-np.arange(60.0), np.full(lost, -np.inf)))
            ls[v + 1] = ls[v]
            return ls

        def edge(ls):
            (b,) = bw._band_edges(ls, np.array([len(ls)]), [1.0])
            return bw._handed_out(b)

        assert edge(row(49)) == 50
        with pytest.raises(ib.HorizonError, match="not strictly decreasing"):
            edge(row(50))
        ls = row(30)
        ls[40] = -np.inf              # a finite order past the first -inf
        with pytest.raises(ib.HorizonError, match="representability at m=40"):
            edge(ls)
        with pytest.raises(ib.HorizonError, match="representability at m=24"):
            edge(np.concatenate((ls[:24], np.full(40, -np.inf))))


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


def _outcome(fn):
    """(B, B-, B+) of the report fn() gives, or the class and message of
    what it raises."""
    try:
        rep = fn()
    except Exception as exc:
        return type(exc), str(exc)
    return rep.B, rep.B_minus, rep.B_plus


# (kappa0, kappa, m_max) of a block, healthy points between failing ones;
# _broken_pass injects the faults by argument
_MIXED_BLOCK = [
    (20.0, 20.0, None),
    (30.0, 30.0, 40),           # below the required horizon 60
    (45.0, 90.0, None),
    (1e-300, 1e-300, None),     # log sigma lost at m = 1
    (70.0, 70.0, None),
    (50.0, 100.0, None),        # nan in its Y lane at kappa
    (3.0, 6.0, None),
    (40.0, 80.0, None),         # negative radicand at m = 10
    (60.0, 180.0, None),        # nan in its Y lane at kappa0
    (0.003, 0.003, None),       # trailing rows not strictly decreasing
    (900.0, 900.0, None),
    (1e-310, 1e-310, None),     # Y_1 overflows, where A_1 = 0
    (10.0, 10.0, None),
]


def _broken_pass(real):
    """The recurrence loop with faults at fixed arguments, in every call
    whatever its lanes: a nan at Y_5 of x = 100 and of x = 60, and
    J_10 = 0, J_11 = J_9 at x = 40, which makes the radicand of A_10
    -J_9^2."""
    def loop(j_orders, j_x, y_orders, y_x, *args):
        j, y, e = real(j_orders, j_x, y_orders, y_x, *args)
        lanes = np.isin(y_x, (100.0, 60.0))
        if lanes.any():
            y[5, lanes] = math.nan
        lane = np.asarray(j_x) == 40.0
        if lane.any():
            j[10, lane] = 0.0
            j[11, lane] = j[9, lane]
        return j, y, e
    return loop


class TestBatchedReports:
    """_reports runs one flat pass over a block's rows, and each point
    gets the report, or the exception, that report gives it alone."""

    def test_one_failure_per_point(self, monkeypatch):
        monkeypatch.setattr(sf, "_recur", _broken_pass(sf._recur))
        gs = [ib.ProblemGeometry.from_size_params(k0, k)
              for k0, k, _ in _MIXED_BLOCK]
        m_maxes = [ss._horizon(g, m) for g, (_, _, m) in zip(gs, _MIXED_BLOCK)]
        alone = [_outcome(lambda: ib.report(g, m))
                 for g, m in zip(gs, m_maxes)]
        reports = bw._reports(gs, m_maxes)
        assert [_outcome(lambda: next(reports)) for _ in gs] == alone
        failures = {p: out for p, out in enumerate(alone)
                    if isinstance(out[0], type)}
        expected = {1: (ib.HorizonError, "below the required horizon 60"),
                    3: (ib.HorizonError, "lost representability at m=1 "),
                    5: (ArithmeticError, "rescaled range at m=5"),
                    7: (ArithmeticError, "radicand in A_m at m=10, "),
                    8: (ArithmeticError, "not finite where the bounds"),
                    9: (ib.HorizonError, "not strictly decreasing"),
                    11: (ArithmeticError, "rescaled range at m=1")}
        assert failures.keys() == expected.keys()
        for p, (cls, text) in expected.items():
            assert failures[p][0] is cls and text in failures[p][1]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(math.log(1e-3), math.log(2e3)),
                              st.floats(1.0, 10.0),
                              st.none() | st.integers(1, 60)),
                    min_size=1, max_size=5))
    def test_block_matches_report_alone(self, points):
        # kappa log-uniform in [1e-3, 2e3], R/R0 in [1, 10], the default
        # horizon or a longer one
        gs = [ib.ProblemGeometry.from_size_params(math.exp(lk) / ratio,
                                                  math.exp(lk))
              for lk, ratio, _ in points]
        m_maxes = [ib.default_m_max(g.kappa0) + (extra or 0)
                   for g, (_, _, extra) in zip(gs, points)]
        reports = bw._reports(gs, m_maxes)
        assert ([_outcome(lambda: next(reports)) for _ in gs]
                == [_outcome(lambda: ib.report(g, m))
                    for g, m in zip(gs, m_maxes)])

    def test_pass_is_dropped_before_the_first_report(self, monkeypatch):
        # a sweep block at R/R0 = 3: its one J-and-Y call of the loop
        # makes a table of 0.98 MB, and after the first report is taken
        # less than that is held, the reports included (1.15 MB when each
        # report was assembled as it was taken)
        gs = [ib.ProblemGeometry.from_size_params(k / 3.0, k)
              for k in np.linspace(2.0, 1000.0, 24).tolist()]
        m_maxes = [ib.default_m_max(g.kappa0) for g in gs]
        tables = []
        real = sf._recur

        def loop(*args):
            j, y, e = real(*args)
            tables.append(j.base.nbytes if len(args[1]) and len(args[3])
                          else 0)
            return j, y, e

        monkeypatch.setattr(sf, "_recur", loop)
        list(bw._reports(gs, m_maxes))
        tracemalloc.start()
        try:
            reports = bw._reports(gs, m_maxes)
            next(reports)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < max(tables)

    # the ops of the benchmark's sweep cycle at seed 901 (perfbench's
    # Sweep, its kappa ranges to 5 digits), each with the traced peak in
    # bytes this test read when the reports were assembled point by point
    SWEEP_CYCLE = [((30.874, 962.61), 1.0, 1_326_568),
                   ((16.049, 965.90), 1.0, 1_323_070),
                   ((25.394, 993.15), 1.0, 1_364_920),
                   ((33.876, 998.58), 1.0, 1_371_336),
                   ((14.314, 994.86), 1.0, 1_348_134),
                   ((31.644, 968.06), 1.0, 1_333_768),
                   ((7.4765, 981.81), 1.0, 1_342_846),
                   ((41.401, 977.38), 2.9709, 1_402_630),
                   ((17.963, 981.34), 1.0948, 1_909_230)]

    @pytest.mark.parametrize("op", range(len(SWEEP_CYCLE)))
    def test_sweep_op_peak_no_higher(self, op):
        kappa_range, ratio, before = self.SWEEP_CYCLE[op]
        args = dict(n_points=24, kappa_range=kappa_range,
                    equal_sizes=ratio == 1.0, ratio=ratio)
        ib.run_sweep(**args)
        tracemalloc.start()
        try:
            ib.run_sweep(**args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= before
