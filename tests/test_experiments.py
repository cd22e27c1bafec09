import hashlib
import math
import re
import sys
import warnings

import numpy as np
import pytest

import ispband as ib
from ispband import experiments as ex
from ispband import singular_system as ss
from ispband import specfun as sf

TEN_PI = 10.0 * math.pi


def band_at(kappa: float) -> int:
    g = ib.ProblemGeometry.from_size_params(kappa, kappa)
    return ib.bandwidth(ss.build_spectrum(g))


class TestRunSweep:
    def test_grid_is_uniform_and_inclusive(self):
        records = ex.run_sweep(n_points=5, kappa_range=(2.0, 10.0))
        kappas = [r.kappa for r in records]
        assert kappas == pytest.approx([2.0, 4.0, 6.0, 8.0, 10.0], abs=1e-12)

    def test_default_range(self, sweep300):
        records, _ = sweep300
        assert len(records) == 300
        assert records[0].kappa == pytest.approx(2.0)
        assert records[-1].kappa == pytest.approx(100.0 * math.pi)
        step = (100.0 * math.pi - 2.0) / 299.0
        assert records[1].kappa - records[0].kappa == pytest.approx(step)

    def test_record_error_conventions(self, sweep300):
        records, _ = sweep300
        empty = [r for r in records if r.B == 0]
        assert empty, "expected at least one empty-band record"
        for r in empty:
            assert r.B_minus == 0
            assert r.relerr_minus == 0.0
            assert r.relerr_plus == math.inf
        for r in records:
            assert r.eps_minus == r.B_minus - r.B
            assert r.eps_plus == r.B_plus - r.B
            if r.B > 0:
                assert r.relerr_minus == pytest.approx(abs(r.eps_minus) / r.B)
                assert r.relerr_plus == pytest.approx(abs(r.eps_plus) / r.B)

    def test_empty_band_relerr_rule(self):
        # below y_{0,1} = 0.894 every bound is 0 and the band is empty:
        # 0/0 is no error for either bound; past it B+ overshoots B = 0
        records = ex.run_sweep(n_points=4, kappa_range=(0.1, 0.85))
        assert [(r.B, r.B_minus, r.B_plus) for r in records] == [(0, 0, 0)] * 4
        for r in records:
            assert r.relerr_minus == 0.0 and r.relerr_plus == 0.0
        over = [r for r in ex.run_sweep(n_points=4, kappa_range=(2.0, 2.6))
                if r.B == 0]
        assert len(over) == 2
        for r in over:
            assert r.B_plus > 0 and r.relerr_plus == math.inf

    def test_ratio_controls_kappa0(self):
        records = ex.run_sweep(n_points=3, kappa_range=(20.0, 40.0),
                               equal_sizes=False, ratio=2.0)
        for r in records:
            assert r.kappa0 == pytest.approx(r.kappa / 2.0)

    def test_determinism(self):
        a = ex.run_sweep(n_points=4, kappa_range=(3.0, 30.0))
        b = ex.run_sweep(n_points=4, kappa_range=(3.0, 30.0))
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            ex.run_sweep(n_points=1)
        with pytest.raises(ValueError):
            ex.run_sweep(n_points=5, kappa_range=(5.0, 2.0))
        with pytest.raises(ValueError):
            ex.run_sweep(n_points=5, equal_sizes=False, ratio=0.5)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(kappa_range=(2.0, math.inf)), "bad kappa range (2.0, inf)"),
        (dict(kappa_range=(math.nan, 40.0)), "bad kappa range (nan, 40.0)"),
        (dict(equal_sizes=False, ratio=math.nan), "ratio must be finite "
         "and >= 1, got nan"),
        (dict(equal_sizes=False, ratio=math.inf), "ratio must be finite "
         "and >= 1, got inf")])
    def test_non_finite_input_refused_up_front(self, kwargs, message):
        # an infinite end once made a nan grid under a RuntimeWarning, and
        # a nan ratio passed ratio < 1; both then failed at a point with
        # "kappa0=nan"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                ex.run_sweep(5, **kwargs)

    @pytest.mark.parametrize("n_points, kappa_range", [
        (3, (2.0, 1e308)), (300, (1.0, 1e306))])
    def test_range_too_wide_for_the_grid_refused(self, n_points, kappa_range):
        # (hi - lo) (n_points - 1) once overflowed under a RuntimeWarning
        # while the grid was formed, and a point got kappa = inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"kappa range {kappa_range!r} is too wide for "
                    f"{n_points} points")):
                ex.run_sweep(n_points, kappa_range)

    def test_ratio_needs_unequal_sizes(self):
        # equal sizes sweep kappa0 = kappa, so a ratio there is refused,
        # not silently dropped
        with pytest.raises(ValueError, match="equal_sizes=False"):
            ex.run_sweep(3, (20.0, 40.0), ratio=2.0)
        assert (ex.run_sweep(3, (20.0, 40.0), ratio=1.0)
                == ex.run_sweep(3, (20.0, 40.0)))


class _CountingSpecial:
    """scipy.special with every function call counted by name."""

    def __init__(self, real):
        self.real, self.calls = real, {}

    def __getattr__(self, name):
        attr = getattr(self.real, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return attr(*args, **kwargs)
        return counted


class TestBatchedSweep:
    def test_warm_sweep_calls_no_scipy_special(self, monkeypatch):
        import scipy
        import scipy.special
        import oracles
        ex.run_sweep(24, (2.0, 1000.0))
        # both import forms, an attribute of scipy and a module of its
        # own, see the counting stand-in; the oracles bound it at import
        counter = _CountingSpecial(scipy.special)
        monkeypatch.setattr(scipy, "special", counter)
        monkeypatch.setitem(sys.modules, "scipy.special", counter)
        monkeypatch.setattr(oracles, "special", counter)
        for ratio in (1.0, 3.0):
            ex.run_sweep(24, (2.0, 1000.0), equal_sizes=ratio == 1.0,
                         ratio=ratio)
        assert counter.calls == {}
        # the stand-in does see a call that goes through scipy.special:
        # the tests' zero search, past its memo
        oracles.first_zero_j.__wrapped__(3)
        assert counter.calls.get("jv", 0) > 0

    @pytest.mark.parametrize("block", [ex._SWEEP_BLOCK, 7])
    @pytest.mark.parametrize("ratio", [1.0, 3.0])
    def test_records_match_report(self, monkeypatch, block, ratio):
        monkeypatch.setattr(ex, "_SWEEP_BLOCK", block)
        records = ex.run_sweep(40, (2.0, 1000.0), equal_sizes=ratio == 1.0,
                               ratio=ratio)
        for r in records:
            rep = ib.report(ib.ProblemGeometry.from_size_params(r.kappa0,
                                                                r.kappa))
            assert ((r.B, r.B_minus, r.B_plus, r.B_tilde_minus,
                     r.B_tilde_plus)
                    == (rep.B, rep.B_minus, rep.B_plus, rep.B_tilde_minus,
                        rep.B_tilde_plus))

    def test_non_finite_y_fails_its_own_point(self, monkeypatch):
        # a nan in the Y lane at kappa0 of one point inside a block (at
        # R/R0 = 3, so no lane at kappa shares it) fails that point alone:
        # run_sweep names its kappa, report fails unwrapped, and the next
        # point of the block still gets its record
        args = (7, (30.0, 90.0), False, 3.0)
        records = ex.run_sweep(*args)
        bad, next_ = (ib.ProblemGeometry.from_size_params(r.kappa0, r.kappa)
                      for r in records[3:5])
        real = sf._recur

        def loop(j_orders, j_x, y_orders, y_x, *args):
            # the Y rows of every call of the loop, whatever its lanes
            j, y, e = real(j_orders, j_x, y_orders, y_x, *args)
            y[5, np.asarray(y_x) == bad.kappa0] = math.nan
            return j, y, e

        monkeypatch.setattr(sf, "_recur", loop)
        with pytest.raises(ArithmeticError,
                           match=r"sweep failed at kappa=60: .*not finite"):
            ex.run_sweep(*args)
        with pytest.raises(ArithmeticError, match="not finite") as err:
            ib.report(bad)
        assert "sweep failed" not in str(err.value)
        rep = ib.report(next_)
        assert (rep.B, rep.B_minus, rep.B_plus) == (
            records[4].B, records[4].B_minus, records[4].B_plus)

    def test_failing_point_keeps_its_class(self):
        with pytest.raises(ib.HorizonError, match="kappa=1e-300"):
            ex.run_sweep(3, (1e-300, 1.0))


def test_sweep_records_pinned():
    # every SweepRecord of run_sweep(2001, (2, 1000)) at R/R0 = 1, 2, 5
    # and 10, bit for bit: SHA-256 over each ratio's (kappa, kappa0) as
    # <f8, then its (B, B-, B+) as <i8, ratio by ratio in that order. The
    # digest was taken before the J and Y recurrences shared one loop
    digest = hashlib.sha256()
    for ratio in (1.0, 2.0, 5.0, 10.0):
        records = ex.run_sweep(2001, (2.0, 1000.0),
                               equal_sizes=ratio == 1.0, ratio=ratio)
        digest.update(np.array([(r.kappa, r.kappa0) for r in records],
                               dtype="<f8").tobytes())
        digest.update(np.array([(r.B, r.B_minus, r.B_plus)
                                for r in records], dtype="<i8").tobytes())
    assert digest.hexdigest() == ("2d2b786aeb94a0c41930d30a31b99af8"
                                  "cf92e15d35c4c63bc89c9e813f5e3758")


class TestEmptyBandThreshold:
    def test_onset_location(self):
        # The band first becomes nonempty strictly inside (1.7, 2.7).
        lo, hi = 1.7, 2.7
        assert band_at(lo) == 0
        assert band_at(hi) >= 1
        while hi - lo > 0.01:
            mid = 0.5 * (lo + hi)
            if band_at(mid) == 0:
                lo = mid
            else:
                hi = mid
        assert 1.7 < 0.5 * (lo + hi) < 2.7


class TestFitLinear:
    def test_slope_and_quality(self, sweep300):
        records, _ = sweep300
        fit = ex.fit_linear(records, "B")
        assert abs(fit.slope - 0.98) < 0.01
        assert fit.mean_abs_error < 1.0
        assert fit.std_dev < 5e-3
        assert fit.target == "B"

    def test_residual_se_formula(self):
        recs = [
            ex.SweepRecord(kappa=float(k), kappa0=float(k), B=b, B_minus=0,
                           B_plus=0)
            for k, b in [(1.0, 1), (2.0, 2), (3.0, 2), (4.0, 4)]
        ]
        fit = ex.fit_linear(recs, "B")
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 2.0, 2.0, 4.0])
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - slope * x - intercept
        sxx = float(np.sum((x - x.mean()) ** 2))
        se = math.sqrt(float(np.sum(resid**2)) / 2.0 / sxx)
        assert fit.slope == pytest.approx(slope)
        assert fit.std_dev == pytest.approx(se)

    @pytest.mark.parametrize("target", ["B", "B-", "B+"])
    def test_closed_form_matches_polyfit(self, sweep300, target):
        # fit_linear solves the centred normal equations in closed form;
        # np.polyfit (SVD least squares) is the reference, and the two
        # agree to 1e-12 of the fitted line's scale at the sweep's ends
        records, _ = sweep300
        fit = ex.fit_linear(records, target)
        pick = {"B": "B", "B-": "B_minus", "B+": "B_plus"}[target]
        x = np.array([r.kappa for r in records])
        y = np.array([float(getattr(r, pick)) for r in records])
        slope, intercept = np.polyfit(x, y, 1)
        scale = float(np.max(np.abs(y)))
        assert abs(fit.slope - slope) * float(np.max(x)) <= 1e-12 * scale
        assert abs(fit.intercept - intercept) <= 1e-12 * scale
        resid = y - (slope * x + intercept)
        assert fit.mean_abs_error == pytest.approx(
            float(np.mean(np.abs(resid))), rel=1e-12)

    def test_validation(self, sweep300):
        records, _ = sweep300
        with pytest.raises(ValueError):
            ex.fit_linear(records, "sigma")
        with pytest.raises(ValueError):
            ex.fit_linear(records[:1], "B")
        twin = [records[0], records[0]]
        with pytest.raises(ValueError):
            ex.fit_linear(twin, "B")


class TestRadiusIndependence:
    def test_band_stays_put_while_peak_drops(self):
        rows = ex.r_independence_study(TEN_PI, [1.0, 2.0, 5.0, 10.0])
        bands = [row["B"] for row in rows]
        peaks = [row["peak_sigma"] for row in rows]
        assert bands[0] == 27
        assert all(abs(b - bands[0]) <= 1 for b in bands)
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_unit_ratio_matches_equal_size_report(self, g_equal_10pi):
        rows = ex.r_independence_study(TEN_PI, [1.0])
        assert rows[0]["B"] == ib.report(g_equal_10pi).B

    def test_validation(self):
        with pytest.raises(ValueError):
            ex.r_independence_study(TEN_PI, [0.5])


class TestAsymptoticChecks:
    def test_plateau_regime(self):
        g = ib.ProblemGeometry.from_size_params(200.0 * math.pi,
                                                200.0 * math.pi)
        recs = [r for r in ex.asymptotic_checks([g]) if r.kind == "plateau"]
        assert {r.m for r in recs} == set(range(0, 6))
        for r in recs:
            assert r.in_regime
            assert r.rel_dev <= 0.05

    def test_decay_regime(self):
        g = ib.ProblemGeometry(k=1.0, R0=0.5, R=1.0)
        recs = [r for r in ex.asymptotic_checks([g]) if r.kind == "decay"]
        assert {r.m for r in recs} == set(range(8, 17))
        devs = [r.rel_dev for r in recs]
        for r in recs:
            assert r.in_regime
            assert r.rel_dev <= 0.25
        assert devs[-1] < devs[0]

    def test_out_of_regime_is_marked_not_rejected(self):
        g = ib.ProblemGeometry.from_size_params(10.0, 10.0)
        recs = ex.asymptotic_checks([g], plateau_ms=range(5, 6),
                                    decay_ms=range(8, 9))
        plateau = [r for r in recs if r.kind == "plateau"][0]
        decay = [r for r in recs if r.kind == "decay"][0]
        assert not plateau.in_regime
        assert not decay.in_regime

    def test_plateau_ignores_measurement_radius(self):
        kappa0 = 200.0 * math.pi
        near = ib.ProblemGeometry(k=kappa0, R0=1.0, R=1.0)
        far = ib.ProblemGeometry(k=kappa0, R0=1.0, R=2.0)
        sig = {}
        for g in (near, far):
            rec = [r for r in ex.asymptotic_checks([g],
                                                   plateau_ms=range(0, 1))
                   if r.kind == "plateau"][0]
            sig[g.R] = rec.sigma
        assert abs(sig[1.0] - sig[2.0]) <= 0.01 * sig[1.0]
        far_rec = [r for r in ex.asymptotic_checks([far],
                                                   plateau_ms=range(0, 1))
                   if r.kind == "plateau"][0]
        assert not far_rec.in_regime
