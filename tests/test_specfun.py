import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

import ispband as ib
from ispband import specfun as sf
from ispband import experiments as ex
from oracles import (j_table_reference, miller_rows_reference,
                     nicholson_abs2_oracle, y_table_reference)

mp.mp.dps = 30


def mp_log_abs_h2(m: int, x: float) -> float:
    with mp.workprec(mp.mp.prec + 200):
        j = mp.besselj(m, mp.mpf(x), maxterms=10**6)
        y = mp.bessely(m, mp.mpf(x), maxterms=10**6)
        return float(mp.log(j * j + y * y))


def mp_log_abs2_and_phase(m: int, x: float) -> tuple[float, float]:
    with mp.workprec(mp.mp.prec + 200):
        j = mp.besselj(m, mp.mpf(x))
        y = mp.bessely(m, mp.mpf(x))
        return float(mp.log(j * j + y * y)), float(mp.atan2(y, j))


def log_row(m_max, x) -> np.ndarray:
    """log|H_m|^2 for m = 0 .. m_max at one x, from the J and Y tables."""
    return sf.hankel_log_abs2(sf.bessel_j_table(m_max, x),
                              *sf.bessel_y_table(m_max, x))


def arg_row(m_max, x) -> np.ndarray:
    """arg H_m for m = 0 .. m_max at one x, from the J and Y tables."""
    return sf.hankel_arg(sf.bessel_j_table(m_max, x),
                         *sf.bessel_y_table(m_max, x))


def rows_at(m: int, x: float) -> tuple[float, float]:
    """log|H_m|^2 and arg H_m read from the two rows."""
    return log_row(m, x)[m], arg_row(m, x)[m]


class TestBesselValues:
    """J_m and Y_m reach the package only through H_m = J_m + i Y_m, so
    they are checked through the two rows: J_m = |H_m| cos arg H_m and
    Y_m = |H_m| sin arg H_m."""

    def test_j_matches_reference(self):
        for m, x in [(0, 1.0), (3, 7.5), (5, 31.4), (40, 55.0), (120, 90.0)]:
            ref_log, ref_arg = mp_log_abs2_and_phase(m, x)
            got_log, got_arg = rows_at(m, x)
            assert got_log == pytest.approx(ref_log, rel=1e-12)
            assert got_arg == pytest.approx(ref_arg, abs=1e-12)

    def test_y_matches_reference(self):
        for m, x in [(0, 1.0), (3, 7.5), (5, 31.4), (40, 55.0), (90, 10.0)]:
            ref_log, ref_arg = mp_log_abs2_and_phase(m, x)
            got_log, got_arg = rows_at(m, x)
            assert got_log == pytest.approx(ref_log, rel=1e-12)
            assert got_arg == pytest.approx(ref_arg, abs=1e-12)

    def test_j0_small_argument_limit(self):
        log_h2, arg = rows_at(0, 1e-12)
        assert math.exp(0.5 * log_h2) * math.cos(arg) == pytest.approx(
            1.0, abs=1e-12)

    def test_j0_first_zero_value(self):
        log_h2, arg = rows_at(0, 2.404825557695773)
        assert abs(math.exp(0.5 * log_h2) * math.cos(arg)) < 1e-12

    def test_y0_first_zero_value(self):
        log_h2, arg = rows_at(0, 0.8935769662791675)
        assert abs(math.exp(0.5 * log_h2) * math.sin(arg)) < 1e-10

    def test_y0_log_singularity_at_origin(self):
        log_h2, arg = rows_at(0, 1e-10)
        assert math.exp(0.5 * log_h2) * math.sin(arg) < -10.0

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=80),
        x=st.floats(min_value=0.1, max_value=200.0),
    )
    @example(m=17, x=144.296875)
    def test_three_term_recursion(self, m, x):
        # the round-off of J_{m-1} + J_{m+1} - (2m/x) J_m is set by the
        # terms that cancel, which can exceed the result and J_m by far
        jm1, jm, jp1 = special.jv([m - 1, m, m + 1], x)
        scale = abs(jm1) + abs(jp1) + (2.0 * m / x) * abs(jm)
        assert abs(jm1 + jp1 - (2.0 * m / x) * jm) <= 1e-12 * scale


class TestLogHankel:
    def test_moderate_orders_match_direct_formula(self):
        for m, x in [(0, 1.0), (4, 12.0), (25, 31.4), (60, 60.0)]:
            direct = math.log(special.jv(m, x) ** 2 + special.yv(m, x) ** 2)
            got = log_row(m, x)[m]
            assert got == pytest.approx(direct, rel=1e-12)

    def test_saturated_corners_match_high_precision(self):
        # Reference values precomputed in 50-digit arithmetic.
        frozen = [
            (2000, 1500.0, 528.07191986431786),
            (5000, 1.0, 82094.435077218459),
            (10000, 100.0, 85957.185480807844),
            (10000, 9000.0, 616.27716397315631),
            (10000, 10000.0, -6.3629513075283057),
        ]
        for m, x, ref in frozen:
            got = log_row(m, x)[m]
            assert got == pytest.approx(ref, rel=1e-12)

    def test_small_order_saturation_live(self):
        for m, x in [(300, 2.0), (800, 700.0), (1500, 1490.0)]:
            assert log_row(m, x)[m] == pytest.approx(
                mp_log_abs_h2(m, x), rel=1e-11, abs=1e-10
            )

    def test_large_argument_envelope(self):
        x = 1000.0
        ref = math.log(2.0 / (math.pi * x))
        got = log_row(3, x)[3]
        assert abs(got - ref) <= 0.02 * abs(ref)

    def test_monotone_in_order(self):
        for x in (0.5, 4.0, 10.0 * math.pi):
            row = log_row(120, x)
            assert np.all(np.diff(row) > 0.0)

    def test_row_consistent_with_scalar(self):
        # entry m of a long row equals the last entry of the row ending at m
        x = 8.0
        row = log_row(400, x)
        for m in (0, 3, 17, 80, 250, 400):
            assert row[m] == pytest.approx(log_row(m, x)[m],
                                           rel=1e-12)

    def test_domain_validation(self):
        for row in (log_row, arg_row):
            with pytest.raises(ValueError):
                row(3, 0.0)
            with pytest.raises(ValueError):
                row(3, -1.0)
            with pytest.raises(ValueError):
                row(3, math.nan)
            with pytest.raises(ValueError, match="order must be a nonnegative"):
                row(-2, 1.0)

    def test_order_zero_rows_hold_one_entry(self):
        assert log_row(0, 1.0).shape == (1,)
        assert arg_row(0, 1.0).shape == (1,)


class TestHankelPhase:
    def test_matches_reference_phase(self):
        for m, x in [(0, 1.0), (7, 20.0), (31, 31.4), (100, 120.0)]:
            with mp.workprec(200):
                ref = float(mp.arg(mp.hankel1(m, x)))
            got = arg_row(m, x)[m]
            delta = (got - ref + math.pi) % (2.0 * math.pi) - math.pi
            assert abs(delta) < 1e-10

    def test_saturated_phase_corners(self):
        # Reference values precomputed in 50-digit arithmetic.  Deep in the
        # evanescent regime the phase pins to -pi/2 because Y dominates J by
        # hundreds of orders of magnitude.
        frozen = [
            (500, 100.0, -1.5707963267948966),
            (1000, 900.0, -1.5707963267948966),
        ]
        for m, x, ref in frozen:
            assert arg_row(m, x)[m] == pytest.approx(ref, abs=1e-12)


class TestBesselTable:
    """bessel_j_table (Miller's downward recurrence) against scipy's jv on
    the Gauss-Legendre rings of the source disk, x_i = kappa0 rho_i / R0."""

    @pytest.mark.parametrize("kappa0, n_r", [
        (0.5, 64), (2.0, 64), (10.0 * math.pi, 64), (100.0 * math.pi, 256),
        (1000.0, 556)])
    def test_matches_jv_on_rings(self, kappa0, n_r):
        g = ib.ProblemGeometry.from_size_params(kappa0, kappa0)
        x = g.k * ib.source_grid(g, n_r, 2).rho
        m_max = ib.default_m_max(kappa0)
        got = sf.bessel_j_table(m_max, x)
        ref = special.jv(np.arange(m_max + 1), x[:, None])
        assert got.shape == ref.shape
        err = np.abs(got - ref)
        assert np.all(err.max(axis=0) <= 1e-12 * np.abs(ref).max(axis=0))
        # pointwise in the decaying tail, where J is the minimal solution
        tail = (np.arange(m_max + 1) > x[:, None] + 5.0) & (np.abs(ref) > 1e-280)
        assert np.all(err[tail] <= 1e-11 * np.abs(ref[tail]))
        # deep-tail entries on the inner rings, reached through the
        # rescaled pair, underflow to 0 where jv's do
        under = ref == 0.0
        assert under.any() or kappa0 < 10.0
        assert np.all(got[under] == 0.0)

    def test_zero_and_tiny_arguments(self):
        row = sf.bessel_j_table(40, 0.0)
        assert row.shape == (41,)
        assert row[0] == 1.0 and np.all(row[1:] == 0.0)
        # series below 1e-20, recurrence with a rescale every few steps above
        x = np.array([[0.0, 1e-25], [1e-19, 1e-10]])
        got = sf.bessel_j_table(10, x)
        assert got.shape == (2, 2, 11)
        assert np.array_equal(got[0, 0], row[:11])
        for xi, row_i in zip(x.ravel()[1:], got.reshape(4, 11)[1:]):
            ref = [float(mp.besselj(m, mp.mpf(float(xi)))) for m in range(11)]
            assert row_i == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_domain_validation(self):
        for x in (-1.0, math.nan, math.inf, [1.0, -1e-300]):
            with pytest.raises(ValueError, match="nonnegative finite"):
                sf.bessel_j_table(5, x)
        for m in (-1, 2.5):
            with pytest.raises(ValueError, match="order must be a nonnegative"):
                sf.bessel_j_table(m, 1.0)


class TestRecurrenceRows:
    """The Hankel rows from Miller's J and the upward Y recurrence."""

    def test_accuracy_against_mpmath(self):
        # jv/yv rows were off by 8.1e-13 in log|H_119(1000)|^2
        logs = log_row(1070, 1000.0)
        args = arg_row(1070, 1000.0)
        for m in (119, 1062):
            ref_log, ref_arg = mp_log_abs2_and_phase(m, 1000.0)
            assert abs(logs[m] - ref_log) <= 1e-13
            assert abs(args[m] - ref_arg) <= 1e-13

    def test_overflowing_y_is_refused(self):
        # yv(1, x) overflows below x = 3.6e-309
        for row in (log_row, arg_row):
            with pytest.raises(ArithmeticError):
                row(3, 1e-310)

    def test_y_seeds_against_mpmath(self):
        # Y_0 and Y_1 seed the table: Neumann's series below x = 25,
        # Hankel's expansion from 25 on: worst 1.6e-15 here, scipy's yv
        # 8.3e-16
        rng = np.random.default_rng(5)
        x = np.concatenate([
            np.exp(rng.uniform(math.log(1e-300), math.log(1e4), 150)),
            rng.uniform(0.5, 60.0, 100),
            [1e-300, 0.8935769662791675, 1.1229189671337703,
             np.nextafter(25.0, 0.0), 25.0, 1e4]])
        y, e = sf.bessel_y_table(1, x)
        got = np.ldexp(y, e)
        worst = 0.0
        with mp.workdps(40):
            for xi, row in zip(x.tolist(), got):
                scale = math.sqrt(2.0 / (math.pi * xi))
                for nu in (0, 1):
                    ref = mp.bessely(nu, mp.mpf(xi))
                    err = float(abs(mp.mpf(float(row[nu])) - ref))
                    worst = max(worst, err / max(float(abs(ref)), scale))
        assert worst <= 4e-15
        # Y_1 ~ -2 / (pi x) is finite down to 3.6e-309, and not below
        assert np.all(np.isfinite(log_row(1, 3.6e-309)))
        with pytest.raises(ArithmeticError):
            log_row(1, 3.5e-309)

    def test_y_table_extends_bit_for_bit(self):
        # an entry depends on its x and m alone: a longer table, or one
        # over more arguments, holds the same bits, across rescales too
        x = np.array([1e-300, 0.3, 7.0, 1000.0])
        y_long, e_long = sf.bessel_y_table(3000, x)
        assert e_long.max() > 0
        for i, xi in enumerate(x):
            y, e = sf.bessel_y_table(1200, xi)
            assert np.array_equal(y, y_long[i, :1201])
            assert np.array_equal(e, e_long[i, :1201])

    def test_y_table_matches_yv(self):
        x = np.array([0.5, 10.0 * math.pi, 1000.0])
        y, e = sf.bessel_y_table(1100, x)
        ref = special.yv(np.arange(1101), x[:, None])
        with np.errstate(over="ignore"):
            got = np.ldexp(y, e)
        fin = np.isfinite(ref)
        assert not fin.all()
        assert np.all(np.abs(got[fin] - ref[fin])
                      <= 1e-12 * np.maximum(np.abs(ref[fin]), 1.0))

    def test_j_rows_ignore_the_other_arguments(self):
        # per-argument orders and start orders: each row is the row of a
        # call with that argument alone
        x = np.array([2.0, 1000.0, 1e-25, 31.4, 1000.0])
        orders = np.array([50, 1071, 12, 80, 300])
        table = sf.bessel_j_table(orders, x)
        assert table.shape == (5, 1072)
        for xi, o, row in zip(x, orders, table):
            assert np.array_equal(row[:o + 1], sf.bessel_j_table(int(o), xi))
            assert np.all(row[o + 1:] == 0.0)
        # the largest order belongs to a series argument, so the downward
        # pass starts far below 2000 and never steps through the other
        # column's upper orders; they must read 0 and stay out of the
        # rescaling arithmetic
        with np.errstate(over="raise", invalid="raise"):
            table = sf.bessel_j_table(np.array([5, 2000]), [1.0, 1e-25])
        assert np.array_equal(table[0, :6], sf.bessel_j_table(5, 1.0))
        assert np.all(table[0, 6:] == 0.0)
        assert np.array_equal(table[1], sf.bessel_j_table(2000, 1e-25))
        with pytest.raises(ValueError, match="order must be a nonnegative"):
            sf.bessel_j_table(np.array([3, -1]), [1.0, 2.0])

    def test_y_rows_take_per_argument_orders(self):
        # the Y table takes m_max as the J table does: each lane is its
        # own scalar-order table up to its order and 0 past it, also where
        # the longer lanes rescale
        x = np.array([[1e-300, 0.3, 7.0], [1000.0, 24.9, 0.3]])
        orders = np.array([[40, 1200, 3], [0, 600, 2000]])
        y, e = sf.bessel_y_table(orders, x)
        assert y.shape == e.shape == (2, 3, 2001)
        assert e.max() > 0
        for xi, o, y_row, e_row in zip(x.ravel(), orders.ravel(),
                                       y.reshape(6, -1), e.reshape(6, -1)):
            y_ref, e_ref = sf.bessel_y_table(int(o), xi)
            assert np.array_equal(y_row[:o + 1], y_ref)
            assert np.array_equal(e_row[:o + 1], e_ref)
            assert np.all(y_row[o + 1:] == 0.0)
        # one order broadcasts against every argument
        y, e = sf.bessel_y_table(np.array(30), x[0])
        assert np.array_equal(y, sf.bessel_y_table(30, x[0])[0])
        for m in (np.array([3, -1]), np.array([3.0, 2.0]), np.array([2.5, 1])):
            for table in (sf.bessel_j_table, sf.bessel_y_table):
                with pytest.raises(ValueError,
                                   match="order must be a nonnegative"):
                    table(m, [1.0, 2.0])


# one lane of a pass: x log-uniform on [1e-25, 2e3], so that about half
# the lanes have x < 1, where Y rescales against the limit 1e250 x, or
# exactly 0 for J; and the lane's own order, up to 1500
_LANE = st.tuples(
    st.one_of(st.just(0.0), st.floats(math.log(1e-25), math.log(2e3))
              .map(math.exp)),
    st.integers(min_value=0, max_value=1500))


class TestInPlacePasses:
    """The J and Y passes write each order in place into its row; the
    out-of-place loops in oracles (a fresh array per step) are their
    reference, byte for byte."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(lanes=st.lists(_LANE, min_size=1, max_size=6))
    # a lone lane with tiny x rescales at m = top + 1, where f_up is still
    # a spill row and must be divided with the table's rows
    @example(lanes=[(1e-15, 3)])
    @example(lanes=[(0.0, 0), (1e-25, 1500), (2e3, 7)])
    def test_passes_match_out_of_place_loops(self, lanes):
        x = np.array([xi for xi, _ in lanes])
        orders = np.array([o for _, o in lanes])
        top = int(orders.max())
        assert (sf._miller_rows(orders, x, top).tobytes()
                == miller_rows_reference(orders, x, top).tobytes())
        # the floor, a block at a time, against whole-table masks
        assert (sf.bessel_j_table(orders, x).tobytes()
                == j_table_reference(orders, x).tobytes())
        pos = x > 0.0
        if pos.any():
            y, e = sf.bessel_y_table(orders[pos], x[pos])
            y_ref, e_ref = y_table_reference(orders[pos], x[pos])
            assert y.tobytes() == y_ref.tobytes()
            assert e.tobytes() == e_ref.tobytes()
            assert y.flags.c_contiguous and e.flags.c_contiguous


def _peak_bytes(fn, *args) -> tuple[int, np.ndarray]:
    """fn(*args) and the peak of the memory it allocated, by tracemalloc."""
    fn(*args)                       # lazy set-up outside the count
    tracemalloc.start()
    try:
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def _sweep_j_lanes(monkeypatch) -> tuple[np.ndarray, np.ndarray]:
    """The orders and arguments of the J pass of a 24-point sweep over
    kappa in [2, 1000], as run_sweep hands them to _miller_rows."""
    seen = []
    real = sf._miller_rows
    monkeypatch.setattr(sf, "_miller_rows", lambda orders, x, top: (
        seen.append((orders, x)) or real(orders, x, top)))
    ex.run_sweep(24, (2.0, 1000.0))
    monkeypatch.undo()
    (orders, x), = seen
    return orders, x


def _ring_j_lanes() -> tuple[np.ndarray, np.ndarray]:
    """The 256 Gauss-Legendre rings of kappa0 = kappa = 100 pi to the J
    horizon 377, as a reconstruction's ring pass runs them."""
    g = ib.ProblemGeometry.from_size_params(100.0 * math.pi, 100.0 * math.pi)
    x = g.k * ib.source_grid(g, 256, 8).rho
    return np.full(x.size, ib.singular_system._j_horizon(
        g.kappa0, ib.default_m_max(g.kappa0))), x


class TestPassMemory:
    """The J pass holds its table and a few rows: no table taller than the
    one it returns, and 2m/x rows made a block at a time."""

    @pytest.mark.parametrize("case", ["rings_100pi", "sweep_25_lanes"])
    def test_peak_within_table_plus_allowance(self, case, monkeypatch):
        orders, x = (_ring_j_lanes() if case == "rings_100pi"
                     else _sweep_j_lanes(monkeypatch))
        assert x.size == (256 if case == "rings_100pi" else 25)
        top = int(orders.max())
        peak, rows = _peak_bytes(sf._miller_rows, orders, x, top)
        assert rows.shape == (top + 1, x.size)
        # two blocks of 2m/x rows (a step's row keeps the last block while
        # the next is made), numpy's two buffers for the broadcast division
        # of a block, and 64 KiB for the spill rows, sums and small arrays
        assert peak <= rows.nbytes + 4 * sf._STEP_BLOCK + (1 << 16)
        # bessel_j_table then floors the table a block of _STEP_BLOCK
        # entries at a time, with two one-byte masks of a block, and cuts
        # each argument past its own order by a slice, so the floor needs
        # no more than the pass's own allowance
        peak, table = _peak_bytes(sf.bessel_j_table, orders, x)
        assert peak <= table.nbytes + 4 * sf._STEP_BLOCK + (1 << 16)


class TestRatios:
    """_ratios makes its orders, not only its rows, a block at a time."""

    @pytest.mark.parametrize("orders", [range(1, 5000), range(4999, 0, -1)],
                             ids=["up", "down"])
    @pytest.mark.parametrize("size", [1, 3, 700, 3000])
    def test_rows_are_two_m_over_x_bitwise(self, orders, size):
        x = np.random.default_rng(size).uniform(0.1, 1e3, size)
        ms, rows = zip(*sf._ratios(orders, x))
        assert list(ms) == list(orders)
        want = 2.0 * np.arange(orders.start, orders.stop,
                               orders.step)[:, None] / x
        assert np.array(rows).tobytes() == want.tobytes()

    def test_first_row_of_a_long_range_stays_within_blocks(self):
        rows = sf._ratios(range(10 ** 6, 0, -1), np.array([1e3]))
        tracemalloc.start()
        try:
            m, row = next(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m == 10 ** 6 and row.tolist() == [2.0 * 10 ** 6 / 1e3]
        # one block of orders, its 2m and its 2m/x, and a block to spare;
        # orders made all at once took 8 MB
        assert peak <= 4 * sf._STEP_BLOCK


class TestNicholsonOracle:
    def test_agrees_with_implementation(self):
        rng = np.random.default_rng(7)
        kappas = rng.uniform(3.0, 80.0, size=20)
        orders = rng.integers(0, 120, size=20)
        for m, x in zip(orders, kappas):
            a = log_row(int(m), float(x))[int(m)]
            b = nicholson_abs2_oracle(int(m), float(x))
            assert abs(a - b) <= 1e-6 * max(1.0, abs(a))

    def test_large_argument_envelope(self):
        x = 300.0
        got = math.exp(nicholson_abs2_oracle(0, x))
        assert got == pytest.approx(2.0 / (math.pi * x), rel=1e-2)

    def test_monotone_in_order(self):
        x = 10.0 * math.pi
        assert nicholson_abs2_oracle(5, x) < nicholson_abs2_oracle(6, x)

    def test_deep_evanescent_point(self):
        a = nicholson_abs2_oracle(60, 10.0)
        b = log_row(60, 10.0)[60]
        assert abs(a - b) <= 1e-6 * abs(b)


class TestFirstZeros:
    def test_classic_values(self):
        assert sf.first_zero_j(0) == pytest.approx(2.404825557695773, abs=1e-10)
        assert sf.first_zero_j(1) == pytest.approx(3.831705970207512, abs=1e-10)
        assert sf.first_zero_y(0) == pytest.approx(0.8935769662791675, abs=1e-10)

    @pytest.mark.slow
    def test_matches_reference_roots(self):
        for m in (2, 5, 26, 29, 100, 315):
            ref_j = float(mp.besseljzero(m, 1))
            ref_y = float(mp.besselyzero(m, 1))
            assert sf.first_zero_j(m) == pytest.approx(ref_j, abs=1e-10)
            assert sf.first_zero_y(m) == pytest.approx(ref_y, abs=1e-10)

    def test_zero_is_a_float(self):
        assert type(sf.first_zero_j(4)) is float
        assert type(sf.first_zero_y(4)) is float

    def test_strictly_increasing_in_order(self):
        jz = [sf.first_zero_j(m) for m in range(0, 501)]
        yz = [sf.first_zero_y(m) for m in range(0, 501)]
        assert np.all(np.diff(jz) > 0.0)
        assert np.all(np.diff(yz) > 0.0)

    def test_interlacing(self):
        for m in range(0, 501):
            assert sf.first_zero_y(m) < sf.first_zero_j(m)

    def test_zero_value_is_a_root(self):
        for m in (0, 3, 40, 200):
            zj = sf.first_zero_j(m)
            zy = sf.first_zero_y(m)
            assert abs(special.jv(m, zj)) < 1e-11
            assert abs(special.yv(m, zy)) < 1e-11

    def test_large_order_expansion_j(self):
        m = 1000
        delta = sf.first_zero_j(m) - m - sf.A_MINUS * m ** (1.0 / 3.0)
        assert 0.5 * m ** (-1.0 / 3.0) <= abs(delta) <= 2.0 * m ** (-1.0 / 3.0)

    def test_large_order_expansion_y(self):
        deltas = []
        for m in (8, 1000):
            d = sf.first_zero_y(m) - m - sf.A_PLUS * m ** (1.0 / 3.0)
            deltas.append(abs(d))
        assert deltas[1] < deltas[0]
        assert deltas[1] < 0.05

    def test_matches_scipy_zero_tables(self):
        # jn_zeros / yn_zeros are an independent implementation; in scipy
        # 1.17.1 they return NaN from m = 4473 (J) and 4489 (Y) on
        for m in [*range(0, 41), *range(97, 4401, 97)]:
            assert abs(sf.first_zero_j(m)
                       - special.jn_zeros(m, 1)[0]) <= 1e-11
            assert abs(sf.first_zero_y(m)
                       - special.yn_zeros(m, 1)[0]) <= 1e-11

    @pytest.mark.parametrize("m", [1000, 4472, 10000])
    def test_high_order_zero_is_a_sign_change(self, m):
        # bisection stops on one of two adjacent doubles that bracket the
        # sign change of the computed J_m (Y_m)
        for zero, f in ((sf.first_zero_j, special.jv),
                        (sf.first_zero_y, special.yv)):
            z = zero(m)
            fz = f(m, z)
            neighbours = [f(m, np.nextafter(z, d)) for d in (-np.inf, np.inf)]
            assert fz == 0.0 or any(fn * fz < 0.0 for fn in neighbours)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            sf.first_zero_j(-1)

    def test_non_integer_orders_refused(self):
        for call in (lambda m: sf.first_zero_j(m), lambda m: sf.first_zero_y(m),
                     lambda m: log_row(m, 1.0),
                     lambda m: arg_row(m, 1.0)):
            for m in (2.5, 2.7, math.nan, math.inf, "3"):
                with pytest.raises(ValueError, match="order must be a nonnegative"):
                    call(m)
        assert sf.first_zero_j(np.int64(3)) == sf.first_zero_j(3)
        assert sf.first_zero_y(np.int64(3)) == sf.first_zero_y(3)
        assert log_row(np.int64(2), 1.0).shape == (3,)


def order_roots(kappa0: float) -> np.ndarray:
    """All orders mu >= 0 with J_mu(kappa0) = 0, via a sign scan in mu."""
    from scipy.optimize import brentq
    from scipy.special import jv

    grid = np.linspace(0.0, kappa0, max(64, int(8 * kappa0)))
    vals = jv(grid, kappa0)
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(float(a))
        elif fa * fb < 0.0:
            roots.append(brentq(lambda mu: jv(mu, kappa0), a, b, xtol=1e-12))
    return np.asarray(roots)


class TestOrderSpacing:
    def test_consecutive_root_orders_separated_by_more_than_one(self):
        rng = np.random.default_rng(11)
        for kappa0 in rng.uniform(5.0, 100.0, size=20):
            roots = order_roots(float(kappa0))
            assert len(roots) >= 2
            assert np.all(np.diff(roots) > 1.0)
