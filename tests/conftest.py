import math
import time

import numpy as np
import pytest

import ispband as ib
from ispband import singular_system as ss
from ispband import specfun as sf

TEN_PI = 10.0 * math.pi

# the package's runtime memos, which cold_memos clears
RUNTIME_MEMOS = (ss._memo_table, ss._memo_rings)
# the lru_cache it leaves warm: a Gauss-Legendre rule depends on its
# order alone and runs no Bessel pass
WARM_MEMOS = ("_gauss_legendre",)


def cold_memos() -> None:
    """Drop every runtime memo (RUNTIME_MEMOS): spectra and ring rows, so
    the Bessel passes counted next do not depend on what ran before."""
    for memo in RUNTIME_MEMOS:
        memo.cache_clear()


@pytest.fixture(autouse=True)
def cold_spectrum_memo():
    """Every test starts with cold memos (cold_memos)."""
    cold_memos()


@pytest.fixture
def count_passes(monkeypatch):
    """start() counts the calls of the one recurrence loop (specfun._recur)
    made from then on, in the dict it returns, by the kinds of lanes each
    carries: "J" (J lanes alone), "Y" (Y lanes alone) or "JY" (both)."""
    def start() -> dict:
        counts = {"J": 0, "Y": 0, "JY": 0}
        real = sf._recur

        def counted(j_orders, j_x, y_orders, y_x, *args):
            counts["J" * bool(len(j_x)) + "Y" * bool(len(y_x))] += 1
            return real(j_orders, j_x, y_orders, y_x, *args)

        monkeypatch.setattr(sf, "_recur", counted)
        return counts
    return start


@pytest.fixture(scope="session")
def g_equal_10pi():
    return ib.ProblemGeometry.from_size_params(TEN_PI, TEN_PI)


@pytest.fixture(scope="session")
def g_far_10pi():
    return ib.ProblemGeometry.from_size_params(TEN_PI, 10.0 * TEN_PI)


@pytest.fixture(scope="session")
def g_small_4():
    return ib.ProblemGeometry(k=4.0, R0=1.0, R=1.0)


@pytest.fixture(scope="session")
def sweep300():
    """The default 300-point sweep plus its wall-clock time."""
    t0 = time.perf_counter()
    records = ib.run_sweep()
    elapsed = time.perf_counter() - t0
    return records, elapsed


def psi_half(g, rho, M: int) -> np.ndarray:
    """The half-width radial table J_m(k rho_i) / (sqrt(pi) R0 A_m),
    m = 0 .. M, that the modal transform reads, from the memoized ring
    rows and spectrum."""
    a = ss._spectrum_table(g, M).a
    return (ss._planned(g, M, rho)[:, :M + 1]
            / (math.sqrt(math.pi) * g.R0 * a))


def psi_project(P, ms, half) -> np.ndarray:
    """The projections sum_ij P_ij conj(psi_m) for the orders ms, read off
    _psi_project at M = max|m| (half: the table of the orders 0 .. M) with
    the sign (-1)^m of odd negative orders."""
    ms = np.asarray(ms)
    M = int(np.max(np.abs(ms)))
    sign = np.where((ms < 0) & (ms % 2 == 1), -1.0, 1.0)
    return ss._psi_project(P, M, half)[ms + M] * sign


def disk_rel_l2(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> float:
    """Relative L2 distance of two fields sampled on one weighted grid."""
    num = float(np.sum(weights * np.abs(a - b) ** 2))
    den = float(np.sum(weights * np.abs(b) ** 2))
    return math.sqrt(num / den)
