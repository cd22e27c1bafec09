import math
import time

import numpy as np
import pytest

import ispband as ib
from ispband import singular_system as ss
from ispband import specfun as sf
from ispband import tsvd

TEN_PI = 10.0 * math.pi

# the package's runtime memos, which cold_memos clears
RUNTIME_MEMOS = (ss._memo_table, ss._memo_rings, tsvd._memo_psi)
# the lru_caches it leaves warm: Bessel zeros and Gauss-Legendre rules
# depend on their order alone and run no Bessel pass
WARM_MEMOS = ("first_zero_j", "first_zero_y", "_gauss_legendre")


def cold_memos() -> None:
    """Drop every runtime memo (RUNTIME_MEMOS): spectra, ring rows and
    the TSVD's radial tables, so the Bessel passes counted next do not
    depend on what ran before."""
    for memo in RUNTIME_MEMOS:
        memo.cache_clear()


@pytest.fixture(autouse=True)
def cold_spectrum_memo():
    """Every test starts with cold memos (cold_memos)."""
    cold_memos()


@pytest.fixture
def count_passes(monkeypatch):
    """start() counts the J (Miller) and Y table passes made from then on,
    in the dict it returns."""
    def start() -> dict:
        counts = {"J": 0, "Y": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        y_table = counted("Y", sf._y_table)
        monkeypatch.setattr(sf, "_miller_rows", counted("J", sf._miller_rows))
        monkeypatch.setattr(sf, "_y_table", y_table)
        monkeypatch.setattr(ss, "_y_table", y_table)
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


def disk_rel_l2(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> float:
    """Relative L2 distance of two fields sampled on one weighted grid."""
    num = float(np.sum(weights * np.abs(a - b) ** 2))
    den = float(np.sum(weights * np.abs(b) ** 2))
    return math.sqrt(num / den)
