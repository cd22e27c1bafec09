import math
import time

import numpy as np
import pytest

import ispband as ib
from ispband import singular_system as ss
from ispband import specfun as sf

TEN_PI = 10.0 * math.pi


@pytest.fixture(autouse=True)
def cold_spectrum_memo():
    """Every test starts with no memoized spectrum, so the Bessel passes a
    test counts do not depend on the tests run before it."""
    ss._memo_table.cache_clear()


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
