"""Properties over what the library accepts, drawn by hypothesis with
derandomize=True, so every run tries the same examples."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import ispband as ib


@st.composite
def _inversions(draw):
    """A geometry with kappa0 log-uniform in [0.01, 200] and R/R0 in
    [1, 10], a source of 1-3 distinct modes |m| <= default_m_max(kappa0)
    with nonzero coefficients, and a band-edge policy."""
    kappa0 = math.exp(draw(st.floats(math.log(0.01), math.log(200.0))))
    g = ib.ProblemGeometry.from_size_params(
        kappa0, kappa0 * draw(st.floats(1.0, 10.0)))
    horizon = ib.default_m_max(kappa0)
    ms = draw(st.lists(st.integers(-horizon, horizon), min_size=1,
                       max_size=3, unique=True))
    cs = draw(st.lists(st.complex_numbers(min_magnitude=1e-3,
                                          max_magnitude=1e3),
                       min_size=len(ms), max_size=len(ms)))
    return g, list(zip(cs, ms)), draw(st.sampled_from(["B", "B-", "B+"]))


class TestSyntheticInversion:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_inversions())
    def test_error_is_the_dropped_share(self, case):
        # noiseless data on the default grids: the estimate keeps the
        # modes |m| <= N exactly, so the relative error is the share of
        # the source's energy in the modes past N
        g, terms, policy = case
        rec, error = ib.synthetic_inversion(g, terms, policy=policy)
        total = sum(abs(c) ** 2 for c, _ in terms)
        dropped = sum(abs(c) ** 2 for c, m in terms if abs(m) > rec.N)
        assert abs(error - math.sqrt(dropped / total)) <= 1e-10
