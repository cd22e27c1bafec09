"""Cross-check against the baseline table of ROADMAP.md; not a gate.

    PYTHONPATH=src python3 perfbench/reanchor.py

Times each path of that table in this process with time.perf_counter and
prints the measured time beside the table's figure. An entry whose ratio
is above 2 or below 1/2 is flagged. Paths that ran cold in the table
(`report` and `run_sweep`) clear the first-zero caches before each run.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

import ispband as ib


def _clear_zero_caches() -> None:
    ib.first_zero_j.cache_clear()
    ib.first_zero_y.cache_clear()


def _median_time(fn, repeats: int, cold: bool = False) -> float:
    times = []
    for _ in range(repeats):
        if cold:
            _clear_zero_caches()
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def main() -> None:
    g10 = ib.ProblemGeometry.from_size_params(10 * math.pi, 10 * math.pi)
    g1000 = ib.ProblemGeometry.from_size_params(1000.0, 1000.0)
    g100 = ib.ProblemGeometry.from_size_params(100 * math.pi, 100 * math.pi)
    g4 = ib.ProblemGeometry.from_size_params(4.0, 4.0)
    src = ib.source_grid(g100, 128, 800,
                         lambda r, t: ib.psi_eval(2, g100, r, t)
                         + 0.5 * ib.psi_eval(-9, g100, r, t))
    coeffs = ib.modal_decompose(ib.apply_forward_analytic(src, 376), 376)

    def dense_svd():
        mat = ib.assemble_forward(g4, 64, 128, 128)
        np.linalg.svd(mat.entries, compute_uv=False)

    rows = [
        ("build_spectrum, kappa = 10 pi", 1.3e-3,
         _median_time(lambda: ib.build_spectrum(g10), 50)),
        ("report, kappa = 10 pi (cold zero cache)", 4.4e-3,
         _median_time(lambda: ib.report(g10), 20, cold=True)),
        ("run_sweep(), 300 points (cold zero cache)", 2.34,
         _median_time(ib.run_sweep, 1, cold=True)),
        ("build_spectrum, kappa = 1000", 30e-3,
         _median_time(lambda: ib.build_spectrum(g1000), 10)),
        ("apply_forward_analytic, kappa = 100 pi, 376 modes, grid 128x800",
         3.23, _median_time(lambda: ib.apply_forward_analytic(src, 376), 1)),
        ("tsvd_reconstruct, kappa = 100 pi, N = 304, grid 128x800", 3.86,
         _median_time(lambda: ib.tsvd_reconstruct(coeffs, 304, g100,
                                                  n_r=128, n_theta=800), 1)),
        ("assemble_forward(64,128,128) + SVD, kappa = 4", 2.2,
         _median_time(dense_svd, 1)),
    ]
    print(f"{'path':66s} {'ROADMAP':>9s} {'measured':>9s} {'ratio':>6s}")
    for name, ref, got in rows:
        ratio = got / ref
        flag = "  <-- differs by more than 2x" if not 0.5 <= ratio <= 2 else ""
        print(f"{name:66s} {ref:9.4g} {got:9.4g} {ratio:6.2f}{flag}")


if __name__ == "__main__":
    main()
