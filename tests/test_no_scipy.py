"""No public call of the package imports scipy: the Bessel tables, the
first zeros and every path built on them run on numpy alone. One fresh
process calls each callable of ispband.__all__ on a small input, the
zeros on one order and on an array of orders, and then lists the scipy
modules it holds; the CLI commands are checked in test_cli."""

import subprocess
import sys

from test_cli import package_env

SCRIPT = r"""
import dataclasses
import sys

import numpy as np

import ispband as ib

g = ib.ProblemGeometry.from_size_params(12.0, 12.0)
table = ib.build_spectrum(g)
rep = ib.report(g)
grid = ib.source_grid(g, 16, 40, fn=lambda r, t: ib.psi_eval(2, g, r, t))
data = ib.synthesize_measurement(grid, 0.01, 0, n_s=64)
coeffs = ib.modal_decompose(data, 16)
rec = ib.tsvd_reconstruct(coeffs, rep.B, n_r=16)
records = ib.run_sweep(4, (2.0, 40.0))
fit = ib.fit_linear(records, "B")
checks = ib.asymptotic_checks([g])
orders = np.arange(50)
calls = {
    "ProblemGeometry": lambda: dataclasses.replace(g),
    "SpectrumTable": lambda: dataclasses.replace(table),
    "a_m": lambda: ib.a_m(3, 12.0),
    "build_spectrum": lambda: ib.build_spectrum(g, 20),
    "default_m_max": lambda: ib.default_m_max(12.0),
    "psi_eval": lambda: ib.psi_eval(-3, g, 0.5, 1.0),
    "phi_eval": lambda: ib.phi_eval(3, g, np.linspace(0.0, 6.0, 5)),
    "first_zero_j": lambda: (ib.first_zero_j(3), ib.first_zero_j(orders)),
    "first_zero_y": lambda: (ib.first_zero_y(3), ib.first_zero_y(orders)),
    "HorizonError": lambda: ib.HorizonError("horizon"),
    "BandwidthReport": lambda: dataclasses.replace(rep),
    "bandwidth": lambda: ib.bandwidth(table),
    "bound_lower": lambda: ib.bound_lower([3.0, 12.0]),
    "bound_upper": lambda: ib.bound_upper([3.0, 12.0]),
    "bound_lower_approx": lambda: ib.bound_lower_approx(12.0),
    "bound_upper_approx": lambda: ib.bound_upper_approx(12.0),
    "report": lambda: ib.report(g),
    "max_angular_sampling": lambda: ib.max_angular_sampling(g),
    "SourceField": lambda: dataclasses.replace(grid),
    "BoundaryData": lambda: dataclasses.replace(data),
    "source_grid": lambda: ib.source_grid(g, 8, 16),
    "apply_forward_analytic": lambda: ib.apply_forward_analytic(grid, 16),
    "synthesize_measurement": lambda: ib.synthesize_measurement(grid, 0.1, 1),
    "SigmaUnderflowError": lambda: ib.SigmaUnderflowError("underflow"),
    "ModalCoefficients": lambda: dataclasses.replace(coeffs),
    "Reconstruction": lambda: dataclasses.replace(rec),
    "modal_decompose": lambda: ib.modal_decompose(data, 8),
    "tsvd_reconstruct": lambda: ib.tsvd_reconstruct(coeffs, 4, n_r=8),
    "pick_truncation": lambda: ib.pick_truncation(g, "B"),
    "SweepRecord": lambda: dataclasses.replace(records[0]),
    "RegressionFit": lambda: dataclasses.replace(fit),
    "AsymptoticRecord": lambda: dataclasses.replace(checks[0]),
    "run_sweep": lambda: ib.run_sweep(4, (2.0, 40.0)),
    "fit_linear": lambda: ib.fit_linear(records, "B+"),
    "r_independence_study": lambda: ib.r_independence_study(12.0, [1.0, 2.0]),
    "asymptotic_checks": lambda: ib.asymptotic_checks([g]),
}
public = {name for name in ib.__all__ if callable(getattr(ib, name))}
assert set(calls) == public, sorted(set(calls) ^ public)
for call in calls.values():
    call()
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_public_calls_load_no_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, timeout=120, env=package_env(),
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
