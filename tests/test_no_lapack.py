"""No runtime path calls LAPACK: the radial rule is a Newton iteration on
the Legendre recurrence and the sweep fits are closed-form, so no eigen-,
least-squares or factorization solver runs, and numpy.polynomial is never
imported. The only BLAS call left is the TSVD norms' matrix-vector
product, which needs no LAPACK."""

import subprocess
import sys

import numpy as np
import pytest

import ispband as ib
from ispband import cli
from test_cli import package_env

TEN_PI = 10.0 * np.pi

# numpy.linalg's LAPACK solvers; the fixture also refuses leggauss (an
# eigensolve) and polyfit (SVD least squares), which run one
LAPACK_SOLVERS = ("eig", "eigh", "eigvals", "eigvalsh", "lstsq", "svd",
                  "solve", "inv", "qr", "cholesky")


@pytest.fixture
def no_lapack(monkeypatch):
    """Every LAPACK solver raises from here on, and the cached radial
    rules are dropped, so each is computed again under the patch."""
    def refused(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called on a runtime path")
        return call

    for name in LAPACK_SOLVERS:
        monkeypatch.setattr(np.linalg, name, refused(f"numpy.linalg.{name}"))
    monkeypatch.setattr(np, "polyfit", refused("numpy.polyfit"))
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        refused("numpy.polynomial.legendre.leggauss"))
    ib.forward._gauss_legendre.cache_clear()
    yield
    ib.forward._gauss_legendre.cache_clear()


def test_patch_refuses(no_lapack):
    with pytest.raises(AssertionError, match="leggauss called"):
        np.polynomial.legendre.leggauss(4)
    with pytest.raises(AssertionError, match="polyfit called"):
        np.polyfit([0.0, 1.0], [0.0, 1.0], 1)
    with pytest.raises(AssertionError, match="linalg.eigvalsh called"):
        np.linalg.eigvalsh(np.eye(2))


@pytest.mark.parametrize("argv", [
    ["spectrum", "--kappa0", "12", "--kappa", "12", "--out", "s.csv"],
    ["bandwidth", "--kappa0", "12", "--kappa", "24", "--format", "json"],
    ["sweep", "--n", "6", "--kappa-max", "40", "--out", "."],
    ["reconstruct", "--kappa0", "12", "--kappa", "12", "--noise", "0.01",
     "--out", "r.csv"],
], ids=lambda argv: argv[0])
def test_cli_commands(no_lapack, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0, capsys.readouterr().err


def test_library_paths(no_lapack):
    g = ib.ProblemGeometry.from_size_params(TEN_PI, TEN_PI)
    records = ib.run_sweep(8, (2.0, 60.0))
    for target in ("B", "B-", "B+"):
        ib.fit_linear(records, target)
    rep = ib.report(g)
    truth = ib.source_grid(g, 48, 96,
                           fn=lambda r, t: ib.psi_eval(3, g, r, t))
    data = ib.synthesize_measurement(truth, 0.0, seed=0, n_s=96)
    rec = ib.tsvd_reconstruct(ib.modal_decompose(data, rep.B), rep.B,
                              n_r=48, n_theta=96)
    assert rec.residual < 1e-8


def test_cold_reconstruct_imports_no_numpy_polynomial(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from ispband import cli; "
         "code = cli.main(['reconstruct', '--kappa0', '12', '--kappa', '12',"
         " '--out', 'r.csv']); "
         "print(code, sorted(m for m in sys.modules "
         "if m.startswith('numpy.polynomial')))"],
        capture_output=True, text=True, timeout=120, env=package_env(),
        cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 []"
