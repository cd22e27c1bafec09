import gc
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import ispband as ib
from ispband import cli, csvio
from ispband import singular_system as ss


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_line_stats(out):
    """Parse the key=value summary printed after any CSV payload."""
    return dict(tok.split("=") for tok in out.strip().splitlines()[-1].split())


class TestGeometryFlags:
    def test_missing_geometry_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bandwidth"])
        assert exc.value.code == 2

    def test_mixed_styles_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bandwidth", "--kappa0", "4", "--k", "2"])
        assert exc.value.code == 2

    def test_incomplete_size_style_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bandwidth", "--kappa0", "4"])
        assert exc.value.code == 2

    def test_invalid_geometry_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bandwidth", "--kappa0", "8", "--kappa", "4"])
        assert exc.value.code == 2

    def test_physical_style_equivalent(self, capsys):
        c1, out1, _ = run_cli(capsys, "bandwidth", "--kappa0",
                              str(10 * math.pi), "--kappa", str(10 * math.pi))
        c2, out2, _ = run_cli(capsys, "bandwidth", "--k", str(10 * math.pi),
                              "--r0", "1", "--r", "1")
        assert c1 == c2 == 0
        assert out1 == out2


class TestBandwidthCommand:
    def test_reference_line(self, capsys):
        code, out, _ = run_cli(capsys, "bandwidth", "--kappa0",
                               str(10 * math.pi), "--kappa", str(10 * math.pi))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "B=27 B-=26 B+=29 Btilde-=26 Btilde+=32"
        assert f"{math.pi / 26.0:.17g}" in lines[1]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "bandwidth", "--kappa0",
                               str(10 * math.pi), "--kappa",
                               str(10 * math.pi), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["B"] == 27
        assert payload["B_minus"] == 26
        assert payload["B_plus"] == 29
        assert payload["B_tilde_minus"] == 26
        assert payload["B_tilde_plus"] == 32
        assert payload["max_angular_step"] == pytest.approx(math.pi / 26.0)

    def test_empty_band_note(self, capsys):
        code, out, _ = run_cli(capsys, "bandwidth", "--kappa0", "2",
                               "--kappa", "2")
        assert code == 0
        assert out.splitlines()[0].startswith("B=0 B-=0 B+=1")
        assert "undefined" in out

    def test_short_horizon_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "bandwidth", "--kappa0",
                               str(10 * math.pi), "--kappa",
                               str(10 * math.pi), "--mmax", "10")
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("exc", [MemoryError(), MemoryError(
        "Unable to allocate 763. MiB for an array")], ids=["bare", "numpy"])
    def test_out_of_memory_is_usage_error(self, capsys, monkeypatch, exc):
        # stands in for a size too large to allocate, without allocating
        def refuse(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, "report", refuse)
        code, out, err = run_cli(capsys, "bandwidth", "--kappa0", "1e8",
                                 "--kappa", "1e8")
        assert code == cli.EXIT_USAGE == 2
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"error: {str(exc) or 'out of memory'}; ")
        assert "--kappa0/--kappa" in line and "--mmax" in line

    def test_cold_run_takes_one_j_and_one_y_pass(self, capsys,
                                                 count_passes):
        # report's one pass: J and Y at kappa0 and kappa together, in one
        # call of the recurrence loop (Y at 10 pi >= 25 seeds itself)
        counts = count_passes()
        code, _, _ = run_cli(capsys, "bandwidth", "--kappa0",
                             str(10 * math.pi), "--kappa", str(10 * math.pi))
        assert code == 0
        assert counts == {"J": 0, "Y": 0, "JY": 1}


class TestSpectrumCommand:
    def test_stdout_csv(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--kappa0",
                               str(10 * math.pi), "--kappa",
                               str(10 * math.pi), "--mmax", "70")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,A_m,log10_abs_H2,log10_sigma,sigma"
        assert len(lines) == 72
        cols = csvio.read_spectrum(io.StringIO(out))
        ls = cols["log10_sigma"]
        viol = np.nonzero(ls[:-1] <= ls[1:])[0]
        assert viol[-1] + 1 == 27

    def test_file_output(self, capsys, tmp_path):
        target = tmp_path / "spectrum.csv"
        code, out, _ = run_cli(capsys, "spectrum", "--kappa0", "4",
                               "--kappa", "4", "--mmax", "12",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[0].startswith("m,A_m")

    def test_overflowing_sigma_written_as_inf(self, capsys):
        # sigma was once capped at exp(709) = 8.2e307 beside log10 sigma
        # = 375.48, with exit 0
        code, out, _ = run_cli(capsys, "spectrum", "--k", "1e-250",
                               "--r0", "1e250", "--r", "1e250")
        assert code == 0
        cols = csvio.read_spectrum(io.StringIO(out))
        assert cols["log10_sigma"][0] == pytest.approx(375.48, abs=0.01)
        assert np.all(cols["sigma"] == math.inf)

    def test_cold_run_takes_one_j_and_one_y_pass(self, capsys,
                                                 count_passes):
        # the J and Y lanes of the spectrum in one call of the loop
        counts = count_passes()
        code, _, _ = run_cli(capsys, "spectrum", "--kappa0",
                             str(10 * math.pi), "--kappa", str(10 * math.pi))
        assert code == 0
        assert counts == {"J": 0, "Y": 0, "JY": 1}


class TestSweepCommand:
    def test_smoke_run_and_reproducibility(self, capsys, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        t0 = time.perf_counter()
        code1, out1, _ = run_cli(capsys, "sweep", "--n", "10",
                                 "--out", str(d1))
        elapsed = time.perf_counter() - t0
        code2, out2, _ = run_cli(capsys, "sweep", "--n", "10",
                                 "--out", str(d2))
        assert code1 == code2 == 0
        assert elapsed < 5.0
        assert out1.startswith("n=10 mean_eps-=")
        assert out1 == out2
        assert (d1 / "sweep.csv").read_text() == (d2 / "sweep.csv").read_text()
        fits = csvio.read_fits(str(d1 / "fits.csv"))
        assert [f.target for f in fits] == ["B", "B-", "B+"]

    def test_bad_point_count(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--n", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value, kappa_range", [
        ("--kappa-max", "inf", (2.0, math.inf)),
        ("--kappa-min", "nan", (math.nan, 100.0 * math.pi))])
    def test_non_finite_range_is_usage_error(self, capsys, tmp_path, flag,
                                             value, kappa_range):
        # refused before any point runs, and without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sweep", "--n", "5", flag,
                                     value, "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: bad kappa range {kappa_range!r}")
        assert not (tmp_path / "sweep.csv").exists()

    def test_range_too_wide_for_the_grid_is_usage_error(self, capsys,
                                                         tmp_path):
        # the default 300-point grid up to 1e308 overflows while formed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sweep", "--kappa-max", "1e308",
                                     "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: kappa range (2.0, 1e+308) is too wide "
                              "for 300 points")
        assert not (tmp_path / "sweep.csv").exists()

    def test_failing_point_keeps_its_exit_code(self, capsys, tmp_path):
        # at kappa = 1e-300 A_1 underflows, so the horizon check fails
        code, _, err = run_cli(capsys, "sweep", "--kappa-min", "1e-300",
                               "--kappa-max", "1", "--n", "3",
                               "--out", str(tmp_path))
        assert code == 3
        assert err.startswith("error: sweep failed at kappa=1e-300: ")

    def test_one_j_and_one_y_pass_per_block(self, capsys, count_passes,
                                            tmp_path):
        # run_sweep takes its points in blocks of 64: 100 points, 2 blocks,
        # each one call of the loop with its J and Y lanes; the first block
        # also has Y lanes below x = 25, which step in one short Y call
        # after it, from seed rows the block's call made
        counts = count_passes()
        code, _, _ = run_cli(capsys, "sweep", "--n", "100",
                             "--out", str(tmp_path))
        assert code == 0
        assert counts == {"J": 0, "Y": 1, "JY": 2}


class TestReconstructCommand:
    def test_clean_default_source(self, capsys, tmp_path):
        target = tmp_path / "rec.csv"
        code, out, _ = run_cli(capsys, "reconstruct", "--kappa0",
                               str(10 * math.pi), "--kappa",
                               str(10 * math.pi), "--policy", "B",
                               "--out", str(target))
        assert code == 0
        stats = dict(tok.split("=") for tok in out.split())
        assert stats["policy"] == "B"
        assert int(stats["N"]) == 27
        assert float(stats["rel_error"]) < 1e-6
        rec = csvio.read_reconstruction(str(target))
        assert rec.N == 27
        assert rec.policy == "B"

    def test_noise_hurts_beyond_the_band(self, capsys):
        base = ["reconstruct", "--kappa0", str(10 * math.pi), "--kappa",
                str(10 * math.pi), "--noise", "1e-2", "--seed", "7"]
        _, out_band, _ = run_cli(capsys, *base, "--policy", "B-")
        _, out_wide, _ = run_cli(capsys, *base, "--policy", "N",
                                 "--N", "42")
        e_band = float(last_line_stats(out_band)["rel_error"])
        e_wide = float(last_line_stats(out_wide)["rel_error"])
        assert e_wide > 2.0 * e_band

    def test_default_grids_resolve_large_kappa(self, capsys, tmp_path):
        # 64 x 64 grids once gave rel_error 0.47 here with exit code 0
        code, out, _ = run_cli(capsys, "reconstruct", "--kappa0", "314.159",
                               "--kappa", "314.159",
                               "--out", str(tmp_path / "rec.csv"))
        assert code == 0
        stats = last_line_stats(out)
        assert int(stats["N"]) == 304
        assert float(stats["rel_error"]) <= 1e-10
        assert float(stats["residual"]) <= 1e-10

    @pytest.mark.parametrize("kappa0", [0.5, 100 * math.pi])
    def test_default_radial_grid_resolves_the_retained_modes(
            self, capsys, tmp_path, kappa0):
        target = tmp_path / "rec.csv"
        code, _, _ = run_cli(capsys, "reconstruct", "--kappa0", repr(kappa0),
                             "--kappa", repr(kappa0), "--out", str(target))
        assert code == 0
        assert csvio.read_reconstruction(str(target)).margin <= 2.5e-14

    @pytest.mark.parametrize("kappa0, nr, default", [
        (repr(100 * math.pi), "64", 201), ("158", "7", 117)])
    def test_unresolving_radial_grid_is_usage_error(self, capsys, tmp_path,
                                                     kappa0, nr, default):
        # --nr 64 at kappa0 = 100 pi once exited 0 with rel_error 2.8e-2:
        # its rings put ||psi_m||_h^2 off by 0.40 for the retained m
        target = tmp_path / "rec.csv"
        code, out, err = run_cli(capsys, "reconstruct", "--kappa0", kappa0,
                                 "--kappa", kappa0, "--nr", nr,
                                 "--out", str(target))
        assert code == 2
        assert out == ""
        assert f"--nr {nr} " in err
        assert f"default --nr for this geometry is {default}" in err
        assert not target.exists()

    def test_aliasing_angular_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "reconstruct", "--kappa0",
                               str(10 * math.pi), "--kappa",
                               str(10 * math.pi), "--ntheta", "40")
        assert code == 2
        assert "n_theta" in err

    def test_seed_reproducibility(self, capsys, tmp_path):
        f1 = tmp_path / "r1.csv"
        f2 = tmp_path / "r2.csv"
        args = ["reconstruct", "--kappa0", "12", "--kappa", "12",
                "--noise", "0.05", "--seed", "3", "--policy", "B"]
        c1, out1, _ = run_cli(capsys, *args, "--out", str(f1))
        c2, out2, _ = run_cli(capsys, *args, "--out", str(f2))
        assert c1 == c2 == 0
        assert out1 == out2
        assert f1.read_text() == f2.read_text()

    def test_manual_N_needs_policy_N(self, capsys):
        # --N without --policy N once ran policy B at N = 7 with exit 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["reconstruct", "--kappa0", "10", "--kappa", "10",
                      "--N", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--N" in err and "--policy N" in err

    def test_bad_source_spec(self, capsys):
        code, _, err = run_cli(capsys, "reconstruct", "--kappa0", "4",
                               "--kappa", "4", "--source", "wave:3")
        assert code == 2
        assert "error" in err

    def test_sigma_underflow_exit_code(self, capsys, recwarn):
        code, _, err = run_cli(capsys, "reconstruct", "--kappa0", "1e-6",
                               "--kappa", "1", "--policy", "N",
                               "--N", "30", "--source", "mode:0")
        assert code == 4
        assert "error" in err

    def test_csv_is_the_library_route_bit_for_bit(self, capsys, tmp_path):
        # the route a benchmark recomputes the command's output by: truth
        # from psi_eval, forward map, modal decomposition and TSVD at B
        kappa0, kappa = 23.7, 38.1
        terms = [(0.412 - 0.733j, 4), (-0.25 - 0.5j, -11)]
        g = ib.ProblemGeometry.from_size_params(kappa0, kappa)
        horizon = ib.default_m_max(g.kappa0)
        n = 2 * horizon + 2
        target = tmp_path / "reconstruction.csv"
        code, _, _ = run_cli(
            capsys, "reconstruct", "--kappa0", repr(kappa0), "--kappa",
            repr(kappa), "--source=0.412-0.733i*mode:4+-0.25-0.5i*mode:-11",
            "--policy", "B", "--nr", "64", "--ntheta", str(n), "--ns",
            str(n), "--out", str(target))
        assert code == 0
        truth = ib.source_grid(
            g, 64, n, fn=lambda rho, th: sum(c * ib.psi_eval(m, g, rho, th)
                                             for c, m in terms))
        data = ib.synthesize_measurement(truth, 0.0, 0, modes=horizon, n_s=n)
        coeffs = ib.modal_decompose(data, horizon)
        rec = ib.tsvd_reconstruct(coeffs, ib.pick_truncation(g, "B"), g,
                                  n_r=64, n_theta=n, policy="B")
        got = csvio.read_reconstruction(str(target))
        assert (got.N, got.policy, got.residual) == (rec.N, "B", rec.residual)
        assert np.array_equal(got.source.values, rec.source.values)

    def test_cold_default_run_takes_two_j_and_one_y_pass(
            self, capsys, count_passes, tmp_path):
        # the memoized spectrum, one J and Y call (run by B, read by
        # psi_eval, the forward map, the decomposition and the TSVD), and
        # one ring table, 1 J call, keyed by the default horizon and the
        # grid's radii: psi_eval builds it for the truth, and the forward
        # map and the TSVD read it
        counts = count_passes()
        code, _, _ = run_cli(capsys, "reconstruct", "--kappa0",
                             str(10 * math.pi), "--kappa", str(10 * math.pi),
                             "--out", str(tmp_path / "rec.csv"))
        assert code == 0
        assert counts == {"J": 1, "Y": 0, "JY": 1}
        assert ss._memo_rings.cache_info().currsize == 1

    @pytest.mark.parametrize("flag, reason", [
        ("--noise=nan", "finite"), ("--noise=inf", "finite"),
        ("--source=nan*mode:2", "finite"),
        ("--source=1e400*mode:2", "finite"),
        ("--source=0*mode:2", "nonzero"),
        ("--source=0*mode:2+0j*mode:-3", "nonzero")])
    def test_non_finite_or_zero_input_refused(self, capsys, count_passes,
                                              tmp_path, flag, reason):
        # each once ran to a nan rel_error with exit 0, or (a zero source)
        # wrote the CSV and then failed with a division by zero
        counts = count_passes()
        target = tmp_path / "rec.csv"
        argv = ["reconstruct", "--kappa0", "5", "--kappa", "5", flag,
                "--out", str(target)]
        if flag.startswith("--noise"):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            code, err = exc.value.code, capsys.readouterr().err
        else:
            code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert reason in err
        assert counts == {"J": 0, "Y": 0, "JY": 0}
        assert not target.exists()

    @pytest.mark.parametrize("spec", ["mode:2+-1*mode:2"])
    def test_zero_norm_source_refused(self, capsys, tmp_path, spec):
        # terms that cancel once wrote the CSV and then failed with a
        # division by zero (exit 4)
        target = tmp_path / "rec.csv"
        code, _, err = run_cli(capsys, "reconstruct", "--kappa0", "5",
                               "--kappa", "5", f"--source={spec}",
                               "--out", str(target))
        assert code == 2
        assert "zero norm" in err
        assert not target.exists()

    @pytest.mark.parametrize("scale", ["1e-200", "1e-160", "1e200"])
    def test_figures_are_scale_invariant(self, capsys, tmp_path, scale):
        # once residual=0 rel_error=0 (squares underflowed) and, at 1e200,
        # nan for both with four overflow warnings; at 1e-200, where
        # |values|^2 underflow, the source was refused as of zero norm
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_cli(capsys, "reconstruct", "--kappa0", "5",
                                   "--kappa", "5", f"--source={scale}*mode:2",
                                   "--out", str(tmp_path / "rec.csv"))
        assert code == 0
        assert caught == []
        stats = last_line_stats(out)
        for key in ("residual", "rel_error"):
            assert 0.0 < float(stats[key]) <= 1e-13, key

    def test_disk_area_out_of_range_refused(self, capsys, count_passes,
                                            tmp_path):
        # pi R0**2 once raised a bare OverflowError (exit 4) from the
        # source field's area check
        counts = count_passes()
        target = tmp_path / "rec.csv"
        code, _, err = run_cli(capsys, "reconstruct", "--k", "1e-250",
                               "--r0", "1e250", "--r", "1e250",
                               "--out", str(target))
        assert code == 2
        assert err.startswith("error: R0=1e+250") and "disk area" in err
        assert counts == {"J": 0, "Y": 0, "JY": 0}
        assert not target.exists()
        code, out, _ = run_cli(capsys, "reconstruct", "--k", "1e-150",
                               "--r0", "1e150", "--r", "1e150",
                               "--out", str(target))
        assert code == 0
        assert math.isfinite(float(last_line_stats(out)["rel_error"]))
        assert csvio.read_reconstruction(str(target)).source.n_r == 64

    def test_custom_source_spec(self, capsys):
        code, out, _ = run_cli(capsys, "reconstruct", "--kappa0",
                               str(10 * math.pi), "--kappa",
                               str(10 * math.pi), "--source",
                               "mode:1+0.25i*mode:-3", "--policy", "N",
                               "--N", "5")
        assert code == 0
        assert float(last_line_stats(out)["rel_error"]) < 1e-6


class TestOutputTarget:
    """An --out that cannot be written is a usage error (exit 2), not an
    uncaught FileNotFoundError or FileExistsError (exit 1)."""

    def test_spectrum_into_a_missing_directory(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "spectrum", "--kappa0", "5", "--kappa",
                               "5", "--out", str(tmp_path / "no" / "s.csv"))
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("target", ["missing-directory",
                                        "existing-directory"])
    def test_reconstruct_refuses_before_any_pass(self, capsys, count_passes,
                                                 tmp_path, target):
        out = (tmp_path / "no" / "r.csv" if target == "missing-directory"
               else tmp_path)
        counts = count_passes()
        code, _, err = run_cli(capsys, "reconstruct", "--kappa0", "5",
                               "--kappa", "5", "--out", str(out))
        assert code == 2
        assert err.startswith("error: ") and "--out" in err
        assert counts == {"J": 0, "Y": 0, "JY": 0}
        assert not (tmp_path / "no").exists()
        assert list(tmp_path.iterdir()) == []

    def test_sweep_into_an_existing_file(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.write_text("kept\n")
        code, _, err = run_cli(capsys, "sweep", "--n", "3", "--out",
                               str(target))
        assert code == 2
        assert err.startswith("error: ")
        assert target.read_text() == "kept\n"


def package_env() -> dict:
    """Environment whose PYTHONPATH puts the package under test first, so a
    child process imports it whether it is installed or not."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=root + (os.pathsep + path if path else ""))


def run_module(*argv) -> subprocess.CompletedProcess:
    """`python -m ispband.cli argv` in a child process."""
    return subprocess.run([sys.executable, "-m", "ispband.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=package_env())


# prints the freeze count before and after run(argv), and run's exit code
# or the code of the SystemExit it raised
_FREEZE_PROBE = """
import gc, sys
from ispband import cli
before = gc.get_freeze_count()
try:
    code = cli.run(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(before, gc.get_freeze_count(), code)
"""


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = run_module("bandwidth", "--kappa0", "12", "--kappa", "12")
        assert proc.returncode == 0
        assert proc.stdout.startswith("B=")

    def test_main_in_process_freezes_nothing(self, capsys):
        before = gc.get_freeze_count()
        code, _, _ = run_cli(capsys, "bandwidth", "--kappa0", "12",
                             "--kappa", "12")
        assert code == 0
        with pytest.raises(SystemExit):
            cli.main(["bandwidth"])
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, code", [
        (["bandwidth", "--kappa0", "12", "--kappa", "12"], "0"),
        (["bandwidth"], "2"),               # argparse's SystemExit
    ], ids=["returns", "exits"])
    def test_run_freezes_the_heap(self, argv, code):
        proc = subprocess.run(
            [sys.executable, "-c", _FREEZE_PROBE, *argv],
            capture_output=True, text=True, timeout=120, env=package_env())
        assert proc.returncode == 0, proc.stderr
        before, after, got = proc.stdout.split()[-3:]
        assert int(before) == 0
        assert int(after) > 0
        assert got == code

    def test_module_json_is_the_report(self):
        proc = run_module("bandwidth", "--kappa0", "12", "--kappa", "24",
                          "--format", "json")
        assert proc.returncode == 0, proc.stderr
        g = ib.ProblemGeometry.from_size_params(12.0, 24.0)
        rep = ib.report(g)
        payload = json.loads(proc.stdout)
        assert payload == {
            "B": rep.B, "B_minus": rep.B_minus, "B_plus": rep.B_plus,
            "B_tilde_minus": rep.B_tilde_minus,
            "B_tilde_plus": rep.B_tilde_plus, "horizon": rep.horizon,
            "max_angular_step": math.pi / rep.B_minus,
            "kappa0": 12.0, "kappa": 24.0}

    def test_module_spectrum_is_build_spectrum_bitwise(self):
        proc = run_module("spectrum", "--kappa0", "12", "--kappa", "12",
                          "--out", "-")
        assert proc.returncode == 0, proc.stderr
        cols = csvio.read_spectrum(io.StringIO(proc.stdout))
        table = ib.build_spectrum(ib.ProblemGeometry.from_size_params(
            12.0, 12.0))
        ln10 = math.log(10.0)
        for name, want in [("m", table.m), ("A_m", table.a),
                           ("log10_abs_H2", table.log_abs_h2 / ln10),
                           ("log10_sigma", table.log_sigma / ln10),
                           ("sigma", table.sigma)]:
            assert cols[name].tobytes() == want.tobytes(), name

    def test_module_usage_error_exits_2(self):
        proc = run_module("bandwidth", "--kappa0", "8", "--kappa", "4")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == (
            "ispband: error: size parameters must satisfy 0 < kappa0 <= "
            "kappa, got kappa0=8.0, kappa=4.0")

    def test_script_is_the_process_entry(self):
        # a text check: tomllib is not in every Python the package supports
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml")) as fh:
            lines = fh.read().splitlines()
        scripts = lines[lines.index("[project.scripts]") + 1:]
        assert scripts[0] == 'ispband = "ispband.cli:run"'

    @pytest.mark.parametrize("module", ["scipy.integrate", "scipy.optimize"])
    def test_import_leaves_out_quadrature(self, module):
        # the package needs no adaptive quadrature (the cross-check oracle
        # that does lives with the tests) and no root finder beyond its
        # own bisection, so a cold import pays for neither
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, ispband.cli; "
             f"print(sorted(m for m in sys.modules if m == {module!r} "
             f"or m.startswith({module + '.'!r})))"],
            capture_output=True, text=True, timeout=120, env=package_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_leaves_out_scipy(self):
        # the package runs on numpy alone: the cross-check oracles, the
        # dense kernel among them, live with the tests, and the zero
        # search bisects the package's own Bessel tables
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, ispband, ispband.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, timeout=120, env=package_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--kappa0", "12", "--kappa", "12", "--out", "s.csv"],
        ["bandwidth", "--kappa0", "12", "--kappa", "24", "--format", "json"],
        ["sweep", "--n", "6", "--kappa-max", "40", "--out", "."],
        ["reconstruct", "--kappa0", "12", "--kappa", "12",
         "--policy", "B-", "--out", "r.csv"],
    ], ids=lambda argv: argv[0])
    def test_subcommand_loads_no_scipy(self, tmp_path, argv):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from ispband import cli; "
             f"code = cli.main({argv!r}); "
             "print(code, sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, timeout=120, env=package_env(),
            cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "0 []"
