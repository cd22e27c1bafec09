import io
import math

import numpy as np
import pytest

import ispband as ib
from ispband import csvio
from ispband import experiments as ex
from ispband import singular_system as ss

TEN_PI = 10.0 * math.pi


class TestSpectrumCsv:
    def test_header_and_row_count(self, g_equal_10pi):
        table = ss.build_spectrum(g_equal_10pi, 70)
        text = csvio.dumps(csvio.write_spectrum, table)
        lines = text.strip().splitlines()
        assert lines[0] == "m,A_m,log10_abs_H2,log10_sigma,sigma"
        assert len(lines) == 72

    def test_values_survive_a_round_trip(self, g_equal_10pi):
        table = ss.build_spectrum(g_equal_10pi, 40)
        text = csvio.dumps(csvio.write_spectrum, table)
        cols = csvio.read_spectrum(io.StringIO(text))
        assert np.array_equal(cols["m"], table.m)
        assert np.array_equal(cols["sigma"], table.sigma)
        assert np.allclose(cols["log10_sigma"] * math.log(10.0),
                           table.log_sigma, rtol=1e-15, atol=1e-13)

    def test_file_round_trip_is_stable(self, g_equal_10pi, tmp_path):
        table = ss.build_spectrum(g_equal_10pi, 30)
        p1 = tmp_path / "spec1.csv"
        csvio.write_spectrum(table, str(p1))
        text1 = p1.read_text()
        assert text1 == csvio.dumps(csvio.write_spectrum, table)

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError):
            csvio.read_spectrum(io.StringIO("a,b,c\n1,2,3\n"))


class TestSweepCsv:
    def test_round_trip_bitwise(self):
        records = ex.run_sweep(n_points=8, kappa_range=(2.0, 40.0))
        text = csvio.dumps(csvio.write_sweep, records)
        back = csvio.read_sweep(io.StringIO(text))
        assert back == records
        assert csvio.dumps(csvio.write_sweep, back) == text

    def test_infinite_relative_error_survives(self):
        records = ex.run_sweep(n_points=4, kappa_range=(2.0, 2.6))
        assert any(math.isinf(r.relerr_plus) for r in records)
        text = csvio.dumps(csvio.write_sweep, records)
        back = csvio.read_sweep(io.StringIO(text))
        assert back == records

    def test_header(self):
        text = csvio.dumps(csvio.write_sweep, [])
        assert text.strip() == csvio.SWEEP_HEADER


class TestFitsCsv:
    def test_round_trip(self):
        records = ex.run_sweep(n_points=12, kappa_range=(5.0, 80.0))
        fits = [ex.fit_linear(records, t) for t in ("B", "B-", "B+")]
        text = csvio.dumps(csvio.write_fits, fits)
        back = csvio.read_fits(io.StringIO(text))
        assert back == fits
        lines = text.strip().splitlines()
        assert lines[0] == "target,slope,intercept,mean_abs_error,std_dev"
        assert len(lines) == 4


class TestBoundaryCsv:
    def test_round_trip(self, g_equal_10pi):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        bd = ib.BoundaryData(geometry=g_equal_10pi, values=vals,
                             noise_level=0.25)
        text = csvio.dumps(csvio.write_boundary, bd)
        back = csvio.read_boundary(io.StringIO(text))
        assert np.array_equal(back.values, bd.values)
        assert back.noise_level == bd.noise_level
        assert back.geometry == bd.geometry
        assert text.splitlines()[1] == "index,re,im"

    @pytest.mark.parametrize("row, meta", [
        ("1,nan,0.5", "noise=0.01"), ("1,1,-inf", "noise=0.01"),
        ("1,1,0.5", "noise=nan")])
    def test_non_finite_file_refused(self, row, meta):
        # a nan or inf once read back into data that tsvd_reconstruct
        # turned into a zero residual
        text = (f"# k=2 R0=0.5 R=1 n_s=2 {meta}\n"
                f"index,re,im\n0,1,0.5\n{row}\n")
        with pytest.raises(ValueError, match="finite"):
            csvio.read_boundary(io.StringIO(text))


class TestSourceCsv:
    def test_round_trip(self, g_equal_10pi):
        grid = ib.source_grid(g_equal_10pi, 12, 20,
                              fn=lambda r, t: r * np.exp(1j * 3 * t))
        text = csvio.dumps(csvio.write_source, grid)
        back = csvio.read_source(io.StringIO(text))
        assert np.array_equal(back.values, grid.values)
        assert np.array_equal(back.rho, grid.rho)
        assert back.geometry == grid.geometry
        assert text.splitlines()[1] == "i_r,i_theta,rho,theta,re,im"

    def test_foreign_radial_nodes_rejected(self, g_equal_10pi):
        grid = ib.source_grid(g_equal_10pi, 8, 12)
        text = csvio.dumps(csvio.write_source, grid)
        lines = text.splitlines()
        row = lines[-1].split(",")
        row[2] = "0.123456"
        lines[-1] = ",".join(row)
        bad = "\n".join(lines) + "\n"
        with pytest.raises(ValueError):
            csvio.read_source(io.StringIO(bad))

    def test_non_uniform_ray_rejected(self, g_equal_10pi):
        # ray j = 1 of a 4x6 grid moved from 2 pi / 6 to 2.5 on every ring
        text = csvio.dumps(csvio.write_source,
                           ib.source_grid(g_equal_10pi, 4, 6))
        bad = text
        for ring in range(4):
            bad = _edit_row(bad, 6 * ring + 1, 3, "2.5")
        with pytest.raises(ValueError, match="uniform"):
            csvio.read_source(io.StringIO(bad))


class TestReconstructionCsv:
    def test_round_trip_with_metadata(self, g_equal_10pi):
        g = g_equal_10pi
        bd = ib.BoundaryData(geometry=g, values=np.exp(
            1j * 2.0 * math.pi * 3.0 * np.arange(64) / 64))
        c = ib.modal_decompose(bd, 8)
        rec = ib.tsvd_reconstruct(c, 4, n_r=10, n_theta=16, policy="B-")
        text = csvio.dumps(csvio.write_reconstruction, rec)
        back = csvio.read_reconstruction(io.StringIO(text))
        assert back.N == 4
        assert back.policy == "B-"
        assert back.residual == rec.residual
        assert np.array_equal(back.source.values, rec.source.values)


def _edit_row(text: str, row: int, col: int, value: str) -> str:
    """Replace one field of data row `row` in a file with a metadata line."""
    lines = text.splitlines(keepends=True)
    fields = lines[2 + row].rstrip("\n").split(",")
    fields[col] = value
    lines[2 + row] = ",".join(fields) + "\n"
    return "".join(lines)


class TestMalformedInput:
    """Every reader goes through one parser; each of these must raise."""

    @pytest.fixture(scope="class")
    def source_text(self, g_equal_10pi):
        grid = ib.source_grid(g_equal_10pi, 6, 8,
                              fn=lambda r, t: r * np.exp(1j * t))
        return csvio.dumps(csvio.write_source, grid)

    def test_truncated_source_rejected(self, source_text):
        short = "".join(source_text.splitlines(keepends=True)[:-3])
        with pytest.raises(ValueError, match="grid"):
            csvio.read_source(io.StringIO(short))

    def test_truncated_reconstruction_rejected(self, g_equal_10pi):
        bd = ib.BoundaryData(geometry=g_equal_10pi, values=np.exp(
            1j * 2.0 * math.pi * 3.0 * np.arange(32) / 32))
        rec = ib.tsvd_reconstruct(ib.modal_decompose(bd, 8), 4, n_r=6,
                                  n_theta=10, policy="B-")
        text = csvio.dumps(csvio.write_reconstruction, rec)
        short = "".join(text.splitlines(keepends=True)[:-1])
        with pytest.raises(ValueError, match="grid"):
            csvio.read_reconstruction(io.StringIO(short))

    def test_swapped_boundary_indices_rejected(self, g_equal_10pi):
        bd = ib.BoundaryData(geometry=g_equal_10pi,
                             values=np.arange(6) * (1 + 2j))
        text = csvio.dumps(csvio.write_boundary, bd)
        swapped = _edit_row(_edit_row(text, 1, 0, "2"), 2, 0, "1")
        with pytest.raises(ValueError, match="indexed"):
            csvio.read_boundary(io.StringIO(swapped))

    def test_sweep_row_with_extra_field_rejected(self):
        records = ex.run_sweep(n_points=3, kappa_range=(5.0, 20.0))
        lines = csvio.dumps(csvio.write_sweep, records).splitlines()
        lines[2] += ",7"
        with pytest.raises(ValueError, match="line 3: 12 fields"):
            csvio.read_sweep(io.StringIO("\n".join(lines) + "\n"))

    def test_sweep_row_with_missing_field_rejected(self):
        records = ex.run_sweep(n_points=3, kappa_range=(5.0, 20.0))
        lines = csvio.dumps(csvio.write_sweep, records).splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        with pytest.raises(ValueError, match="line 4: 10 fields"):
            csvio.read_sweep(io.StringIO("\n".join(lines) + "\n"))

    def test_negative_angular_index_rejected(self, source_text):
        bad = _edit_row(source_text, 47, 1, "-1")
        with pytest.raises(ValueError, match="grid"):
            csvio.read_source(io.StringIO(bad))

    def test_radius_disagreeing_inside_a_ring_rejected(self, source_text):
        rho = source_text.splitlines()[2].split(",")[2]
        # the first node's radius on the second ring's middle row
        bad = _edit_row(source_text, 8 + 3, 2, rho)
        with pytest.raises(ValueError, match="ring"):
            csvio.read_source(io.StringIO(bad))

    def test_angle_disagreeing_along_a_ray_rejected(self, source_text):
        bad = _edit_row(source_text, 2 * 8 + 5, 3, "0.5")
        with pytest.raises(ValueError, match="ray"):
            csvio.read_source(io.StringIO(bad))

    def test_unparsable_field_names_its_line(self):
        text = csvio.FITS_HEADER + "\nB,0.5,1,x,2\n"
        with pytest.raises(ValueError, match="line 2"):
            csvio.read_fits(io.StringIO(text))

    @pytest.mark.parametrize("policy", ["my policy", "a=b", "tab\there"])
    def test_metadata_that_cannot_round_trip_refused(self, policy):
        src = ib.source_grid(ib.ProblemGeometry(k=2.0, R0=0.5, R=1.0), 2, 2)
        rec = ib.Reconstruction(source=src, N=1, residual=0.0, policy=policy)
        with pytest.raises(ValueError, match="policy"):
            csvio.dumps(csvio.write_reconstruction, rec)

    def test_fit_target_with_comma_refused(self):
        fits = [ex.RegressionFit(target="B,-", slope=1.0, intercept=0.0,
                                 mean_abs_error=0.0, std_dev=0.0)]
        with pytest.raises(ValueError, match="comma"):
            csvio.dumps(csvio.write_fits, fits)

    def test_missing_metadata_key_rejected(self, source_text):
        lines = source_text.splitlines(keepends=True)
        lines[0] = lines[0].replace(" n_theta=8", "")
        with pytest.raises(ValueError, match="n_theta"):
            csvio.read_source(io.StringIO("".join(lines)))


class TestGoldenBytes:
    """Writer output on hand-made objects, pinned byte for byte."""

    G = ib.ProblemGeometry(k=2.0, R0=0.5, R=1.0)
    GRID_ROWS = ("i_r,i_theta,rho,theta,re,im\n"
                 "0,0,0.125,0,1,2\n"
                 "0,1,0.125,3.1415926535897931,-0,-0.5\n"
                 "1,0,0.375,0,3,0\n"
                 "1,1,0.375,3.1415926535897931,1e-300,0\n")

    def _source(self):
        return ib.SourceField(
            geometry=self.G, rho=np.array([0.125, 0.375]),
            radial_weights=np.array([0.25, 0.25]),
            theta=np.array([0.0, math.pi]),
            values=np.array([[1 + 2j, -0.5j], [3.0, 1e-300 + 0j]]))

    def test_spectrum(self):
        table = ss.SpectrumTable(
            geometry=self.G, m=np.array([0, 1, 2]),
            a=np.array([0.1, 0.5, 0.0]),
            log_abs_h2=np.array([0.0, -1.5, 700.0]),
            log_sigma=np.array([-0.25, -745.5, -np.inf]),
            sigma=np.array([0.75, 5e-324, 0.0]),
            phase=np.array([0.5, -1.0, -0.5 * math.pi]))
        assert csvio.dumps(csvio.write_spectrum, table) == (
            "m,A_m,log10_abs_H2,log10_sigma,sigma\n"
            "0,0.10000000000000001,0,-0.10857362047581294,0.75\n"
            "1,0.5,-0.65144172285487767,-323.76653625887423,"
            "4.9406564584124654e-324\n"
            "2,0,304.00613733227624,-inf,0\n")

    def test_sweep(self):
        records = [ex.SweepRecord(
            kappa=10.0, kappa0=5.0, B=7, B_minus=6, B_plus=9,
            B_tilde_minus=6, B_tilde_plus=11, eps_minus=1, eps_plus=-2,
            relerr_minus=1 / 7, relerr_plus=math.inf)]
        text = csvio.dumps(csvio.write_sweep, records)
        assert text == (
            "kappa,kappa0,B,B_minus,B_plus,B_tilde_minus,B_tilde_plus,"
            "eps_minus,eps_plus,relerr_minus,relerr_plus\n"
            "10,5,7,6,9,6,11,1,-2,0.14285714285714285,inf\n")
        assert csvio.read_sweep(io.StringIO(text)) == records

    def test_fits(self):
        fits = [ex.RegressionFit(target="B-", slope=0.9, intercept=-1.25,
                                 mean_abs_error=0.3, std_dev=1e-17)]
        text = csvio.dumps(csvio.write_fits, fits)
        assert text == (
            "target,slope,intercept,mean_abs_error,std_dev\n"
            "B-,0.90000000000000002,-1.25,0.29999999999999999,"
            "1.0000000000000001e-17\n")
        assert csvio.read_fits(io.StringIO(text)) == fits

    def test_boundary(self):
        bd = ib.BoundaryData(geometry=self.G, noise_level=0.01, values=np.array(
            [1 + 0.5j, complex(-0.0, 0.1), 2.0 - 3.0j]))
        text = csvio.dumps(csvio.write_boundary, bd)
        assert text == ("# k=2 R0=0.5 R=1 n_s=3 noise=0.01\n"
                        "index,re,im\n"
                        "0,1,0.5\n"
                        "1,-0,0.10000000000000001\n"
                        "2,2,-3\n")
        back = csvio.read_boundary(io.StringIO(text))
        assert csvio.dumps(csvio.write_boundary, back) == text

    def test_source(self):
        assert csvio.dumps(csvio.write_source, self._source()) == (
            "# k=2 R0=0.5 R=1 n_r=2 n_theta=2\n" + self.GRID_ROWS)

    def test_reconstruction(self):
        rec = ib.Reconstruction(source=self._source(), N=1, residual=2.5e-3,
                                policy="B-")
        assert csvio.dumps(csvio.write_reconstruction, rec) == (
            "# k=2 R0=0.5 R=1 n_r=2 n_theta=2 N=1 "
            "residual=0.0025000000000000001 policy=B-\n" + self.GRID_ROWS)
