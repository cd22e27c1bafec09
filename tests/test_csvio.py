import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ispband as ib
from ispband import csvio
from ispband import experiments as ex
from ispband import singular_system as ss
from ispband import tsvd
from oracles import per_cell_csv, per_line_read

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


class TestReconstructionCsv:
    def test_round_trip_with_metadata(self, g_equal_10pi):
        g = g_equal_10pi
        bd = ib.BoundaryData(geometry=g, values=np.exp(
            1j * 2.0 * math.pi * 3.0 * np.arange(64) / 64))
        c = ib.modal_decompose(bd, 8)
        rec = ib.tsvd_reconstruct(c, 4, n_r=10, n_theta=16, policy="B-")
        text = csvio.dumps(csvio.write_reconstruction, rec)
        lines = text.splitlines()
        assert lines[1] == "m,re,im" and len(lines) == 2 + 9
        assert [line.split(",")[0] for line in lines[2:]] == [
            str(m) for m in range(-4, 5)]
        back = csvio.read_reconstruction(io.StringIO(text))
        assert back.N == 4
        assert back.policy == "B-"
        assert back.residual == rec.residual
        assert back.margin == rec.margin
        assert back.source.values.tobytes() == rec.source.values.tobytes()
        assert back.coefficients.tobytes() == rec.coefficients.tobytes()

    @pytest.mark.parametrize("n_s, n_r, n_theta, margin", [
        (64, 10, 16, 0.33), (32, 6, 10, 0.53)])
    def test_small_grids_report_their_margin(self, g_equal_10pi, n_s, n_r,
                                             n_theta, margin):
        # 6 or 10 rings do not resolve psi_4 at kappa0 = 10 pi: the library
        # reconstructs anyway and reports how far off the norms are
        bd = ib.BoundaryData(geometry=g_equal_10pi, values=np.exp(
            1j * 2.0 * math.pi * 3.0 * np.arange(n_s) / n_s))
        rec = ib.tsvd_reconstruct(ib.modal_decompose(bd, 8), 4, n_r=n_r,
                                  n_theta=n_theta)
        assert rec.margin == pytest.approx(margin, abs=0.005)
        back = csvio.read_reconstruction(io.StringIO(
            csvio.dumps(csvio.write_reconstruction, rec)))
        assert back.margin == rec.margin

    def test_grid_format_file_refused(self):
        # the n_r x n_theta grid files of earlier versions are not read
        old = ("# k=2 R0=0.5 R=1 n_r=2 n_theta=2 N=1 "
               "residual=0.0025000000000000001 policy=B-\n"
               "i_r,i_theta,rho,theta,re,im\n"
               "0,0,0.10566243270259357,0,1,2\n"
               "0,1,0.10566243270259357,3.1415926535897931,-0,-0.5\n"
               "1,0,0.39433756729740643,0,3,0\n"
               "1,1,0.39433756729740643,3.1415926535897931,1e-300,0\n")
        with pytest.raises(ValueError, match="expected 'm,re,im'"):
            csvio.read_reconstruction(io.StringIO(old))


@st.composite
def _records(draw):
    """A tsvd_reconstruct record of a small geometry, kappa0 <= 20 and
    R / R0 in {1, 2}, truncated at N <= B+ on an n_r <= 24 grid with
    2N + 1 <= n_theta <= 2N + 9, from random boundary data."""
    kappa0 = draw(st.floats(0.1, 20.0))
    g = ib.ProblemGeometry.from_size_params(
        kappa0, kappa0 * draw(st.sampled_from([1.0, 2.0])))
    N = draw(st.integers(0, ib.bound_upper(kappa0)))
    n_s = 2 * N + 1 + draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bd = ib.BoundaryData(geometry=g, values=rng.standard_normal(n_s)
                         + 1j * rng.standard_normal(n_s))
    return ib.tsvd_reconstruct(
        ib.modal_decompose(bd, N), N, n_r=draw(st.integers(2, 24)),
        n_theta=max(2, 2 * N + 1 + draw(st.integers(0, 8))),
        policy=draw(st.sampled_from(["B", "B-", "B+", "N"])))


class TestReconstructionRoundTrip:
    """write_reconstruction then read_reconstruction gives back every
    record tsvd_reconstruct returns, bit for bit; a coefficient table that
    is not m = -N .. N once each in order, or an n_theta that cannot hold
    those modes, is refused."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rec=_records())
    def test_round_trip(self, rec):
        text = csvio.dumps(csvio.write_reconstruction, rec)
        back = csvio.read_reconstruction(io.StringIO(text))
        assert back.source.values.tobytes() == rec.source.values.tobytes()
        assert (back.N, back.residual, back.policy, back.margin) == (
            rec.N, rec.residual, rec.policy, rec.margin)
        assert back.source.geometry == rec.source.geometry
        assert csvio.dumps(csvio.write_reconstruction, back) == text

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rec=_records(), edit=st.sampled_from(["drop", "duplicate",
                                                 "swap", "n_theta"]),
           data=st.data())
    def test_faulty_table_refused(self, rec, edit, data):
        lines = csvio.dumps(csvio.write_reconstruction,
                            rec).splitlines(keepends=True)
        rows = 2 * rec.N + 1
        i = 2 + data.draw(st.integers(0, rows - 1))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            if rows < 2:
                return
            j = 2 + data.draw(st.integers(0, rows - 1).filter(
                lambda j: j + 2 != i))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            n_theta = data.draw(st.integers(0, 2 * rec.N))
            lines[0] = lines[0].replace(f" n_theta={rec.source.n_theta} ",
                                        f" n_theta={n_theta} ")
        with pytest.raises(ValueError):
            csvio.read_reconstruction(io.StringIO("".join(lines)))


class TestMalformedInput:
    """Every reader goes through one parser; each of these must raise."""

    def test_truncated_reconstruction_rejected(self, g_equal_10pi):
        bd = ib.BoundaryData(geometry=g_equal_10pi, values=np.exp(
            1j * 2.0 * math.pi * 3.0 * np.arange(32) / 32))
        rec = ib.tsvd_reconstruct(ib.modal_decompose(bd, 8), 4, n_r=6,
                                  n_theta=10, policy="B-")
        text = csvio.dumps(csvio.write_reconstruction, rec)
        short = "".join(text.splitlines(keepends=True)[:-1])
        with pytest.raises(ValueError, match="once each in order"):
            csvio.read_reconstruction(io.StringIO(short))

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

    @pytest.mark.parametrize("col, value", [
        (5, "4"), (6, "9"), (7, "2"), (8, "-3"), (9, "0.5"), (10, "inf")])
    def test_sweep_row_with_inconsistent_derived_field_rejected(self, col,
                                                                 value):
        # the stand-ins, eps and relerr columns must be what the row's
        # kappa0 and band edges give
        records = ex.run_sweep(n_points=3, kappa_range=(5.0, 20.0))
        text = csvio.dumps(csvio.write_sweep, records)
        name = csvio.SWEEP_HEADER.split(",")[col]
        lines = text.splitlines(keepends=True)
        fields = lines[2].rstrip("\n").split(",")
        assert fields[col] != value
        fields[col] = value
        lines[2] = ",".join(fields) + "\n"
        with pytest.raises(ValueError,
                           match=f"^sweep row 2 .* columns {name} disagree"):
            csvio.read_sweep(io.StringIO("".join(lines)))

    def test_unparsable_field_names_its_line(self):
        text = csvio.FITS_HEADER + "\nB,0.5,1,x,2\n"
        with pytest.raises(ValueError, match="line 2"):
            csvio.read_fits(io.StringIO(text))

    @staticmethod
    def _record(policy: str) -> ib.Reconstruction:
        w = np.array([0.5j, 1.0, -0.25])
        src, dev = tsvd._synthesize(ib.ProblemGeometry(k=2.0, R0=0.5, R=1.0),
                                    w, 2, 3)
        return ib.Reconstruction(source=src, coefficients=w, residual=0.0,
                                 margin=float(np.max(np.abs(dev))),
                                 policy=policy)

    @pytest.mark.parametrize("policy", ["my policy", "a=b", "tab\there"])
    def test_metadata_that_cannot_round_trip_refused(self, policy):
        with pytest.raises(ValueError, match="policy"):
            csvio.dumps(csvio.write_reconstruction, self._record(policy))

    def test_fit_target_with_comma_refused(self):
        fits = [ex.RegressionFit(target="B,-", slope=1.0, intercept=0.0,
                                 mean_abs_error=0.0, std_dev=0.0)]
        with pytest.raises(ValueError, match="comma"):
            csvio.dumps(csvio.write_fits, fits)

    def test_missing_metadata_key_rejected(self):
        lines = csvio.dumps(csvio.write_reconstruction,
                            self._record("B")).splitlines(keepends=True)
        lines[0] = lines[0].replace(" n_theta=3", "")
        with pytest.raises(ValueError, match="n_theta"):
            csvio.read_reconstruction(io.StringIO("".join(lines)))


class TestGoldenBytes:
    """Writer output on hand-made objects, pinned byte for byte."""

    G = ib.ProblemGeometry(k=2.0, R0=0.5, R=1.0)

    def test_spectrum(self):
        # a subnormal sigma (log sigma = -739.9) and A = 0 (log sigma = -inf)
        table = ss.SpectrumTable(
            geometry=self.G, a=np.array([0.1, 0.5, 0.0]),
            log_abs_h2=np.array([0.0, -1480.0, 700.0]),
            phase=np.array([0.5, -1.0, -0.5 * math.pi]))
        assert csvio.dumps(csvio.write_spectrum, table) == (
            "m,A_m,log10_abs_H2,log10_sigma,sigma\n"
            "0,0.10000000000000001,0,-0.6533651251378565,"
            "0.22214414690791839\n"
            "1,0.5,-642.75583321681268,-321.33231172920813,"
            "4.6442170709077175e-322\n"
            "2,0,304.00613733227624,-inf,0\n")

    def test_sweep(self):
        # by hand: B~- = ceil(n^3) with n^3 + 1.855757 n = kappa0 (n^3 =
        # 2.49, 0.19 and 0.02 here), B~+ = ceil(kappa0), eps = B+- - B,
        # relerr = |eps| / B, and on B = 0 relerr is 0 for a bound of 0
        # and inf for any other
        records = [ex.SweepRecord(kappa=10.0, kappa0=5.0, B=7, B_minus=6,
                                  B_plus=9),
                   ex.SweepRecord(kappa=2.5, kappa0=1.25, B=0, B_minus=0,
                                  B_plus=1),
                   ex.SweepRecord(kappa=1.0, kappa0=0.5, B=0, B_minus=0,
                                  B_plus=0)]
        text = csvio.dumps(csvio.write_sweep, records)
        assert text == (
            "kappa,kappa0,B,B_minus,B_plus,B_tilde_minus,B_tilde_plus,"
            "eps_minus,eps_plus,relerr_minus,relerr_plus\n"
            "10,5,7,6,9,3,5,-1,2,0.14285714285714285,0.2857142857142857\n"
            "2.5,1.25,0,0,1,1,2,0,1,0,inf\n"
            "1,0.5,0,0,0,1,1,0,0,0,0\n")
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

    def test_reconstruction(self):
        w = np.array([1 + 2j, complex(-0.0, -0.5), 1e-300 + 0j])
        src, dev = tsvd._synthesize(self.G, w, 2, 3)
        rec = ib.Reconstruction(source=src, coefficients=w, residual=2.5e-3,
                                margin=float(np.max(np.abs(dev))),
                                policy="B-")
        text = csvio.dumps(csvio.write_reconstruction, rec)
        assert text == ("# k=2 R0=0.5 R=1 n_r=2 n_theta=3 "
                        "residual=0.0025000000000000001 policy=B-\n"
                        "m,re,im\n"
                        "-1,1,2\n"
                        "0,-0,-0.5\n"
                        "1,1e-300,0\n")
        back = csvio.read_reconstruction(io.StringIO(text))
        assert back.source.values.tobytes() == src.values.tobytes()
        assert back.margin == rec.margin
        assert csvio.dumps(csvio.write_reconstruction, back) == text


EDGE = (-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-300,
        1.7976931348623157e308, -1.7976931348623157e308)


def _fill(rng, shape, edge):
    """Random normals of `shape` with the edge values cycled over the first
    cells."""
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 6, shape)
    flat = out.reshape(-1)
    flat[:len(edge)] = np.resize(np.array(edge), min(len(edge), flat.size))
    return out


def _objects(rng, edge=(), contiguous=True) -> dict:
    """One object per writer, every float cell random or an edge value."""
    g = ib.ProblemGeometry(k=float(rng.uniform(1, 9)), R0=0.5, R=1.25)
    n_r, n_t = (int(n) for n in rng.integers(2, 9, 2))
    n = 3 * len(EDGE)
    # A_m >= 0 takes |edge| and log|H|^2 the edge reversed, so that no row
    # adds inf to -inf in log sigma
    table = ss.SpectrumTable(geometry=g, a=np.abs(_fill(rng, n, edge)),
                             log_abs_h2=_fill(rng, n, edge[::-1]),
                             phase=np.zeros(n))
    # every float edge value goes into kappa; kappa0 stays positive and
    # moderate, where the stand-ins it derives are defined
    sweep = [ex.SweepRecord(f, float(rng.uniform(0.1, 1e3)),
                            *rng.integers(-99, 99, 3).tolist())
             for f in _fill(rng, n, edge).tolist()]
    fits = [ex.RegressionFit(t, *f) for t, f in zip(
        ("B", "B-", "B+"), _fill(rng, (3, 4), edge).tolist())]
    # the writer reads the source's geometry and sizes alone, so any
    # 2N + 1 >= len(edge) coefficients go with it
    n_w = 2 * int(rng.integers(4, 50)) + 1
    w = csvio._complex(*_fill(rng, (2, 3 * n_w), edge))
    rec = ib.Reconstruction(source=ib.source_grid(g, n_r, n_t),
                            coefficients=w[:n_w] if contiguous else w[::3],
                            residual=float(rng.uniform()),
                            margin=float(rng.uniform()), policy="B+")
    return {csvio.write_spectrum: table, csvio.write_sweep: sweep,
            csvio.write_fits: fits, csvio.write_reconstruction: rec}


def _geo(g) -> dict:
    return {"k": float(g.k), "R0": float(g.R0), "R": float(g.R)}


def _per_cell(writer, obj) -> str:
    """What the per-cell route writes for `obj`."""
    if writer is csvio.write_spectrum:
        ln10 = math.log(10.0)
        return per_cell_csv(csvio._SPECTRUM, zip(
            obj.m.tolist(), obj.a.tolist(), (obj.log_abs_h2 / ln10).tolist(),
            (obj.log_sigma / ln10).tolist(), obj.sigma.tolist()))
    if writer in (csvio.write_sweep, csvio.write_fits):
        cols = csvio._SWEEP if writer is csvio.write_sweep else csvio._FITS
        return per_cell_csv(cols, ([getattr(r, c) for c, _ in cols]
                                   for r in obj))
    s = obj.source
    return per_cell_csv(csvio._COEFFICIENTS, (
        (m, v.real, v.imag) for m, v in enumerate(
            obj.coefficients.tolist(), start=-obj.N)), dict(
        _geo(s.geometry), n_r=s.n_r, n_theta=s.n_theta,
        residual=obj.residual, policy=obj.policy))


class TestPerCellOracle:
    """Every writer gives the bytes of the per-cell route: one
    format(float(v), ".17g") per cell and one join per row."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_tables(self, seed):
        for writer, obj in _objects(np.random.default_rng(seed)).items():
            assert csvio.dumps(writer, obj) == _per_cell(writer, obj), writer

    def test_edge_values(self):
        objs = _objects(np.random.default_rng(3), EDGE)
        for writer, obj in objs.items():
            text = csvio.dumps(writer, obj)
            assert text == _per_cell(writer, obj), writer
            lines = text.splitlines()
            cells = set(",".join(lines[1 + lines[0].startswith("#"):]).split(","))
            texts = {format(v, ".17g") for v in EDGE}
            if writer is csvio.write_spectrum:
                # A_m holds |v| and log10_abs_H2 holds v / ln 10
                texts = {format(f(v), ".17g") for v in EDGE
                         for f in (abs, lambda v: v / math.log(10.0))}
            assert texts <= cells, writer

    def test_non_contiguous_values(self):
        objs = _objects(np.random.default_rng(4), EDGE, contiguous=False)
        assert not objs[csvio.write_reconstruction].coefficients.flags.c_contiguous
        for writer, obj in objs.items():
            assert csvio.dumps(writer, obj) == _per_cell(writer, obj), writer

    def test_path_stream_and_stdout_targets(self, tmp_path, capsys):
        for n, (writer, obj) in enumerate(
                _objects(np.random.default_rng(5), EDGE).items()):
            expected = _per_cell(writer, obj)
            path = tmp_path / f"{n}.csv"
            writer(obj, str(path))
            assert path.read_bytes() == expected.encode()
            buf = io.StringIO()
            writer(obj, buf)
            assert buf.getvalue() == expected
            capsys.readouterr()
            writer(obj, "-")
            assert capsys.readouterr().out == expected


class TestBulkReader:
    """The block-wise reader against the per-line one, on a sweep file of
    10 001 lines and about 1 MB (several read blocks)."""

    @pytest.fixture(scope="class")
    def records(self):
        rng = np.random.default_rng(7)
        kappa0 = rng.uniform(0.1, 1e3, 10_000)
        # band edges in [0, 1200): a few rows have B = 0, where relerr
        # reads 0 or inf
        return [ex.SweepRecord(k * r, k, *edges) for k, r, edges in zip(
            kappa0.tolist(), rng.uniform(1.0, 10.0, 10_000).tolist(),
            rng.integers(0, 1200, (10_000, 3)).tolist())]

    @pytest.fixture(scope="class")
    def text(self, records):
        return csvio.dumps(csvio.write_sweep, records)

    @staticmethod
    def _same(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert type(a) is type(b)
            assert getattr(a, "typecode", None) == getattr(b, "typecode", None)
            assert bytes(a) == bytes(b) if hasattr(a, "typecode") else a == b

    def test_clean_file_matches_the_per_line_reader(self, records, text,
                                                    tmp_path):
        _, cols = csvio._read(io.StringIO(text), csvio._SWEEP)
        _, ref = per_line_read(io.StringIO(text), csvio._SWEEP)
        self._same(cols, ref)
        path = tmp_path / "sweep.csv"
        path.write_text(text)
        back = csvio.read_sweep(str(path))
        assert back == records
        assert all(type(r.kappa) is float and type(r.B) is int for r in back)
        assert np.array([r.kappa for r in back]).tobytes() == bytes(ref[0])

    @pytest.mark.parametrize("edit", ["blank", "blank_block", "spaces",
                                      "crlf", "no_eol"])
    def test_irregular_lines_read_as_per_line(self, records, text, edit):
        lines = text.splitlines(keepends=True)
        if edit == "blank":
            for at in (9000, 5000, 40, 3):
                lines.insert(at, "\n")
            lines.append("\n")
        elif edit == "blank_block":
            # whole read blocks of blank lines, inside and at the end
            lines[5000:5000] = ["\n"] * 40000
            lines += [" \n"] * 40000
        elif edit == "spaces":
            lines[8997] = "  " + lines[8997].replace("\n", " \t\n")
            lines.insert(7000, "   \n")
        elif edit == "crlf":
            lines = [line.replace("\n", "\r\n") for line in lines]
        else:
            lines[-1] = lines[-1].rstrip("\n")
        bad = "".join(lines)
        _, cols = csvio._read(io.StringIO(bad), csvio._SWEEP)
        _, ref = per_line_read(io.StringIO(bad), csvio._SWEEP)
        self._same(cols, ref)
        assert csvio.read_sweep(io.StringIO(bad)) == records

    @pytest.mark.parametrize("col, value, message", [
        (10, "1,7", "line 9000: 12 fields, expected 11"),
        (1, "0.5x", "line 9000: could not convert string to float"),
        (2, "99999999999999999999", "line 9000: int too big")])
    def test_refusal_names_its_line(self, text, col, value, message):
        bad = _edit_line(text, 9000, col, value)
        with pytest.raises(ValueError, match=f"^{message}"):
            csvio.read_sweep(io.StringIO(bad))

    def test_earliest_fault_is_named(self, text):
        # a bad float on line 9000 and a bad field count on line 9001: the
        # earlier line is named, as a line-by-line read would
        bad = _edit_line(_edit_line(text, 9000, 1, "x"), 9001, 10, "1,2")
        with pytest.raises(ValueError, match="^line 9000: could not"):
            csvio.read_sweep(io.StringIO(bad))


def _edit_line(text: str, lineno: int, col: int, value: str) -> str:
    """Replace field `col` of line `lineno`, counted from 1, of a CSV text."""
    lines = text.splitlines(keepends=True)
    fields = lines[lineno - 1].rstrip("\n").split(",")
    fields[col] = value
    lines[lineno - 1] = ",".join(fields) + "\n"
    return "".join(lines)
