"""CSV readers and writers for every artifact the package emits.

Each format is a table of (header name, kind) columns, kind being int, float
or str, served by one writer and one validating reader. Floats carry 17
significant digits, so readers return the written bits and re-emitting a
parsed file reproduces it byte for byte. Boundary, source and reconstruction
files start with one `# key=value ...` line holding geometry and run data.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import operator
import sys
import typing
from array import array
from typing import Iterable

import numpy as np

from .experiments import RegressionFit, SweepRecord
from .forward import BoundaryData, SourceField, source_grid
from .singular_system import ProblemGeometry, SpectrumTable
from .tsvd import Reconstruction

__all__ = [
    "write_spectrum", "read_spectrum",
    "write_sweep", "read_sweep",
    "write_fits", "read_fits",
    "write_boundary", "read_boundary",
    "write_source", "read_source",
    "write_reconstruction", "read_reconstruction",
]

_LN10 = math.log(10.0)


def _dataclass_columns(cls) -> tuple:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


_SPECTRUM = (("m", int), ("A_m", float), ("log10_abs_H2", float),
             ("log10_sigma", float), ("sigma", float))
_SWEEP = _dataclass_columns(SweepRecord)
_FITS = _dataclass_columns(RegressionFit)
_BOUNDARY = (("index", int), ("re", float), ("im", float))
_GRID = (("i_r", int), ("i_theta", int), ("rho", float), ("theta", float),
         ("re", float), ("im", float))


def _header(columns) -> str:
    return ",".join(name for name, _ in columns)


SWEEP_HEADER = _header(_SWEEP)
FITS_HEADER = _header(_FITS)


def _g17(x) -> str:
    return format(float(x), ".17g")


def _text(v) -> str:
    # a comma or a line break would split the cell when read back
    if "," in v or "\n" in v or "\r" in v:
        raise ValueError(f"text field {v!r} holds a comma or a line break")
    return v


_FORMAT = {int: lambda v: str(int(v)), float: _g17, str: _text}


# numeric columns are parsed into packed arrays: 8 bytes a value, not a
# Python object each
_COLUMN = {int: lambda: array("q"), float: lambda: array("d"), str: list}


@contextlib.contextmanager
def _open(path, mode: str):
    """A stream as is, "-" as stdout for writing, else a path opened."""
    if hasattr(path, "write" if mode == "w" else "read"):
        yield path
    elif path == "-" and mode == "w":
        yield sys.stdout
    else:
        with open(path, mode, newline="") as fh:
            yield fh


def _meta_line(meta: dict) -> str:
    tokens = []
    for key, val in meta.items():
        text = _FORMAT[type(val)](val)
        if "=" in text or any(ch.isspace() for ch in text):
            raise ValueError(f"metadata value {key}={text!r} holds "
                             "whitespace or '=' and would not read back")
        tokens.append(f"{key}={text}")
    return "# " + " ".join(tokens) + "\n"


def _write(path, columns, rows, meta: dict | None = None) -> None:
    """Optional `# key=value ...` line, the header, then one line per row."""
    fmts = [_FORMAT[kind] for _, kind in columns]
    first = _meta_line(meta) if meta is not None else ""
    with _open(path, "w") as fh:
        fh.write(first + _header(columns) + "\n")
        for row in rows:
            fh.write(",".join([f(v) for f, v in zip(fmts, row)]) + "\n")


class _Meta(dict):
    def __missing__(self, key):
        raise ValueError(f"metadata line lacks the key {key!r}")


def _read(path, columns, meta: bool = False):
    """(metadata dict of strings or None, one sequence per column) of a file
    written by `_write`; every nonblank line must hold one field per column."""
    header = _header(columns)
    cols = [_COLUMN[kind]() for _, kind in columns]
    kinds = [kind for _, kind in columns]
    with _open(path, "r") as fh:
        info = None
        if meta:
            line = fh.readline().rstrip("\n")
            if not line.startswith("# "):
                raise ValueError(f"expected a metadata line, got {line!r}")
            info = _Meta(tok.partition("=")[::2] for tok in line[2:].split())
        line = fh.readline().strip()
        if line != header:
            raise ValueError(f"unexpected header {line!r}, expected {header!r}")
        for lineno, line in enumerate(fh, start=3 if meta else 2):
            fields = line.strip().split(",")
            if fields == [""]:
                continue
            if len(fields) != len(columns):
                raise ValueError(f"line {lineno}: {len(fields)} fields, "
                                 f"expected {len(columns)} ({header})")
            try:
                for col, kind, val in zip(cols, kinds, fields):
                    col.append(kind(val))
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return info, cols


def _geometry_meta(g: ProblemGeometry, **extra) -> dict:
    return {"k": float(g.k), "R0": float(g.R0), "R": float(g.R), **extra}


def _geometry(meta: dict) -> ProblemGeometry:
    return ProblemGeometry(k=float(meta["k"]), R0=float(meta["R0"]),
                           R=float(meta["R"]))


def _complex(re, im) -> np.ndarray:
    # assigning the parts keeps signed zeros and infinities that re + 1j*im
    # would lose
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def write_spectrum(table: SpectrumTable, path) -> None:
    """Spectrum rows as m,A_m,log10_abs_H2,log10_sigma,sigma."""
    _write(path, _SPECTRUM, zip(
        table.m.tolist(), table.a.tolist(),
        (table.log_abs_h2 / _LN10).tolist(),
        (table.log_sigma / _LN10).tolist(), table.sigma.tolist()))


def read_spectrum(path) -> dict:
    """Columns of a spectrum CSV as arrays, keyed by header name."""
    _, cols = _read(path, _SPECTRUM)
    return {name: np.array(col, dtype=kind)
            for (name, kind), col in zip(_SPECTRUM, cols)}


def _getter(columns):
    return operator.attrgetter(*(name for name, _ in columns))


def write_sweep(records: Iterable[SweepRecord], path) -> None:
    _write(path, _SWEEP, map(_getter(_SWEEP), records))


def read_sweep(path) -> list[SweepRecord]:
    _, cols = _read(path, _SWEEP)
    return [SweepRecord(*row) for row in zip(*cols)]


def write_fits(fits: Iterable[RegressionFit], path) -> None:
    _write(path, _FITS, map(_getter(_FITS), fits))


def read_fits(path) -> list[RegressionFit]:
    _, cols = _read(path, _FITS)
    return [RegressionFit(*row) for row in zip(*cols)]


def write_boundary(bd: BoundaryData, path) -> None:
    _write(path, _BOUNDARY,
           zip(range(bd.n_s), bd.values.real.tolist(), bd.values.imag.tolist()),
           _geometry_meta(bd.geometry, n_s=bd.n_s,
                          noise=float(bd.noise_level)))


def read_boundary(path) -> BoundaryData:
    meta, (index, re, im) = _read(path, _BOUNDARY, meta=True)
    if not np.array_equal(index, np.arange(int(meta["n_s"]))):
        raise ValueError(f"boundary rows must be indexed 0..n_s-1 in order "
                         f"with n_s={meta['n_s']}")
    return BoundaryData(geometry=_geometry(meta), values=_complex(re, im),
                        noise_level=float(meta.get("noise", 0.0)))


def _grid_rows(s: SourceField):
    theta = s.theta.tolist()
    for i, (rho, ring) in enumerate(zip(s.rho.tolist(), s.values)):
        for j, v in enumerate(ring.tolist()):
            yield i, j, rho, theta[j], v.real, v.imag


def _read_grid(path):
    """Source field and metadata of a source or reconstruction file."""
    meta, (i_r, i_theta, rho, theta, re, im) = _read(path, _GRID, meta=True)
    g = _geometry(meta)
    n_r, n_theta = int(meta["n_r"]), int(meta["n_theta"])
    # the radial rule is canonical for (n_r, R0); rebuild its weights
    grid = source_grid(g, n_r, n_theta)
    if not (np.array_equal(i_r, np.repeat(np.arange(n_r), n_theta))
            and np.array_equal(i_theta, np.tile(np.arange(n_theta), n_r))):
        raise ValueError(f"rows must cover the {n_r}x{n_theta} grid exactly "
                         "once, in row-major order")
    rho = np.array(rho).reshape(n_r, n_theta)
    theta = np.array(theta).reshape(n_r, n_theta)
    if np.any(rho != rho[:, :1]) or np.any(theta != theta[:1]):
        raise ValueError("rho must be constant along each ring and theta "
                         "along each ray")
    rho, theta = rho[:, 0].copy(), theta[0].copy()
    if not np.allclose(grid.rho, rho, rtol=0, atol=1e-12 * g.R0):
        raise ValueError("radial nodes in file do not match the canonical rule")
    source = SourceField(geometry=g, rho=rho,
                         radial_weights=grid.radial_weights, theta=theta,
                         values=_complex(re, im).reshape(n_r, n_theta))
    return source, meta


def write_source(s: SourceField, path) -> None:
    _write(path, _GRID, _grid_rows(s),
           _geometry_meta(s.geometry, n_r=s.n_r, n_theta=s.n_theta))


def read_source(path) -> SourceField:
    return _read_grid(path)[0]


def write_reconstruction(rec: Reconstruction, path) -> None:
    s = rec.source
    _write(path, _GRID, _grid_rows(s), _geometry_meta(
        s.geometry, n_r=s.n_r, n_theta=s.n_theta, N=int(rec.N),
        residual=float(rec.residual), policy=rec.policy))


def read_reconstruction(path) -> Reconstruction:
    source, meta = _read_grid(path)
    return Reconstruction(source=source, N=int(meta["N"]),
                          residual=float(meta["residual"]),
                          policy=meta["policy"])


def dumps(writer, obj) -> str:
    """Render any of the writers above to a string."""
    buf = io.StringIO()
    writer(obj, buf)
    return buf.getvalue()
