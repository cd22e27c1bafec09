"""CSV readers and writers for every artifact the package emits.

Each format is a table of (header name, kind) columns, kind being int, float
or str, served by one writer and one validating reader. Floats carry 17
significant digits, so readers return the written bits and re-emitting a
parsed file reproduces it byte for byte. A writer fills the whole table
through one `%` template and writes it at once. A reconstruction file starts
with one `# key=value ...` line holding geometry and run data, and holds its
2N + 1 coefficients, not the grid; an older grid-format one is refused by
its header.
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
from functools import partial
from itertools import repeat
from typing import Iterable

import numpy as np

from .experiments import RegressionFit, SweepRecord
from .forward import _check_bins
from .singular_system import ProblemGeometry, SpectrumTable
from .tsvd import Reconstruction, _synthesize

__all__ = [
    "write_spectrum", "read_spectrum",
    "write_sweep", "read_sweep",
    "write_fits", "read_fits",
    "write_reconstruction", "read_reconstruction",
]

_LN10 = math.log(10.0)


def _dataclass_columns(cls) -> tuple:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


_SPECTRUM = (("m", int), ("A_m", float), ("log10_abs_H2", float),
             ("log10_sigma", float), ("sigma", float))
# the 5 fields a SweepRecord stores, then the 6 it derives from them
_SWEEP = (("kappa", float), ("kappa0", float), ("B", int), ("B_minus", int),
          ("B_plus", int), ("B_tilde_minus", int), ("B_tilde_plus", int),
          ("eps_minus", int), ("eps_plus", int), ("relerr_minus", float),
          ("relerr_plus", float))
_FITS = _dataclass_columns(RegressionFit)
_COEFFICIENTS = (("m", int), ("re", float), ("im", float))


def _header(columns) -> str:
    return ",".join(name for name, _ in columns)


SWEEP_HEADER = _header(_SWEEP)
FITS_HEADER = _header(_FITS)


def _text(v) -> str:
    # a comma or a line break would split the cell when read back
    if "," in v or "\n" in v or "\r" in v:
        raise ValueError(f"text field {v!r} holds a comma or a line break")
    return v


# "%.17g" % x gives the bytes of format(float(x), ".17g"); numeric columns
# are parsed into packed arrays: 8 bytes a value, not a Python object each
_SPEC = {int: "%d", float: "%.17g", str: "%s"}
_COLUMN = {int: partial(array, "q"), float: partial(array, "d"), str: list}


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
        text = _text(val) if type(val) is str else _SPEC[type(val)] % val
        if "=" in text or any(ch.isspace() for ch in text):
            raise ValueError(f"metadata value {key}={text!r} holds "
                             "whitespace or '=' and would not read back")
        tokens.append(f"{key}={text}")
    return "# " + " ".join(tokens) + "\n"


def _write(path, columns, rows, meta: dict | None = None) -> None:
    """Optional `# key=value ...` line, the header, then all rows filled in
    through one `%` template."""
    cells = [_text(v) if kind is str else v
             for row in rows for (_, kind), v in zip(columns, row)]
    line = ",".join(_SPEC[kind] for _, kind in columns) + "\n"
    body = line * (len(cells) // len(columns)) % tuple(cells)
    first = _meta_line(meta) if meta is not None else ""
    with _open(path, "w") as fh:
        fh.write(first + _header(columns) + "\n")
        fh.write(body)


class _Meta(dict):
    def __missing__(self, key):
        raise ValueError(f"metadata line lacks the key {key!r}")


def _read(path, columns, meta: bool = False):
    """(metadata dict of strings or None, one sequence per column) of a file
    written by `_write`. Each 8 KiB block of lines is split and converted
    by column; a block with a blank or faulty line is walked line by line."""
    header, width = _header(columns), len(columns)
    convs = [(_COLUMN[kind], kind) for _, kind in columns]

    def parse(lines, lineno):
        splits = list(map(str.split, map(str.strip, lines), repeat(",")))
        if list(map(len, splits)).count(width) == len(splits):
            with contextlib.suppress(ValueError, OverflowError):
                return [make(map(conv, col))
                        for (make, conv), col in zip(convs, zip(*splits))]
        part = [make() for make, _ in convs]
        for lineno, fields in enumerate(splits, start=lineno):
            if fields == [""]:
                continue
            if len(fields) != width:
                raise ValueError(f"line {lineno}: {len(fields)} fields, "
                                 f"expected {width} ({header})")
            try:
                for col, (_, conv), val in zip(part, convs, fields):
                    col.append(conv(val))
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        return part

    cols = [make() for make, _ in convs]
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
        lineno = 3 if meta else 2
        while lines := fh.readlines(1 << 13):  # 8 KiB keeps transients small
            for col, part in zip(cols, parse(lines, lineno)):
                col.extend(part)
            lineno += len(lines)
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
    """Records built from the 5 stored columns of each row; a row whose
    6 derived columns are not what its record derives is refused."""
    _, cols = _read(path, _SWEEP)
    get, records = _getter(_SWEEP), []
    for i, row in enumerate(zip(*cols), start=1):
        rec = SweepRecord(*row[:5])
        try:
            derived = get(rec)
        except ValueError as exc:
            raise ValueError(f"sweep row {i}: {exc}") from None
        if derived != row:
            bad = [name for (name, _), a, b in zip(_SWEEP, derived, row)
                   if a != b]
            raise ValueError(
                f"sweep row {i} (kappa={row[0]!r}): the derived columns "
                f"{', '.join(bad)} disagree with kappa0 and the band edges")
        records.append(rec)
    return records


def write_fits(fits: Iterable[RegressionFit], path) -> None:
    _write(path, _FITS, map(_getter(_FITS), fits))


def read_fits(path) -> list[RegressionFit]:
    _, cols = _read(path, _FITS)
    return [RegressionFit(*row) for row in zip(*cols)]


def write_reconstruction(rec: Reconstruction, path) -> None:
    s, w = rec.source, rec.coefficients
    _write(path, _COEFFICIENTS, zip(
        range(-rec.N, rec.N + 1), w.real.tolist(), w.imag.tolist()),
           _geometry_meta(s.geometry, n_r=s.n_r, n_theta=s.n_theta,
                          residual=float(rec.residual), policy=rec.policy))


def read_reconstruction(path) -> Reconstruction:
    """The record written, its grid synthesized as tsvd_reconstruct does."""
    meta, (m, re, im) = _read(path, _COEFFICIENTS, meta=True)
    N = len(m) // 2
    if not np.array_equal(m, np.arange(-N, N + 1)):
        raise ValueError("rows must be m = -N .. N, once each in order")
    n_r, n_theta = int(meta["n_r"]), int(meta["n_theta"])
    _check_bins("n_theta", n_theta, N)
    w = _complex(re, im)
    source, dev = _synthesize(_geometry(meta), w, n_r, n_theta)
    return Reconstruction(source=source, coefficients=w,
                          residual=float(meta["residual"]),
                          margin=float(np.max(np.abs(dev))),
                          policy=meta["policy"])


def dumps(writer, obj) -> str:
    """Render any of the writers above to a string."""
    buf = io.StringIO()
    writer(obj, buf)
    return buf.getvalue()
