"""Command-line front end.

Four subcommands: `spectrum` dumps the per-mode singular data as CSV,
`bandwidth` prints the band-edge integers, `sweep` reproduces the
bandwidth-versus-kappa study with its regression summary, and
`reconstruct` runs a seeded synthetic TSVD inversion end to end.

Geometry is given either as size parameters (--kappa0/--kappa, unit
measurement radius) or as physical quantities (--k/--r0/--r). Exit codes:
0 on success, 2 for usage problems (and for sizes too large for memory),
3 when a spectrum horizon is too short, 4 for numeric failures such as
singular-value underflow.

`run` is the process entry (the `ispband` script and `python -m
ispband.cli`); `main` runs a command in-process, with no process-wide
effect.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import json
import logging
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import csvio
from .bandwidth import HorizonError, report
from .experiments import fit_linear, run_sweep
from .forward import _check_disk, source_grid, synthesize_measurement
from .singular_system import (ProblemGeometry, build_spectrum, default_m_max,
                              psi_eval)
from .tsvd import (_POLICIES, modal_decompose, pick_truncation,
                   tsvd_reconstruct)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_HORIZON = 3
EXIT_NUMERIC = 4


def _configure_logging() -> None:
    level = os.environ.get("ISP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _add_geometry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kappa", type=float, help="size parameter k*R")
    p.add_argument("--kappa0", type=float, help="size parameter k*R0")
    p.add_argument("--k", type=float, help="wavenumber")
    p.add_argument("--r0", type=float, help="source-support radius")
    p.add_argument("--r", type=float, help="measurement radius")


def _geometry_from(args, parser) -> ProblemGeometry:
    size_style = args.kappa is not None or args.kappa0 is not None
    phys_style = (args.k is not None or args.r0 is not None
                  or args.r is not None)
    if size_style == phys_style:
        parser.error("give exactly one geometry style: "
                     "--kappa0/--kappa or --k/--r0/--r")
    try:
        if size_style:
            if args.kappa is None or args.kappa0 is None:
                parser.error("both --kappa0 and --kappa are required")
            return ProblemGeometry.from_size_params(args.kappa0, args.kappa)
        if args.k is None or args.r0 is None or args.r is None:
            parser.error("all of --k, --r0 and --r are required")
        return ProblemGeometry(k=args.k, R0=args.r0, R=args.r)
    except ValueError as exc:
        parser.error(str(exc))


def _parse_source_spec(spec: str) -> list[tuple[complex, int]]:
    """Parse a built-in source like ``mode:2+0.5i*mode:-9``.

    Terms joined by ``+``; each term is ``mode:M`` or ``COEFF*mode:M``
    with COEFF a complex literal (``i`` accepted for the imaginary unit).
    Every coefficient must be finite, and one must be nonzero.
    """
    terms = []
    for raw in spec.split("+"):
        raw = raw.strip()
        if not raw:
            raise ValueError(f"empty term in source spec {spec!r}")
        coeff_s, star, mode_s = raw.rpartition("*")
        coeff = complex(coeff_s.replace("i", "j")) if star else 1.0 + 0.0j
        if not cmath.isfinite(coeff):
            raise ValueError(f"coefficient of {raw!r} is not finite")
        if not mode_s.startswith("mode:"):
            raise ValueError(f"bad term {raw!r}; expected [COEFF*]mode:M")
        terms.append((coeff, int(mode_s[len("mode:"):])))
    if not any(coeff for coeff, _ in terms):
        raise ValueError(f"source spec {spec!r} has no nonzero term")
    return terms


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ispband",
        description="singular spectrum, bandwidth and TSVD tools for the "
                    "disk-to-circle Helmholtz source problem")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="per-mode singular data as CSV")
    _add_geometry_flags(p_spec)
    p_spec.add_argument("--mmax", type=int, default=None,
                        help="largest mode index (default: automatic horizon)")
    p_spec.add_argument("--out", default="-", help="output path, - for stdout")

    p_band = sub.add_parser("bandwidth", help="band-edge integers")
    _add_geometry_flags(p_band)
    p_band.add_argument("--mmax", type=int, default=None)
    p_band.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="summary format on stdout")

    p_sweep = sub.add_parser("sweep", help="bandwidth sweep over kappa")
    p_sweep.add_argument("--n", type=int, default=300,
                         help="number of sweep points")
    p_sweep.add_argument("--kappa-min", type=float, default=2.0)
    p_sweep.add_argument("--kappa-max", type=float, default=100.0 * math.pi)
    p_sweep.add_argument("--out", default=".",
                         help="directory for sweep.csv and fits.csv")

    p_rec = sub.add_parser("reconstruct",
                           help="synthetic measurement and TSVD inversion")
    _add_geometry_flags(p_rec)
    p_rec.add_argument("--source", default="mode:2+0.5i*mode:-9",
                       help="built-in source, terms [COEFF*]mode:M joined by +")
    p_rec.add_argument("--noise", type=float, default=0.0,
                       help="relative RMS noise level")
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--policy", choices=_POLICIES, default="B",
                       help="truncation policy")
    p_rec.add_argument("--N", type=int, default=None,
                       help="manual truncation (needs --policy N)")
    p_rec.add_argument("--nr", type=int, default=None,
                       help="radial grid size (default: from kappa0)")
    p_rec.add_argument("--ntheta", type=int, default=None,
                       help="angular grid size of the source disk "
                            "(default: 2 max(horizon, N) + 2)")
    p_rec.add_argument("--ns", type=int, default=None,
                       help="number of boundary samples "
                            "(default: 2 max(horizon, N) + 2)")
    p_rec.add_argument("--out", default="-",
                       help="reconstruction CSV path, - for stdout")
    return parser


def _cmd_spectrum(args, parser) -> int:
    g = _geometry_from(args, parser)
    table = build_spectrum(g, args.mmax)
    csvio.write_spectrum(table, args.out)
    return EXIT_OK


def _cmd_bandwidth(args, parser) -> int:
    g = _geometry_from(args, parser)
    rep = report(g, args.mmax)
    if rep.B_minus >= 1:
        dtheta = math.pi / rep.B_minus      # = max_angular_sampling(g)
        note = f"max angular step pi/B- = {dtheta:.17g}"
    else:
        dtheta = None
        note = "no stable band (B- = 0); angular sampling bound undefined"
    if args.format == "json":
        payload = {k: getattr(rep, k) for k in (
            "B", "B_minus", "B_plus", "B_tilde_minus", "B_tilde_plus",
            "horizon")}
        print(json.dumps(dict(payload, max_angular_step=dtheta,
                              kappa0=g.kappa0, kappa=g.kappa), sort_keys=True))
    else:
        print(f"B={rep.B} B-={rep.B_minus} B+={rep.B_plus} "
              f"Btilde-={rep.B_tilde_minus} Btilde+={rep.B_tilde_plus}")
        print(note)
    return EXIT_OK


def _cmd_sweep(args, parser) -> int:
    if args.n < 2:
        parser.error("--n must be at least 2")
    os.makedirs(args.out, exist_ok=True)
    records = run_sweep(n_points=args.n,
                        kappa_range=(args.kappa_min, args.kappa_max))
    fits = [fit_linear(records, t) for t in ("B", "B-", "B+")]
    csvio.write_sweep(records, os.path.join(args.out, "sweep.csv"))
    csvio.write_fits(fits, os.path.join(args.out, "fits.csv"))
    em = np.array([r.eps_minus for r in records], dtype=float)
    ep = np.array([r.eps_plus for r in records], dtype=float)
    print(f"n={len(records)} mean_eps-={em.mean():.4f} "
          f"mean_eps+={ep.mean():.4f} max|eps-|={np.abs(em).max():.0f} "
          f"max|eps+|={np.abs(ep).max():.0f}")
    return EXIT_OK


def _resolving_grids(g: ProblemGeometry, horizon: int,
                     N: int) -> tuple[int, int]:
    """Default (n_r, n_theta = n_s) of a reconstruction.

    The angular grids resolve every mode up to max(horizon, N) without
    aliasing. The Gauss-Legendre rule in radius integrates |psi_m|^2,
    m <= kappa0, to the double-precision floor: a 1e-10 error needs
    kappa0/2 + c kappa0^(1/3) nodes, and the rule keeps 16 or more to
    spare over kappa0 in [2, 1000].
    """
    n_r = max(64, math.ceil(g.kappa0 / 2.0 + 4.0 * g.kappa0 ** (1.0 / 3.0))
              + 16)
    return n_r, 2 * max(horizon, N) + 2


def _cmd_reconstruct(args, parser) -> int:
    g = _geometry_from(args, parser)
    _check_disk(g)      # a source grid's refusal, before any Bessel pass
    if not (math.isfinite(args.noise) and args.noise >= 0.0):
        parser.error("--noise must be finite and nonnegative")
    if args.N is not None and args.policy != "N":
        parser.error(f"--N is a manual truncation and needs --policy N, "
                     f"not --policy {args.policy}")
    if args.out != "-" and (os.path.isdir(args.out) or not os.path.isdir(
            os.path.dirname(args.out) or ".")):
        raise OSError(f"--out {args.out!r} must be a file in an existing "
                      "directory")
    terms = _parse_source_spec(args.source)
    m_top = max(abs(m) for _, m in terms)
    horizon = max(default_m_max(g.kappa0), m_top)
    n_trunc = pick_truncation(g, args.policy, n=args.N)
    n_r, n_ang = _resolving_grids(g, horizon, n_trunc)
    n_r = args.nr if args.nr is not None else n_r
    n_theta = args.ntheta if args.ntheta is not None else n_ang
    truth = source_grid(
        g, n_r, n_theta,
        fn=lambda rho, th: sum(c * psi_eval(m, g, rho, th)
                               for c, m in terms))
    norm = truth.norm()
    if norm == 0.0:
        raise ValueError(f"source {args.source!r} has zero norm on the grid")
    data = synthesize_measurement(truth, args.noise, args.seed, modes=horizon,
                                  n_s=args.ns if args.ns is not None else n_ang)
    coeffs = modal_decompose(data, horizon)
    rec = tsvd_reconstruct(coeffs, n_trunc, g, n_r=n_r,
                           n_theta=n_theta, policy=args.policy)
    csvio.write_reconstruction(rec, args.out)
    error = replace(truth, values=rec.source.values - truth.values).norm()
    print(f"N={rec.N} policy={args.policy} residual={rec.residual:.6e} "
          f"rel_error={error / norm:.6e}")
    return EXIT_OK


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "spectrum": _cmd_spectrum,
        "bandwidth": _cmd_bandwidth,
        "sweep": _cmd_sweep,
        "reconstruct": _cmd_reconstruct,
    }
    try:
        return commands[args.command](args, parser)
    except HorizonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HORIZON
    except ArithmeticError as exc:  # SigmaUnderflowError, OverflowError, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:    # OSError: --out not writable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:      # numpy's names the allocation it failed
        print(f"error: {str(exc) or 'out of memory'}; the size flags "
              "(--kappa0/--kappa or --k/--r0/--r, --mmax, --n, --nr, "
              "--ntheta, --ns) ask for more memory than there is",
              file=sys.stderr)
        return EXIT_USAGE


def run(argv=None) -> int:
    """main(argv) as a process: the heap is frozen once main returns or
    raises (SystemExit too), so the final collections at interpreter exit
    skip it. atexit handlers and the stdio and logging flushes still run,
    and csvio has closed its files by then."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
