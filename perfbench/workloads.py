"""Seeded inputs, ops and correctness checks of the three workloads.

sweep        warm in-process band-edge studies, one `run_sweep` call per op
reconstruct  warm in-process forward synthesis plus TSVD inversion
cli          cold `python -m ispband.cli` invocations, one process per op

Each workload is a closed loop with one client. Ops run in whole cycles,
so every run holds the same mix of op kinds whatever the seed; the seed
only moves the inputs inside each kind. The library receives only the
generated inputs. Why each workload exists and which layers it should
move is written down in README.md next to this file.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys

import numpy as np

from tracing import merge

# correctness tolerances; stated here, not tuned to the results
RECONSTRUCT_CLEAN_REL_ERROR = 1e-8     # clean data against the truth source
RECONSTRUCT_RESIDUAL = 1e-8            # every op, clean or noisy
RECONSTRUCT_NOISY_REL_ERROR_PER_NOISE = 10.0   # noisy: rel error <= 10 x noise
CLI_OP_TIMEOUT_S = 150


def _repr(x: float) -> str:
    # repr round-trips a double exactly, so the CLI parses the same value
    return repr(float(x))


class Sweep:
    """Band-edge studies over seeded sub-ranges of kappa in [2, 1000].

    [2, 1000] is the paper's [2, 100 pi] plus the kappa = 1000 size. Each
    op sweeps nearly all of it, from a seeded start in [2, 42] to a seeded
    end in [960, 1000], so the ops of a cycle cost the same and the median
    op is a typical one whatever the seed, while every op still meets its
    own kappa values. Seven ops use kappa0 = kappa. Two more use
    kappa0 = kappa / rho with seeded rho in [1, 4], drawn antithetically
    in 1/rho so that their joint cost does not move with the seed.
    """

    in_process = True

    def __init__(self, ib, rng, tiny: bool):
        self.ib = ib
        n_ops, n_points, k_lo, k_hi = (3, 8, 2.0, 100.0) if tiny else \
            (7, 24, 2.0, 1000.0)
        margin = 0.04 * (k_hi - k_lo)

        def kappa_range():
            return (k_lo + margin * rng.random(), k_hi - margin * rng.random())

        self.cycle = [dict(n_points=n_points, kappa_range=kappa_range(),
                           equal_sizes=True, ratio=1.0)
                      for _ in range(n_ops)]
        v = rng.random()
        for inv_rho in (0.25 + 0.75 * v, 1.0 - 0.75 * v):
            self.cycle.append(dict(n_points=n_points,
                                   kappa_range=kappa_range(),
                                   equal_sizes=False, ratio=1.0 / inv_rho))
        self.expected = None

    def warm_up(self) -> None:
        """Untimed pass over every op; fills the zero cache and the
        reference records of the check."""
        self.expected = [self.run(i) for i in range(len(self.cycle))]
        for i, records in enumerate(self.expected):
            err = self._sandwich(records)
            if err:
                raise AssertionError(f"warm-up op {i}: {err}")

    def run(self, i: int):
        return self.ib.run_sweep(**self.cycle[i])

    @staticmethod
    def _sandwich(records):
        for r in records:
            if not (r.B_minus <= r.B <= r.B_plus):
                return (f"B-={r.B_minus} <= B={r.B} <= B+={r.B_plus} fails "
                        f"at kappa={r.kappa!r}, kappa0={r.kappa0!r}")
        return None

    def check(self, i: int, records):
        if records != self.expected[i]:
            return "records differ from the warm-up pass"
        return self._sandwich(records)


class Reconstruct:
    """Forward synthesis, modal decomposition, truncation and TSVD.

    Two of every three ops invert clean data at kappa = kappa0 = 100 pi
    (policy B, N = B = 304, horizon 376, grid 256 x 800, 754 boundary
    samples). The third uses kappa = 10 pi with R = 2 R0, 1 % noise with a
    seeded realisation, and policy B-. With two big ops per cycle the
    median op is a big one. Every grid meets the resolution
    rule n_theta >= 2 * horizon + 1 and n_s >= 2 * horizon + 1. Each op's
    truth is three seeded modes |m| <= B- with seeded complex weights,
    built in set-up.
    """

    in_process = True

    def __init__(self, ib, rng, tiny: bool):
        self.ib = ib
        big = (20 * math.pi, 20 * math.pi, 64) if tiny else \
            (100 * math.pi, 100 * math.pi, 256)
        small = (5 * math.pi, 10 * math.pi, 64)
        self.cycle = [self._op(rng, *small, noise=0.01, policy="B-",
                               n_theta=None)]
        for _ in range(2):
            self.cycle.append(self._op(rng, *big, noise=0.0, policy="B",
                                       n_theta=None if tiny else 800))

    def _op(self, rng, kappa0, kappa, n_r, noise, policy, n_theta):
        ib = self.ib
        g = ib.ProblemGeometry.from_size_params(kappa0, kappa)
        horizon = ib.default_m_max(g.kappa0)
        if n_theta is None:
            n_theta = 2 * horizon + 2
        n_s = 2 * horizon + 2
        if n_theta < 2 * horizon + 1:
            raise ValueError("benchmark grid below the resolution rule")
        b_minus = ib.bound_lower(g.kappa0)
        ms = rng.choice(np.arange(-b_minus, b_minus + 1), size=3,
                        replace=False)
        weights = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        terms = [(complex(w), int(m)) for w, m in zip(weights, ms)]
        truth = ib.source_grid(
            g, n_r, n_theta,
            fn=lambda rho, th: sum(w * ib.psi_eval(m, g, rho, th)
                                   for w, m in terms))
        return dict(g=g, horizon=horizon, n_r=n_r, n_theta=n_theta, n_s=n_s,
                    noise=noise, noise_seed=int(rng.integers(2**31)),
                    policy=policy, truth=truth, truth_norm=truth.norm())

    def warm_up(self) -> None:
        """One untimed small op, and the zero cache for the big geometry."""
        self.run(0)
        for op in self.cycle:
            self.ib.report(op["g"])

    def run(self, i: int):
        ib, op = self.ib, self.cycle[i]
        data = ib.synthesize_measurement(op["truth"], op["noise"],
                                         op["noise_seed"],
                                         modes=op["horizon"], n_s=op["n_s"])
        coeffs = ib.modal_decompose(data, op["horizon"])
        n_trunc = ib.pick_truncation(op["g"], op["policy"])
        return ib.tsvd_reconstruct(coeffs, n_trunc, op["g"], n_r=op["n_r"],
                                   n_theta=op["n_theta"],
                                   policy=op["policy"])

    def check(self, i: int, rec):
        op = self.cycle[i]
        if not rec.residual <= RECONSTRUCT_RESIDUAL:
            return f"residual {rec.residual:.3e} > {RECONSTRUCT_RESIDUAL:g}"
        diff = rec.source.values - op["truth"].values
        wa = op["truth"].area_weights
        rel = math.sqrt(float(np.sum(wa * np.abs(diff)**2))) / op["truth_norm"]
        limit = (RECONSTRUCT_NOISY_REL_ERROR_PER_NOISE * op["noise"]
                 if op["noise"] > 0.0 else RECONSTRUCT_CLEAN_REL_ERROR)
        if not rel <= limit:
            return f"relative L2 error {rel:.3e} > {limit:g}"
        return None


class Cli:
    """Cold CLI processes: bandwidth JSON, spectrum CSV, a short sweep and
    a small clean reconstruction, one fresh interpreter per op.

    Each op writes into its own directory under `workdir`. Outputs are
    checked after the timed phase against library results computed in
    this process, with the CSVs read back through `csvio`.
    """

    # ops run in child processes: the worker samples the machine speed
    # between ops instead of during them
    in_process = False

    def __init__(self, ib, rng, tiny: bool, workdir: str, root: str,
                 env: dict, traced: bool):
        self.ib, self.workdir, self.root = ib, workdir, root
        self.env, self.traced = env, traced
        # ops run one at a time; keeping this worker and its op processes on
        # one CPU lets the speed probe sample the CPU the ops ran on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

        def geometry(lo, hi):
            k0 = rng.uniform(lo, hi)
            return ["--kappa0", _repr(k0), "--kappa",
                    _repr(k0 * rng.uniform(1.0, 2.0))]

        sweep_lo = rng.uniform(2.0, 60.0)
        rec_geo = geometry(5 * math.pi, 10 * math.pi)
        k0 = float(rec_geo[1])
        b_minus = ib.bound_lower(k0)
        ms = rng.choice(np.arange(-b_minus, b_minus + 1), size=2,
                        replace=False)
        # the source spec splits terms on "+", so weights are written a-bi
        weights = [f"{rng.uniform(-1, 1):.3f}-{rng.uniform(0.1, 1):.3f}"
                   for _ in ms]
        self.rec_terms = [(complex(w + "j"), int(m))
                          for w, m in zip(weights, ms)]
        self.rec_horizon = max(ib.default_m_max(k0), int(np.max(np.abs(ms))))
        grid = str(2 * self.rec_horizon + 2)
        # "{out}" is replaced by the op's own output directory
        self.cycle = [
            ["bandwidth", *geometry(2.0, 300.0), "--format", "json"],
            ["spectrum", *geometry(2.0, 300.0),
             "--out", os.path.join("{out}", "spectrum.csv")],
            ["sweep", "--n", "6" if tiny else "16",
             "--kappa-min", _repr(sweep_lo),
             "--kappa-max", _repr(sweep_lo + rng.uniform(20.0, 60.0)),
             "--out", "{out}"],
            # "--source=" because a spec may start with "-"
            ["reconstruct", *rec_geo, "--source="
             + "+".join(f"{w}i*mode:{m}" for w, m in zip(weights, ms)),
             "--policy", "B", "--nr", "64", "--ntheta", grid, "--ns", grid,
             "--out", os.path.join("{out}", "reconstruction.csv")],
        ]
        self.outputs = []
        # traced runs only: per-process totals, import and main() times
        self.totals = {}
        self.import_s = []
        self.wall_s = {}
        self.spans = []

    def warm_up(self) -> None:
        """One untimed cold invocation: byte-code and file caches."""
        out = self._invoke(0, "setup", "warm-up")
        if out["code"] != 0:
            raise RuntimeError(f"warm-up invocation failed: {out['err']}")

    def _invoke(self, i: int, phase: str, tag: str) -> dict:
        outdir = os.path.join(self.workdir, tag)
        os.makedirs(outdir)
        argv = [a.replace("{out}", outdir) for a in self.cycle[i]]
        if self.traced:
            cmd = [sys.executable, os.path.join("perfbench", "worker.py"),
                   "--cli-op", json.dumps(argv), "--phase", phase]
        else:
            cmd = [sys.executable, "-m", "ispband.cli", *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                              capture_output=True, text=True,
                              timeout=CLI_OP_TIMEOUT_S)
        out = dict(dir=outdir, code=proc.returncode, out=proc.stdout,
                   err=proc.stderr[-500:])
        if self.traced and proc.returncode == 0:
            res = json.loads(proc.stdout.splitlines()[-1])
            merge(self.totals, res["totals"])
            if phase == "timed":
                self.import_s.append(res["import_s"])
                self.wall_s.setdefault(argv[0], []).append(res["wall_s"])
            self.spans.append(res["spans"])
            out.update(code=res["code"], out=res["out"])
        return out

    def run(self, i: int):
        out = self._invoke(i, "timed", f"op{len(self.outputs)}")
        self.outputs.append((i, out))
        return out

    def check(self, i: int, out):
        """Deferred to `finish`, outside the timed phase."""
        return None

    def finish(self) -> list[tuple[int, str]]:
        """Check every timed op against library results; return failures."""
        expected = {}
        failures = []
        for n, (i, out) in enumerate(self.outputs):
            kind = self.cycle[i][0]
            if out["code"] != 0:
                failures.append((n, f"{kind} exited {out['code']}: "
                                    f"{out['err'].strip()}"))
                continue
            if i not in expected:
                expected[i] = self._expected(i)
            err = self._compare(kind, out, expected[i])
            if err:
                failures.append((n, f"{kind}: {err}"))
        return failures

    def _geometry(self, argv):
        return self.ib.ProblemGeometry.from_size_params(
            float(argv[argv.index("--kappa0") + 1]),
            float(argv[argv.index("--kappa") + 1]))

    def _expected(self, i: int):
        ib, argv = self.ib, self.cycle[i]
        kind = argv[0]
        if kind == "bandwidth":
            g = self._geometry(argv)
            rep = ib.report(g)
            step = ib.max_angular_sampling(g) if rep.B_minus >= 1 else None
            return {"B": rep.B, "B_minus": rep.B_minus, "B_plus": rep.B_plus,
                    "B_tilde_minus": rep.B_tilde_minus,
                    "B_tilde_plus": rep.B_tilde_plus,
                    "max_angular_step": step, "kappa0": g.kappa0,
                    "kappa": g.kappa, "horizon": rep.horizon}
        if kind == "spectrum":
            t = ib.build_spectrum(self._geometry(argv))
            ln10 = math.log(10.0)
            return {"m": t.m, "A_m": t.a, "log10_abs_H2": t.log_abs_h2 / ln10,
                    "log10_sigma": t.log_sigma / ln10, "sigma": t.sigma}
        if kind == "sweep":
            n = int(argv[argv.index("--n") + 1])
            lo = float(argv[argv.index("--kappa-min") + 1])
            hi = float(argv[argv.index("--kappa-max") + 1])
            records = ib.run_sweep(n_points=n, kappa_range=(lo, hi))
            return records, [ib.fit_linear(records, t)
                             for t in ("B", "B-", "B+")]
        g = self._geometry(argv)
        n_r = int(argv[argv.index("--nr") + 1])
        n_grid = int(argv[argv.index("--ntheta") + 1])
        truth = ib.source_grid(
            g, n_r, n_grid,
            fn=lambda rho, th: sum(c * ib.psi_eval(m, g, rho, th)
                                   for c, m in self.rec_terms))
        data = ib.synthesize_measurement(truth, 0.0, 0,
                                         modes=self.rec_horizon, n_s=n_grid)
        coeffs = ib.modal_decompose(data, self.rec_horizon)
        rec = ib.tsvd_reconstruct(coeffs, ib.pick_truncation(g, "B"), g,
                                  n_r=n_r, n_theta=n_grid, policy="B")
        return rec, truth

    @staticmethod
    def _compare(kind: str, out: dict, exp):
        from ispband import csvio
        path = functools.partial(os.path.join, out["dir"])
        if kind == "bandwidth":
            got = json.loads(out["out"])
            return None if got == exp else f"JSON {got} != library {exp}"
        if kind == "spectrum":
            got = csvio.read_spectrum(path("spectrum.csv"))
            bad = [k for k in exp if not np.array_equal(got[k], exp[k])]
            return f"columns {bad} differ from the library" if bad else None
        if kind == "sweep":
            records, fits = exp
            if csvio.read_sweep(path("sweep.csv")) != records:
                return "sweep.csv differs from run_sweep"
            if csvio.read_fits(path("fits.csv")) != fits:
                return "fits.csv differs from fit_linear"
            return None
        rec, truth = exp
        got = csvio.read_reconstruction(path("reconstruction.csv"))
        if (got.N, got.policy, got.residual) != (rec.N, rec.policy,
                                                 rec.residual) \
                or not np.array_equal(got.source.values, rec.source.values):
            return "reconstruction.csv differs from the library"
        if not got.residual <= RECONSTRUCT_RESIDUAL:
            return f"residual {got.residual:.3e} > {RECONSTRUCT_RESIDUAL:g}"
        diff = got.source.values - truth.values
        rel = math.sqrt(float(np.sum(truth.area_weights * np.abs(diff)**2))) \
            / truth.norm()
        if not rel <= RECONSTRUCT_CLEAN_REL_ERROR:
            return (f"relative L2 error {rel:.3e} > "
                    f"{RECONSTRUCT_CLEAN_REL_ERROR:g}")
        return None
