"""One benchmark worker process: set-up, timed closed loop and checks.

    python perfbench/worker.py --workload sweep --seed 1 --seconds 20 --trace 0
    python perfbench/worker.py --cli-op '["bandwidth", ...]' --phase timed

run.py starts every worker in a fresh interpreter, from the root of the
checkout, with PYTHONPATH=src and pinned thread counts. The worker prints
one JSON object as the last line of its standard output.

set-up is everything from the first statement of this file to the end of
the warm-up: `import ispband`, input generation and warm-up. The timed
phase then runs whole cycles of the workload's ops until `--seconds` of op
time have passed. Untraced, it samples the machine-speed kernel of
calibrate.py while the ops run; traced, it does not.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

MAX_REPORTED_FAILURES = 20
# kernel runs per speed sample between out-of-process ops
BOUNDARY_RUNS = 3


def _import_package() -> float:
    t = time.perf_counter()
    import ispband  # noqa: F401
    import ispband.cli  # noqa: F401
    import ispband.csvio  # noqa: F401
    if not os.path.abspath(ispband.__file__).startswith(
            os.path.join(os.getcwd(), "src", "")):
        raise RuntimeError(f"ispband imported from {ispband.__file__}, "
                           "not from this checkout's src/")
    return time.perf_counter() - t


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; for the cli workload the op processes
    # are children of this worker
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_cli_op(argv: list, phase: str) -> None:
    """One traced `ispband.cli.main(argv)` call in this fresh process."""
    import_s = _import_package()
    import tracing
    tracer = tracing.Tracer()
    tracer.phase = phase
    tracer.install()
    cli = sys.modules["ispband.cli"]
    buf = io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    wall_s = time.perf_counter() - t
    hits, misses = tracing.zero_cache_counts()
    tracer.add("zero_cache_hits", hits)
    tracer.add("zero_cache_misses", misses)
    _emit(dict(code=code, out=buf.getvalue(), import_s=import_s,
               wall_s=wall_s, totals=tracer.totals(), spans=tracer.spans))


def _make(args, ib, rng, tmp, traced):
    import workloads
    if args.workload == "sweep":
        return workloads.Sweep(ib, rng, args.tiny)
    if args.workload == "reconstruct":
        return workloads.Reconstruct(ib, rng, args.tiny)
    return workloads.Cli(ib, rng, args.tiny, tmp, os.getcwd(),
                         dict(os.environ), traced)


def run_workload(args) -> None:
    import_s = _import_package()
    import numpy as np
    import ispband as ib
    import tracing
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    rng = np.random.default_rng(args.seed % 2**63)
    with tempfile.TemporaryDirectory(dir=".bench_out") as tmp:
        wl = _make(args, ib, rng, tmp, bool(args.trace))
        wl.warm_up()
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            _emit(dict(setup_s=setup_s, import_s=import_s))
            return
        import calibrate
        calibrate.kernel()
        probe = calibrate.Probe() if not tracer else None
        if tracer:
            tracer.phase = "timed"
            zero0 = tracing.zero_cache_counts()
        windows, failures = [], []
        t0 = time.perf_counter()
        if probe:
            probe.take()
            probe.periodic(wl.in_process)
        while True:
            for i in range(len(wl.cycle)):
                t = time.perf_counter()
                try:
                    out = wl.run(i)
                    t1 = time.perf_counter()
                    err = wl.check(i, out)
                except Exception as exc:
                    t1 = time.perf_counter()
                    err = f"{type(exc).__name__}: {exc}"
                windows.append((t, t1))
                if err:
                    failures.append((len(windows) - 1, err))
                # drop the result before the next op so peak RSS holds one
                out = None
                if probe and not wl.in_process:
                    probe.take(runs=BOUNDARY_RUNS)
            if time.perf_counter() - t0 - (probe.spent if probe else 0.0) \
                    >= args.seconds:
                break
        # the yardstick's own time is not part of the timed phase
        timed_s = time.perf_counter() - t0 - (probe.spent if probe else 0.0)
        latencies, speeds = [t1 - t for t, t1 in windows], []
        if probe:
            probe.periodic(False)
            probe.take()
            latencies = [lat - probe.spent_in(t, t1)
                         for lat, (t, t1) in zip(latencies, windows)]
            speeds = [probe.speed(t, t1) for t, t1 in windows]
        if tracer:
            zero1 = tracing.zero_cache_counts()
            tracer.add("zero_cache_hits", zero1[0] - zero0[0])
            tracer.add("zero_cache_misses", zero1[1] - zero0[1])
            tracer.phase = "check"
        finish = getattr(wl, "finish", None)
        if finish is not None:
            failures.extend(finish())
    result = dict(setup_s=setup_s, import_s=import_s, timed_s=timed_s,
                  latencies=latencies, attempted=len(latencies),
                  failed=len(failures),
                  failures=failures[:MAX_REPORTED_FAILURES],
                  peak_rss_mb=_peak_rss_mb(), speeds=speeds)
    if tracer:
        totals = tracing.merge(tracer.totals(), getattr(wl, "totals", {}))
        layers = tracing.layer_metrics(totals)
        cli_import = getattr(wl, "import_s", None) or [import_s]
        layers["cli.import_s"] = statistics.median(cli_import)
        walls = getattr(wl, "wall_s", {})
        for sub in tracing.CLI_SUBCOMMANDS:
            layers[f"cli.{sub}.wall_s"] = (statistics.median(walls[sub])
                                           if sub in walls else 0.0)
        result["layers"] = layers
        spans_path = os.path.join(
            ".bench_out", f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "phase"],
                       "worker": tracer.spans,
                       "cli_ops": getattr(wl, "spans", [])}, fh)
        result["spans_file"] = spans_path
    _emit(result)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("sweep", "reconstruct", "cli"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--cli-op", help="JSON list of ispband CLI arguments")
    p.add_argument("--phase", default="timed")
    args = p.parse_args()
    if args.cli_op is not None:
        run_cli_op(json.loads(args.cli_op), args.phase)
    elif args.workload is None:
        p.error("--workload or --cli-op is required")
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
