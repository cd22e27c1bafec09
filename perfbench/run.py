"""Benchmark of ispband: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                     # every workload, untraced

Run from anywhere; it works on the checkout that holds this file. Every
workload runs in fresh worker processes (perfbench/worker.py) with
PYTHONPATH=src and BLAS/OpenMP threads pinned to the CPUs this process
may use. The report prints each metric by name with its unit and sample
count, and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, from a traced worker, plus
the tracing overhead against an untraced worker of the same seed. Full
results, with the machine facts, go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "reconstruct", "cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up is sampled in this many extra fresh workers besides the timed one
EXTRA_SETUP_SAMPLES = 2
# a tail percentile needs at least this many ops beyond it
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 170

E2E_UNITS = {"setup_s": "s", "ops_per_s_ref": "1/s", "op_p50_s_ref": "s",
             "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".calls") or name.endswith(".points"):
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "1"


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    env.update({var: threads for var in THREAD_VARS})
    return env


def machine_facts(seed: int, env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "threads": {var: env[var] for var in THREAD_VARS},
            "seed": seed}


def run_worker(env: dict, *args: str) -> dict:
    cmd = [sys.executable, str(Path("perfbench") / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out after {exc.timeout} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _ops_per_s(worker: dict) -> float:
    """Ops completed and checked per second of the timed phase."""
    return (worker["attempted"] - worker["failed"]) / worker["timed_s"]


def _mean_speed(worker: dict) -> float:
    """Kernel time over REFERENCE_S around each op, weighted by op time."""
    lat = worker["latencies"]
    return sum(t * s for t, s in zip(lat, worker["speeds"])) / sum(lat)


def tail(latencies: list[float]):
    """Latency at the highest percentile with >= TAIL_BEYOND ops beyond it,
    as (value, percentile), or None when the run is too short."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND      # 1-based rank of the tail value
    return sorted(latencies)[k - 1], 100.0 * k / n


def measure(workload: str, args, env: dict) -> tuple[dict, list[str]]:
    """Run one workload; return its full result and its report lines."""
    common = ["--workload", workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.tiny:
        common.append("--tiny")
    lines = [f"workload {workload}  seed {args.seed}  "
             f"seconds {args.seconds}  trace {args.trace}"]
    if args.trace:
        plain = run_worker(env, *common, "--trace", "0")
        main = run_worker(env, *common, "--trace", "1")
        metrics = dict(main["layers"])
        plain_rate = _ops_per_s(plain)
        traced_rate = _ops_per_s(main)
        metrics["trace.ops_per_s"] = traced_rate
        metrics["trace.untraced_ops_per_s"] = plain_rate
        metrics["trace.overhead"] = 1.0 - traced_rate / plain_rate
        for name in sorted(metrics):
            lines.append(f"  {name:48s} = {metrics[name]:.6g} "
                         f"{layer_unit(name)}")
        lines.append(f"  spans: {main['spans_file']}")
        units = {name: layer_unit(name) for name in metrics}
    else:
        setups = [run_worker(env, *common, "--setup-only")["setup_s"]
                  for _ in range(EXTRA_SETUP_SAMPLES)]
        main = run_worker(env, *common, "--trace", "0")
        setups.append(main["setup_s"])
        lat = main["latencies"]
        speed = _mean_speed(main)
        raw = {"ops_per_s": _ops_per_s(main),
               "op_p50_s": statistics.median(lat)}
        metrics = {"setup_s": statistics.median(setups),
                   "ops_per_s_ref": raw["ops_per_s"] * speed,
                   "op_p50_s_ref": statistics.median(
                       t / s for t, s in zip(lat, main["speeds"])),
                   "peak_rss_mb": main["peak_rss_mb"]}
        t = tail(lat)
        n = f"(n={len(lat)})"
        lines += [
            f"  setup_s       = {metrics['setup_s']:.4f} s    "
            f"(median of {len(setups)} fresh workers)",
            f"  ops_per_s     = {raw['ops_per_s']:.4f} 1/s  "
            f"({main['attempted'] - main['failed']} ops checked in "
            f"{main['timed_s']:.2f} s)",
            f"  op_p50_s      = {raw['op_p50_s']:.4f} s    {n}",
            (f"  op_tail_s     = {t[0]:.4f} s    at p{t[1]:.1f} {n}" if t else
             f"  op_tail_s     omitted: {len(lat)} ops leave fewer than "
             f"{TAIL_BEYOND} beyond any percentile"),
            f"  fail_ratio    = {main['failed'] / main['attempted']:.4g} 1    "
            f"({main['failed']} of {main['attempted']})",
            f"  peak_rss_mb   = {metrics['peak_rss_mb']:.2f} MB",
            f"  speed         = {speed:.4f} 1    (kernel time / reference, "
            f"mean over op time)",
            f"  ops_per_s_ref = {metrics['ops_per_s_ref']:.4f} 1/s  {n}",
            f"  op_p50_s_ref  = {metrics['op_p50_s_ref']:.4f} s    {n}",
        ]
        main["raw"] = raw
        if t:
            main["raw"]["op_tail_s"] = {"value": t[0], "percentile": t[1],
                                        "n": len(lat)}
        units = E2E_UNITS
    for n, cause in main["failures"]:
        lines.append(f"  FAILED op {n}: {cause}")
    result = {"metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()},
              "worker": {k: v for k, v in main.items() if k != "layers"}}
    return result, lines


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the smoke test")
    args = p.parse_args()
    if not (ROOT / "src" / "ispband" / "__init__.py").is_file():
        print(f"error: no ispband sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # byte-compile once, so that no run pays for it inside set-up
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("error: byte-compiling src/ failed", file=sys.stderr)
        return 2
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    env = worker_env()
    facts = machine_facts(args.seed, env)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, lines = measure(name, args, env)
            print("\n".join(lines))
            result["machine"] = facts
            path = ROOT / ".bench_out" / (f"result-{name}-seed{args.seed}"
                                         f"-trace{args.trace}.json")
            path.write_text(json.dumps(result, indent=1))
            w = result["worker"]
            out["attempted"] += w["attempted"]
            out["failed"] += w["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            out["metrics"].update({prefix + k: v for k, v
                                   in result["metrics"].items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out["correct"] = out["failed"] == 0
    print("machine " + json.dumps(facts, sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
