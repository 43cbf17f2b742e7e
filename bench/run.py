"""gafzeros benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload {experiment,density,continuation,sampler}
                         --seed N --seconds S --trace {0,1}

Run from the repository root or anywhere else: the library is imported from
``src/`` next to this directory, with nothing installed.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end figures of BENCHMARK.json; with ``--trace 1`` they are the
per-layer figures, and the spans go to ``bench/results/``.  Everything runs
in this one process (``workers=1``, no pool); set-up time is measured in
fresh child interpreters.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
#: fresh interpreters timed per run for setup_s
SETUP_REPEATS = 5
#: a statistics window holds whole steps and at least this many timed
#: operations, so that its p95 has ten samples beyond it
WINDOW_OPS = 200
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

clock = time.perf_counter


def p95(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, np) -> dict:
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": os.cpu_count(),
           "python": platform.python_version(), "numpy": np.__version__,
           "processes": 1, "workers": 1}
    for var in BLAS_VARS + ("GAF_THREADS",):
        env[var] = os.environ.get(var, "unset")
    env["blas_threads_from"] = "caller" if args.caller_blas else "benchmark"
    env["commit"] = git_commit()
    return env


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import the library, parse the
    workload's presets and run one warm-up operation."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(clock() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr.strip()}")
    return times


def run_pass(wl, seconds: float, min_steps: int):
    """Untraced steps until the time is up, at least min_steps, whole cycles."""
    from workloads import Tally
    tally = Tally()
    steps = 0
    t_end = clock() + seconds
    while steps < min_steps or clock() < t_end or steps % wl.cycle:
        wl.step(tally, None)
        tally.mark()
        steps += 1
    return tally, steps


def window_stats(tally):
    """Median over windows of the p50 and p95 latency and the throughput.

    A window is a run of whole steps with at least WINDOW_OPS timed
    operations; a shorter tail joins the last window.  The median over
    windows keeps a slow stretch of a shared machine from moving the figure.
    """
    cuts = [(0, 0, 0.0)]
    for m in tally.marks:
        if m[0] - cuts[-1][0] >= WINDOW_OPS:
            cuts.append(m)
    if len(cuts) == 1:
        cuts.append(tally.marks[-1])
    else:
        cuts[-1] = tally.marks[-1]
    p50s, p95s, rates = [], [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        lat = tally.latencies[a[0]:b[0]]
        p50s.append(statistics.median(lat))
        p95s.append(p95(lat))
        rates.append((b[1] - a[1]) / (b[2] - a[2]))
    return (statistics.median(p50s), statistics.median(p95s),
            statistics.median(rates), len(p50s))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_failures(tally) -> None:
    for line in tally.failures[:10]:
        print(f"  FAILED {line}")
    if len(tally.failures) > 10:
        print(f"  ... {len(tally.failures) - 10} more failures")


def end_to_end(args, wl) -> dict:
    """The --trace 0 run: set-up time, then untraced steps for --seconds."""
    setup = measure_setup(args.workload, args.seed)
    wl.warmup()
    tally, steps = run_pass(wl, args.seconds, wl.min_steps)
    p50, p95_s, per_s, n_windows = window_stats(tally)
    p50_ms, p95_ms = p50 * 1e3, p95_s * 1e3
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "latency_p50_ms": (p50_ms, "ms"),
        "latency_p95_ms": (p95_ms, "ms"),
        "throughput_per_s": (per_s, "1/s"),
    }
    print(f"{wl.name}: {steps} steps, {len(tally.latencies)} timed operations, "
          f"{tally.items} items in {tally.busy:.3f} s busy; medians over "
          f"{n_windows} windows of >= {WINDOW_OPS} operations (or the whole run)")
    print(f"  setup_s samples: {' '.join(f'{t:.4f}' for t in setup)}")
    for name, (value, unit) in {**metrics, **wl.aliases(p50_ms, p95_ms, per_s)}.items():
        print(f"  {name}={value!r} {unit}")
    print(f"  fail_frac={len(tally.failures) / tally.attempted!r} "
          f"({len(tally.failures)} of {tally.attempted} operations)")
    if tally.known_defects:
        print(f"  known_defect_profiles={len(tally.known_defects)} (not counted as failed, "
              f"see bench/NOTES.md), e.g. {tally.known_defects[0]}")
    for key, value in sorted(tally.notes.items()):
        print(f"  check.{key}={value!r}")
    print_failures(tally)
    return {"correct": not tally.failures, "attempted": tally.attempted,
            "failed": len(tally.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced(args, wl, env) -> dict:
    """The --trace 1 run: per-layer metrics from spans, and the overhead."""
    from spans import Tracer
    from workloads import WORKLOADS, Tally
    import layers

    def pair(w, tracer, untraced, tally):
        # the untraced and the traced step run on the same inputs, back to
        # back, so a slow stretch of the machine lands on both sides
        position = w.tell()
        w.step(untraced, None)
        w.seek(position)
        w.step(tally, tracer)

    wl.warmup()
    tracer, untraced, tally = Tracer(), Tally(), Tally()
    steps = 0
    t_end = clock() + args.seconds / 2.0
    while steps < 1 or clock() < t_end:
        pair(wl, tracer, untraced, tally)
        steps += 1
    metrics = layers.layer_metrics(tracer)
    overhead = tally.busy - untraced.busy
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / untraced.busy, "ratio")
    passes = {wl.name: (tracer, [untraced, tally])}

    # layers this workload does not reach: one step pair of each other
    # workload (for experiment this also checks its replay)
    for name, cls in WORKLOADS.items():
        if name == wl.name:
            continue
        other, t, o_untraced, o_tally = cls(args.seed), Tracer(), Tally(), Tally()
        other.warmup()
        pair(other, t, o_untraced, o_tally)
        for key, value in layers.layer_metrics(t).items():
            metrics.setdefault(key, value)
        passes[name] = (t, [o_untraced, o_tally])

    missing = [k for k in layers.NAMES if k not in metrics]
    tallies = [x for _, ts in passes.values() for x in ts]
    failures = [f for x in tallies for f in x.failures]
    if missing:
        failures.append(f"per-layer metrics not measured: {missing}")

    print(f"{wl.name}: traced {steps} steps; untraced busy {untraced.busy:.4f} s, "
          f"traced busy {tally.busy:.4f} s")
    print("  self time by span (this workload's traced pass):")
    rows = sorted(tracer.self_times().items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        print(f"    {name:40s} n={row['count']:6d} total={row['total_s'] * 1e3:10.2f} ms "
              f"self={row['self_s'] * 1e3:10.2f} ms")
    for key in sorted(metrics):
        value, unit = metrics[key]
        print(f"  {key}={value!r} {unit}")
    for name, (_, ts) in passes.items():
        for key, value in sorted(ts[-1].notes.items()):
            print(f"  check.{name}.{key}={value!r}")
    for x in tallies:
        print_failures(x)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"trace-{wl.name}-seed{args.seed}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": metrics,
                   "passes": {k: t.export() for k, (t, _) in passes.items()}},
                  fh, default=float)
    print(f"  spans written to {out.relative_to(ROOT)}")
    return {"correct": not failures,
            "attempted": sum(x.attempted for x in tallies),
            "failed": sum(len(x.failures) for x in tallies) + bool(missing),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["experiment", "density", "continuation", "sampler"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    # one process and one thread: the BLAS pool's second thread only adds
    # spin-waiting and contention on a small machine; a caller's setting wins
    args.caller_blas = any(var in os.environ for var in BLAS_VARS)
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    try:
        import numpy as np
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2

    env = environment(args, np)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        result = traced(args, wl, env) if args.trace else end_to_end(args, wl)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
