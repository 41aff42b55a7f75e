#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of `perspector serve`.

One run:
  python3 perfbench/run.py --workload focused_sweep --seed 1 --seconds 20 --trace 0

  --trace 0  the timed closed loop; prints the end-to-end metrics
  --trace 1  exact work counts from the server's `metrics` op over a fixed
             prefix of the stream, plus the in-process traced replay;
             prints the per-layer metrics

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Steadiness harness (alternates workloads over N runs, one process each,
and prints every metric's median, quartiles and min/max):
  python3 perfbench/run.py --repeat 5 --seconds 20 [--trace 0|1]
                           [--seed 1] [--same-seed]

The first run in a checkout builds the program from the checkout's own
sources into .bench_build/ (see CMakeLists.txt beside this file).
See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in perfbench/

import gen  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SETUPS = 5  # set-ups per run; setup_s is their median

END_TO_END = [("setup_s", "s"), ("ops_per_s", "op/s"), ("p50_ms", "ms"),
              ("p90_ms", "ms"), ("cpu_ms_per_op", "ms"), ("peak_rss_mb", "MiB")]

# per-layer metric -> unit; counts come from the metrics op, times from
# the traced replay (README.md has the layer -> end-to-end map).
PER_LAYER = {
    "sim.workloads_per_op": "count", "sim.minstr_per_op": "Minstr",
    "cache.primes_per_op": "count", "dtw.mcells_per_op": "Mcells",
    "cache.trend_hit_ratio": "ratio",
    "kmeans.iterations_per_op": "count", "silhouette.evals_per_op": "count",
    "pca.fits_per_op": "count", "eigen.sweeps_per_op": "count",
    "spread.ks_tests_per_op": "count", "serve.result_hit_ratio": "ratio",
    "jobs.candidates_per_op": "count", "jobs.candidate_hit_ratio": "ratio",
    "jobs.checkpoints_per_op": "count", "par.tasks_per_op": "count",
    "par.serial_region_share": "ratio", "mem.scratch_reuse_ratio": "ratio",
    "serve.decode_ms": "ms", "serve.encode_ms": "ms", "serve.engine_ms": "ms",
    "serve.other_ms": "ms", "sim.ms": "ms", "sim.minstr_per_host_s": "Minstr/s",
    "dtw.prime_ms": "ms", "core.upsert_ms": "ms", "core.score_ms": "ms",
    "cluster.ms": "ms", "trend.ms": "ms", "coverage.ms": "ms", "spread.ms": "ms",
    "jobs.step_ms": "ms", "par.cpu_util": "ratio",
    "sim.engine_share": "%", "cluster.engine_share": "%",
    "trace.overhead_pct": "%",
}

# counter-derived metrics: name -> (numerator counters, denominator);
# a denominator of None means "per unit".
COUNTS = {
    "sim.workloads_per_op": (["sim.workloads"], None, 1),
    "sim.minstr_per_op": (["sim.instructions"], None, 1e-6),
    "cache.primes_per_op": (["cache.primes"], None, 1),
    "dtw.mcells_per_op": (["dtw.cells"], None, 1e-6),
    "cache.trend_hit_ratio": (["cache.hits"], ["cache.hits", "cache.misses"], 1),
    "kmeans.iterations_per_op": (["kmeans.iterations"], None, 1),
    "silhouette.evals_per_op": (["silhouette.evaluations"], None, 1),
    "pca.fits_per_op": (["pca.fits"], None, 1),
    "eigen.sweeps_per_op": (["eigen.sweeps"], None, 1),
    "spread.ks_tests_per_op": (["spread.ks_tests"], None, 1),
    "serve.result_hit_ratio": (["serve.cache_hit"], ["serve.requests"], 1),
    "jobs.candidates_per_op": (["jobs.candidates_evaluated"], None, 1),
    "jobs.candidate_hit_ratio": (["jobs.candidate_cache_hits"],
                                 ["jobs.candidates_evaluated"], 1),
    "jobs.checkpoints_per_op": (["jobs.checkpoints"], None, 1),
    "par.tasks_per_op": (["par.tasks"], None, 1),
    "par.serial_region_share": (["par.regions_serial"], ["par.regions"], 1),
    "mem.scratch_reuse_ratio": (["mem.scratch.reuses"], ["mem.scratch.acquires"], 1),
}

# traced-replay layer (probe.cpp, kLayers) -> per-layer metric (self ms per unit)
LAYERS = {
    "serve.decode": "serve.decode_ms", "serve.encode": "serve.encode_ms",
    "serve.other": "serve.other_ms", "sim": "sim.ms", "dtw.prime": "dtw.prime_ms",
    "core.upsert": "core.upsert_ms", "core.score": "core.score_ms",
    "cluster": "cluster.ms", "trend": "trend.ms", "coverage": "coverage.ms",
    "spread": "spread.ms", "jobs": "jobs.step_ms",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---- build ---------------------------------------------------------------------

def build():
    """Builds the CLI and the probe from this checkout's sources."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise workloads.Failure("no Perspector sources at %s (src/ missing)" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    with open(os.path.join(BUILD, "build.log"), "ab") as out:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD], stdout=out,
                           stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                        "perspector_cli", "perfbench_probe"], stdout=out,
                       stderr=subprocess.STDOUT, check=True)


class Env:
    """Paths and the CPU split: this process on one CPU, the server on a
    disjoint set (with fewer than four CPUs nothing is pinned)."""

    def __init__(self):
        self.perspector = os.path.join(BUILD, "perspector", "tools", "perspector")
        self.probe = os.path.join(BUILD, "perfbench_probe")
        self.tmp = os.path.join(BUILD, "tmp", "run-%d" % os.getpid())
        os.makedirs(self.tmp, exist_ok=True)
        self.log_path = os.path.join(BUILD, "server.log")
        self.serial = 0
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 4:
            os.sched_setaffinity(0, {cpus[0]})
            self.server_cpus = set(cpus[2:4])
        else:
            self.server_cpus = None

    def pin_checks(self):
        if self.server_cpus:
            os.sched_setaffinity(0, self.server_cpus)

    def fresh_tmp(self, what):
        self.serial += 1
        path = os.path.join(self.tmp, "%s-%d" % (what, self.serial))
        os.makedirs(path)
        return path

    def cleanup(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


# ---- one run ---------------------------------------------------------------------

def p90(values):
    """The 90th percentile (nearest rank); with fewer than 100 samples, the
    highest percentile that still has 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = -(-9 * n // 10)  # ceil(0.9 n)
    if n - rank < 10:
        rank = max(1, n - 10)
    return ordered[rank - 1]


def run_timed(env, cls, seed, seconds):
    w = cls(env, seed)
    setups = [w.setup()]
    try:
        lat, windows = w.timed(seconds)
        rss = w.server.peak_rss_mb()
        mismatches, checked = w.check()
    finally:
        w.close()
    w.failed += mismatches
    # The other set-ups come after the timed phase, so the median spans the
    # whole run rather than one phase of a shared host.
    for _ in range(SETUPS - 1):
        extra = cls(env, seed)
        try:
            setups.append(extra.setup())
        finally:
            extra.close()
    units = sum(u for u, _, _ in windows)
    if not all(u > 0 for u, _, _ in windows):
        raise workloads.Failure("a window of the timed phase completed no unit")
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(u / wall for u, wall, _ in windows),
        "p50_ms": 1e3 * statistics.median(lat),
        "p90_ms": 1e3 * p90(lat),
        "cpu_ms_per_op": statistics.median(1e3 * cpu / u for u, _, cpu in windows),
        "peak_rss_mb": rss,
    }
    samples = {"setup_s": len(setups), "ops_per_s": len(windows), "p50_ms": len(lat),
               "p90_ms": len(lat), "cpu_ms_per_op": len(windows), "peak_rss_mb": 1}
    log("%s seed %d: %.1f s timed, %d units in %d windows, %d foreground requests, "
        "%d/%d outputs checked ok" % (cls.name, seed, sum(wall for _, wall, _ in windows),
                                      units, len(windows), len(lat),
                                      checked - mismatches, checked))
    if len(lat) < 100:
        log("note: %d foreground samples; p90_ms is p%.0f" %
            (len(lat), 100.0 * max(1, len(lat) - 10) / len(lat)))
    for name, unit in END_TO_END:
        log("  %-14s %12.4f %-5s (n=%s)" % (name, metrics[name], unit, samples[name]))
    return w, {name: (metrics[name], unit) for name, unit in END_TO_END}


def run_traced(env, cls, seed):
    w = cls(env, seed)
    w.setup()
    try:
        before = w.server.counters()
        cpu0, t0 = w.server.cpu_seconds(), time.perf_counter()
        units = w.counted()
        elapsed = time.perf_counter() - t0
        cpu = w.server.cpu_seconds() - cpu0
        delta = workloads.counter_delta(before, w.server.counters())
        mismatches, _ = w.check()
    finally:
        w.close()
    w.failed += mismatches

    stream = os.path.join(env.tmp, "stream.ndjson")
    with open(stream, "w") as f:
        f.write("\n".join(w.replay_stream()) + "\n")
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, "%s-seed%d.json" % (cls.name, seed))
    proc = subprocess.run(
        [env.probe, "replay", "--workload", cls.name, "--stream", stream,
         "--threads", str(workloads.THREADS), "--tmp", env.fresh_tmp("replay"),
         "--trace-out", trace_out],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=env.pin_checks,
        env={k: v for k, v in os.environ.items() if k != "PERSPECTOR_TRACE"})
    log("traced replay (%s), self time per layer:\n%s" % (trace_out, proc.stderr))
    if proc.returncode not in (0, 3):
        raise workloads.Failure("traced replay failed: %s" % proc.stderr)
    replay = json.loads(proc.stdout.strip().splitlines()[-1])
    w.attempted += replay["units"]
    # exit 3: a reply of the traced pass differed from the untraced ones, or
    # the passes drained different numbers of units
    w.failed += max(replay["failed"], proc.returncode == 3)

    metrics = {}
    for name, (num, den, scale) in COUNTS.items():
        top = sum(delta.get(k, 0) for k in num)
        bottom = units if den is None else sum(delta.get(k, 0) for k in den)
        metrics[name] = scale * top / bottom if bottom else 0.0
    per_unit = max(replay["units"], 1)
    self_ms = replay["self_ms"]
    for layer, name in LAYERS.items():
        metrics[name] = self_ms.get(layer, 0.0) / per_unit
    sim_s = self_ms.get("sim", 0.0) / 1e3
    metrics["sim.minstr_per_host_s"] = (
        replay["sim_instructions"] / 1e6 / sim_s if sim_s else 0.0)
    # engine self time: every layer inside the engine calls
    engine = sum(ms for layer, ms in self_ms.items()
                 if layer not in ("request", "serve.decode", "serve.encode"))
    metrics["serve.engine_ms"] = replay["engine_ms"] / per_unit
    metrics["sim.engine_share"] = 100.0 * self_ms.get("sim", 0.0) / engine if engine else 0.0
    metrics["cluster.engine_share"] = (
        100.0 * self_ms.get("cluster", 0.0) / engine if engine else 0.0)
    metrics["par.cpu_util"] = cpu / (elapsed * workloads.THREADS)
    untraced = replay["untraced_engine_ms"]
    metrics["trace.overhead_pct"] = (
        100.0 * (replay["engine_ms"] - untraced) / untraced if untraced else 0.0)
    log("%s seed %d: counts over %d units, replay over %d units" %
        (cls.name, seed, units, replay["units"]))
    return w, {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}


def run_once(args):
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        raise workloads.Failure("unknown workload %r (have: %s)" %
                                (args.workload, ", ".join(workloads.WORKLOADS)))
    build()
    env = Env()
    try:
        if args.trace:
            w, metrics = run_traced(env, cls, args.seed)
        else:
            w, metrics = run_timed(env, cls, args.seed, args.seconds)
    finally:
        env.cleanup()
    result = {
        "correct": w.failed == 0,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


# ---- steadiness harness ------------------------------------------------------------

def repeat(args):
    names = list(workloads.WORKLOADS)
    values = {n: {} for n in names}
    failures = 0
    for i in range(args.repeat):
        seed = args.seed if args.same_seed else args.seed + i
        order = names if i % 2 == 0 else names[::-1]
        for name in order:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures += 1
                print("run %d %s seed %d: exit %d" % (i, name, seed, proc.returncode))
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                failures += 1
            for k, m in result["metrics"].items():
                values[name].setdefault(k, []).append(m["value"])
            print("run %d %s seed %d: correct=%s attempted=%d failed=%d" % (
                i, name, seed, result["correct"], result["attempted"], result["failed"]),
                flush=True)
    for name in names:
        print("\n%s (%d runs)" % (name, args.repeat))
        print("  %-26s %12s %12s %12s %12s %12s %8s %s" % (
            "metric", "median", "q1", "q3", "min", "max", "iqr/med", "exact"))
        for k, vs in values[name].items():
            if len(vs) >= 2:
                q1, med, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = med = q3 = vs[0]
            spread = (q3 - q1) / med if med else 0.0
            print("  %-26s %12.5g %12.5g %12.5g %12.5g %12.5g %7.2f%% %s" % (
                k, med, q1, q3, min(vs), max(vs), 100 * spread,
                "yes" if len(set(vs)) == 1 else "no"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--same-seed", action="store_true")
    args = ap.parse_args()
    try:
        if args.repeat:
            return repeat(args)
        if not args.workload:
            ap.error("--workload is required (or --repeat N)")
        return run_once(args)
    except (workloads.Failure, subprocess.CalledProcessError, OSError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
