"""The three perfbench workloads, driven closed-loop over one stdio
connection to a real `perspector serve --stdio` process.

Each workload class has the same shape:

  setup()           launch the server and warm it up (timed as setup_s)
  timed(seconds)    the measured closed loop; returns foreground latencies,
                    completed units, attempted/failed ops
  counted()         a fixed-length prefix of the same stream, for exact
                    per-unit work counts from the server's `metrics` op
  check()           output checks, outside any timed phase
  replay_stream()   the request lines the in-process traced run replays

A unit is what ops_per_s counts: a score request (focused_sweep), a
mutation (live_edit) or a drained job (subset_jobs).
"""

import json
import os
import re
import subprocess
import time

import gen

class Failure(Exception):
    """The server or a check broke; the run prints no result."""


# ---- the server process -------------------------------------------------------

class Server:
    def __init__(self, binary, args, cpus, log_path):
        self.log = open(log_path, "ab")
        preexec = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "serve", "--stdio"] + args, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self.log, text=True, bufsize=1,
            preexec_fn=preexec)

    def call(self, line):
        """One round trip: returns (raw response line, parsed, seconds)."""
        t0 = time.perf_counter()
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        raw = self.proc.stdout.readline()
        dt = time.perf_counter() - t0
        if not raw:
            raise Failure("server exited (see %s)" % self.log.name)
        return raw, json.loads(raw), dt

    def request(self, obj):
        return self.call(gen.line(obj))[1]

    def pids(self):
        """The server and any worker processes it forked."""
        out, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            out.append(pid)
            try:
                with open("/proc/%d/task/%d/children" % (pid, pid)) as f:
                    todo += [int(p) for p in f.read().split()]
            except OSError:
                pass
        return out

    def cpu_seconds(self):
        """CPU time of every thread of every server process, in ns
        resolution from schedstat (utime/stime ticks are 10 ms, too coarse
        for one window of a run). Threads live as long as their process
        here, so no thread's time is lost between two reads."""
        total = 0
        for pid in self.pids():
            try:
                for tid in os.listdir("/proc/%d/task" % pid):
                    with open("/proc/%d/task/%s/schedstat" % (pid, tid)) as f:
                        total += int(f.read().split()[0])
            except OSError:
                pass
        return total / 1e9

    def peak_rss_mb(self):
        peak = 0
        for pid in self.pids():
            try:
                with open("/proc/%d/status" % pid) as f:
                    for row in f:
                        if row.startswith("VmHWM:"):
                            peak = max(peak, int(row.split()[1]))
            except OSError:
                pass
        return peak / 1024.0

    def counters(self):
        return self.request({"id": "metrics", "op": "metrics"})["counters"]

    def close(self):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def counter_delta(before, after):
    return {k: after.get(k, 0) - before.get(k, 0) for k in after}


def is_error(resp):
    return not resp.get("ok", False)


# Server scoring threads on every workload (the benchmark client takes a third CPU);
# the traced replay runs its in-process engine with the same count.
THREADS = 2


class Workload:
    name = ""

    def __init__(self, env, seed):
        self.env = env
        self.seed = seed
        self.server = None
        self.failed = 0
        self.attempted = 0

    def server_args(self):
        return ["--threads", str(THREADS)]

    def launch(self):
        return Server(self.env.perspector, self.server_args(),
                      self.env.server_cpus, self.env.log_path)

    def setup(self):
        """Launch + warm-up; returns its wall seconds. Leaves the server up."""
        self.server = self.launch()
        self.warm_up()
        return time.perf_counter() - self.server.started

    def close(self):
        if self.server:
            self.server.close()
            self.server = None

    def windows(self, seconds, ops, one):
        """Runs `one` in windows of `ops` requests. The number of windows is
        fixed by `seconds` and the workload's RATE (units per second on a
        4-vCPU Xeon at the commit that introduced the benchmark), so every
        run does the same work whatever the program's speed: the live
        suite's growth and the server's memory then do not depend on how
        many ops fit in the time. Returns the latencies and
        (units, wall s, server CPU s) per window."""
        lat, out = [], []
        for _ in range(max(2, round(seconds * self.RATE / ops))):
            w0, c0 = time.perf_counter(), self.server.cpu_seconds()
            for _ in range(ops):
                lat.append(one())
            out.append((ops, time.perf_counter() - w0, self.server.cpu_seconds() - c0))
        return lat, out

    def note(self, resp):
        self.attempted += 1
        if is_error(resp):
            self.failed += 1
            return False
        return True


# ---- focused_sweep -------------------------------------------------------------

class FocusedSweep(Workload):
    """The paper's focused scoring (IV-B): nine built-in suites, events-major,
    fresh budgets so every request re-simulates (nine suites cycle through
    the engine's four resident-suite slots)."""

    name = "focused_sweep"
    RATE = 7.5
    CHECKS = 4

    def warm_up(self):
        for i, (suite, budget, events) in enumerate(gen.sweep_warmup()):
            if not self.note(self.server.request(
                    {"id": "warm%d" % i, "op": "score", "suite": suite,
                     "instructions": budget, "events": events})):
                raise Failure("warm-up request failed")
        self.k = 0
        self.reports = {}

    def one(self):
        suite, budget, events = gen.sweep_request(self.seed, self.k)
        _, resp, dt = self.server.call(
            gen.score_line("r%d" % self.k, suite, budget, events))
        if self.note(resp):
            self.reports[self.k] = resp["report"]
        self.k += 1
        return dt

    def timed(self, seconds):
        # A window is one pass over the nine suites: every window has the
        # same op mix, and simulate (~97% of the work) costs the same under
        # every event group.
        return self.windows(seconds, gen.SWEEP_PASS, self.one)

    def counted(self):
        for _ in range(gen.SWEEP_ROUND):
            self.one()
        return gen.SWEEP_ROUND

    def check(self):
        rng = gen.Rng(self.seed, 6)
        done = sorted(self.reports)
        picks = sorted({done[rng.below(len(done))] for _ in range(self.CHECKS)})
        wanted = [gen.sweep_request(self.seed, k) for k in picks]
        stdin = "".join("%s %d %s\n" % w for w in wanted)
        out = subprocess.run([self.env.probe, "reference"], input=stdin.encode(),
                             stdout=subprocess.PIPE, check=True,
                             preexec_fn=self.env.pin_checks).stdout
        mismatches, pos = 0, 0
        for k in picks:
            nl = out.index(b"\n", pos)
            size = int(out[pos:nl])
            ref = out[nl + 1:nl + 1 + size].decode()
            pos = nl + 1 + size
            if ref != self.reports[k]:
                mismatches += 1
        return mismatches, len(picks)

    def replay_stream(self):
        return [gen.score_line("r%d" % k, *gen.sweep_request(self.seed, k))
                for k in range(gen.SWEEP_ROUND)]


# ---- live_edit -----------------------------------------------------------------

class LiveEdit(Workload):
    """A resident suite under live mutation: sim idle, cluster_score and
    ScoringWorkspace delta upserts busy, CSV payload decode on every op."""

    name = "live_edit"
    RATE = 23.0
    COUNTED = 80  # ten mutation cycles
    REPLAYED = 40

    def warm_up(self):
        self.model = gen.LiveSuite(self.seed)
        self.k = 0
        self.last_report = None
        for i, m in enumerate([self.model.load()] + self.model.warmup()):
            resp = self.server.request(dict({"id": "warm%d" % i}, **m))
            if not self.note(resp):
                raise Failure("warm-up mutation failed: %s" % resp.get("message"))
            self.last_report = resp["report"]

    def one(self):
        m = self.model.mutation(self.k)
        _, resp, dt = self.server.call(gen.with_id("m%d" % self.k, m))
        if self.note(resp):
            self.last_report = resp["report"]
        self.k += 1
        return dt

    def timed(self, seconds):
        # A window is four mutation cycles (~1.4 s), long enough that one
        # window's CPU time is not dominated by a single slow op.
        return self.windows(seconds, 4 * len(gen.LIVE_CYCLE), self.one)

    def counted(self):
        for _ in range(self.COUNTED):
            self.one()
        return self.COUNTED

    def check(self):
        """The final state's report must equal a cold inline-CSV score of
        the same content on a fresh server."""
        cold = self.launch()
        try:
            resp = cold.request(dict({"id": "cold"}, **self.model.cold_score()))
        finally:
            cold.close()
        if is_error(resp):
            return 1, 1
        return int(resp["report"] != self.last_report), 1

    def replay_stream(self):
        model = gen.LiveSuite(self.seed)
        lines = [gen.with_id("load", model.load())]
        lines += [gen.with_id("warm%d" % i, m) for i, m in enumerate(model.warmup())]
        lines += [gen.with_id("m%d" % k, model.mutation(k))
                  for k in range(self.REPLAYED)]
        return lines


# ---- subset_jobs -----------------------------------------------------------------

BEST_RE = re.compile(r'"best":\{.*?"deviation_pct":([-0-9.eE+]+).*?"subset":(\[[^\]]*\])')


class SubsetJobs(Workload):
    """The paper's SPEC'17 43->8 LHS subset search as async jobs: the only
    workload that runs jobs, store checkpoints and sampling.

    The jobs run in the server's own scheduler on two threads. Behind the
    router they would run in single-threaded workers: with two workers the
    hash split of each batch (2/2, 3/1, 4/0 by seed) set its drain time, and
    with one worker every number followed the speed of the one vCPU it ran
    on, which on a shared host swings by ~40% for tens of seconds."""

    name = "subset_jobs"
    # Think time before each job_status poll: seeded, uniform in
    # [0, THINK_MAX_S). A poll waits for the scheduler's current slice of 8
    # candidates; with a fixed think time every poll would land at the same
    # point of a slice, the latencies would take a few discrete values, and
    # p50/p90 would flip between them from run to run. Random think times
    # sample the whole slice, as clients polling on their own clocks do.
    THINK_MAX_S = 0.2
    SLICE = 8  # candidates per scheduler step (the server's default)
    # Jobs per requested second, in batches of BATCH. A job drains in
    # ~1.25 s, so 20 s asks for 24 jobs in 6 batches, ~30 s of draining and
    # ~110 foreground requests (a request waits for the current slice, so
    # requests ~ slices: four per job and one more per batch). Fewer would
    # leave p90 without ten samples beyond it.
    RATE = 1.2
    BATCH = 4
    COUNTED = 8
    REPLAYED = 3
    CHECKS = 2

    def server_args(self):
        return super().server_args() + ["--jobs-dir", self.jobs_dir]

    def launch(self):
        self.jobs_dir = self.env.fresh_tmp("jobs")
        return super().launch()

    def warm_up(self):
        """One short job (8 candidates) with a seed the timed phase never
        uses: simulate, prime, candidates and both checkpoint kinds."""
        self.seeds = gen.JobSeeds(self.seed)
        self.done = {}  # job id -> (job seed, raw final status line)
        spec = dict(gen.job_spec(self.seeds.warm, 0), candidates=8, id="warm")
        resp = self.server.request(spec)
        if not self.note(resp):
            raise Failure("warm-up submit failed: %s" % resp.get("message"))
        while True:
            state = self.server.request(
                {"id": "ws", "op": "job_status", "job": resp["job"]}).get("state")
            if state not in ("queued", "running"):
                break
            time.sleep(0.01)
        if state != "done":
            raise Failure("warm-up job ended %s" % state)
        self.think = gen.Rng(self.seed, 8)

    def drain(self, count, lat):
        """Submits `count` jobs at once, then polls their job_status in turn
        until every one is terminal. Returns the jobs that ended `done`; a
        job that ends otherwise is a failed op.

        The server runs job slices whenever no request is pending, so a think
        time only costs the server idle time once every job is done and the
        client has not yet seen it. Once every job in flight is in its last
        slice, the client therefore polls back to back, and it returns at the
        reply that shows the last job terminal: the batch's wall time ends
        within one round trip of the server's last slice."""
        inflight, left = {}, {}
        for k in range(count):
            s = self.seeds.next()
            _, resp, dt = self.server.call(gen.line(dict({"id": "j%d" % k}, **gen.job_spec(s, k))))
            lat.append(dt)
            if self.note(resp):
                inflight[resp["job"]] = s
                left[resp["job"]] = gen.JOB_CANDIDATES
        drained = 0
        while inflight:
            for job in list(inflight):
                raw, resp, dt = self.server.call(gen.line(
                    {"id": "s", "op": "job_status", "job": job}))
                lat.append(dt)
                if not self.note(resp):
                    del inflight[job]
                elif resp["state"] not in ("queued", "running"):
                    if resp["state"] == "done":
                        self.done[job] = (inflight[job], raw)
                        drained += 1
                    else:
                        self.failed += 1
                    del inflight[job]
                else:
                    left[job] = resp["total"] - resp["evaluated"]
                if inflight and any(left[j] > self.SLICE for j in inflight):
                    time.sleep(self.think.uniform() * self.THINK_MAX_S)
        return drained

    def timed(self, seconds):
        # A window is one batch: submitted at once, drained completely.
        lat, out = [], []
        batches = max(3, round(self.RATE * seconds / self.BATCH))
        for _ in range(batches):
            w0, c0 = time.perf_counter(), self.server.cpu_seconds()
            drained = self.drain(self.BATCH, lat)
            out.append((drained, time.perf_counter() - w0, self.server.cpu_seconds() - c0))
        return lat, out

    def counted(self):
        return self.drain(self.COUNTED, [])

    def check(self):
        """Sampled jobs must match `perspector subset --search scored`."""
        rng = gen.Rng(self.seed, 7)
        ids = sorted(self.done)
        picks = sorted({ids[rng.below(len(ids))] for _ in range(self.CHECKS)})
        mismatches = 0
        for job in picks:
            seed, raw = self.done[job]
            m = BEST_RE.search(raw)
            served = None
            if m:
                served = "subset: %s\ndeviation_pct: %.17g\n" % (
                    " ".join(json.loads(m.group(2))), float(m.group(1)))
            ref = subprocess.run(
                [self.env.perspector, "subset", "--search", "scored",
                 "--suite", gen.JOB_SUITE, "--instructions", str(gen.JOB_INSTRUCTIONS),
                 "--size", str(gen.JOB_SIZE), "--candidates", str(gen.JOB_CANDIDATES),
                 "--seed", str(seed), "--threads", "2"],
                stdout=subprocess.PIPE, check=True, text=True,
                preexec_fn=self.env.pin_checks).stdout
            mismatches += int(ref != served)
        return mismatches, len(picks)

    def replay_stream(self):
        seeds = gen.JobSeeds(self.seed)
        return [gen.with_id("j%d" % k, gen.job_spec(seeds.next(), k))
                for k in range(self.REPLAYED)]


WORKLOADS = {w.name: w for w in (FocusedSweep, LiveEdit, SubsetJobs)}
