#!/usr/bin/env python3
"""Gate perfbench's exact work counts against a committed record.

For each workload this runs

  python3 perfbench/run.py --workload W --seed 1 --trace 1

which replays the workload's fixed counted request stream once (a traced
run does not read --seconds), and fails (exit 1) when the run reports
`correct: false`, when any request failed, or when a count-derived metric
(the COUNTS table of perfbench/run.py: k-means iterations, DTW cells,
cache hits, ... per unit) differs from results/perfbench_counts.json.
These counts are a function of the program and the seeded request stream
alone, so unlike the timings they can gate on any host. A change that
alters the work done re-records the file with --update and says why in
CHANGES.md.

  python3 tools/perfbench_counts.py                # check all workloads
  python3 tools/perfbench_counts.py --update       # re-record the file
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
RECORD = os.path.join(ROOT, "results", "perfbench_counts.json")
WORKLOADS = ["focused_sweep", "live_edit", "subset_jobs"]
SEED = 1

sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
sys.path.insert(0, PERFBENCH)
from run import COUNTS  # noqa: E402


def command(workload):
    return [sys.executable, os.path.join(PERFBENCH, "run.py"),
            "--workload", workload, "--seed", str(SEED), "--trace", "1"]


def run(workload):
    """The count-derived metrics of one traced run, or a list of problems."""
    proc = subprocess.run(command(workload), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, ["%s: perfbench exited %d" % (workload, proc.returncode)]
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"]:
        problems.append("%s: correct is false" % workload)
    if result["failed"]:
        problems.append("%s: %d failed requests" % (workload, result["failed"]))
    counts = {name: result["metrics"][name]["value"] for name in COUNTS}
    return counts, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--update", action="store_true",
                    help="write the measured counts to the record")
    args = ap.parse_args()

    record = {"workloads": {}}
    if os.path.exists(RECORD):
        with open(RECORD) as f:
            record = json.load(f)
    record["command"] = " ".join(
        ["python3", "perfbench/run.py", "--workload", "W", "--seed", str(SEED),
         "--trace", "1"])

    problems = []
    for workload in WORKLOADS:
        counts, found = run(workload)
        problems += found
        if counts is None:
            continue
        if args.update:
            record["workloads"][workload] = counts
            continue
        expected = record["workloads"].get(workload)
        if expected is None:
            problems.append("%s: no recorded counts in %s" % (workload, RECORD))
            continue
        for name in sorted(set(expected) | set(counts)):
            want, got = expected.get(name), counts.get(name)
            if want != got:
                problems.append("%s: %s is %r, recorded %r" %
                                (workload, name, got, want))
        print("%s: %d counts checked" % (workload, len(counts)), flush=True)

    if args.update and not problems:
        with open(RECORD, "w") as f:
            json.dump(record, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote %s" % os.path.relpath(RECORD, ROOT))
    for problem in problems:
        print("perfbench_counts: " + problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
