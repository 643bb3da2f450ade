#!/usr/bin/env python3
"""Run one BITSPEC benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload paper-eval|fuzz|serve|campaign \
        --seed N --seconds S --trace 0|1 [--items N] [bsbench.exe options]

Run from the root of a checkout.  The script builds perfbench/bsbench.exe
with dune, then, with every process it runs pinned to one CPU:

  * untraced (--trace 0): runs the set-up alone in SETUP_REPEATS - 1 fresh
    processes, then the full workload in one more, and reports the median
    set-up time beside the end-to-end metrics of the full run, every
    timing scaled to the reference host's speed by the calibration slices
    bsbench.exe interleaves with its work;
  * traced (--trace 1): runs the workload once with spans on and reports
    the per-layer metrics; the tracing overhead is stated against the
    untraced runs recorded in this checkout.

Every run's deterministic counts are recorded under .bench_build/ and a
later run of the same build on the same inputs that disagrees fails
loudly.  The last line
of standard output is {"correct", "attempted", "failed", "metrics"}.
Exit status 0 on a completed run, 1 on a failed invariant or a crashed
run, 2 when the benchmark cannot be built here.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bsbench.exe")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_REPEATS = 3
DEADLINE_S = 170.0


def fail(code, msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def build(deadline):
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail(2, "no dune-project at %s: not a BITSPEC checkout" % ROOT)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bsbench.exe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=max(1.0, deadline - time.time()))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(2, "build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stdout)
        fail(2, "build failed (dune exit %d)" % r.returncode)


def pin():
    """Keep the benchmark process on one CPU: its items and the
    calibration slices that scale them then share one CPU's host speed."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_exe(args, deadline):
    """Run bsbench.exe; return (spawn time, exit code, stdout lines)."""
    t0 = time.time()
    try:
        r = subprocess.run(
            [EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, preexec_fn=pin,
            timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail(1, "bsbench.exe %s timed out" % " ".join(args))
    sys.stderr.write(r.stderr)
    return t0, r.returncode, r.stdout.splitlines()


def last_json(lines):
    for line in reversed(lines):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def check_exact(key, exact):
    """Compare this run's deterministic counts with earlier runs of the
    same build on the same inputs; return a list of disagreements."""
    path = os.path.join(OUT, "exact-%s.json" % key)
    seen = {}
    if os.path.isfile(path):
        with open(path) as f:
            seen = json.load(f)
    problems = ["%s: %s here, %s in an earlier run" % (k, exact[k], v)
                for k, v in sorted(seen.items())
                if k in exact and exact[k] != v]
    # traced runs add counts the untraced runs do not take
    if not problems and any(k not in seen for k in exact):
        seen.update(exact)
        with open(path, "w") as f:
            json.dump(seen, f, sort_keys=True)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper-eval", "fuzz", "serve", "campaign"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--items", type=int)
    args, extra = ap.parse_known_args()

    # the first run in a checkout builds (a few minutes at most); every
    # run measures within DEADLINE_S of its build check
    build(time.time() + 700.0)
    deadline = time.time() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--out", OUT] + extra
    if args.items is not None:
        common += ["--items", str(args.items)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            t0, code, lines = run_exe(common + ["--setup-only"], deadline)
            ready = last_json(lines)
            if code != 0 or ready is None:
                sys.stdout.write("\n".join(lines) + "\n")
                fail(1, "set-up failed (exit %d)" % code)
            setups.append((ready["ready"] - t0) * ready["setup_scale"])

    t0, code, lines = run_exe(common + ["--trace", str(args.trace)], deadline)
    res = last_json(lines)
    for line in lines[:-1]:
        print(line)
    if res is None or "metrics" not in res:
        fail(1, "bsbench.exe exited %d without a result" % code)
    setups.append((res["ready"] - t0) * res["setup_scale"])

    with open(EXE, "rb") as f:
        build_id = hashlib.md5(f.read()).hexdigest()[:12]
    size = ["s%d" % args.seconds] + (
        [] if args.items is None else ["n%d" % args.items])
    # the workload names its input set: seeds that only reorder the same
    # inputs share one record, so their counts are compared too
    problems = check_exact(
        "-".join([args.workload, build_id] + size + [res["inputs"]]),
        res["exact"])
    for p in problems:
        print("INVARIANT VIOLATED: exact count %s" % p)

    history = os.path.join(
        OUT, "untraced-%s.txt" % "-".join([args.workload, build_id] + size))
    if args.trace:
        metrics = res["metrics"]
        ips = []
        if os.path.isfile(history):
            with open(history) as f:
                ips = [float(x) for x in f.read().split()]
        if ips:
            base = statistics.median(ips)
            print("tracing overhead: %.3f items/s traced vs %.3f untraced "
                  "(median of %d runs here): %+.1f%%"
                  % (res["items_per_s"], base, len(ips),
                     100.0 * (base / res["items_per_s"] - 1.0)))
        else:
            print("tracing overhead: no untraced run recorded in this "
                  "checkout yet (traced %.3f items/s)" % res["items_per_s"])
    else:
        with open(history, "a") as f:
            f.write("%r\n" % res["items_per_s"])
        print("setup_s runs (host-scaled): %s"
              % ", ".join("%.4f" % s for s in setups))
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        metrics.update(res["metrics"])

    correct = bool(res["correct"]) and code == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    sys.exit(0 if code == 0 and not problems else 1)


if __name__ == "__main__":
    main()
