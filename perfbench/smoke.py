#!/usr/bin/env python3
"""Smoke test of the BITSPEC benchmark.

    python3 perfbench/smoke.py             # every workload at a handful of items
    python3 perfbench/smoke.py --held-out  # also full runs on the held-out seeds

Runs each workload through run.py untraced and traced and checks that
the result line has exactly the keys {correct, attempted, failed,
metrics}, that it names every metric BENCHMARK.json lists (end-to-end
untraced, per-layer traced) with its unit, and that no item failed.  The
campaign run also checks its verdicts against Campaign.run and
Campaign.run_power on the same seeds.  Exits 1 on the first problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT = ["--seed", "7919", "--plan-seed", "7919", "--fault-seed", "7919",
            "--power-seed", "7919"]
SMALL = {"paper-eval": 20, "serve": 12, "campaign": 12, "fuzz": 6}


def run(workload, trace, extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--trace", str(trace)] + extra
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        sys.exit("smoke: %s exited %d" % (" ".join(cmd), r.returncode))
    return json.loads(lines[-1]), lines


def check(workload, trace, res, expected):
    where = "%s --trace %d" % (workload, trace)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("smoke: %s: result keys %s" % (where, sorted(res)))
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        sys.exit("smoke: %s: correct=%s failed=%s attempted=%s"
                 % (where, res["correct"], res["failed"], res["attempted"]))
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != expected:
        sys.exit("smoke: %s: metrics %s, expected %s" % (where, got, expected))
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            sys.exit("smoke: %s: %s is not a number" % (where, k))


def main():
    held_out = "--held-out" in sys.argv[1:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    listed = [w["name"] for w in bench["workloads"]]
    for w in listed + [w for w in SMALL if w not in listed]:
        extra = ["--seed", "1", "--seconds", "1", "--items", str(SMALL[w])]
        if w == "campaign":
            extra.append("--verify-campaign")
        for trace, expected in ((0, e2e), (1, layer)):
            res, lines = run(w, trace, extra)
            check(w, trace, res, expected)
            if w == "campaign" and not any(
                    l.startswith("campaign cross-check: verdicts equal")
                    for l in lines):
                sys.exit("smoke: campaign verdicts differ from Campaign.run")
        print("smoke: %s ok" % w)
    if held_out:
        for w in listed:
            extra = ["--seconds", str(bench["run_seconds"])] + HELD_OUT
            res, _ = run(w, 0, extra)
            check(w, 0, res, e2e)
            print("smoke: %s held-out seeds: %d items, 0 failed"
                  % (w, res["attempted"]))


if __name__ == "__main__":
    main()
