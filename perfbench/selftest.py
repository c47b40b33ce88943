#!/usr/bin/env python3
"""Benchmark self-test.

Runs every workload of BENCHMARK.json briefly, twice untraced and twice
traced, with one seed, and checks that:

* the last line is the result object, `correct` is true and no
  operation failed;
* every end-to-end metric (untraced) and every per-layer metric (traced)
  is present with its declared unit, and nothing else is;
* the `run <id> events=<n> checksum=<c>` lines repeat exactly between
  the two untraced runs, and the traced run reproduces the untraced
  run's first grid;
* the deterministic per-layer counts repeat exactly between the two
  traced runs.

Run from the repository root: `python3 perfbench/selftest.py [SECONDS]`.
Exits 0 when every check passes.
"""

import json
import subprocess
import sys

SEED = 7
# Per-layer counts that depend only on the seed, never on timing.
DETERMINISTIC = ["pdes.events", "pdes.peak_queue_depth", "stream.slices"]


def run(bench, workload, seconds, trace):
    args = bench["command"] + [
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    runs = [l for l in lines if l.startswith("run ")]
    return p.returncode, result, runs


def main():
    seconds = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    bench = json.load(open("BENCHMARK.json"))
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in [wl["name"] for wl in bench["workloads"]]:
        got = {}
        for trace in (0, 1):
            for rep in (0, 1):
                code, result, runs = run(bench, w, seconds, trace)
                tag = f"{w} trace={trace} run {rep}"
                check(code == 0, f"{tag}: exit code {code}")
                check(set(result) == {"correct", "attempted", "failed", "metrics"},
                      f"{tag}: result keys {sorted(result)}")
                check(result.get("correct") is True and result.get("failed") == 0,
                      f"{tag}: correct with no failed operation")
                metrics = result.get("metrics", {})
                units = {k: v.get("unit") for k, v in metrics.items()}
                check(units == declared[trace], f"{tag}: metric names and units as declared")
                got[(trace, rep)] = (runs, metrics)
        (a, _), (b, _) = got[(0, 0)], got[(0, 1)]
        check(a == b and len(a) > 0, f"{w}: run events and checksums repeat ({len(a)} runs)")
        first = got[(1, 0)][0]
        check(first[: len(a)] == a or a[: len(first)] == first,
              f"{w}: traced run reproduces the untraced grid")
        for name in DETERMINISTIC:
            x = got[(1, 0)][1].get(name, {}).get("value")
            y = got[(1, 1)][1].get(name, {}).get("value")
            check(x == y, f"{w}: {name} repeats ({x} vs {y})")
    print(f"self-test: {len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
