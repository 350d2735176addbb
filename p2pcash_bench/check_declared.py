#!/usr/bin/env python3
"""Run p2pcash_bench and check its output against BENCHMARK.json.

Usage:
  check_declared.py BENCHMARK.json [--trace] [--all] -- COMMAND [ARGS...]

Runs COMMAND (a p2pcash_bench invocation), echoes its output, and fails
unless it exits 0 (every gate passed) and, for every workload it ran,
every metric BENCHMARK.json declares (end_to_end, or per_layer with
--trace) is printed exactly once as `name workload value unit` and the
run's JSON summary carries exactly those metrics.  With --all the runs
must cover every declared workload.
"""

import json
import subprocess
import sys


def main(argv):
    if "--" not in argv or not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    split = argv.index("--")
    opts, command = argv[:split], argv[split + 1:]
    benchmark = [o for o in opts if not o.startswith("--")]
    if len(benchmark) != 1 or not command:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(benchmark[0], encoding="utf-8") as f:
        spec = json.load(f)
    declared = [m["name"] for m in
                spec["per_layer" if "--trace" in opts else "end_to_end"]]

    proc = subprocess.run(command, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    errors = []
    if proc.returncode != 0:
        errors.append(f"benchmark exited {proc.returncode}")

    lines = proc.stdout.splitlines()
    ran = [ln.split("workload=", 1)[1].split()[0] for ln in lines
           if ln.startswith("p2pcash_bench workload=")]
    if not ran:
        errors.append("no workload ran")
    if "--all" in opts:
        missing = {w["name"] for w in spec["workloads"]} - set(ran)
        if missing:
            errors.append(f"workloads not run: {sorted(missing)}")
    for workload in ran:
        for name in declared:
            count = sum(1 for ln in lines
                        if ln.split()[:2] == [name, workload])
            if count != 1:
                errors.append(f"{workload}: {name} printed {count} times")
    summaries = [json.loads(ln) for ln in lines if ln.startswith("{")]
    if len(summaries) != len(ran):
        errors.append(f"{len(summaries)} JSON summaries for {len(ran)} runs")
    for summary in summaries:
        if sorted(summary.get("metrics", {})) != sorted(declared):
            errors.append("JSON summary metrics differ from the declared list")
        if summary.get("correct") is not True:
            errors.append("JSON summary reports correct=false")

    for e in errors:
        print(f"check_declared: {e}", file=sys.stderr)
    print(f"check_declared: {len(ran)} run(s), {len(declared)} declared "
          f"metrics, {len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
