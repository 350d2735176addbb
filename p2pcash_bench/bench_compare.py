#!/usr/bin/env python3
"""Compare two sets of p2pcash_bench results against BENCHMARK.json bounds.

Usage:
  bench_compare.py --base RESULTS_a1.json ... --head RESULTS_b1.json ...
                   [--benchmark BENCHMARK.json]
  bench_compare.py --self-test

Each input is a RESULTS_<workload>.json written by p2pcash_bench (k runs
per side, any mix of workloads).  Give both sides in the order they ran:
with k runs on each side the i-th base and i-th head run form a pair.  For
every workload and end-to-end metric it prints each side's median and
quartiles and a verdict:

  unresolved  a side's spread (quartile distance over median) is wider
              than the metric's bound, so the bound cannot be judged;
              unless every head run beats every base run (improved);
  regressed   the head median is worse than the base median by more than
              the bound;
  improved    the head run wins at least 9 in 10 pairs (every comparison
              when the sides differ in size) and the medians differ by
              more than the base runs' quartile distance;
  unchanged   otherwise.

Exits 1 when any metric regressed, 2 on usage or input errors, else 0.
"""

import argparse
import json
import os
import statistics
import sys

DEFAULT_BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, head, better, bound):
    """Returns (verdict, relative change of the median, worst spread)."""
    base_q1, base_med, base_q3 = quartiles(base)
    head_med = quartiles(head)[1]
    change = (head_med - base_med) / abs(base_med) if base_med else 0.0
    worse = change if better == "lower" else -change
    widest = max(spread(base), spread(head))

    def beats(h, b):
        return h < b if better == "lower" else h > b

    all_better = all(beats(h, b) for h in head for b in base)
    if widest > bound:
        return ("improved" if all_better else "unresolved"), change, widest
    if worse > bound:
        return "regressed", change, widest
    if len(base) == len(head):
        won = sum(beats(h, b) for h, b in zip(head, base)) >= 0.9 * len(base)
    else:
        won = all_better
    if won and worse < 0 and abs(head_med - base_med) > base_q3 - base_q1:
        return "improved", change, widest
    return "unchanged", change, widest


def load_runs(paths):
    """{workload: {metric: [values]}} from results files."""
    runs = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        per = runs.setdefault(doc["workload"], {})
        for name, m in doc["metrics"].items():
            if m.get("value") is not None:
                per.setdefault(name, []).append(float(m["value"]))
    return runs


def compare(base_runs, head_runs, metrics, out=sys.stdout):
    """Prints the table; returns the list of (workload, metric, verdict)."""
    rows = []
    header = (f"{'workload':<14} {'metric':<16} {'base q1/med/q3':>28} "
              f"{'head q1/med/q3':>28} {'change':>8} {'bound':>6}  verdict")
    print(header, file=out)
    for workload in sorted(set(base_runs) & set(head_runs)):
        for m in metrics:
            base = base_runs[workload].get(m["name"])
            head = head_runs[workload].get(m["name"])
            if not base or not head:
                continue
            v, change, _ = verdict(base, head, m["better"], m["bound"])
            bq = "/".join(f"{x:.4g}" for x in quartiles(base))
            hq = "/".join(f"{x:.4g}" for x in quartiles(head))
            print(f"{workload:<14} {m['name']:<16} {bq:>28} {hq:>28} "
                  f"{100 * change:>+7.1f}% {100 * m['bound']:>5.0f}%  {v}",
                  file=out)
            rows.append((workload, m["name"], v))
    return rows


def self_test():
    lower = {"name": "lat_ms", "better": "lower", "bound": 0.1}
    higher = {"name": "tput", "better": "higher", "bound": 0.1}
    steady = [10.0, 10.1, 9.9, 10.05, 9.95]
    cases = [
        ("same numbers are unchanged", lower, steady, steady, "unchanged"),
        ("20% slower is a regression", lower, steady,
         [x * 1.2 for x in steady], "regressed"),
        ("5% slower stays within the bound", lower, steady,
         [x * 1.05 for x in steady], "unchanged"),
        ("15% faster is an improvement", lower, steady,
         [x * 0.85 for x in steady], "improved"),
        ("throughput falling 20% is a regression", higher, steady,
         [x * 0.8 for x in steady], "regressed"),
        ("noise wider than the bound is unresolved", lower,
         [5.0, 10.0, 15.0, 10.0, 12.0], [6.0, 11.0, 16.0, 10.5, 13.0],
         "unresolved"),
        ("wide noise but every head run better is improved", lower,
         [20.0, 26.0, 30.0, 24.0], [5.0, 7.0, 9.0, 6.0], "improved"),
        ("a shift that loses 1 pair in 5 is unchanged", lower, steady,
         [9.9, 9.6, 10.0, 9.7, 9.8], "unchanged"),
    ]
    failures = 0
    for desc, metric, base, head, expected in cases:
        got, _, _ = verdict(base, head, metric["better"], metric["bound"])
        if got != expected:
            failures += 1
            print(f"bench_compare: self-test FAILED: {desc}: expected "
                  f"{expected}, got {got}", file=sys.stderr)
    # End to end: the table flags exactly the regressed workload.
    base = {"w1": {"lat_ms": steady}, "w2": {"lat_ms": steady}}
    head = {"w1": {"lat_ms": steady}, "w2": {"lat_ms": [x * 1.3 for x in steady]}}
    with open(os.devnull, "w", encoding="utf-8") as sink:
        rows = compare(base, head, [lower], out=sink)
    if [r for r in rows if r[2] == "regressed"] != [("w2", "lat_ms", "regressed")]:
        failures += 1
        print("bench_compare: self-test FAILED: table verdicts", file=sys.stderr)
    total = len(cases) + 1
    print(f"bench_compare: self-test: {total - failures}/{total} "
          f"[{'FAIL' if failures else 'ok'}]")
    return 1 if failures else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Compare two sets of p2pcash_bench results.")
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--head", nargs="+", default=[])
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.base or not args.head:
        parser.print_usage(sys.stderr)
        return 2
    try:
        with open(args.benchmark, encoding="utf-8") as f:
            metrics = json.load(f)["end_to_end"]
        base_runs = load_runs(args.base)
        head_runs = load_runs(args.head)
    except (OSError, ValueError, KeyError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2
    rows = compare(base_runs, head_runs, metrics)
    if not rows:
        print("bench_compare: no workload/metric present on both sides",
              file=sys.stderr)
        return 2
    return 1 if any(v == "regressed" for _, _, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
