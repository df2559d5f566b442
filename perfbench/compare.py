"""Compare two sets of benchmark runs.

Each side is a results.jsonl file of run records as run.py appends
them.  For every workload and metric the comparison prints each side's
sample count, median and quartiles, the change of the median, and a
verdict against the metric's bound from BENCHMARK.json:

  worse         the median got worse by more than the bound
  better        the median improved by more than the wider side's spread
  within bound  neither
  unresolved    a side's spread (quartile distance over median) exceeds
                the bound, or a side has fewer than two runs, and the
                runs of the two sides overlap
  no bound      per-layer metrics, which carry no bound
"""

import json
import statistics


def load_runs(path):
    with open(path, encoding="ascii") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return float("inf")
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(before, after, better, bound):
    if bound is None:
        return "no bound"
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(before)
    worse_by = sign * (statistics.median(after) - base) / abs(base)
    wide = max(spread(before), spread(after))
    if wide > bound:
        if all(sign * a < sign * b for a in after for b in before):
            return "better"
        if all(sign * a > sign * b for a in after for b in before):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > wide:
        return "better"
    return "within bound"


def _samples(runs):
    """{(workload, metric): [values]} and {workload: [attempted, failed]}."""
    values = {}
    failures = {}
    for run in runs:
        counts = failures.setdefault(run["workload"], [0, 0])
        counts[0] += run["attempted"]
        counts[1] += run["failed"]
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values, failures


def compare(before_path, after_path, benchmark_path):
    with open(benchmark_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    rules = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    before, before_failures = _samples(load_runs(before_path))
    after, after_failures = _samples(load_runs(after_path))

    print("workload,metric,n_before,q1_before,median_before,q3_before,"
          "n_after,q1_after,median_after,q3_after,change,verdict")
    for key in sorted(set(before) & set(after)):
        workload, name = key
        better, bound = rules.get(name, ("lower", None))
        b, a = before[key], after[key]
        qb, qa = quartiles(b), quartiles(a)
        change = (qa[1] - qb[1]) / abs(qb[1]) if qb[1] else float("nan")
        print(f"{workload},{name},{len(b)},{qb[0]:.6g},{qb[1]:.6g},{qb[2]:.6g},"
              f"{len(a)},{qa[0]:.6g},{qa[1]:.6g},{qa[2]:.6g},{change:+.2%},"
              f"{verdict(b, a, better, bound)}")
    for workload in sorted(set(before_failures) | set(after_failures)):
        b = before_failures.get(workload, [0, 0])
        a = after_failures.get(workload, [0, 0])
        print(f"# {workload}: failed {b[1]}/{b[0]} before, {a[1]}/{a[0]} after")
    return 0
