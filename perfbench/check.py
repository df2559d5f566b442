"""Output checks behind the benchmark's `failed` count.

A row counts as failed when it is an error row (`error=` in its flags),
carries a `fail` verdict, lacks a verdict the workload requires, or
disagrees with the stored reference output for the seed.

Reference outputs live in `references/<output>-seed<seed>.csv`; only
the default seed, 0, has them.  A reference row must be present with
the same key fields, and its value must satisfy

    |value - reference| <= RTOL * |reference| + ATOL,

except that a row the reference marks `lower-bound` may rise without
limit: a better estimator may only raise a certified lower bound.
Seeds without references get the flag checks alone.
"""

import math
import os

RTOL = 1e-6
ATOL = 1e-9

# columns that identify a row; `symbol` comes from the `symbol=` flag
KEYS = {
    "identity": ("experiment", "N", "method"),
    "embedding": ("experiment", "p", "q", "s", "N", "seed", "method", "symbol"),
    # the method column names the estimator, which may change
    "threshold": ("experiment", "p", "s", "N", "N_modes", "seed"),
    "symbol-files": ("command", "kind", "N", "p", "record", "alpha", "beta"),
}

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")


def parse_rows(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        row = dict(zip(header, line.split(",")))
        tokens = row["flags"].split(";") if row["flags"] else []
        row["tokens"] = tokens
        row["symbol"] = next((t[7:] for t in tokens if t.startswith("symbol=")), "")
        rows.append(row)
    return rows


def reference_path(output, seed):
    return os.path.join(REFERENCE_DIR, f"{output}-seed{seed}.csv")


def load_reference(output, seed):
    path = reference_path(output, seed)
    if not os.path.exists(path):
        return None
    with open(path, encoding="ascii") as fh:
        return fh.read()


def _value(text):
    return math.nan if text == "" else float(text)


def value_matches(value, reference, lower_bound):
    if math.isnan(reference):
        return math.isnan(value)
    slack = RTOL * abs(reference) + ATOL
    if lower_bound:
        return value >= reference - slack
    return abs(value - reference) <= slack


def _row_problem(output, row):
    tokens = row["tokens"]
    if any(t.startswith("error=") for t in tokens):
        return "error row"
    if "fail" in tokens:
        return "fail verdict"
    if output == "identity" and "pass" not in tokens:
        return "identity row without a pass verdict"
    if output == "embedding" and "predicate=true" in tokens and "pass" not in tokens:
        return "embedding predicate holds but the row does not pass"
    return None


def check_output(output, text, reference_text=None):
    """Check one pass's CSV.  Returns (attempted, failed, problems): rows
    checked (plus reference rows missing from the output), rows that
    failed, and one message per failure found."""
    rows = parse_rows(text)
    keys = KEYS[output]
    problems = {}  # row id -> messages, so a row fails once however often it is flagged
    for row in rows:
        problem = _row_problem(output, row)
        if problem:
            problems.setdefault(id(row), []).append(f"{problem}: {_describe(keys, row)}")
    attempted = len(rows)
    if reference_text is not None:
        by_key = {tuple(row[k] for k in keys): row for row in rows}
        for ref in parse_rows(reference_text):
            row = by_key.get(tuple(ref[k] for k in keys))
            if row is None:
                attempted += 1
                problems.setdefault(id(ref), []).append(
                    f"missing reference row: {_describe(keys, ref)}"
                )
                continue
            lower = "lower-bound" in ref["tokens"]
            if not value_matches(_value(row["value"]), _value(ref["value"]), lower):
                problems.setdefault(id(row), []).append(
                    f"value {row['value']} vs reference {ref['value']}: {_describe(keys, row)}"
                )
    messages = [m for found in problems.values() for m in found]
    return attempted, len(problems), messages


def _describe(keys, row):
    return ",".join(f"{k}={row[k]}" for k in keys if row[k])
