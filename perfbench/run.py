"""modop's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BEFORE.jsonl AFTER.jsonl

Run from the root of a checkout; the package is imported from the
checkout's own src/.  With --trace 0 the run repeats untraced passes of
the workload for about S seconds and reports the end-to-end metrics.
With --trace 1 it runs each segment of a pass untraced and then traced,
and reports the per-layer metrics taken from the traced runs' spans.
Every pass's output is checked (see check.py).  The last line of stdout is the
result as one JSON object; the full record, with samples and machine
metadata, is appended to .perfbench_out/results.jsonl, and a traced
run's spans go to .perfbench_out/spans-<workload>-seed<seed>.jsonl.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 9
BYTES_NOTE = "*_bytes_computed values are computed from array sizes, not measured"

sys.path.insert(0, HERE)

import check  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, run_segment  # noqa: E402


class BenchError(Exception):
    pass


def load_modop():
    """Import modop from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "modop", "__init__.py")):
        raise BenchError(f"no modop package under {os.path.relpath(src)}")
    sys.path.insert(0, src)
    import modop
    import modop.cli  # noqa: F401 - the symbol-file workload and the tracer need it

    if os.path.dirname(os.path.dirname(os.path.abspath(modop.__file__))) != src:
        raise BenchError("modop was imported from outside this checkout")
    return modop


# ----------------------------------------------------------------------
# metrics

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, better); the layer each one reads is its name up to the
# last dot, and README.md maps each to the end-to-end metric it moves.
# Layer times are shares of the traced wall time: a share does not swing
# with the host's speed the way seconds do, and a layer the workload
# never calls reads 0.
PER_LAYER = (
    ("analysis.sjostrand_norm.calls", "count", "lower"),
    ("analysis.sjostrand_norm.self_share", "ratio", "lower"),
    ("analysis.sjostrand_norm.total_share", "ratio", "lower"),
    ("analysis.norms.self_share", "ratio", "lower"),
    ("analysis.stft.calls", "count", "lower"),
    ("analysis.stft.self_share", "ratio", "lower"),
    ("analysis.stft.total_share", "ratio", "lower"),
    ("analysis.stft.bytes_computed", "B", "lower"),
    ("exponents.power_mean.calls", "count", "lower"),
    ("exponents.power_mean.self_share", "ratio", "lower"),
    ("grid.ft.calls", "count", "lower"),
    ("grid.ft.self_share", "ratio", "lower"),
    ("grid.bessel_potential.self_share", "ratio", "lower"),
    ("quantize.kn_apply.calls", "count", "lower"),
    ("quantize.kn_apply.self_share", "ratio", "lower"),
    ("quantize.kn_apply.total_share", "ratio", "lower"),
    ("quantize.as_matrix.calls", "count", "lower"),
    ("quantize.as_matrix.self_share", "ratio", "lower"),
    ("quantize.as_matrix.bytes_computed", "B", "lower"),
    ("quantize.lift_symbol.self_share", "ratio", "lower"),
    ("quantize.u_transform.self_share", "ratio", "lower"),
    ("quantize.kernel.self_share", "ratio", "lower"),
    ("quantize.pss_io.self_share", "ratio", "lower"),
    ("quantize.pss_io.bytes", "B", "lower"),
    ("grid.sfn_io.self_share", "ratio", "lower"),
    ("grid.sfn_io.bytes", "B", "lower"),
    ("opnorm.norm_2.calls", "count", "lower"),
    ("opnorm.norm_2.self_share", "ratio", "lower"),
    ("opnorm.norm_2.iterations", "count", "lower"),
    ("opnorm.norm_2.matvec_bytes_computed", "B", "lower"),
    ("opnorm.norm_p.calls", "count", "lower"),
    ("opnorm.norm_p.self_share", "ratio", "lower"),
    ("opnorm.norm_p.iterations", "count", "lower"),
    ("opnorm.norm_p.restarts", "count", "lower"),
    ("opnorm.exact_norm.calls", "count", "lower"),
    ("opnorm.exact_norm.self_share", "ratio", "lower"),
    ("opnorm.lower_bound_share", "ratio", "lower"),
    ("symbols.build.self_share", "ratio", "lower"),
    ("symbols.s_seminorms.self_share", "ratio", "lower"),
    ("cli.main.self_share", "ratio", "lower"),
    ("experiments.worker_idle_s", "s", "lower"),
    ("experiments.task_inflation_jobs2", "ratio", "lower"),
    ("trace_overhead_share", "ratio", "lower"),
)


def layer_metrics(tracer, untraced_wall, traced_wall):
    totals = spans.layer_totals(tracer.spans)
    values = {}
    for name, _, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if layer in totals:
            if field in ("self_share", "total_share"):
                values[name] = totals[layer][field.replace("_share", "_s")] / traced_wall
            else:
                values[name] = totals[layer].get(field, 0)
    estimators = [totals.get(layer, {}) for layer in spans.LAYERS if layer.startswith("opnorm.")]
    estimates = sum(t.get("estimates", 0) for t in estimators)
    lower = sum(t.get("lower_bound", 0) for t in estimators)
    values["opnorm.lower_bound_share"] = lower / estimates if estimates else 0.0
    values["experiments.worker_idle_s"] = spans.worker_idle_s(tracer.spans)
    by_jobs = spans.task_seconds_by_jobs(tracer.spans)
    if 1 in by_jobs and 2 in by_jobs:
        values["experiments.task_inflation_jobs2"] = by_jobs[2] / by_jobs[1]
    values["trace_overhead_share"] = traced_wall / untraced_wall - 1.0
    return {name: values.get(name, 0) for name, _, _ in PER_LAYER}


# ----------------------------------------------------------------------
# metadata


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


# glibc's sysconf names for the unified cache sizes (bits/confname.h)
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


def _cache_sizes():
    """L2 and L3 sizes in bytes as the C library reports them, or {}."""
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return {}
    sysconf = libc.sysconf
    sysconf.argtypes = [ctypes.c_int]
    sysconf.restype = ctypes.c_long
    sizes = {"L2": sysconf(_SC_LEVEL2_CACHE_SIZE), "L3": sysconf(_SC_LEVEL3_CACHE_SIZE)}
    return {level: size for level, size in sizes.items() if size > 0}


def _blas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def metadata(seed):
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        # as found: the benchmark never sets the BLAS thread count
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": _git_sha(),
        "seed": seed,
        "caches": _cache_sizes(),
        "bytes_note": BYTES_NOTE,
    }


# ----------------------------------------------------------------------
# runs


class Tally:
    """Running count of checked rows and failures over a run's passes."""

    def __init__(self, seed):
        self.seed = seed
        self.references = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted, failed, problems):
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    def check_pass(self, workload, texts, first=None):
        """Check one pass's outputs; `first` is the run's first pass,
        whose bytes every later pass must repeat."""
        for segment in workload.segments:
            output = segment.output
            if output not in self.references:
                self.references[output] = check.load_reference(output, self.seed)
            text = texts[segment.label]
            self.add(*check.check_output(output, text, self.references[output]))
            if first is not None:
                self._same(first[segment.label], text, f"{segment.label}: repeated pass")
        for a, b in workload.same_bytes:
            self._same(texts[a], texts[b], f"{a} vs {b}")

    def _same(self, one, other, what):
        self.add(1, int(one != other), [] if one == other else [f"{what}: CSV bytes differ"])


def workdir():
    return os.path.join(OUT_DIR, f"work-{os.getpid()}")


def _pass(workload, inputs):
    start = time.perf_counter()
    texts, segments = workload.run(inputs, workdir())
    return texts, segments, time.perf_counter() - start


def _setup_probe(workload, seed):
    """One set-up in a fresh interpreter: import modop and build the inputs."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload.name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def run_untraced(workload, seed, seconds, tally):
    """Passes while the next one is expected to end within `seconds`
    (at least one); reports the median pass.  Set-up is probed before
    and after the passes, so that its median spans the run."""
    setup = [_setup_probe(workload, seed) for _ in range(SETUP_PROBES // 2)]
    inputs = workload.setup(seed)
    walls = []
    segments = {segment.label: [] for segment in workload.segments}
    first = None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.mean(walls) <= seconds:
        texts, segment_walls, wall = _pass(workload, inputs)
        walls.append(wall)
        for label, value in segment_walls.items():
            segments[label].append(value)
        tally.check_pass(workload, texts, first)
        first = first or texts
    setup += [_setup_probe(workload, seed) for _ in range(SETUP_PROBES - len(setup))]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": setup, "wall_s": walls}
    samples.update({f"wall_s.{label}": values for label, values in segments.items()})
    return metrics, samples, {}


def run_traced(workload, seed, tally):
    """Each segment runs untraced and then traced, back to back, so that
    both halves of the overhead ratio see the same machine speed.  The
    layer metrics come from the traced halves' spans."""
    inputs = workload.setup(seed)
    tracer = spans.Tracer()
    texts, traced_texts, untraced_walls, traced_walls = {}, {}, {}, {}
    for segment, segment_inputs in zip(workload.segments, inputs):
        label = segment.label
        texts[label], untraced_walls[label] = run_segment(segment, segment_inputs, workdir())
        with tracer:
            traced_texts[label], traced_walls[label] = run_segment(
                segment, segment_inputs, workdir(), tracer
            )
        leftover = spans.wrapped_names()
        if leftover:
            raise BenchError(f"tracing wrappers left installed: {', '.join(leftover)}")
    tally.check_pass(workload, texts)
    tally.check_pass(workload, traced_texts, texts)
    untraced_wall = sum(untraced_walls.values())
    traced_wall = sum(traced_walls.values())
    metrics = layer_metrics(tracer, untraced_wall, traced_wall)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.jsonl")
    with open(path, "w", encoding="ascii") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.as_dict()) + "\n")
    samples = {"untraced_wall_s": [untraced_wall], "traced_wall_s": [traced_wall]}
    for label in untraced_walls:
        samples[f"untraced_wall_s.{label}"] = [untraced_walls[label]]
        samples[f"traced_wall_s.{label}"] = [traced_walls[label]]
    return metrics, samples, {"segment_self_s": spans.segment_self_times(tracer.spans)}


def bench(args):
    workload = WORKLOADS[args.workload]
    load_modop()
    tally = Tally(args.seed)
    if args.trace:
        values, samples, extra = run_traced(workload, args.seed, tally)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, samples, extra = run_untraced(workload, args.seed, args.seconds, tally)
        units = dict(END_TO_END)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        **result,
        "failed_share": tally.failed / tally.attempted,
        "samples": samples,
        "problems": tally.problems[:50],
        "meta": metadata(args.seed),
        **extra,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a", encoding="ascii") as fh:
        fh.write(json.dumps(record) + "\n")

    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} rows checked, {tally.failed} failed "
          f"(failed_share {record['failed_share']:.6g})")
    for name, sample in samples.items():
        print(f"  {name}: median {statistics.median(sample):.6g} s over n={len(sample)}")
    for label, layers in extra.get("segment_self_s", {}).items():
        top = sorted(layers.items(), key=lambda item: -item[1])[:6]
        print(f"  self time in {label}: " + ", ".join(f"{k} {v:.3g} s" for k, v in top))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))


def parse_args(argv):
    parser = argparse.ArgumentParser(description="modop benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two results.jsonl files instead of running")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.compare:
            from compare import compare

            return compare(*args.compare, os.path.join(ROOT, "BENCHMARK.json"))
        if args.setup_probe:
            start = time.perf_counter()
            load_modop()
            WORKLOADS[args.workload].setup(args.seed)
            print(time.perf_counter() - start)
            return 0
        bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
