"""In-memory span tracing of modop's layers.

A `Tracer` replaces each layer function listed in `LAYERS` with a
wrapper that records a span (layer name, start, end, thread, parent)
and optional counts taken from the call's arguments and result.  The
wrapper is installed under every name the package's modules hold the
function by, so `experiments.sjostrand_norm`, `cli.sjostrand_norm` and
`analysis.sjostrand_norm` are all traced, and `restore()` puts every
original back.

Self time is a span's duration minus the part of it that its children
cover; children on other threads (sweep tasks run by worker threads)
may overlap, so their intervals are merged before subtracting.
"""

import functools
import os
import sys
import threading
import time

# counters: functions (args, kwargs, result) -> {counter: amount}


def _stft_bytes(args, kwargs, result):
    return {"bytes_computed": result[1].nbytes}


def _matrix_bytes(args, kwargs, result):
    return {"bytes_computed": result.entries.nbytes}


def _file_bytes(args, kwargs, result):
    path = kwargs.get("path", args[-1] if args else None)
    return {"bytes": os.path.getsize(path)}


def _estimate(result):
    return {"estimates": 1, "lower_bound": int(result.lower_bound_only)}


def _norm_2_counts(args, kwargs, result):
    n = args[0].entries.shape[0]
    # each iteration is two complex128 matvecs with the N x N matrix
    return {
        "iterations": result.iterations,
        "matvec_bytes_computed": 2 * result.iterations * n * n * 16,
        **_estimate(result),
    }


def _norm_p_counts(args, kwargs, result):
    return {"iterations": result.iterations, "restarts": result.restarts, **_estimate(result)}


def _exact_counts(args, kwargs, result):
    return _estimate(result)


# layer name -> [(module, function, counter or None)]
LAYERS = {
    "analysis.sjostrand_norm": [("modop.analysis", "sjostrand_norm", None)],
    "analysis.norms": [
        ("modop.analysis", "lp_norm", None),
        ("modop.analysis", "sobolev_norm", None),
        ("modop.analysis", "modulation_norm", None),
        ("modop.analysis", "amalgam_norm", None),
    ],
    "analysis.stft": [
        ("modop.analysis", "stft", None),
        ("modop.analysis", "_windowed_spectra", _stft_bytes),
    ],
    "exponents.power_mean": [("modop.exponents", "power_mean", None)],
    "grid.ft": [
        ("modop.grid", "forward_ft", None),
        ("modop.grid", "inverse_ft", None),
        ("modop.grid", "ft_along", None),
        ("modop.grid", "ift_along", None),
    ],
    "grid.bessel_potential": [("modop.grid", "bessel_potential", None)],
    "grid.sfn_io": [
        ("modop.grid", "write_sfn", _file_bytes),
        ("modop.grid", "read_sfn", _file_bytes),
    ],
    "quantize.kn_apply": [("modop.quantize", "kn_apply", None)],
    "quantize.as_matrix": [("modop.quantize", "as_matrix", _matrix_bytes)],
    "quantize.lift_symbol": [("modop.quantize", "lift_symbol", None)],
    "quantize.u_transform": [("modop.quantize", "u_transform", None)],
    "quantize.kernel": [
        ("modop.quantize", "weyl_to_kernel", None),
        ("modop.quantize", "kernel_to_weyl", None),
    ],
    "quantize.pss_io": [
        ("modop.quantize", "write_pss", _file_bytes),
        ("modop.quantize", "read_pss", _file_bytes),
    ],
    "opnorm.norm_2": [("modop.opnorm", "norm_2", _norm_2_counts)],
    "opnorm.norm_p": [("modop.opnorm", "norm_p", _norm_p_counts)],
    "opnorm.exact_norm": [("modop.opnorm", "exact_norm", _exact_counts)],
    "symbols.build": [
        ("modop.symbols", name, None)
        for name in (
            "constant_symbol",
            "multiplication_symbol",
            "translation_symbol",
            "bessel_symbol",
            "gaussian_bump_symbol",
            "random_phase_multiplier",
            "standard_suite",
        )
    ],
    "symbols.s_seminorms": [("modop.symbols", "s_seminorms", None)],
    "cli.main": [("modop.cli", "main", None)],
}

SEGMENT_PREFIX = "segment."
TASK_LAYER = "experiments.task"
RUN_TASKS_LAYER = "experiments.run_tasks"


class Span:
    __slots__ = ("name", "start", "end", "thread", "parent", "counts")

    def __init__(self, name, start, thread, parent):
        self.name = name
        self.start = start
        self.end = None
        self.thread = thread
        self.parent = parent
        self.counts = None

    def as_dict(self):
        return {key: getattr(self, key) for key in self.__slots__}


class Tracer:
    """Records spans in memory; `install` wraps the layers, `restore` unwraps."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []  # (module, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, parent=None):
        """Start a span; its parent is this thread's innermost open span,
        or `parent` (a span index) when the thread has none open."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        span = Span(name, time.perf_counter(), threading.get_ident(), parent)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.perfbench_layer = name
        return traced

    def _wrap_run_tasks(self, fn):
        """Wrap the sweep executor so every task closure gets its own span,
        parented to the executor span even on a worker thread."""

        @functools.wraps(fn)
        def traced(tasks, jobs):
            span = self.open(RUN_TASKS_LAYER)
            parent = self._stack()[-1]
            span.counts = {"jobs": max(1, jobs or 1)}

            def wrap_task(task):
                def run():
                    inner = self.open(TASK_LAYER, parent)
                    try:
                        return task()
                    finally:
                        self.close(inner)

                return run

            try:
                return fn([wrap_task(t) for t in tasks], jobs)
            finally:
                self.close(span)

        traced.perfbench_layer = RUN_TASKS_LAYER
        return traced

    def install(self):
        """Wrap every layer function under each name modop's modules bind it to."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        replacements = {}
        for layer, entries in LAYERS.items():
            for module, attr, counter in entries:
                original = getattr(sys.modules[module], attr)
                replacements[id(original)] = (original, self.wrap(layer, original, counter))
        experiments = sys.modules["modop.experiments"]
        run_tasks = experiments._run_tasks
        replacements[id(run_tasks)] = (run_tasks, self._wrap_run_tasks(run_tasks))
        for module in modop_modules():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def modop_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "modop" or name.startswith("modop."))
    ]


def wrapped_names():
    """Every 'module.attribute' in modop that still holds a tracing wrapper."""
    return [
        f"{module.__name__}.{attr}"
        for module in modop_modules()
        for attr, value in vars(module).items()
        if hasattr(value, "perfbench_layer")
    ]


def self_times(spans):
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to its own."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def layer_totals(spans):
    """Per layer: calls and total time (of the spans not nested in a span
    of the same layer), summed self time, and summed counts."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        if span.parent is None or spans[span.parent].name != span.name:
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
        entry["self_s"] += own
        for key, amount in (span.counts or {}).items():
            entry[key] = entry.get(key, 0) + amount
    return totals


def worker_idle_s(spans):
    """Executor wall time times its worker count, minus the task time."""
    busy = {}
    for span in spans:
        if span.name == TASK_LAYER:
            busy[span.parent] = busy.get(span.parent, 0.0) + (span.end - span.start)
    idle = 0.0
    for index, span in enumerate(spans):
        if span.name == RUN_TASKS_LAYER:
            idle += (span.end - span.start) * span.counts["jobs"] - busy.get(index, 0.0)
    return idle


def task_seconds_by_jobs(spans):
    """Summed task time per executor job count."""
    out = {}
    for span in spans:
        if span.name == TASK_LAYER:
            jobs = spans[span.parent].counts["jobs"]
            out[jobs] = out.get(jobs, 0.0) + (span.end - span.start)
    return out


def segment_self_times(spans):
    """{segment label: {layer: self seconds}} for spans under each
    `segment.<label>` span the benchmark opens around a segment."""
    self_s = self_times(spans)
    segment_of = []
    out = {}
    for span, own in zip(spans, self_s):
        if span.name.startswith(SEGMENT_PREFIX):
            segment = span.name[len(SEGMENT_PREFIX):]
        else:
            segment = segment_of[span.parent] if span.parent is not None else None
        segment_of.append(segment)
        if segment is not None:
            layers = out.setdefault(segment, {})
            layers[span.name] = layers.get(span.name, 0.0) + own
    return out
