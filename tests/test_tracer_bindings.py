"""The benchmark's span tracer (perfbench/spans.py) wraps modop functions
by module and name, and its counters read the arguments and results of
some of them.  Untraced runs never read those names or values, so a
rename, deletion or change of result would only show in a traced run;
this checks every binding and counter here instead."""

import importlib
import importlib.util
import os

import numpy as np

import modop
import modop.cli  # noqa: F401  (the tracer wraps cli.main)

from conftest import near_degenerate_matrix

_SPANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py"
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("modop_tracer_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _bindings(spans):
    bindings = [(module, attr) for entries in spans.LAYERS.values() for module, attr, _ in entries]
    bindings.append(("modop.experiments", "_run_tasks"))
    return bindings


def test_tracer_layers_resolve():
    missing = [
        (module, attr)
        for module, attr in _bindings(_load_spans())
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def _one_call_per_counted_layer(tmp_path):
    # through the package's names, which the tracer replaces
    grid = modop.UniformGrid(1, 16, 4.0)
    f = modop.SampledFunction(grid, np.exp(-np.pi * grid.axis_points() ** 2))
    symbol = modop.gaussian_bump_symbol(grid)
    modop.stft(f, modop.default_window(grid))
    matrix = modop.as_matrix(symbol)
    # power_2 reaches its cap on this matrix, so the estimate is a lower bound
    modop.norm_2(modop.OperatorMatrix(near_degenerate_matrix().astype(complex)))
    modop.norm_p(matrix, "4/3")
    modop.exact_norm(matrix, 1)
    modop.write_sfn(f, tmp_path / "f.sfn")
    modop.read_sfn(tmp_path / "f.sfn")
    modop.write_pss(symbol, tmp_path / "s.pss")
    modop.read_pss(tmp_path / "s.pss")


def test_tracer_counters_read_what_the_layers_return(tmp_path):
    spans = _load_spans()
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr in _bindings(spans)
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        _one_call_per_counted_layer(tmp_path)
    finally:
        tracer.restore()
    assert spans.wrapped_names() == []
    assert all(getattr(importlib.import_module(m), a) is fn for (m, a), fn in originals.items())

    totals = spans.layer_totals(tracer.spans)
    counted = [layer for layer, entries in spans.LAYERS.items() if any(c for *_, c in entries)]
    base = {"calls", "total_s", "self_s"}
    counts = {
        (layer, key): totals[layer][key]
        for layer in counted
        for key in set(totals.get(layer, {})) - base
    }
    assert {layer for layer, _ in counts} == set(counted)
    # the whole (N, N) STFT at N = 16, not one row of it
    assert counts[("analysis.stft", "bytes_computed")] == 16 * 16 * np.dtype(complex).itemsize
    # a closed-form estimate is exact, so it never counts as a lower bound
    assert {k: v for k, v in counts.items() if not v > 0} == {("opnorm.exact_norm", "lower_bound"): 0}


def test_factored_sjostrand_norm_records_a_grid_ft_span():
    # the benchmark's own suite pins a grid.ft span under the factored
    # sjostrand_norm; a factor marked identically 1 (constant_symbol's x
    # factor) takes its one transform through ft_along in _factor_sup, so
    # a change that dropped that call would break the pin and fail here too
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        modop.cli.sjostrand_norm(modop.constant_symbol(modop.UniformGrid(1, 64, 8.0)))
    finally:
        tracer.restore()
    names = [span.name for span in tracer.spans]
    assert "analysis.sjostrand_norm" in names and "grid.ft" in names
    norm = names.index("analysis.sjostrand_norm")
    assert any(s.name == "grid.ft" and s.parent == norm for s in tracer.spans)
