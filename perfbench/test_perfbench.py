"""Tests of the benchmark itself: span arithmetic, output checks, the
tracer's install/restore, the compare verdicts, and BENCHMARK.json.

    python3 -m pytest perfbench
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _span(name, start, end, parent=None, thread=1):
    span = spans.Span(name, start, thread, parent)
    span.end = end
    return span


def test_self_time_of_nested_spans():
    trace = [
        _span("a", 0.0, 10.0),
        _span("b", 2.0, 5.0, parent=0),
        _span("c", 3.0, 4.0, parent=1),
        _span("b", 6.0, 7.0, parent=0),
    ]
    assert spans.self_times(trace) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    totals = spans.layer_totals(trace)
    assert totals["a"]["self_s"] == pytest.approx(6.0)
    assert totals["b"]["self_s"] == pytest.approx(3.0)
    assert totals["b"]["calls"] == 2


def test_self_time_per_segment():
    trace = [
        _span(spans.SEGMENT_PREFIX + "identity@jobs1", 0.0, 10.0),
        _span("analysis.sjostrand_norm", 1.0, 9.0, parent=0),
        _span("grid.ft", 2.0, 8.0, parent=1),
        _span(spans.SEGMENT_PREFIX + "embedding@jobs1", 10.0, 12.0),
        _span("grid.ft", 10.5, 11.0, parent=3),
    ]
    assert spans.segment_self_times(trace) == {
        "identity@jobs1": {
            spans.SEGMENT_PREFIX + "identity@jobs1": pytest.approx(2.0),
            "analysis.sjostrand_norm": pytest.approx(2.0),
            "grid.ft": pytest.approx(6.0),
        },
        "embedding@jobs1": {
            spans.SEGMENT_PREFIX + "embedding@jobs1": pytest.approx(1.5),
            "grid.ft": pytest.approx(0.5),
        },
    }


def test_nested_calls_into_one_layer_count_once():
    trace = [_span("grid.ft", 0.0, 4.0), _span("grid.ft", 1.0, 3.0, parent=0)]
    totals = spans.layer_totals(trace)
    assert totals["grid.ft"]["calls"] == 1
    assert totals["grid.ft"]["self_s"] == pytest.approx(4.0)


def test_self_time_with_overlapping_children_on_two_threads():
    run_tasks = _span(spans.RUN_TASKS_LAYER, 0.0, 10.0)
    run_tasks.counts = {"jobs": 2}
    trace = [
        run_tasks,
        _span(spans.TASK_LAYER, 1.0, 6.0, parent=0, thread=2),
        _span(spans.TASK_LAYER, 4.0, 9.0, parent=0, thread=3),
    ]
    # the children cover [1, 9] together, not 10 seconds
    assert spans.self_times(trace) == pytest.approx([2.0, 5.0, 5.0])
    assert spans.worker_idle_s(trace) == pytest.approx(2 * 10.0 - 10.0)
    assert spans.task_seconds_by_jobs(trace) == {2: pytest.approx(10.0)}


THRESHOLD_CSV = """experiment,p,q,s,n,N,N_modes,seed,value,method,flags
threshold,2,,0.5,1,128,4,0,1.25,power_2,
threshold,4,,0.5,1,128,4,0,2.5,boyd_p,lower-bound
threshold,2,,0.5,1,,,,0.75,slope-fit,stderr=0.01
"""


def _replace_value(text, old, new):
    assert old in text
    return text.replace(old, new)


def test_reference_check_accepts_identical_output():
    assert check.check_output("threshold", THRESHOLD_CSV, THRESHOLD_CSV) == (3, 0, [])


def test_reference_check_flags_a_perturbed_value():
    perturbed = _replace_value(THRESHOLD_CSV, ",1.25,", ",1.2500125,")
    attempted, failed, problems = check.check_output("threshold", perturbed, THRESHOLD_CSV)
    assert (attempted, failed) == (3, 1)
    assert "reference 1.25" in problems[0]


def test_reference_check_lets_a_lower_bound_rise_but_not_fall():
    raised = _replace_value(THRESHOLD_CSV, ",2.5,", ",2.75,")
    assert check.check_output("threshold", raised, THRESHOLD_CSV)[1] == 0
    lowered = _replace_value(THRESHOLD_CSV, ",2.5,", ",2.25,")
    assert check.check_output("threshold", lowered, THRESHOLD_CSV)[1] == 1


def test_reference_check_flags_missing_rows_and_error_rows():
    missing = "\n".join(THRESHOLD_CSV.splitlines()[:-1]) + "\n"
    assert check.check_output("threshold", missing, THRESHOLD_CSV)[:2] == (3, 1)
    errored = _replace_value(THRESHOLD_CSV, "1.25,power_2,", "nan,,error=TooLarge")
    # the error row also misses its reference value; it still fails once
    assert check.check_output("threshold", errored, THRESHOLD_CSV)[:2] == (3, 1)
    assert check.check_output("threshold", errored)[:2] == (3, 1)


def test_verdict_rules_without_reference():
    identity = (
        "experiment,p,q,s,n,N,N_modes,seed,value,method,flags\n"
        "identity,,,,1,256,,0,1e-16,parseval,pass\n"
        "identity,,,,1,256,,0,0.5,ft-roundtrip,fail\n"
    )
    assert check.check_output("identity", identity)[:2] == (2, 1)
    embedding = (
        "experiment,p,q,s,n,N,N_modes,seed,value,method,flags\n"
        "embedding,1,2,0,1,256,,0,12,embed-sobolev-amalgam,predicate=true\n"
        "embedding,1,2,0,1,256,,0,12,embed-amalgam-sobolev,predicate=false\n"
    )
    assert check.check_output("embedding", embedding)[:2] == (2, 1)


@pytest.fixture(scope="module")
def modop():
    return run.load_modop()


def _bindings(module_list):
    return {(m.__name__, k): v for m in module_list for k, v in vars(m).items()}


def test_tracer_wraps_every_binding_and_restores_the_originals(modop):
    before = _bindings(spans.modop_modules())
    tracer = spans.Tracer()
    with tracer:
        wrapped = set(spans.wrapped_names())
        # the same function under the names other modules call it by
        assert {
            "modop.analysis.sjostrand_norm",
            "modop.cli.sjostrand_norm",
            "modop.experiments.sjostrand_norm",
            "modop.sjostrand_norm",
            "modop.experiments._run_tasks",
        } <= wrapped
        grid = modop.UniformGrid(1, 64, 8.0)
        modop.cli.sjostrand_norm(modop.constant_symbol(grid))
    assert spans.wrapped_names() == []
    assert _bindings(spans.modop_modules()) == before
    names = [span.name for span in tracer.spans]
    assert names[0] == "symbols.build"
    assert "analysis.sjostrand_norm" in names and "grid.ft" in names


def test_traced_sweep_parents_worker_tasks_to_the_executor(modop):
    from modop.experiments import SweepConfig, run_threshold_sweep

    cfg = SweepConfig("threshold", p=[modop.from_p(2)], s=[0.5], n_modes=[4, 8], seeds=[0, 1])
    tracer = spans.Tracer()
    with tracer:
        run_threshold_sweep(cfg, jobs=2)
    executor = [i for i, s in enumerate(tracer.spans) if s.name == spans.RUN_TASKS_LAYER]
    tasks = [s for s in tracer.spans if s.name == spans.TASK_LAYER]
    assert len(executor) == 1 and len(tasks) == 4
    assert all(task.parent == executor[0] for task in tasks)
    totals = spans.layer_totals(tracer.spans)
    assert totals["opnorm.norm_2"]["calls"] == 4
    assert totals["quantize.as_matrix"]["bytes_computed"] == 2 * (128 * 128 + 256 * 256) * 16
    assert spans.worker_idle_s(tracer.spans) >= 0.0


def test_compare_verdicts():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]
    assert compare.verdict(steady, [v * 1.02 for v in steady], "lower", 0.1) == "within bound"
    assert compare.verdict(steady, [v * 1.3 for v in steady], "lower", 0.1) == "worse"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "lower", 0.1) == "better"
    noisy = [0.5, 1.0, 1.5, 2.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [5.0, 6.0], "lower", 0.1) == "worse"
    assert compare.verdict(steady, steady, "lower", None) == "no bound"


def test_benchmark_json_matches_the_harness():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
