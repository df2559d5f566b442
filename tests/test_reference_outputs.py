"""The default sweeps and the symbol-file CLI against the benchmark's
stored seed-0 outputs.

perfbench/check.py holds every row of the default `identity`,
`embedding` and `threshold` CSVs and of the `symbol-files` segment (the
PSS `gen`, `opnorm` and `classify` commands and an SFN round trip) to
its reference within 1e-6 relative (a certified lower bound may only
rise), and fails any row with an error, a fail verdict or a missing
verdict.  The benchmark runs that check on every pass; this runs it once
here, with the checker, the segment and the references read in place
from perfbench/."""

import importlib.util
import io
import os

import pytest

from modop.experiments import (
    default_config,
    emit_csv,
    run_embedding_sweep,
    run_identity_suite,
    run_threshold_sweep,
)

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"modop_perfbench_{name}", os.path.join(_PERFBENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_against_reference(experiment, text):
    check = _load("check")
    reference = check.load_reference(experiment, 0)
    assert reference is not None
    attempted, failed, problems = check.check_output(experiment, text, reference)
    assert problems == [] and failed == 0
    assert attempted == len(reference.splitlines()) - 1


@pytest.mark.parametrize(
    "experiment, runner",
    [
        ("identity", run_identity_suite),
        ("embedding", run_embedding_sweep),
        ("threshold", run_threshold_sweep),
    ],
)
def test_default_sweep_matches_the_benchmark_reference(experiment, runner):
    out = io.StringIO()
    emit_csv(runner(default_config(experiment)), out)
    _check_against_reference(experiment, out.getvalue())


def test_symbol_files_match_the_benchmark_reference(monkeypatch, tmp_path):
    # workloads.py imports the tracer's spans module by its bare name
    monkeypatch.syspath_prepend(_PERFBENCH)
    segment = _load("workloads").SymbolFiles()
    text = segment.run(segment.setup(0), str(tmp_path / "work"))
    _check_against_reference("symbol-files", text)
