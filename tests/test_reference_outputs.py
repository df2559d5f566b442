"""The default sweeps against the benchmark's stored seed-0 outputs.

perfbench/check.py holds every row of the default `identity`,
`embedding` and `threshold` CSVs to its reference within 1e-6 relative
(a certified lower bound may only rise), and fails any row with an
error, a fail verdict or a missing verdict.  The benchmark runs that
check on every pass; this runs it once here, with the checker and the
references read in place from perfbench/."""

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

_CHECK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "check.py"
)


def _load_check():
    spec = importlib.util.spec_from_file_location("modop_perfbench_check", _CHECK)
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    return check


@pytest.mark.parametrize(
    "experiment, runner",
    [
        ("identity", run_identity_suite),
        ("embedding", run_embedding_sweep),
        ("threshold", run_threshold_sweep),
    ],
)
def test_default_sweep_matches_the_benchmark_reference(experiment, runner):
    check = _load_check()
    reference = check.load_reference(experiment, 0)
    assert reference is not None
    out = io.StringIO()
    emit_csv(runner(default_config(experiment)), out)
    attempted, failed, problems = check.check_output(experiment, out.getvalue(), reference)
    assert problems == [] and failed == 0
    assert attempted == len(reference.splitlines()) - 1
