import hashlib
import io
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

from modop import (
    ConfigError,
    FileFormatError,
    SweepConfig,
    SweepRecord,
    TooLarge,
    UniformGrid,
    default_config,
    emit_csv,
    load_config,
    read_records,
    run_embedding_sweep,
    run_identity_suite,
    run_threshold_sweep,
)
from modop import experiments
from modop.experiments import CSV_HEADER, has_errors
from modop.exponents import from_p


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# ---------------------------------------------------------------------------
# config handling


def test_minimal_config_fills_defaults(tmp_path):
    # (N, L, seeds) per experiment; the threshold sweep sizes N from n_modes
    defaults = {
        "identity": ([256], 16.0, [0]),
        "embedding": ([256], 16.0, [0]),
        "threshold": (None, 8.0, [0, 1, 2]),
    }
    for experiment, expected in defaults.items():
        cfg = load_config(write_config(tmp_path, {"experiment": experiment}))
        assert cfg == default_config(experiment)
        assert (cfg.N, cfg.L, cfg.seeds) == expected


def test_unknown_key_is_named_in_error(tmp_path):
    path = write_config(tmp_path, {"experiment": "identity", "banana": 3})
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert "banana" in str(info.value)


def test_config_requires_experiment(tmp_path):
    path = write_config(tmp_path, {"N": [64]})
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_config(tmp_path, {"experiment": "bogus"})
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError, match="experiment must be one of"):
        SweepConfig("bogus")


def test_config_experiment_mismatch(tmp_path):
    path = write_config(tmp_path, {"experiment": "identity"})
    with pytest.raises(ConfigError):
        load_config(path, experiment="threshold")


def test_config_validates_lists(tmp_path):
    path = write_config(tmp_path, {"experiment": "threshold", "N": []})
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_config(tmp_path, {"experiment": "threshold", "N": [48]})
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_config(tmp_path, {"experiment": "threshold", "s": [-0.5]})
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_config(tmp_path, {"experiment": "threshold", "p": [True]})
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_config(tmp_path, {"experiment": "embedding", "q": True})
    with pytest.raises(ConfigError):
        load_config(path)
    for bad in (["-inf"], ["1e309"], ["-1e309"], ["nan"]):
        path = write_config(tmp_path, {"experiment": "threshold", "p": bad})
        with pytest.raises(ConfigError, match="bad exponent"):
            load_config(path)
    path = write_config(tmp_path, {"experiment": "threshold", "n_modes": [0, 1, 2]})
    with pytest.raises(ConfigError, match="n_modes"):
        load_config(path)
    for key in ("N", "s", "n_modes", "seeds", "p"):
        with pytest.raises(ConfigError, match=f"'{key}' must not be empty"):
            SweepConfig("embedding" if key == "seeds" else "threshold", **{key: []})
    with pytest.raises(ConfigError, match="'N' must be an integer or list of integers"):
        SweepConfig("embedding", N=["a"])
    with pytest.raises(ConfigError, match="'s' must be a number or list of numbers"):
        SweepConfig("embedding", s="x")


def test_config_rejects_non_finite_numbers(tmp_path):
    for text in (
        '{"experiment": "threshold", "s": [NaN]}',
        '{"experiment": "identity", "L": Infinity}',
        '{"experiment": "identity", "L": -Infinity}',
        '{"experiment": "identity", "L": 1e999}',
    ):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert "finite" in str(info.value)


@pytest.mark.parametrize("experiment, key, value", [
    ("identity", "q", [1]),
    ("embedding", "n_modes", [4]),
    ("threshold", "functions", 3),
    ("identity", "tolerances", {}),
    ("identity", "out", "x.csv"),
])
def test_config_rejects_keys_the_experiment_does_not_read(tmp_path, experiment, key, value):
    path = write_config(tmp_path, {"experiment": experiment, key: value})
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert key in str(info.value) and experiment in str(info.value)


def test_runners_reject_another_experiments_config():
    for runner, other in ((run_identity_suite, "threshold"), (run_embedding_sweep, "identity"),
                          (run_threshold_sweep, "embedding")):
        with pytest.raises(ConfigError) as info:
            runner(SweepConfig(other))
        assert other in str(info.value)


@pytest.mark.parametrize("experiment, fields", [
    ("threshold", {"p": [0.5]}),
    ("threshold", {"p": "x"}),
    ("embedding", {"N": [32], "functions": 0}),
    ("threshold", {"s": [-1.0]}),
    ("identity", {"N": [6]}),
    ("identity", {"seeds": [-1]}),
    ("identity", {"L": 0}),
    ("threshold", {"N": [128], "n_modes": [4, 8]}),
    # keys the experiment does not read
    ("identity", {"q": [2]}),
    ("embedding", {"n_modes": [4]}),
    ("threshold", {"functions": 5}),
])
def test_config_built_in_code_is_checked_like_a_file(tmp_path, experiment, fields):
    with pytest.raises(ConfigError) as from_file:
        load_config(write_config(tmp_path, {"experiment": experiment, **fields}))
    with pytest.raises(ConfigError) as in_code:
        SweepConfig(experiment, **fields)
    assert str(in_code.value) == str(from_file.value)
    cfg = SweepConfig(experiment)
    with pytest.raises(ConfigError) as assigned:
        for key, value in fields.items():
            setattr(cfg, key, value)
    assert str(assigned.value) == str(from_file.value)


def test_config_built_in_code_reads_exponents_like_a_file(tmp_path):
    fields = {"p": [2], "s": [0.5], "n_modes": [4, 8], "seeds": [0]}
    cfg = SweepConfig("threshold", **fields)
    assert cfg == load_config(write_config(tmp_path, {"experiment": "threshold", **fields}))
    assert cfg.p == [from_p(2)] and not has_errors(run_threshold_sweep(cfg))
    # an assignment is checked too, so p = [2] reaches the sweep as exponents
    assigned = SweepConfig("threshold", s=[0.5], n_modes=[4, 8])
    assigned.p, assigned.seeds = [2], [0]
    assert assigned == cfg


def test_config_rejects_broken_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
    # JSON is UTF-8, in which a lone 0xff byte never occurs
    path.write_bytes(b'{"experiment": "identity", "L": 8\xff}')
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text('[{"experiment": "identity"}]')
    with pytest.raises(ConfigError, match="top level must be a JSON object"):
        load_config(path)


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_roundtrip_is_lossless(tmp_path):
    records = [
        SweepRecord("identity", 2.0, 2.0, math.pi, 1, 256, None, 0,
                    1.0 / 3.0, "check", "pass"),
        SweepRecord("threshold", math.inf, None, 0.125, 1, 512, 16, 7,
                    2.0 ** -40 + 1.0, "exact_inf", ""),
        SweepRecord("threshold", 1.0, None, 0.875, 1, 128, 4, 3,
                    float("nan"), "slope-fit", "error=TooManyModes"),
    ]
    path = tmp_path / "rows.csv"
    emit_csv(records, path)
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    back = read_records(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.experiment == b.experiment
        assert a.p == b.p and a.q == b.q
        assert a.s == b.s
        assert a.N == b.N and a.n_modes == b.n_modes and a.seed == b.seed
        assert a.method == b.method and a.flags == b.flags
        if math.isnan(a.value):
            assert math.isnan(b.value)
        else:
            assert a.value == b.value
    # blank lines are skipped
    path.write_text(text.replace("\n", "\n\n"))
    assert list(map(repr, read_records(path))) == list(map(repr, back))


def test_emit_csv_to_stream():
    buf = io.StringIO()
    emit_csv([], buf)
    assert buf.getvalue() == CSV_HEADER + "\n"


def test_read_records_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(FileFormatError):
        read_records(path)
    path.write_text(CSV_HEADER + "\nonly,three,fields\n")
    with pytest.raises(FileFormatError):
        read_records(path)
    path.write_text(CSV_HEADER + "\nidentity,two,,,,,,,,,\n")
    with pytest.raises(FileFormatError, match="line 2: bad p value 'two'"):
        read_records(path)
    path.write_bytes(CSV_HEADER.encode() + b"\nidentity,\xc3\n")
    with pytest.raises(FileFormatError, match="non-ascii byte"):
        read_records(path)


# ---------------------------------------------------------------------------
# identity suite


def test_identity_suite_passes_at_low_resolution():
    # N = 64 with extent 8 keeps the frequency box at +-4, which resolves
    # every unit-width test object; the default L = 16 would not
    cfg = default_config("identity")
    cfg = type(cfg)(**{**cfg.__dict__, "N": [64], "L": 8.0})
    records = run_identity_suite(cfg)
    assert records
    assert not has_errors(records)
    for rec in records:
        assert rec.flags.endswith("pass"), (rec.method, rec.value, rec.flags)
    weyl_rows = [r for r in records if r.method == "weyl-oracle"]
    assert weyl_rows and all(r.value <= 1e-8 for r in weyl_rows)


def test_matrix_intertwine_compares_two_routes():
    # as_matrix against the sampled kernel: roundoff where the test symbol
    # is resolved, a fail where N = 64 on L = 16 under-resolves it
    resolved = experiments._check_matrix_intertwine(UniformGrid(1, 64, 8.0), 0)
    assert 0.0 < resolved <= 1e-12
    # against an all-zero reference the error is absolute
    assert experiments._rel_max(np.array([3.0, -4.0]), np.zeros(2)) == 4.0
    cfg = SweepConfig("identity", N=[64], L=16.0)
    rows = [r for r in run_identity_suite(cfg) if r.method == "matrix-intertwine"]
    assert [r.flags for r in rows] == ["fail"] and rows[0].value > 1e-6


def test_weyl_identity_checks_hold_at_most_three_and_a_half_arrays():
    # each check's two N^2 complex results plus _rel_max's complex
    # difference and real magnitudes, so no check may still hold its
    # test symbol (or a third result) when _rel_max runs
    grid = UniformGrid(1, 256, 16.0)
    n = grid.points_per_axis
    for name in ("u_roundtrip", "kernel_roundtrip", "kernel_identity", "weyl_adjoint",
                 "matrix_intertwine"):
        check = getattr(experiments, f"_check_{name}")
        tracemalloc.start()
        try:
            check(grid, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 16 * n * n + 2**18, name


def test_identity_suite_deterministic_across_jobs():
    cfg = default_config("identity")
    cfg = type(cfg)(**{**cfg.__dict__, "N": [64], "L": 8.0})
    a = io.StringIO()
    b = io.StringIO()
    emit_csv(run_identity_suite(cfg, jobs=1), a)
    emit_csv(run_identity_suite(cfg, jobs=4), b)
    assert a.getvalue() == b.getvalue()


def test_identity_suite_runs_every_seed():
    cfg = SweepConfig("identity", N=[64], L=8.0, seeds=[1, 2])
    records = run_identity_suite(cfg)
    checks = len(experiments._IDENTITY_CHECKS)
    assert len(records) == 2 * checks
    assert {r.seed for r in records} == {1, 2}
    assert [r.seed for r in records] == [1] * checks + [2] * checks


def test_sweep_tasks_run_on_the_calling_thread(monkeypatch):
    threads = []

    def check(grid, seed):
        threads.append(threading.get_ident())
        return 0.0

    monkeypatch.setattr(experiments, "_IDENTITY_CHECKS", [("probe", check, 1.0)] * 8)
    records = run_identity_suite(SweepConfig("identity", N=[64, 128], L=8.0), jobs=4)
    assert len(records) == 16
    assert threads == [threading.get_ident()] * 16


def _raises(exc):
    def check(grid, seed):
        raise exc("injected")

    return check


@pytest.mark.parametrize("jobs", [1, 2])
def test_task_error_rows_only_for_package_errors(monkeypatch, jobs):
    cfg = SweepConfig("identity", N=[64, 128], L=8.0)
    errors = [("ft-gaussian", np.linalg.LinAlgError), ("parseval", FloatingPointError),
              ("kn-bessel", TooLarge)]
    table = [(name, _raises(exc), 1e-10) for name, exc in errors]
    monkeypatch.setattr(experiments, "_IDENTITY_CHECKS", table)
    records = run_identity_suite(cfg, jobs=jobs)
    assert [(r.N, r.method, r.flags) for r in records] == [
        (n, name, f"error={exc.__name__}") for n in (64, 128) for name, exc in errors
    ]
    assert all(math.isnan(r.value) for r in records)
    # anything else is a bug in the package and must not become a row
    table.append(("ft-roundtrip", _raises(TypeError), 1e-10))
    with pytest.raises(TypeError):
        run_identity_suite(cfg, jobs=jobs)


# ---------------------------------------------------------------------------
# embedding sweep


def test_embedding_sweep_records_predicates():
    cfg = default_config("embedding")
    cfg = type(cfg)(**{**cfg.__dict__, "N": [64], "functions": 10,
                       "p": [from_p("1"), from_p("2"), from_p("inf")],
                       "q": [from_p("2")], "s": [0.0, 0.6]})
    records = run_embedding_sweep(cfg)
    assert not has_errors(records)
    forward = [r for r in records if r.method == "embed-sobolev-amalgam"]
    assert forward
    for rec in forward:
        if "predicate=true" in rec.flags:
            assert rec.flags.endswith("pass"), rec
        else:
            assert "predicate=false" in rec.flags
    # (1, 2, 0): predicted unbounded but statistics still reported
    skipped = [r for r in forward
               if r.p == 1.0 and r.s == 0.0 and "predicate=false" in r.flags]
    assert skipped and all(np.isfinite(r.value) for r in skipped)
    corollary = [r for r in records if r.method == "bounded-amalgam"]
    assert corollary
    for rec in corollary:
        assert "symbol=" in rec.flags
        assert rec.flags.endswith("pass"), rec


def test_embedding_task_makes_one_table_pass(monkeypatch):
    # the functions and every symbol's outputs on them share one
    # amalgam_norms pass, and each table row is computed as before, so
    # the default CSV keeps its bytes (those of a multiplication applied
    # as a * f, with no identity circulant)
    calls = []
    tables = experiments.amalgam_norms

    def counted(fs, ps, qs):
        calls.append(len(fs))
        return tables(fs, ps, qs)

    monkeypatch.setattr(experiments, "amalgam_norms", counted)
    out = io.StringIO()
    emit_csv(run_embedding_sweep(), out)
    suite = experiments.standard_suite(UniformGrid(1, 256, 16.0))
    assert calls == [50 * (1 + len(suite))]
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == "a91f9af8458f5f9a5b2199d5c1de2ffccbe7d78790e229b27873da7256fc11d2"


def test_embedding_sweep_deterministic_across_jobs():
    cfg = default_config("embedding")
    cfg = type(cfg)(**{**cfg.__dict__, "N": [64], "functions": 6,
                       "p": [from_p("2")], "q": [from_p("2")], "s": [0.0]})
    a = io.StringIO()
    b = io.StringIO()
    emit_csv(run_embedding_sweep(cfg, jobs=1), a)
    emit_csv(run_embedding_sweep(cfg, jobs=3), b)
    assert a.getvalue() == b.getvalue()


# ---------------------------------------------------------------------------
# threshold sweep


def test_threshold_sweep_small():
    cfg = default_config("threshold")
    cfg = type(cfg)(**{**cfg.__dict__, "p": [from_p("2")], "s": [0.0, 0.5],
                       "n_modes": [4, 8], "seeds": [0, 1]})
    records = run_threshold_sweep(cfg, jobs=2)
    assert not has_errors(records)
    raw = [r for r in records if r.method != "slope-fit"]
    slopes = [r for r in records if r.method == "slope-fit"]
    # 2 s-values x 2 mode counts x 2 seeds raw rows, 2 slope rows
    assert len(raw) == 8
    assert len(slopes) == 2
    for rec in raw:
        assert rec.method == "exact_2"
        assert abs(rec.value - 1.0) <= 1e-12
        assert rec.n_modes in (4, 8)
    for rec in slopes:
        assert "stderr=" in rec.flags
        assert abs(rec.value) <= 0.05


def test_threshold_sweep_builds_each_symbol_once(monkeypatch):
    calls = []
    build = experiments.random_phase_multiplier

    def counted(grid, n_modes, seed):
        calls.append((grid.points_per_axis, n_modes, seed))
        return build(grid, n_modes, seed)

    monkeypatch.setattr(experiments, "random_phase_multiplier", counted)
    records = run_threshold_sweep()
    # 3 p x 9 s x 4 mode counts x 3 seeds tasks share 12 symbols
    assert len([r for r in records if r.method != "slope-fit"]) == 324
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 12


def test_threshold_endpoint_flagged():
    cfg = default_config("threshold")
    cfg = type(cfg)(**{**cfg.__dict__, "p": [from_p("1")], "s": [0.5],
                       "n_modes": [4, 8], "seeds": [0]})
    records = run_threshold_sweep(cfg)
    slopes = [r for r in records if r.method == "slope-fit"]
    assert len(slopes) == 1
    assert "endpoint-inconclusive" in slopes[0].flags


def test_threshold_grid_sizes_follow_modes():
    cfg = default_config("threshold")
    cfg = type(cfg)(**{**cfg.__dict__, "p": [from_p("inf")], "s": [0.0],
                       "n_modes": [4, 16], "seeds": [0]})
    records = run_threshold_sweep(cfg)
    raw = {r.n_modes: r.N for r in records if r.method != "slope-fit"}
    assert raw[4] == 128
    assert raw[16] == 512


def test_auto_size_is_the_doubling_loop_in_closed_form():
    def doubling(extent, n_modes):
        n = 64
        while n < 4.0 * extent * max(n_modes, 1):
            n *= 2
        return n

    for extent in (0.1, 1.0, 8.0, 12.8, 16.0, 1e-300, 1e290):
        for n_modes in (0, 1, 4, 10, 33, 2**40):
            assert experiments._auto_size(extent, n_modes) == doubling(extent, n_modes)
    # the loop never ends once 4 L N_modes overflows to inf
    assert experiments._auto_size(1e308, 4) == 2**1024

