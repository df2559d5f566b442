import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import modop
from modop import (
    PhaseSpaceSymbol,
    cli,
    read_pss,
    read_records,
    sjostrand_norm,
    sobolev_opnorm,
    write_pss,
)
from modop.experiments import CSV_HEADER
from modop.exponents import from_p
from modop.grid import UniformGrid
from modop.symbols import bessel_symbol, gaussian_bump_symbol


# the directory modop was imported from, first on the subprocess's path,
# so the entry point under test is this package whether or not it is installed
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(modop.__file__)))


def run_cli(*argv):
    """cli.main(argv) in this process, with its exit status and captured
    output; an argparse exit (usage error) becomes its exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(map(str, argv)))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(argv, code, stdout.getvalue(), stderr.getvalue())


def test_module_entry_point_exit_codes():
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    for argv, code, shown in (
        (["regions", "--p", "1", "--q", "2"], 0, "p,q,s,n,"),
        (["frobnicate"], 2, "invalid choice"),
    ):
        proc = subprocess.run([sys.executable, "-m", "modop.cli", *argv], capture_output=True,
                              text=True, timeout=600, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == code, proc.stderr
        assert shown in proc.stdout + proc.stderr


def test_sizes_past_the_grid_cap_end_with_too_large(tmp_path):
    # in a subprocess with a timeout: the auto size once looped forever
    # when 4 L N_modes overflowed to inf
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    configs = [{"L": 1e308}, {"L": 1e290}, {"N": [2**40], "n_modes": [4]}]
    runs = []
    for i, fields in enumerate(configs):
        config = tmp_path / f"huge{i}.json"
        config.write_text(json.dumps({"experiment": "threshold", **fields}))
        runs.append((["threshold", "--config", str(config)], 1))
    runs.append((["gen", "--kind", "constant", "--n", str(2**40), "--extent", "8",
                  "--out", str(tmp_path / "huge.pss")], 2))
    for argv, code in runs:
        proc = subprocess.run([sys.executable, "-m", "modop.cli", *argv], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == code, proc.stderr
        if code == 1:
            rows = proc.stdout.splitlines()[1:]
            assert rows and all(row.endswith(",error=TooLarge") for row in rows)
        else:
            assert proc.stderr.startswith("error: points_per_axis is limited to")
        assert "Traceback" not in proc.stderr
    assert not (tmp_path / "huge.pss").exists()


def test_regions_golden_row():
    proc = run_cli("regions", "--p", "1", "--q", "2", "--s", "0.5")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == (
        "p,q,s,n,tau1,tau2,region_star,region,"
        "embeds_sobolev_into_amalgam,embeds_amalgam_into_sobolev,sharp_threshold"
    )
    assert lines[1] == "1,2,0.5,1,0.5,0,I*2,I1,false,false,0.5"


def test_main_twice_in_one_process_gives_the_same_output(tmp_path, capsys):
    # main reuses one parser per process; a second call must not see the first
    assert cli.build_parser() is cli.build_parser()
    symbol = tmp_path / "bump.pss"
    write_pss(gaussian_bump_symbol(UniformGrid(1, 32, 4.0)), symbol)
    calls = {
        "regions": ["regions", "--p", "1", "--q", "2", "--s", "0.5"],
        "opnorm": ["opnorm", "--symbol", str(symbol), "--p", "4", "--s", "0.25"],
        "gen": ["gen", "--kind", "phases", "--n", "64", "--extent", "4", "--seed", "3"],
    }
    outputs = []
    for attempt in range(2):
        run = {}
        for name, argv in calls.items():
            if name == "gen":
                argv = argv + ["--out", str(tmp_path / f"phases{attempt}.pss")]
            assert cli.main(argv) == 0
            run[name] = capsys.readouterr()
        outputs.append(run)
    assert outputs[0] == outputs[1]
    assert (tmp_path / "phases0.pss").read_bytes() == (tmp_path / "phases1.pss").read_bytes()
    row = outputs[0]["regions"].out.splitlines()[1]
    assert row == "1,2,0.5,1,0.5,0,I*2,I1,false,false,0.5"


def _readme():
    with open(os.path.join(os.path.dirname(_SRC), "README.md"), encoding="utf-8") as fh:
        return fh.read()


def test_readme_commands_print_what_it_shows(tmp_path, monkeypatch, capsys):
    # every sh block of `$ modop` lines that shows output runs in order in
    # a fresh directory; a "..." line ends the part of the output shown
    monkeypatch.chdir(tmp_path)
    blocks = [b for b in re.findall(r"```sh\n(.*?)```", _readme(), re.S) if b.startswith("$ modop ")]
    blocks = [b for b in blocks if not all(line.startswith("$ ") for line in b.splitlines())]
    assert len(blocks) == 2
    for block in blocks:
        for command in re.split(r"^\$ ", block, flags=re.M)[1:]:
            line, *want = command.splitlines()
            argv = shlex.split(line)
            assert argv[0] == "modop"
            assert cli.main(argv[1:]) == 0, line
            got = capsys.readouterr().out.splitlines()
            if "..." in want:
                want = want[:want.index("...")]
                got = got[:len(want)]
            assert got == want, line


def test_readme_quick_start_runs(capsys):
    code = re.search(r"## Quick start\n\n```python\n(.*?)```", _readme(), re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    value, method, lower_bound_only = capsys.readouterr().out.split()
    assert (method, lower_bound_only) == ("power_2", "False")


def test_star_import_binds_no_submodule():
    exported = [getattr(modop, name) for name in modop.__all__]
    assert not [value for value in exported if isinstance(value, type(modop))]
    assert "grid" not in modop.__all__ and "UniformGrid" in modop.__all__


def test_regions_fractional_exponent():
    proc = run_cli("regions", "--p", "4/3", "--q", "2")
    assert proc.returncode == 0
    row = proc.stdout.splitlines()[1].split(",")
    assert float(row[0]) == pytest.approx(4.0 / 3.0)
    assert row[4] == "0.25"
    assert row[9] == "true"
    assert row[10] == "0.25"


def test_gen_writes_readable_symbol(tmp_path):
    out = tmp_path / "bessel.pss"
    proc = run_cli("gen", "--kind", "bessel", "--n", "64", "--extent", "8",
                   "--s", "1.5", "--out", out)
    assert proc.returncode == 0
    symbol = read_pss(out)
    grid = UniformGrid(1, 64, 8.0)
    expected = bessel_symbol(grid, 1.5)
    assert symbol.grid == expected.grid
    assert symbol.quantization == expected.quantization
    np.testing.assert_array_equal(symbol.values, expected.values)
    # the CLI writes through the same serializer, byte for byte
    again = tmp_path / "again.pss"
    write_pss(expected, again)
    assert out.read_bytes() == again.read_bytes()


def test_opnorm_row_matches_library(tmp_path):
    out = tmp_path / "bump.pss"
    assert run_cli("gen", "--kind", "bump", "--n", "64", "--extent", "8",
                   "--out", out).returncode == 0
    proc = run_cli("opnorm", "--symbol", out, "--p", "2", "--s", "0.25")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "value,method,iterations,residual,restarts,lower_bound_only"
    value, method, iterations, residual, restarts, flagged = lines[1].split(",")
    est = sobolev_opnorm(read_pss(out), from_p(2), 0.25, seed=0)
    assert float(value) == pytest.approx(est.value, rel=1e-12)
    assert method == "power_2" == est.method
    assert int(iterations) >= 1
    assert float(residual) <= 1e-9
    assert int(restarts) == 0
    assert flagged == "false"


def test_opnorm_of_a_weyl_product_file_matches_its_dense_twin(tmp_path):
    # a Weyl factors=1 file goes to Kohn-Nirenberg by the dense chirp, as
    # its factors=0 twin does, so both report the same estimates
    bump = gaussian_bump_symbol(UniformGrid(1, 32, 4.0))
    product = PhaseSpaceSymbol.product(bump.grid, *bump.factors, "weyl")
    files = {"product": tmp_path / "product.pss", "dense": tmp_path / "dense.pss"}
    write_pss(product, files["product"])
    write_pss(product.with_values(product.values), files["dense"])
    headers = {name: path.read_text().splitlines()[1] for name, path in files.items()}
    assert headers["product"].endswith("quant=weyl factors=1")
    assert headers["dense"].endswith("quant=weyl factors=0")
    for p in ("1", "4/3", "2", "inf"):
        rows = {}
        for name, path in files.items():
            proc = run_cli("opnorm", "--symbol", path, "--p", p, "--s", "0.25")
            assert proc.returncode == 0, proc.stderr
            rows[name] = proc.stdout.splitlines()[1].split(",")
        (value, method, *_), (want, want_method, *_) = rows["product"], rows["dense"]
        assert method == want_method, p
        assert abs(float(value) - float(want)) <= 1e-12 * float(want), p


def test_identity_cli_small_config(tmp_path):
    cfg = tmp_path / "identity.json"
    cfg.write_text(json.dumps({"experiment": "identity", "N": [64], "L": 8.0}))
    proc = run_cli("identity", "--config", cfg)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == "experiment,p,q,s,n,N,N_modes,seed,value,method,flags"
    parsed = tmp_path / "copy.csv"
    parsed.write_text(proc.stdout)
    records = read_records(parsed)
    assert records and all(r.flags == "pass" for r in records)


def test_threshold_cli_deterministic_across_jobs(tmp_path):
    cfg = tmp_path / "threshold.json"
    cfg.write_text(json.dumps({
        "experiment": "threshold",
        "p": ["2"],
        "s": [0.0, 0.5],
        "n_modes": [4, 8],
        "seeds": [0, 1],
    }))
    one = run_cli("threshold", "--config", cfg, "--seed", "5")
    assert one.returncode == 0
    out = tmp_path / "rows.csv"
    direct = run_cli("threshold", "--config", cfg, "--seed", "5", "--out", out)
    assert direct.returncode == 0
    assert direct.stdout == ""
    assert out.read_text() == one.stdout


def test_classify_rows(tmp_path):
    out = tmp_path / "bump.pss"
    run_cli("gen", "--kind", "bump", "--n", "64", "--extent", "8", "--out", out)
    proc = run_cli("classify", "--symbol", out, "--max-order", "1")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "record,alpha,beta,m,rho,delta,s,value"
    seminorm = [l.split(",") for l in lines[1:] if l.startswith("seminorm,")]
    sjostrand = [l.split(",") for l in lines[1:] if l.startswith("sjostrand,")]
    assert len(seminorm) == 3 and len(sjostrand) == 1
    orders = {(int(r[1]), int(r[2])) for r in seminorm}
    assert orders == {(0, 0), (0, 1), (1, 0)}
    assert all(math.isfinite(float(r[7])) and float(r[7]) > 0 for r in seminorm)
    assert float(sjostrand[0][7]) > 0


def test_classify_large_phases_file_loads_factored(tmp_path):
    # a generated multiplier file records its factors, so classify takes the
    # factored Sjostrand path; a dense symbol at N=512 would be refused as too large
    out = tmp_path / "phases.pss"
    assert run_cli("gen", "--kind", "phases", "--n", "512", "--extent", "16",
                   "--out", out).returncode == 0
    assert read_pss(out).factors is not None
    proc = run_cli("classify", "--symbol", out)
    assert proc.returncode == 0, proc.stderr
    sjostrand = [l.split(",") for l in proc.stdout.splitlines() if l.startswith("sjostrand,")]
    assert len(sjostrand) == 1 and math.isfinite(float(sjostrand[0][7]))


def test_classify_large_bump_file_matches_memory(tmp_path):
    # the bump's rows and columns both vary; its file still loads factored
    out = tmp_path / "bump.pss"
    assert run_cli("gen", "--kind", "bump", "--n", "512", "--extent", "16",
                   "--out", out).returncode == 0
    assert len(out.read_text().splitlines()) == 2 + 2 * 512
    proc = run_cli("classify", "--symbol", out)
    assert proc.returncode == 0, proc.stderr
    expected = sjostrand_norm(gaussian_bump_symbol(UniformGrid(1, 512, 16.0)))
    assert proc.stdout.splitlines()[-1] == f"sjostrand,,,,,,0,{expected:.17g}"


def test_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": "identity", "banana": 1}))
    proc = run_cli("identity", "--config", cfg)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "banana" in proc.stderr

    cfg.write_text(json.dumps({"experiment": "threshold"}))
    proc = run_cli("identity", "--config", cfg)
    assert proc.returncode == 2

    # a mode count of 0 has no log for the slope fit
    cfg.write_text(json.dumps({"experiment": "threshold", "n_modes": [0, 1, 2], "p": ["1"],
                               "s": [0.5], "seeds": [0]}))
    proc = run_cli("threshold", "--config", cfg)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "n_modes" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ("opnorm", "--symbol", "nothere.pss", "--p", "2"),
    ("identity", "--config", "nothere.json"),
    ("gen", "--kind", "constant", "--n", "8", "--extent", "1", "--out", "nodir/x.pss"),
], ids=["opnorm-symbol", "identity-config", "gen-out"])
def test_missing_files_exit_2(tmp_path, capsys, argv):
    # the paths are relative to tmp_path, which holds no file or directory
    argv = [str(tmp_path / a) if a.startswith("no") else a for a in argv]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "No such file or directory" in err
    assert not any(tmp_path.iterdir())


def test_threshold_modes_past_the_box_give_error_rows(tmp_path):
    # 8 modes plus the bump radius 0.45 pass N / (2 L) = 8, so only the 4-mode tasks fit
    cfg = tmp_path / "threshold.json"
    cfg.write_text(json.dumps({
        "experiment": "threshold",
        "L": 8,
        "N": [128, 128],
        "n_modes": [4, 8],
        "p": ["2"],
        "s": [0.25],
        "seeds": [0, 1],
    }))
    out = tmp_path / "rows.csv"
    proc = run_cli("threshold", "--config", cfg, "--out", out)
    assert proc.returncode == 1
    records = read_records(out)
    assert [(r.n_modes, r.flags) for r in records] == [
        (4, ""), (4, ""), (8, "error=TooManyModes"), (8, "error=TooManyModes")
    ]
    assert all(math.isnan(r.value) for r in records[2:])


def test_threshold_modes_past_the_matrix_limit(tmp_path):
    # 64 modes need N = 2048, past as_matrix's 1024; multipliers take no matrix
    cfg = tmp_path / "threshold.json"
    cfg.write_text(json.dumps({
        "experiment": "threshold",
        "n_modes": [32, 64],
        "p": ["1", "inf"],
        "s": [0],
        "seeds": [0, 1],
    }))
    out = tmp_path / "rows.csv"
    proc = run_cli("threshold", "--config", cfg, "--out", out)
    assert proc.returncode == 0, proc.stderr
    records = read_records(out)
    assert not any(r.flags.startswith("error=") for r in records)
    raw = {(r.n_modes, r.N) for r in records if r.method != "slope-fit"}
    assert sorted(raw) == [(32, 1024), (64, 2048)]
    slopes = [r.p for r in records if r.method == "slope-fit"]
    assert slopes == [1.0, math.inf]


@pytest.mark.parametrize("command, name, content", [
    ("classify", "huge.pss", b"PSS 2\ndim=1 n=1048576 extent=2 quant=kn factors=0\n0 0\n"),
    ("classify", "accent.pss", b"PSS 2\ndim=1 n=2 extent=2 quant=kn factors=1\n0 \xc3\n"),
    ("identity", "bad.json", b'{"experiment": "identity"}\xff'),
], ids=["pss-header-past-the-file", "pss-non-ascii", "config-non-utf8"])
def test_malformed_input_files_exit_2(tmp_path, capsys, command, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    option = "--config" if name.endswith(".json") else "--symbol"
    assert cli.main([command, option, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("argv", [
    ("gen", "--kind", "bump", "--n", "7", "--extent", "8"),
    ("gen", "--kind", "bump", "--n", "8", "--extent", "-1"),
    ("gen", "--kind", "phases", "--n", "64", "--extent", "8", "--n-modes", "-1"),
    ("regions", "--p", "2", "--q", "2", "--n", "0"),
    ("classify", "--max-order", "-1"),
    ("regions", "--p", "2", "--q", "2", "--s", "nan"),
    ("classify", "--rho", "2", "--delta", "-1"),
    ("classify", "--m", "nan"),
    ("opnorm", "--p", "2", "--s", "inf"),
    ("classify", "--s", "nan"),
    ("classify", "--s", "inf"),
    ("gen", "--kind", "constant", "--n", "8", "--extent", "inf"),
    ("gen", "--kind", "phases", "--n", "64", "--extent", "4", "--seed", "-1"),
    ("opnorm", "--p", "4", "--seed", "-7"),
    ("classify", "--s", "1e6"),
    ("regions", "--p=-inf", "--q", "2"),
])
def test_bad_values_exit_2(tmp_path, argv):
    if argv[0] == "gen":
        argv += ("--out", tmp_path / "x.pss")
    if argv[0] in ("classify", "opnorm"):
        symbol = tmp_path / "bessel.pss"
        write_pss(bessel_symbol(UniformGrid(1, 8, 4.0), 1.0), symbol)
        argv += ("--symbol", symbol)
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, removed", [
    (("threshold",), ("--jobs", "2")),
    (("opnorm", "--symbol", "x.pss", "--p", "2"), ("--method", "exact_2")),
], ids=["threshold-jobs", "opnorm-method"])
def test_jobs_option_is_gone(argv, removed):
    proc = run_cli(*argv, *removed)
    assert proc.returncode == 2
    assert f"unrecognized arguments: {' '.join(removed)}" in proc.stderr
    assert proc.stdout == ""


def test_gen_too_many_modes_exits_2(tmp_path):
    proc = run_cli("gen", "--kind", "phases", "--n", "64", "--extent", "8",
                   "--n-modes", "16", "--out", tmp_path / "x.pss")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_gen_non_finite_order_exits_2(tmp_path):
    out = tmp_path / "x.pss"
    proc = run_cli("gen", "--kind", "bessel", "--n", "8", "--extent", "1", "--s=-inf",
                   "--out", out)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "finite" in proc.stderr
    assert not out.exists()


def test_unknown_subcommand_is_usage_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr
