"""The benchmark's workloads: what each one builds from the seed and
what one pass of it runs.

A workload is a fixed sequence of segments, each one of modop's sweeps
or the symbol-file CLI, run one after another in one process.  It is a
closed loop driven by one client: a pass starts only after the
previous one has finished.  The seed becomes the sweep configs' `seeds`
lists and the generated inputs; modop sees only those.  Every segment
returns CSV text whose rows `check.py` checks against the segment's
`output` references.
"""

import contextlib
import io
import os
import shutil
import time

from spans import SEGMENT_PREFIX

# modop, and numpy with it, is imported by run.py after it has put the
# checkout's src/ first on sys.path, so these modules import both only
# inside functions; the set-up probe then times numpy's import as part
# of modop's.


class Sweep:
    """One of modop's three default sweeps, run in-process at `jobs`
    worker threads."""

    def __init__(self, experiment, jobs, seeds_per_run):
        self.label = f"{experiment}@jobs{jobs}"
        self.experiment = experiment
        self.output = experiment
        self.jobs = jobs
        self.seeds_per_run = seeds_per_run

    def setup(self, seed):
        from modop.experiments import default_config

        cfg = default_config(self.experiment)
        # seed 0 reproduces the default config's seed list exactly
        cfg.seeds = [seed * self.seeds_per_run + k for k in range(self.seeds_per_run)]
        return cfg

    def run(self, cfg, workdir):
        from modop.experiments import (
            emit_csv,
            run_embedding_sweep,
            run_identity_suite,
            run_threshold_sweep,
        )

        runner = {
            "identity": run_identity_suite,
            "embedding": run_embedding_sweep,
            "threshold": run_threshold_sweep,
        }[self.experiment]
        out = io.StringIO()
        emit_csv(runner(cfg, jobs=self.jobs), out)
        return out.getvalue()


SYMBOL_FILES_HEADER = "command,kind,N,p,record,alpha,beta,value,method,flags"

# (kind, N, L, extra gen arguments, run classify); the bump runs on a
# small grid and multiplication skips classify, because both would take
# the dense O(N^4) Sjostrand path
_KINDS = (
    ("constant", 256, 16.0, (), True),
    ("multiplication", 256, 16.0, (), False),
    ("translation", 256, 16.0, ("--a", "1"), True),
    ("bessel", 256, 16.0, ("--s", "-1"), True),
    ("bump", 64, 8.0, (), True),
    ("phases", 256, 16.0, ("--n-modes", "4"), True),
)
_OPNORM_P = ("1", "4/3", "2", "4")
_OPNORM_S = "0.25"
_SFN_FUNCTIONS = 8


class SymbolFiles:
    """The symbol-file CLI (`gen`, `opnorm`, `classify`) called in-process,
    plus an SFN write/read round trip of seeded test functions."""

    label = "symbol-files"
    output = "symbol-files"

    def setup(self, seed):
        import numpy as np
        from modop.grid import SampledFunction, UniformGrid

        commands = []
        for kind, n, extent, extra, classify in _KINDS:
            path = f"{kind}.pss"
            gen = ["gen", "--kind", kind, "--n", str(n), "--extent", f"{extent:g}", *extra]
            if kind == "phases":
                gen += ["--seed", str(seed)]
            commands.append(("gen", kind, n, "", gen + ["--out", path]))
            for p in _OPNORM_P:
                argv = ["opnorm", "--symbol", path, "--p", p, "--s", _OPNORM_S, "--seed", str(seed)]
                commands.append(("opnorm", kind, n, p, argv))
            if classify:
                argv = ["classify", "--symbol", path, "--s", _OPNORM_S]
                commands.append(("classify", kind, n, "", argv))

        grid = UniformGrid(1, 256, 16.0)
        x = grid.axis_points()
        # seeded trig polynomials under a Gaussian envelope
        waves = np.exp(2j * np.pi * np.outer(np.arange(-4, 5), x) / grid.extent)
        envelope = np.exp(-np.pi * (x / 2.0) ** 2)
        rng = np.random.default_rng(seed)
        functions = []
        for _ in range(_SFN_FUNCTIONS):
            coeff = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            functions.append(SampledFunction(grid, (coeff @ waves) * envelope))
        return commands, functions

    def run(self, inputs, workdir):
        import numpy as np
        from modop import cli
        from modop.grid import read_sfn, write_sfn

        commands, functions = inputs
        rows = [SYMBOL_FILES_HEADER]
        os.makedirs(workdir, exist_ok=True)
        try:
            for command, kind, n, p, argv in commands:
                argv = [os.path.join(workdir, a) if a.endswith(".pss") else a for a in argv]
                code, text, error = _call_cli(cli, argv)
                rows.append(f"{command},{kind},{n},{p},exit,,,{code},,{error}")
                if error:
                    continue
                lines = text.splitlines()
                if command == "opnorm":
                    value, method, _, _, _, lower = lines[1].split(",")
                    flags = "lower-bound" if lower == "true" else ""
                    rows.append(f"opnorm,{kind},{n},{p},norm,,,{value},{method},{flags}")
                elif command == "classify":
                    for line in lines[1:]:
                        record, alpha, beta, _, _, _, _, value = line.split(",")
                        rows.append(f"classify,{kind},{n},,{record},{alpha},{beta},{value},,")
            for i, f in enumerate(functions):
                path = os.path.join(workdir, f"f{i}.sfn")
                write_sfn(f, path)
                back = read_sfn(path)
                error = float(np.max(np.abs(back.values - f.values)))
                # SFN promises a bit-exact round trip
                flags = "pass" if back.grid == f.grid and error == 0.0 else "fail"
                rows.append(f"sfn,f{i},{f.grid.points_per_axis},,roundtrip,,,{error:.17g},,{flags}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return "\n".join(rows) + "\n"


def _call_cli(cli, argv):
    """Run `modop.cli.main` with its output captured.  Returns the exit
    code, stdout, and an error flag for a non-zero exit or an exception
    that escaped the CLI (exit code -1)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments by exiting
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - any escape is recorded as a failed command
        return -1, "", f"error={type(exc).__name__}"
    return code, out.getvalue(), "" if code == 0 else f"error=exit-{code}"


class Workload:
    """Segments run in order as one pass.  `same_bytes` names pairs of
    segments whose CSV must be identical byte for byte."""

    def __init__(self, name, segments, same_bytes=()):
        self.name = name
        self.segments = segments
        self.same_bytes = same_bytes

    def setup(self, seed):
        return [segment.setup(seed) for segment in self.segments]

    def run(self, inputs, workdir):
        """One pass; returns {label: CSV text} and {label: wall seconds}."""
        texts = {}
        walls = {}
        for segment, segment_inputs in zip(self.segments, inputs):
            texts[segment.label], walls[segment.label] = run_segment(segment, segment_inputs, workdir)
        return texts, walls


def run_segment(segment, inputs, workdir, tracer=None):
    """Run one segment; returns its CSV text and wall seconds.  Under a
    tracer the segment runs inside a `segment.<label>` span."""
    span = tracer.open(SEGMENT_PREFIX + segment.label) if tracer else None
    start = time.perf_counter()
    try:
        text = segment.run(inputs, workdir)
    finally:
        wall = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
    return text, wall


# Two workloads, each long enough per pass that a run averages over the
# host's speed swings (tens of seconds on small shared machines).  The
# first never calls opnorm; the second calls no STFT, power_mean or
# kn_apply, so each bypasses the other's layers.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("identity-embedding", [Sweep("identity", 1, 1), Sweep("embedding", 1, 1)]),
        Workload(
            "threshold-files",
            [Sweep("threshold", 1, 3), Sweep("threshold", 2, 3), SymbolFiles()],
            same_bytes=[("threshold@jobs1", "threshold@jobs2")],
        ),
    )
}
