"""Experiment drivers: the identity suite, the embedding sweep, and the
threshold sweep, with a shared CSV record format.

Every run is deterministic: task lists are built in a fixed order, each
task derives its own random stream from the configured seeds, and
results are joined in task order, so the emitted CSV is byte for byte
identical whatever the worker count.

Records use one flat schema (see CSV_HEADER).  Fields that do not apply
to a row are left empty; `flags` carries semicolon-separated markers
such as pass / fail, lower-bound notices, predicate verdicts, and
error=<ExceptionName> for tasks that raised.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._rng import bulk_rng, derive_seed
from .analysis import (
    _mixed_norms,
    _windowed_spectra,
    amalgam_norm,
    default_window,
    lp_norm,
    modulation_norm,
    sjostrand_norm,
    sobolev_norm,
    stft,
)
from .errors import ConfigError, FileFormatError
from .exponents import from_p
from .grid import (
    SampledFunction,
    UniformGrid,
    bessel_potential,
    forward_ft,
    ft_along,
    ift_along,
    inverse_ft,
    translate,
)
from .opnorm import sobolev_opnorm
from .quantize import (
    KOHN_NIRENBERG,
    WEYL,
    PhaseSpaceSymbol,
    as_matrix,
    kernel_to_weyl,
    kn_apply,
    lift_symbol,
    u_transform,
    weyl_apply,
    weyl_to_kernel,
)
from .regions import (
    embeds_amalgam_into_sobolev,
    embeds_sobolev_into_amalgam,
    sharp_threshold,
)
from .symbols import (
    bessel_symbol,
    constant_symbol,
    gaussian_bump_symbol,
    multiplication_symbol,
    random_phase_multiplier,
    standard_suite,
    translation_symbol,
)

CSV_HEADER = "experiment,p,q,s,n,N,N_modes,seed,value,method,flags"

_EXPERIMENTS = ("identity", "embedding", "threshold")

_CONFIG_KEYS = {
    "experiment",
    "N",
    "L",
    "p",
    "q",
    "s",
    "n_modes",
    "seeds",
    "functions",
    "tolerances",
    "out",
}

_FUNCTION_SALT = 0xF0
_NORM_SALT = 0x6E6F726D
_RATIO_BAND = 10.0


@dataclass
class SweepConfig:
    """Parsed experiment configuration; None means use the default."""

    experiment: str
    N: list = None
    L: float = None
    p: list = None
    q: list = None
    s: list = None
    n_modes: list = None
    seeds: list = None
    functions: int = None
    tolerances: dict = field(default_factory=dict)
    out: str = None


@dataclass(frozen=True)
class SweepRecord:
    """One CSV row; see CSV_HEADER for the column order."""

    experiment: str
    p: float = None
    q: float = None
    s: float = None
    n: int = None
    N: int = None
    n_modes: int = None
    seed: int = None
    value: float = math.nan
    method: str = ""
    flags: str = ""


def _int_list(value, key):
    if isinstance(value, int) and not isinstance(value, bool):
        return [value]
    if isinstance(value, list) and value and all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    ):
        return list(value)
    raise ConfigError(f"config key {key!r} must be an integer or list of integers")


def _float_list(value, key):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    if isinstance(value, list) and value and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        return [float(v) for v in value]
    raise ConfigError(f"config key {key!r} must be a number or list of numbers")


def _exponent_list(value, key):
    if not isinstance(value, list):
        value = [value]
    out = []
    for entry in value:
        try:
            out.append(from_p(entry))
        except Exception as exc:
            raise ConfigError(f"config key {key!r}: bad exponent {entry!r}: {exc}") from exc
    if not out:
        raise ConfigError(f"config key {key!r} must not be empty")
    return out


def load_config(path, experiment=None):
    """Read a strict-JSON sweep configuration.

    Unknown keys are rejected rather than ignored, so typos fail loudly.
    When `experiment` is given, a mismatching experiment field in the
    file is an error.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")

    named = raw.get("experiment")
    if named is not None:
        if named not in _EXPERIMENTS:
            raise ConfigError(f"{path}: experiment must be one of {_EXPERIMENTS}, got {named!r}")
        if experiment is not None and named != experiment:
            raise ConfigError(f"{path}: config is for {named!r}, not {experiment!r}")
    if named is None and experiment is None:
        raise ConfigError(f"{path}: no experiment named in the file or on the command line")

    cfg = SweepConfig(experiment=named or experiment)
    if "N" in raw:
        cfg.N = _int_list(raw["N"], "N")
        if any(n < 2 or n & (n - 1) for n in cfg.N):
            raise ConfigError("config key 'N' entries must be powers of two, >= 2")
    if "L" in raw:
        if not isinstance(raw["L"], (int, float)) or isinstance(raw["L"], bool) or raw["L"] <= 0:
            raise ConfigError("config key 'L' must be a positive number")
        cfg.L = float(raw["L"])
    if "p" in raw:
        cfg.p = _exponent_list(raw["p"], "p")
    if "q" in raw:
        cfg.q = _exponent_list(raw["q"], "q")
    if "s" in raw:
        cfg.s = _float_list(raw["s"], "s")
        if cfg.experiment == "threshold" and any(v < 0 for v in cfg.s):
            raise ConfigError("config key 's' entries must be >= 0 for the threshold sweep")
    if "n_modes" in raw:
        cfg.n_modes = _int_list(raw["n_modes"], "n_modes")
        if any(m < 0 for m in cfg.n_modes):
            raise ConfigError("config key 'n_modes' entries must be >= 0")
    if "seeds" in raw:
        cfg.seeds = _int_list(raw["seeds"], "seeds")
        if any(s < 0 or s > 0xFFFFFFFFFFFFFFFF for s in cfg.seeds):
            raise ConfigError("config key 'seeds' entries must be unsigned 64-bit")
    if "functions" in raw:
        count = raw["functions"]
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ConfigError("config key 'functions' must be a positive integer")
        cfg.functions = count
    if "tolerances" in raw:
        tols = raw["tolerances"]
        if not isinstance(tols, dict):
            raise ConfigError("config key 'tolerances' must be an object")
        for key, val in tols.items():
            if not isinstance(val, (int, float)) or isinstance(val, bool) or val <= 0:
                raise ConfigError(f"tolerance {key!r} must be a positive number")
        cfg.tolerances = {k: float(v) for k, v in tols.items()}
    if "out" in raw:
        if not isinstance(raw["out"], str):
            raise ConfigError("config key 'out' must be a string path")
        cfg.out = raw["out"]
    return cfg


def default_config(experiment):
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {_EXPERIMENTS}, got {experiment!r}")
    return SweepConfig(experiment=experiment)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def emit_csv(records, destination):
    """Write records to a path or a file-like object, header first."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    r.experiment,
                    r.p,
                    r.q,
                    r.s,
                    r.n,
                    r.N,
                    r.n_modes,
                    r.seed,
                    r.value,
                    r.method,
                    r.flags,
                )
            )
        )
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="ascii") as fh:
            fh.write(text)


def _parse_field(text, kind, column, lineno, path):
    if text == "":
        return None
    try:
        if kind is int:
            return int(text)
        return float(text)
    except ValueError as exc:
        raise FileFormatError(
            f"{path}: line {lineno}: bad {column} value {text!r}"
        ) from exc


def read_records(path):
    """Parse a CSV produced by emit_csv back into SweepRecord objects."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise FileFormatError(f"{path}: missing or wrong header line")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 11:
            raise FileFormatError(f"{path}: line {lineno}: expected 11 fields, got {len(parts)}")
        records.append(
            SweepRecord(
                experiment=parts[0],
                p=_parse_field(parts[1], float, "p", lineno, path),
                q=_parse_field(parts[2], float, "q", lineno, path),
                s=_parse_field(parts[3], float, "s", lineno, path),
                n=_parse_field(parts[4], int, "n", lineno, path),
                N=_parse_field(parts[5], int, "N", lineno, path),
                n_modes=_parse_field(parts[6], int, "N_modes", lineno, path),
                seed=_parse_field(parts[7], int, "seed", lineno, path),
                value=_parse_field(parts[8], float, "value", lineno, path),
                method=parts[9],
                flags=parts[10],
            )
        )
    return records


def _run_tasks(tasks, jobs):
    """Run the task closures, preserving task order in the output."""
    if jobs is None or jobs <= 1:
        batches = [task() for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            batches = list(pool.map(lambda task: task(), tasks))
    records = []
    for batch in batches:
        records.extend(batch)
    return records


def _guarded(stub, compute):
    """Wrap a record-producing closure; exceptions become error rows."""

    def task():
        try:
            return compute()
        except Exception as exc:  # noqa: BLE001 - any task failure becomes a row
            return [
                SweepRecord(
                    **{**stub, "value": math.nan, "flags": f"error={type(exc).__name__}"}
                )
            ]

    return task


def has_errors(records):
    return any(r.flags.startswith("error=") or ";error=" in r.flags for r in records)


# ----------------------------------------------------------------------
# shared test-signal builders


def _test_function(grid, seed, modes=8):
    """Seeded band-limited bump: a trig polynomial under a Gaussian
    envelope, well inside the frequency window at every grid in use."""
    rng = bulk_rng(seed)
    count = 2 * modes + 1
    coeff = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    x = grid.axis_points()
    width = grid.extent / 8.0
    values = np.zeros(grid.points_per_axis, dtype=complex)
    for j, k in enumerate(range(-modes, modes + 1)):
        values += coeff[j] * np.exp(2j * np.pi * k * x / grid.extent)
    return SampledFunction(grid, values * np.exp(-np.pi * (x / width) ** 2))


def _weyl_test_symbol(grid):
    """A real, x-dependent, smoothly decaying Weyl test symbol."""
    x = grid.axis_points()[:, None]
    xi = grid.axis_frequencies()[None, :]
    values = np.exp(-np.pi * (x**2 + xi**2)) + 0.5 * np.exp(
        -np.pi * ((x - 1.0) ** 2 + (xi + 0.5) ** 2)
    )
    return PhaseSpaceSymbol(grid, values, WEYL)


def _weyl_direct_apply(symbol, f):
    """Quadrature reference for the Weyl action: upsample the symbol in
    x, evaluate at periodic midpoints, and sum the double quadrature.

    O(N^3) and meant for small N; the periodic midpoint (the wrapped
    geodesic between x and y, not the arithmetic mean) is what matches
    the spectral calculus across the box seam.
    """
    grid = symbol.grid
    n = grid.points_per_axis
    h = grid.spacing
    spec = ft_along(symbol.values, 0, h)
    pad = np.zeros((2 * n, n), dtype=complex)
    pad[n // 2 : n // 2 + n] = spec
    fine = ift_along(pad, 0, h / 2.0)
    j = np.arange(n)
    t = (j[:, None] - j[None, :] + n // 2) % n - n // 2
    mid = (2 * j[:, None] - t) % (2 * n)
    x = grid.axis_points()
    xi = grid.axis_frequencies()
    phase = np.exp(2j * np.pi * (x[:, None] - x[None, :])[:, :, None] * xi[None, None, :])
    kernel = (fine[mid, :] * phase).sum(axis=2) / grid.extent
    return SampledFunction(grid, h * (kernel @ f.values))


# ----------------------------------------------------------------------
# identity suite

_IDENTITY_TOLERANCES = {
    "ft-gaussian": 1e-10,
    "ft-roundtrip": 1e-12,
    "parseval": 1e-12,
    "translate-covariance": 1e-12,
    "bessel-roundtrip": 1e-12,
    "stft-isometry": 1e-12,
    "stft-gaussian-peak": 1e-10,
    "stft-gaussian-law": 1e-6,
    "modulation-2-2": 1e-4,
    "amalgam-2-2": 1e-4,
    "fourier-amalgam": 5e-2,
    "sjostrand-constant": 1e-4,
    "sjostrand-two-scale": 1e-2,
    "kn-constant": 1e-12,
    "kn-multiplication": 1e-12,
    "kn-translation": 1e-10,
    "kn-bessel": 1e-10,
    "weyl-oracle": 1e-8,
    "u-roundtrip": 1e-12,
    "kernel-roundtrip": 1e-10,
    "kernel-identity": 1e-10,
    "weyl-adjoint": 1e-10,
    "lift-composition": 1e-12,
    "matrix-matvec": 1e-10,
    "matrix-intertwine": 1e-10,
}


def _rel_max(actual, reference):
    scale = np.max(np.abs(reference))
    if scale == 0.0:
        return float(np.max(np.abs(actual - reference)))
    return float(np.max(np.abs(actual - reference)) / scale)


def _check_ft_gaussian(grid, seed):
    f = SampledFunction.from_callable(grid, lambda x: np.exp(-np.pi * x**2))
    expected = np.exp(-np.pi * grid.axis_frequencies() ** 2)
    return _rel_max(forward_ft(f).values, expected)


def _check_ft_roundtrip(grid, seed):
    f = _test_function(grid, seed)
    return _rel_max(inverse_ft(forward_ft(f)).values, f.values)


def _check_parseval(grid, seed):
    f = _test_function(grid, seed)
    space = grid.cell * np.sum(np.abs(f.values) ** 2)
    freq = grid.dual_cell * np.sum(np.abs(forward_ft(f).values) ** 2)
    return abs(space - freq) / space


def _check_translate_covariance(grid, seed):
    f = _test_function(grid, seed)
    a = grid.spacing * (grid.points_per_axis // 5)
    lhs = forward_ft(translate(f, a)).values
    rhs = np.exp(-2j * np.pi * a * grid.axis_frequencies()) * forward_ft(f).values
    return _rel_max(lhs, rhs)


def _check_bessel_roundtrip(grid, seed):
    f = _test_function(grid, seed)
    back = bessel_potential(bessel_potential(f, 1.7), -1.7)
    return _rel_max(back.values, f.values)


def _check_stft_isometry(grid, seed):
    f = _test_function(grid, seed)
    g = default_window(grid)
    v = stft(f, g)
    lhs = math.sqrt(v.cell * np.sum(np.abs(v.values) ** 2))
    rhs = lp_norm(f, 2) * lp_norm(g, 2)
    return abs(lhs / rhs - 1.0)


def _check_stft_gaussian_peak(grid, seed):
    g = default_window(grid)
    v = stft(g, g)
    center = grid.points_per_axis // 2
    return abs(v.values[center, center] - 1.0)


def _check_stft_gaussian_law(grid, seed):
    g = default_window(grid)
    v = stft(g, g)
    x = v.x_axis_points[:, None]
    xi = v.xi_axis_points[None, :]
    reach = min(3.0, -v.x_axis_points[0] - v.x_step, v.xi_axis_points[-1])
    mask = (np.abs(x) <= reach) & (np.abs(xi) <= reach)
    law = np.exp(-np.pi * (x**2 + xi**2) / 2.0)
    ratio = np.abs(np.abs(v.values[mask]) - law[mask]) / law[mask]
    return float(ratio.max())


def _check_modulation_22(grid, seed):
    f = _test_function(grid, seed)
    return abs(modulation_norm(f, 2, 2) / lp_norm(f, 2) - 1.0)


def _check_amalgam_22(grid, seed):
    f = _test_function(grid, seed)
    return abs(amalgam_norm(f, 2, 2) / lp_norm(f, 2) - 1.0)


_FOURIER_AMALGAM_EXPONENTS = ("1", "4/3", "2", "4", "inf")


def _check_fourier_amalgam(grid, seed):
    # the transform of a sampled function lives on the same lattice only
    # when h = 1/L, so this check runs on the self-dual companion grid.
    # modulation_norm(fhat, p, q) against amalgam_norm(f, q, p), with each
    # function's two |STFT| arrays computed once for all exponent pairs
    self_dual = UniformGrid(1, grid.points_per_axis, math.sqrt(grid.points_per_axis))
    window = default_window(self_dual)
    worst = 0.0
    for i in range(20):
        f = _test_function(self_dual, derive_seed(seed, 0xFA, i), modes=4)
        tfa = stft(forward_ft(f), window)
        modulation_mags = np.abs(tfa.values)
        amalgam_mags = np.abs(_windowed_spectra(f, window, 1, conjugate_window=False)[1])
        for p in _FOURIER_AMALGAM_EXPONENTS:
            lhs = _mixed_norms(modulation_mags, p, tfa.x_cell, 0, _FOURIER_AMALGAM_EXPONENTS, tfa.xi_cell)
            rhs = _mixed_norms(amalgam_mags, p, tfa.xi_cell, 1, _FOURIER_AMALGAM_EXPONENTS, tfa.x_cell)
            for left, right in zip(lhs, rhs):
                worst = max(worst, abs(left / right - 1.0))
    return worst


def _check_sjostrand_constant(grid, seed):
    probe = UniformGrid(1, 128, 8.0)
    value = sjostrand_norm(constant_symbol(probe))
    return abs(value / math.sqrt(2.0) - 1.0)


def _check_sjostrand_two_scale(grid, seed):
    coarse = sjostrand_norm(gaussian_bump_symbol(UniformGrid(1, 64, 8.0)))
    fine = sjostrand_norm(gaussian_bump_symbol(UniformGrid(1, 128, 8.0)))
    return abs(coarse / fine - 1.0)


def _check_kn_constant(grid, seed):
    f = _test_function(grid, seed)
    return _rel_max(kn_apply(constant_symbol(grid), f).values, f.values)


def _check_kn_multiplication(grid, seed):
    f = _test_function(grid, seed)
    m = 1.0 + 0.5 * np.exp(-np.pi * grid.axis_points() ** 2)
    out = kn_apply(multiplication_symbol(grid, m), f)
    return _rel_max(out.values, m * f.values)


def _check_kn_translation(grid, seed):
    f = _test_function(grid, seed)
    a = round(1.0 / grid.spacing) * grid.spacing
    out = kn_apply(translation_symbol(grid, a), f)
    return _rel_max(out.values, translate(f, a).values)


def _check_kn_bessel(grid, seed):
    f = _test_function(grid, seed)
    out = kn_apply(bessel_symbol(grid, -1.3), f)
    return _rel_max(out.values, bessel_potential(f, -1.3).values)


def _check_weyl_oracle(grid, seed):
    probe = UniformGrid(1, min(grid.points_per_axis, 64), 8.0)
    symbol = _weyl_test_symbol(probe)
    f = _test_function(probe, seed, modes=4)
    fast = weyl_apply(symbol, f)
    direct = _weyl_direct_apply(symbol, f)
    return _rel_max(fast.values, direct.values)


def _check_u_roundtrip(grid, seed):
    symbol = _weyl_test_symbol(grid)
    back = u_transform(u_transform(symbol, "to_KN"), "to_Weyl")
    return _rel_max(back.values, symbol.values)


def _check_kernel_roundtrip(grid, seed):
    probe = UniformGrid(1, min(grid.points_per_axis, 256), grid.extent)
    symbol = _weyl_test_symbol(probe)
    back = kernel_to_weyl(weyl_to_kernel(symbol))
    return _rel_max(back.values, symbol.values)


def _check_kernel_identity(grid, seed):
    probe = UniformGrid(1, min(grid.points_per_axis, 256), grid.extent)
    n = probe.points_per_axis
    eye = np.eye(n, dtype=complex) / probe.spacing
    from .quantize import KernelRep

    sym = kernel_to_weyl(KernelRep(probe, eye))
    err1 = float(np.max(np.abs(sym.values - 1.0)))
    ones = PhaseSpaceSymbol(probe, np.ones((n, n)), WEYL)
    err2 = _rel_max(weyl_to_kernel(ones).values, eye)
    return max(err1, err2)


def _check_weyl_adjoint(grid, seed):
    probe = UniformGrid(1, min(grid.points_per_axis, 256), grid.extent)
    a = as_matrix(_weyl_test_symbol(probe)).entries
    return _rel_max(a, a.conj().T)


def _check_lift_composition(grid, seed):
    f = _test_function(grid, seed)
    symbol = gaussian_bump_symbol(grid)
    lhs = kn_apply(lift_symbol(symbol, 0.7), f)
    rhs = kn_apply(symbol, bessel_potential(f, 0.7))
    return _rel_max(lhs.values, rhs.values)


def _check_matrix_matvec(grid, seed):
    probe = UniformGrid(1, min(grid.points_per_axis, 512), grid.extent)
    f = _test_function(probe, seed)
    symbol = gaussian_bump_symbol(probe)
    direct = as_matrix(symbol).entries @ f.values
    return _rel_max(direct, kn_apply(symbol, f).values)


def _check_matrix_intertwine(grid, seed):
    probe = UniformGrid(1, min(grid.points_per_axis, 256), grid.extent)
    symbol = _weyl_test_symbol(probe)
    a = as_matrix(symbol).entries
    b = as_matrix(u_transform(symbol, "to_KN")).entries
    return _rel_max(a, b)


_IDENTITY_CHECKS = [
    ("ft-gaussian", _check_ft_gaussian),
    ("ft-roundtrip", _check_ft_roundtrip),
    ("parseval", _check_parseval),
    ("translate-covariance", _check_translate_covariance),
    ("bessel-roundtrip", _check_bessel_roundtrip),
    ("stft-isometry", _check_stft_isometry),
    ("stft-gaussian-peak", _check_stft_gaussian_peak),
    ("stft-gaussian-law", _check_stft_gaussian_law),
    ("modulation-2-2", _check_modulation_22),
    ("amalgam-2-2", _check_amalgam_22),
    ("fourier-amalgam", _check_fourier_amalgam),
    ("sjostrand-constant", _check_sjostrand_constant),
    ("sjostrand-two-scale", _check_sjostrand_two_scale),
    ("kn-constant", _check_kn_constant),
    ("kn-multiplication", _check_kn_multiplication),
    ("kn-translation", _check_kn_translation),
    ("kn-bessel", _check_kn_bessel),
    ("weyl-oracle", _check_weyl_oracle),
    ("u-roundtrip", _check_u_roundtrip),
    ("kernel-roundtrip", _check_kernel_roundtrip),
    ("kernel-identity", _check_kernel_identity),
    ("weyl-adjoint", _check_weyl_adjoint),
    ("lift-composition", _check_lift_composition),
    ("matrix-matvec", _check_matrix_matvec),
    ("matrix-intertwine", _check_matrix_intertwine),
]


def run_identity_suite(config=None, jobs=1):
    """Run every calculus identity check; one record per (N, check).

    Checks that need a particular geometry (the Weyl quadrature oracle,
    the Sjostrand values, the Fourier-amalgam identity) run on their own
    documented grids; the rest use the configured (N, L).
    """
    cfg = config or default_config("identity")
    sizes = cfg.N or [256]
    extent = cfg.L or 16.0
    seed = (cfg.seeds or [0])[0]

    tasks = []
    for n in sizes:
        grid = UniformGrid(1, n, extent)
        for name, fn in _IDENTITY_CHECKS:
            tol = cfg.tolerances.get(name, _IDENTITY_TOLERANCES[name])
            stub = dict(experiment="identity", n=1, N=n, seed=seed, method=name)

            def compute(fn=fn, grid=grid, tol=tol, stub=stub, seed=seed):
                value = fn(grid, derive_seed(seed, _FUNCTION_SALT))
                verdict = "pass" if value <= tol else "fail"
                return [SweepRecord(**{**stub, "value": value, "flags": verdict})]

            tasks.append(_guarded(stub, compute))
    return _run_tasks(tasks, jobs)


# ----------------------------------------------------------------------
# embedding sweep

_DEFAULT_EMBED_EXPONENTS = ("1", "4/3", "2", "4", "inf")


def _max_over_median(ratios):
    return float(np.max(ratios) / np.median(ratios))


def run_embedding_sweep(config=None, jobs=1):
    """Probe both embedding directions and operator boundedness on the
    amalgam scale over a suite of seeded band-limited functions.

    For each (p, q, s) the sweep records the max/median spread of the
    norm ratio across the function suite, in the direction asserted by
    the corresponding predicate; spreads stay within a small band where
    the predicate holds.  Operator rows do the same for the amalgam
    operator-norm ratio of each standard symbol.
    """
    cfg = config or default_config("embedding")
    sizes = cfg.N or [256]
    extent = cfg.L or 16.0
    seeds = cfg.seeds or [0]
    ps = cfg.p or [from_p(v) for v in _DEFAULT_EMBED_EXPONENTS]
    qs = cfg.q or [from_p(v) for v in _DEFAULT_EMBED_EXPONENTS]
    svals = cfg.s if cfg.s is not None else [0.0, 0.25, 0.5]
    functions = cfg.functions or 50

    tasks = []
    for n in sizes:
        for seed in seeds:
            stub = dict(experiment="embedding", n=1, N=n, seed=seed)

            def compute(n=n, seed=seed):
                return _embedding_records(
                    n, extent, seed, ps, qs, svals, functions
                )

            tasks.append(_guarded(stub, compute))
    return _run_tasks(tasks, jobs)


def _embedding_records(n, extent, seed, ps, qs, svals, functions):
    grid = UniformGrid(1, n, extent)
    window = default_window(grid)
    fs = [
        _test_function(grid, derive_seed(seed, _FUNCTION_SALT, i))
        for i in range(functions)
    ]
    mags = [
        np.abs(_windowed_spectra(f, window, 1, conjugate_window=False)[1]) for f in fs
    ]
    # amalgam[i][qi][pi]: function i, inner exponent q, outer exponent p
    amalgam = [[_mixed_norms(m, q, grid.dual_cell, 1, ps, grid.cell) for q in qs] for m in mags]
    sobolev_cache = {}
    for i, f in enumerate(fs):
        for si, s in enumerate(svals):
            lifted = bessel_potential(f, s)
            for pi, p in enumerate(ps):
                sobolev_cache[(i, pi, si)] = lp_norm(lifted, p)

    records = []
    for pi, p in enumerate(ps):
        for qi, q in enumerate(qs):
            for si, s in enumerate(svals):
                amal = np.array([amalgam[i][qi][pi] for i in range(functions)])
                sob = np.array([sobolev_cache[(i, pi, si)] for i in range(functions)])
                common = dict(
                    experiment="embedding", p=p.p, q=q.p, s=s, n=1, N=n, seed=seed
                )

                into_amalgam = embeds_sobolev_into_amalgam(p, q, s, 1)
                spread = _max_over_median(amal / sob)
                flags = f"predicate={'true' if into_amalgam else 'false'}"
                if into_amalgam:
                    flags += ";pass" if spread < _RATIO_BAND else ";fail"
                records.append(
                    SweepRecord(
                        **common, value=spread, method="embed-sobolev-amalgam", flags=flags
                    )
                )

                into_sobolev = embeds_amalgam_into_sobolev(p, q, s, 1)
                spread = _max_over_median(sob / amal)
                flags = f"predicate={'true' if into_sobolev else 'false'}"
                if into_sobolev:
                    flags += ";pass" if spread < _RATIO_BAND else ";fail"
                records.append(
                    SweepRecord(
                        **common, value=spread, method="embed-amalgam-sobolev", flags=flags
                    )
                )

    for name, symbol in standard_suite(grid, seed=derive_seed(seed, 0x5E)):
        out_mags = [
            np.abs(
                _windowed_spectra(kn_apply(symbol, f), window, 1, conjugate_window=False)[1]
            )
            for f in fs
        ]
        out_amalgam = [
            [_mixed_norms(m, q, grid.dual_cell, 1, ps, grid.cell) for q in qs] for m in out_mags
        ]
        for pi, p in enumerate(ps):
            for qi, q in enumerate(qs):
                ratios = np.array(
                    [out_amalgam[i][qi][pi] / amalgam[i][qi][pi] for i in range(functions)]
                )
                spread = _max_over_median(ratios)
                records.append(
                    SweepRecord(
                        experiment="embedding",
                        p=p.p,
                        q=q.p,
                        n=1,
                        N=n,
                        seed=seed,
                        value=spread,
                        method="bounded-amalgam",
                        flags=f"symbol={name};" + ("pass" if spread < _RATIO_BAND else "fail"),
                    )
                )
    return records


# ----------------------------------------------------------------------
# threshold sweep


def _auto_size(extent, n_modes):
    """Smallest power-of-two N giving the mode sum a two-octave window."""
    n = 64
    while n < 4.0 * extent * max(n_modes, 1):
        n *= 2
    return n


def _slope_fit(log_m, log_v):
    """Least-squares slope and its standard error."""
    a = np.vstack([log_m, np.ones_like(log_m)]).T
    coef, *_ = np.linalg.lstsq(a, log_v, rcond=None)
    fitted = a @ coef
    dof = max(len(log_v) - 2, 1)
    resid = float(np.sum((log_v - fitted) ** 2)) / dof
    spread = float(np.sum((log_m - log_m.mean()) ** 2))
    stderr = math.sqrt(resid / spread) if spread > 0 else math.nan
    return float(coef[0]), stderr


def run_threshold_sweep(config=None, jobs=1):
    """Estimate operator norms of random multiplier symbols against the
    mode count, then fit growth exponents.

    Raw rows hold one norm estimate per (p, s, N_modes, seed); slope
    rows regress log(norm) on log(N_modes) over all seeds.  At the
    critical regularity s = |1/p - 1/2| the endpoint flag marks slopes
    that finite resolution cannot settle.
    """
    cfg = config or default_config("threshold")
    extent = cfg.L or 8.0
    ps = cfg.p or [from_p(v) for v in ("1", "2", "inf")]
    svals = cfg.s if cfg.s is not None else [k * 0.125 for k in range(9)]
    modes = cfg.n_modes or [4, 8, 16, 32]
    seeds = cfg.seeds or [0, 1, 2]
    if cfg.N is not None:
        if len(cfg.N) != len(modes):
            raise ConfigError("config key 'N' must pair one size with each n_modes entry")
        sizes = list(cfg.N)
    else:
        sizes = [_auto_size(extent, m) for m in modes]

    tasks = []
    order = []
    for p in ps:
        for s in svals:
            for m, n in zip(modes, sizes):
                for seed in seeds:
                    stub = dict(
                        experiment="threshold",
                        p=p.p,
                        s=s,
                        n=1,
                        N=n,
                        n_modes=m,
                        seed=seed,
                    )
                    order.append((p, s, m, seed))

                    def compute(p=p, s=s, m=m, n=n, seed=seed, stub=stub):
                        grid = UniformGrid(1, n, extent)
                        symbol = random_phase_multiplier(grid, m, seed)
                        est = sobolev_opnorm(
                            symbol, p, s, seed=derive_seed(seed, _NORM_SALT)
                        )
                        marks = []
                        if est.lower_bound_only:
                            marks.append("lower-bound")
                        if est.method == "power_2" and est.lower_bound_only:
                            marks.append("no-convergence")
                        return [
                            SweepRecord(
                                **stub,
                                value=est.value,
                                method=est.method,
                                flags=";".join(marks),
                            )
                        ]

                    tasks.append(_guarded(stub, compute))

    records = _run_tasks(tasks, jobs)

    by_key = {}
    for (p, s, m, seed), record in zip(order, records):
        if math.isfinite(record.value):
            by_key.setdefault((p, s), []).append((m, record.value))

    for p in ps:
        for s in svals:
            points = by_key.get((p, s), [])
            if len(points) < 2 or len({m for m, _ in points}) < 2:
                continue
            log_m = np.log([m for m, _ in points])
            log_v = np.log([max(v, 1e-300) for _, v in points])
            slope, stderr = _slope_fit(log_m, log_v)
            flags = f"stderr={stderr:.6g}"
            if p.u in (0.0, 1.0) and s == sharp_threshold(p, 1):
                flags += ";endpoint-inconclusive"
            records.append(
                SweepRecord(
                    experiment="threshold",
                    p=p.p,
                    s=s,
                    n=1,
                    value=slope,
                    method="slope-fit",
                    flags=flags,
                )
            )
    return records
