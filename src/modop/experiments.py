"""Experiment drivers: the identity suite, the embedding sweep, and the
threshold sweep, with a shared CSV record format.

Every run is deterministic: task lists are built in a fixed order, each
task derives its own random stream from the configured seeds, and
results are joined in task order, so the emitted CSV is byte for byte
identical from run to run.

Records use one flat schema (see CSV_HEADER).  Fields that do not apply
to a row are left empty; `flags` carries semicolon-separated markers
such as pass / fail, lower-bound notices, predicate verdicts, and
error=<ExceptionName> for tasks that raised a package error.

Each experiment's config keys and their defaults are one table,
_DEFAULTS.  SweepConfig rejects a key its experiment does not read,
fills every key left out and checks every key given against _CHECKS,
whether the config comes from a file or from code; load_config only
parses the file and names the keys that are not SweepConfig fields.
An identity row's verdict comes from the tolerance in _IDENTITY_CHECKS,
which no config can change.

Each runner builds a table of tasks, `partial(_task, stub, fn, *args)`
over module-level functions, and hands it to one executor that runs the
tasks in order in the calling thread.  An embedding task makes one
amalgam_norms pass, over its test functions and each standard symbol's
outputs on them, so a task sets up the tables' buffers once, not once per
symbol.
"""

import json
import math
from copy import copy
from dataclasses import dataclass, fields, replace
from functools import cache, partial
from itertools import product

import numpy as np

from ._rng import bulk_rng, derive_seed, is_seed
from .analysis import (
    amalgam_norm,
    amalgam_norms,
    default_window,
    lp_norm,
    modulation_norm,
    modulation_norms,
    sjostrand_norm,
    stft,
)
from .errors import ConfigError, FileFormatError, ModopError
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
    KernelRep,
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
    multiplication_profile,
    multiplication_symbol,
    random_phase_multiplier,
    standard_suite,
    translation_symbol,
)

CSV_HEADER = "experiment,p,q,s,n,N,N_modes,seed,value,method,flags"

# each experiment's config keys and their defaults; the threshold
# sweep's N None sizes each grid from its mode count (_auto_size)
_DEFAULTS = {
    "identity": {"N": [256], "L": 16.0, "seeds": [0]},
    "embedding": {
        "N": [256],
        "L": 16.0,
        "p": [from_p(v) for v in ("1", "4/3", "2", "4", "inf")],
        "q": [from_p(v) for v in ("1", "4/3", "2", "4", "inf")],
        "s": [0.0, 0.25, 0.5],
        "seeds": [0],
        "functions": 50,
    },
    "threshold": {
        "N": None,
        "L": 8.0,
        "p": [from_p(v) for v in ("1", "2", "inf")],
        "s": [k * 0.125 for k in range(9)],
        "n_modes": [4, 8, 16, 32],
        "seeds": [0, 1, 2],
    },
}
_EXPERIMENTS = tuple(_DEFAULTS)

# each config key's check, given the value and the experiment: it
# returns the value the sweep reads or raises ConfigError
_CHECKS = {
    "N": lambda v, _: _number_list(v, "N", int, lambda n: n >= 2 and not n & (n - 1),
                                   "powers of two, >= 2"),
    "L": lambda v, _: _positive(v, "L", float, "a positive number"),
    "p": lambda v, _: _exponent_list(v, "p"),
    "q": lambda v, _: _exponent_list(v, "q"),
    "s": lambda v, experiment: _number_list(v, "s", float,
                                            lambda s: s >= 0 or experiment != "threshold",
                                            ">= 0 for the threshold sweep"),
    "n_modes": lambda v, _: _number_list(v, "n_modes", int, lambda m: m >= 1, ">= 1"),
    "seeds": lambda v, _: _number_list(v, "seeds", int, is_seed, "unsigned 64-bit"),
    "functions": lambda v, _: _positive(v, "functions", int, "a positive integer"),
}

_FUNCTION_SALT = 0xF0
_NORM_SALT = 0x6E6F726D
_RATIO_BAND = 10.0


@dataclass
class SweepConfig:
    """An experiment's configuration.  A field left None takes the
    experiment's default from _DEFAULTS, and any other value of a key the
    experiment reads must pass that key's check in _CHECKS; a field the
    experiment does not read must stay None.  A file goes through the
    same checks, so both raise the same ConfigError, and so does an
    assignment to a field after construction."""

    experiment: str
    N: list = None
    L: float = None
    p: list = None
    q: list = None
    s: list = None
    n_modes: list = None
    seeds: list = None
    functions: int = None

    def __post_init__(self):
        if self.experiment not in _DEFAULTS:
            raise ConfigError(f"experiment must be one of {_EXPERIMENTS}, got {self.experiment!r}")
        unread = [f.name for f in fields(self)[1:]
                  if f.name not in _DEFAULTS[self.experiment] and getattr(self, f.name) is not None]
        if unread:
            raise ConfigError(_unread_message(self.experiment, unread))
        for key, default in _DEFAULTS[self.experiment].items():
            value = getattr(self, key)
            value = copy(default) if value is None else _CHECKS[key](value, self.experiment)
            object.__setattr__(self, key, value)
        # the threshold sweep pairs the i-th size with the i-th mode count
        if self.experiment == "threshold" and self.N is not None:
            if len(self.N) != len(self.n_modes):
                raise ConfigError("config key 'N' must pair one size with each n_modes entry")

    def __setattr__(self, name, value):
        # once every field is set, check an assignment on a checked copy
        if all(f.name in vars(self) for f in fields(self)):
            value = getattr(replace(self, **{name: value}), name)
        object.__setattr__(self, name, value)


def _unread_message(experiment, keys):
    return f"config keys the {experiment} experiment does not read: {', '.join(sorted(keys))}"


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


_RECORD_FIELDS = fields(SweepRecord)

# a task turns these into an error row; any other exception is a bug
# and propagates out of the runner
_TASK_ERRORS = (ModopError, FloatingPointError, np.linalg.LinAlgError)


def _number_list(value, key, kind, ok, rule):
    """A number or non-empty list of numbers as a list of kind (int or
    float; kind int admits integers only), every entry meeting ok."""
    items = value if isinstance(value, list) else [value]
    if not items:
        raise ConfigError(f"config key {key!r} must not be empty")
    accepted = int if kind is int else (int, float)
    if not all(isinstance(v, accepted) and not isinstance(v, bool) for v in items):
        noun = "an integer or list of integers" if kind is int else "a number or list of numbers"
        raise ConfigError(f"config key {key!r} must be {noun}")
    if not all(ok(v) for v in items):
        raise ConfigError(f"config key {key!r} entries must be {rule}")
    return [kind(v) for v in items]


def _positive(value, key, kind, noun):
    """A positive number as kind (int or float; kind int admits integers
    only)."""
    accepted = int if kind is int else (int, float)
    if not isinstance(value, accepted) or isinstance(value, bool) or not value > 0:
        raise ConfigError(f"config key {key!r} must be {noun}")
    return kind(value)


def _finite_number(text):
    """JSON number hook: NaN, Infinity and overflowing literals are
    rejected, since no config value means them."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config numbers must be finite, got {text}")
    return value


def _exponent_list(value, key):
    """An exponent or non-empty list of exponents (numbers or strings such
    as "4/3" and "inf"), each read by from_p."""
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

    Keys that are not SweepConfig fields and non-finite numbers are
    rejected rather than ignored, so typos fail loudly; SweepConfig
    rejects the fields the experiment does not read, checks the rest and
    gives the keys the file leaves out their defaults.  When `experiment`
    is given, a mismatching experiment field in the file is an error.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    except (json.JSONDecodeError, UnicodeDecodeError, ConfigError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    named = experiment if raw.get("experiment") is None else raw["experiment"]
    if named is None:
        raise ConfigError(f"{path}: no experiment named in the file or on the command line")
    if named not in _EXPERIMENTS:
        raise ConfigError(f"{path}: experiment must be one of {_EXPERIMENTS}, got {named!r}")
    if experiment is not None and named != experiment:
        raise ConfigError(f"{path}: config is for {named!r}, not {experiment!r}")
    unknown = set(raw) - {f.name for f in fields(SweepConfig)}
    if unknown:
        raise ConfigError(f"{path}: {_unread_message(named, unknown)}")
    return SweepConfig(**{**raw, "experiment": named})


def default_config(experiment):
    """The experiment's configuration with every key at its default."""
    return SweepConfig(experiment)


def _config_for(experiment, config):
    """config, or the experiment's defaults for None; a config for
    another experiment is rejected, not read as this one's."""
    if config is None:
        return SweepConfig(experiment)
    if config.experiment != experiment:
        raise ConfigError(f"config is for {config.experiment!r}, not {experiment!r}")
    return config


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def csv_row(values):
    """One CSV line: None empty, a bool true or false, an integer its
    digits, any other number 17 significant digits (bit-exact)."""
    return ",".join(map(_fmt, values))


def emit_csv(records, destination):
    """Write records to a path or a file-like object, header first."""
    rows = (csv_row(getattr(r, f.name) for f in _RECORD_FIELDS) for r in records)
    text = "\n".join([CSV_HEADER, *rows]) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="ascii") as fh:
            fh.write(text)


def _parse_field(text, kind, column, lineno, path):
    if kind is str:
        return text
    if text == "":
        return None
    try:
        return kind(text)
    except ValueError as exc:
        raise FileFormatError(
            f"{path}: line {lineno}: bad {column} value {text!r}"
        ) from exc


def read_records(path):
    """Parse a CSV produced by emit_csv back into SweepRecord objects."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: non-ascii byte: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise FileFormatError(f"{path}: missing or wrong header line")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(_RECORD_FIELDS):
            raise FileFormatError(
                f"{path}: line {lineno}: expected {len(_RECORD_FIELDS)} fields, got {len(parts)}"
            )
        values = {
            f.name: _parse_field(text, f.type, column, lineno, path)
            for f, column, text in zip(_RECORD_FIELDS, CSV_HEADER.split(","), parts)
        }
        records.append(SweepRecord(**values))
    return records


def _run_tasks(tasks, jobs):
    """Run zero-argument tasks that each return a list of records, in
    order in the calling thread, and join the lists in task order.

    `jobs` is ignored; the runners keep the parameter so that callers
    passing it still work.  A thread pool made the threshold sweep
    slower (its tasks take well under a millisecond each) and cannot
    split the embedding sweep's one task per (N, seed), so there is one
    serial path.
    """
    records = []
    for task in tasks:
        records.extend(task())
    return records


def _task(stub, fn, *args):
    """Run fn(stub, *args), which returns a list of records.

    This is the one place a sweep catches errors: a package error, a
    floating-point error or a linear-algebra failure becomes a single
    row holding the stub's fields and error=<ExceptionName>.
    """
    try:
        return fn(stub, *args)
    except _TASK_ERRORS as exc:
        return [SweepRecord(**stub, flags=f"error={type(exc).__name__}")]


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
    # the phase e^{2 pi i (x - y) xi} is waves[x, xi] conj(waves[y, xi])
    waves = np.exp(2j * np.pi * np.outer(grid.axis_points(), grid.axis_frequencies()))
    # x rows a block: gathers of 2**14 values of fine (256 KiB), not one N^3 array
    kernel, rows = np.empty((n, n), dtype=complex), max(1, 2**14 // (n * n))
    for b in (slice(x, x + rows) for x in range(0, n, rows)):
        kernel[b] = np.einsum("xyk,xk,yk->xy", fine[mid[b], :], waves[b], waves.conj()) / grid.extent
    return SampledFunction(grid, h * (kernel @ f.values))


# ----------------------------------------------------------------------
# identity suite


def _rel_max(actual, reference):
    scale = np.max(np.abs(reference))
    if scale == 0.0:
        return float(np.max(np.abs(actual - reference)))
    return float(np.max(np.abs(actual - reference)) / scale)


def _check_ft_gaussian(grid, seed):
    f = SampledFunction(grid, np.exp(-np.pi * grid.axis_points() ** 2))
    expected = np.exp(-np.pi * grid.axis_frequencies() ** 2)
    return _rel_max(forward_ft(f).values, expected)


def _check_ft_roundtrip(grid, seed):
    f = _test_function(grid, seed)
    return _rel_max(inverse_ft(forward_ft(f)).values, f.values)


def _check_parseval(grid, seed):
    f = _test_function(grid, seed)
    space = grid.spacing * np.sum(np.abs(f.values) ** 2)
    freq = grid.dual_spacing * np.sum(np.abs(forward_ft(f).values) ** 2)
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
    lhs = math.sqrt(grid.spacing * grid.dual_spacing * np.sum(np.abs(v) ** 2))
    rhs = lp_norm(f, 2) * lp_norm(g, 2)
    return abs(lhs / rhs - 1.0)


def _check_stft_gaussian_peak(grid, seed):
    g = default_window(grid)
    v = stft(g, g)
    center = grid.points_per_axis // 2
    return abs(v[center, center] - 1.0)


def _check_stft_gaussian_law(grid, seed):
    g = default_window(grid)
    v = stft(g, g)
    x = grid.axis_points()[:, None]
    xi = grid.axis_frequencies()[None, :]
    reach = min(3.0, -x[0, 0] - grid.spacing, xi[0, -1])
    mask = (np.abs(x) <= reach) & (np.abs(xi) <= reach)
    law = np.exp(-np.pi * (x**2 + xi**2) / 2.0)
    ratio = np.abs(np.abs(v[mask]) - law[mask]) / law[mask]
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
    # modulation_norm(fhat, p, q) against amalgam_norm(f, q, p): entry
    # [k, i, j] of one table against entry [k, j, i] of the other
    self_dual = UniformGrid(1, grid.points_per_axis, math.sqrt(grid.points_per_axis))
    exponents = _FOURIER_AMALGAM_EXPONENTS
    fs = [_test_function(self_dual, derive_seed(seed, 0xFA, i), modes=4) for i in range(20)]
    lhs = modulation_norms([forward_ft(f) for f in fs], exponents, exponents)
    rhs = amalgam_norms(fs, exponents, exponents)
    return float(np.abs(lhs / rhs.swapaxes(1, 2) - 1.0).max())


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
    m = multiplication_profile(grid)
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
    eye = np.eye(n, dtype=complex)
    eye /= probe.spacing
    # each symbol and kernel is dropped once its error is read
    err1 = float(np.max(np.abs(kernel_to_weyl(KernelRep(probe, eye)).values - 1.0)))
    err2 = _rel_max(weyl_to_kernel(PhaseSpaceSymbol(probe, np.ones((n, n)), WEYL)).values, eye)
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
    # as_matrix reaches a Weyl symbol through u_transform; the kernel's
    # shear route does not, so the two sides are independent
    probe = UniformGrid(1, min(grid.points_per_axis, 256), grid.extent)
    symbol = _weyl_test_symbol(probe)
    kernel, matrix = probe.spacing * weyl_to_kernel(symbol).values, as_matrix(symbol).entries
    del symbol  # held through _rel_max, it would be a fifth N^2 array
    return _rel_max(matrix, kernel)


# (name, check, tolerance): a check maps (grid, seed) to an error
# measure, and passes when that is at most the tolerance
_IDENTITY_CHECKS = [
    ("ft-gaussian", _check_ft_gaussian, 1e-10),
    ("ft-roundtrip", _check_ft_roundtrip, 1e-12),
    ("parseval", _check_parseval, 1e-12),
    ("translate-covariance", _check_translate_covariance, 1e-12),
    ("bessel-roundtrip", _check_bessel_roundtrip, 1e-12),
    ("stft-isometry", _check_stft_isometry, 1e-12),
    ("stft-gaussian-peak", _check_stft_gaussian_peak, 1e-10),
    ("stft-gaussian-law", _check_stft_gaussian_law, 1e-6),
    ("modulation-2-2", _check_modulation_22, 1e-4),
    ("amalgam-2-2", _check_amalgam_22, 1e-4),
    ("fourier-amalgam", _check_fourier_amalgam, 5e-2),
    ("sjostrand-constant", _check_sjostrand_constant, 1e-4),
    ("sjostrand-two-scale", _check_sjostrand_two_scale, 1e-2),
    ("kn-constant", _check_kn_constant, 1e-12),
    ("kn-multiplication", _check_kn_multiplication, 1e-12),
    ("kn-translation", _check_kn_translation, 1e-10),
    ("kn-bessel", _check_kn_bessel, 1e-10),
    ("weyl-oracle", _check_weyl_oracle, 1e-8),
    ("u-roundtrip", _check_u_roundtrip, 1e-12),
    ("kernel-roundtrip", _check_kernel_roundtrip, 1e-10),
    ("kernel-identity", _check_kernel_identity, 1e-10),
    ("weyl-adjoint", _check_weyl_adjoint, 1e-10),
    ("lift-composition", _check_lift_composition, 1e-12),
    ("matrix-matvec", _check_matrix_matvec, 1e-10),
    ("matrix-intertwine", _check_matrix_intertwine, 1e-10),
]


def _identity_record(stub, check, tol, grid, seed):
    value = check(grid, derive_seed(seed, _FUNCTION_SALT))
    return [SweepRecord(**stub, value=value, flags="pass" if value <= tol else "fail")]


def run_identity_suite(config=None, jobs=1):
    """Run every calculus identity check; one record per (N, seed, check).

    Checks that need a particular geometry (the Weyl quadrature oracle,
    the Sjostrand values, the Fourier-amalgam identity) run on their own
    documented grids; the rest use the configured (N, L).
    """
    cfg = _config_for("identity", config)
    tasks = []
    for n, seed in product(cfg.N, cfg.seeds):
        grid = UniformGrid(1, n, cfg.L)
        for name, check, tol in _IDENTITY_CHECKS:
            stub = dict(experiment="identity", n=1, N=n, seed=seed, method=name)
            tasks.append(partial(_task, stub, _identity_record, check, tol, grid, seed))
    return _run_tasks(tasks, jobs)


# ----------------------------------------------------------------------
# embedding sweep


def _max_over_median(ratios):
    return float(np.max(ratios) / np.median(ratios))


def _band_verdict(spread):
    return "pass" if spread < _RATIO_BAND else "fail"


def run_embedding_sweep(config=None, jobs=1):
    """Probe both embedding directions and operator boundedness on the
    amalgam scale over a suite of seeded band-limited functions.

    For each (p, q, s) the sweep records the max/median spread of the
    norm ratio across the function suite, in the direction asserted by
    the corresponding predicate; spreads stay within a small band where
    the predicate holds.  Operator rows do the same for the amalgam
    operator-norm ratio of each standard symbol.
    """
    cfg = _config_for("embedding", config)
    tasks = []
    for n, seed in product(cfg.N, cfg.seeds):
        stub = dict(experiment="embedding", n=1, N=n, seed=seed)
        args = (n, cfg.L, seed, cfg.p, cfg.q, cfg.s, cfg.functions)
        tasks.append(partial(_task, stub, _embedding_records, *args))
    return _run_tasks(tasks, jobs)


def _embedding_records(stub, n, extent, seed, ps, qs, svals, functions):
    grid = UniformGrid(1, n, extent)
    fs = [
        _test_function(grid, derive_seed(seed, _FUNCTION_SALT, i))
        for i in range(functions)
    ]
    suite = standard_suite(grid, seed=derive_seed(seed, 0x5E))
    # one table pass over the functions, then each symbol's outputs on
    # them: amalgam = tables[0], with amalgam[i, pi, qi] for function i,
    # outer exponent p, inner exponent q, and tables[b] the same for
    # symbol b - 1; sobolev[i, si, pi]: the L^p norm of <D>^s applied to
    # function i
    outputs = [kn_apply(symbol, f) for _, symbol in suite for f in fs]
    tables = amalgam_norms(fs + outputs, ps, qs).reshape(len(suite) + 1, len(fs), len(ps), len(qs))
    amalgam = tables[0]
    sobolev = np.array([
        [[lp_norm(g, p) for p in ps] for g in (bessel_potential(f, s) for s in svals)]
        for f in fs
    ])

    records = []
    for pi, p in enumerate(ps):
        for qi, q in enumerate(qs):
            for si, s in enumerate(svals):
                amal = amalgam[:, pi, qi]
                sob = sobolev[:, si, pi]
                # each direction's ratio, its CSV method and its predicate
                for ratios, method, embeds in (
                    (amal / sob, "embed-sobolev-amalgam", embeds_sobolev_into_amalgam),
                    (sob / amal, "embed-amalgam-sobolev", embeds_amalgam_into_sobolev),
                ):
                    holds = embeds(p, q, s, 1)
                    spread = _max_over_median(ratios)
                    flags = f"predicate={'true' if holds else 'false'}"
                    if holds:
                        flags += f";{_band_verdict(spread)}"
                    records.append(
                        SweepRecord(
                            **stub, p=p.p, q=q.p, s=s, value=spread, method=method, flags=flags
                        )
                    )

    for (name, _), table in zip(suite, tables[1:]):
        ratios = table / amalgam
        for pi, p in enumerate(ps):
            for qi, q in enumerate(qs):
                spread = _max_over_median(ratios[:, pi, qi])
                records.append(
                    SweepRecord(
                        **stub,
                        p=p.p,
                        q=q.p,
                        value=spread,
                        method="bounded-amalgam",
                        flags=f"symbol={name};{_band_verdict(spread)}",
                    )
                )
    return records


# ----------------------------------------------------------------------
# threshold sweep


def _auto_size(extent, n_modes):
    """Smallest power of two N >= 64 with N >= 4 L max(N_modes, 1), giving
    the mode sum a two-octave window; a bound past the largest float reads
    as that float (UniformGrid refuses any N past its cap)."""
    bound = min(4.0 * extent * max(n_modes, 1), np.finfo(float).max)
    return max(64, 1 << (math.ceil(bound) - 1).bit_length())


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


def _threshold_record(stub, build, p, s, n_modes, size, seed):
    symbol = build(size, n_modes, seed)
    est = sobolev_opnorm(symbol, p, s, seed=derive_seed(seed, _NORM_SALT))
    flags = "lower-bound" if est.lower_bound_only else ""
    return [SweepRecord(**stub, value=est.value, method=est.method, flags=flags)]


def run_threshold_sweep(config=None, jobs=1):
    """Estimate operator norms of random multiplier symbols against the
    mode count, then fit growth exponents.

    Raw rows hold one norm estimate per (p, s, N_modes, seed); slope
    rows regress log(norm) on log(N_modes) over all seeds.  At the
    critical regularity s = |1/p - 1/2| the endpoint flag marks slopes
    that finite resolution cannot settle.
    """
    cfg = _config_for("threshold", config)
    sizes = cfg.N if cfg.N is not None else [_auto_size(cfg.L, m) for m in cfg.n_modes]

    # one symbol serves every (p, s) pair; a build that raises is not
    # cached, so each of its tasks still gets its own error row
    @cache
    def build(size, n_modes, seed):
        return random_phase_multiplier(UniformGrid(1, size, cfg.L), n_modes, seed)

    tasks = []
    for p, s, (m, n), seed in product(cfg.p, cfg.s, zip(cfg.n_modes, sizes), cfg.seeds):
        stub = dict(experiment="threshold", p=p.p, s=s, n=1, N=n, n_modes=m, seed=seed)
        tasks.append(partial(_task, stub, _threshold_record, build, p, s, m, n, seed))
    records = _run_tasks(tasks, jobs)

    # (p, s) -> [(N_modes, norm)] over the rows that hold a value
    points = {}
    for record in records:
        if math.isfinite(record.value):
            points.setdefault((record.p, record.s), []).append((record.n_modes, record.value))

    for p, s in product(cfg.p, cfg.s):
        group = points.get((p.p, s), [])
        if len({m for m, _ in group}) < 2:
            continue
        log_m = np.log([m for m, _ in group])
        log_v = np.log([max(v, 1e-300) for _, v in group])
        slope, stderr = _slope_fit(log_m, log_v)
        flags = f"stderr={stderr:.6g}"
        if p.u in (0.0, 1.0) and s == sharp_threshold(p, 1):
            flags += ";endpoint-inconclusive"
        records.append(
            SweepRecord("threshold", p=p.p, s=s, n=1, value=slope, method="slope-fit", flags=flags)
        )
    return records
