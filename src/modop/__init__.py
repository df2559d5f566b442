"""modop: time-frequency analysis and operator norms on periodic grids.

The package discretizes the 2 pi Fourier convention on centered
periodic lattices and builds on it: short-time Fourier transforms,
modulation and Wiener amalgam norms, Kohn-Nirenberg and Weyl
quantization, symbol smoothness diagnostics, operator norm estimation
between Sobolev and Lebesgue spaces, and reproducible experiment
drivers with a CSV record format.  See README.md for the conventions
and the command line.
"""

from ._rng import derive_seed, splitmix64_next, uniform_stream
from .analysis import (
    TimeFrequencyArray,
    amalgam_norm,
    amalgam_norms,
    default_window,
    lp_norm,
    modulation_norm,
    modulation_norms,
    sjostrand_norm,
    sobolev_norm,
    stft,
)
from .errors import (
    ConfigError,
    DimensionUnsupported,
    FileFormatError,
    GridMismatch,
    InvalidValue,
    ModopError,
    OffLattice,
    OrderTooHigh,
    TooLarge,
    TooManyModes,
    UnsupportedExponent,
    WrongQuantization,
    ZeroWindow,
)
from .exponents import ExponentValue, from_p, power_mean
from .experiments import (
    SweepConfig,
    SweepRecord,
    default_config,
    emit_csv,
    load_config,
    read_records,
    run_embedding_sweep,
    run_identity_suite,
    run_threshold_sweep,
)
from .grid import (
    SampledFunction,
    UniformGrid,
    bessel_potential,
    forward_ft,
    inverse_ft,
    modulate,
    read_sfn,
    translate,
    write_sfn,
)
from .opnorm import NormEstimate, estimate_norm, exact_norm, norm_2, norm_p, sobolev_opnorm
from .quantize import (
    KernelRep,
    OperatorMatrix,
    PhaseSpaceSymbol,
    as_matrix,
    kernel_to_weyl,
    kn_apply,
    lift_symbol,
    read_pss,
    u_transform,
    weyl_apply,
    weyl_to_kernel,
    write_pss,
)
from .regions import (
    RegionLabel,
    embeds_amalgam_into_sobolev,
    embeds_sobolev_into_amalgam,
    hormander_order,
    region,
    region_star,
    sharp_threshold,
    tau1,
    tau2,
)
from .symbols import (
    SeminormReport,
    bessel_symbol,
    bump_profile,
    constant_symbol,
    gaussian_bump_symbol,
    multiplication_symbol,
    random_phase_multiplier,
    s_seminorms,
    standard_suite,
    translation_symbol,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
