"""Fractional calculus for the Dirichlet and Neumann Laplacian on the
half-space, defined through reflection extensions and Fourier
multipliers on a staggered periodic grid and computed by half-length
sine and cosine transforms, plus the experiment harness that probes
product estimates against resolution.
"""

__version__ = "0.1.0"

from .errors import BoundaryTagError, ConfigError, NumericalGuardError
from .grid import (BC_DIRICHLET, BC_NEUMANN, GridSpec, HalfField,
                   SampledField, integrate, load_field, lp_norm, make_grid,
                   sample, sample_half, save_field)
from .extension import even_extend, odd_extend, restrict
from .spectral import (DyadicBank, Multiplier, apply_multiplier, build_bank,
                       derivative_multiplier, dyadic_block, eta_profile,
                       frac_lap_constant, fractional_laplacian,
                       semigroup_symbol, singular_integral_frac_lap,
                       smooth_step)
from .halfspace_ops import (OP_DIRICHLET, OP_NEUMANN, boundary_trace,
                            extend_for, frac_power, normal_derivative,
                            semigroup, tangential_derivative)
from .norms import (SpaceSpec, besov_norm, besov_norm_report,
                    besov_norm_semigroup, extension_norm_equivalence,
                    sobolev_norm)
from .families import (FAMILY_NAMES, bump, counterexample_expr,
                       cutoff_profile, make_family)
from .experiments import (BilinearConfig, RatioReport, TrilinearConfig,
                          besov_block_floor, bilinear_ratio,
                          classify_growth, counterexample_fields,
                          derivative_mapping_sweep, fit_line, get_bank,
                          leibniz_decomposition, ratio_sweep,
                          singularity_profile, trilinear_ratio, wall_rate)

__all__ = [
    "__version__",
    "ConfigError", "BoundaryTagError", "NumericalGuardError",
    "BC_DIRICHLET", "BC_NEUMANN", "GridSpec", "SampledField", "HalfField",
    "make_grid", "sample", "sample_half", "lp_norm", "integrate",
    "save_field", "load_field",
    "odd_extend", "even_extend", "restrict",
    "Multiplier", "apply_multiplier", "fractional_laplacian",
    "derivative_multiplier",
    "semigroup_symbol", "smooth_step", "eta_profile", "DyadicBank",
    "build_bank", "dyadic_block", "frac_lap_constant",
    "singular_integral_frac_lap",
    "OP_DIRICHLET", "OP_NEUMANN", "extend_for", "frac_power", "semigroup",
    "normal_derivative", "tangential_derivative", "boundary_trace",
    "SpaceSpec", "sobolev_norm", "besov_norm", "besov_norm_report",
    "besov_norm_semigroup", "extension_norm_equivalence",
    "FAMILY_NAMES", "make_family", "bump", "cutoff_profile",
    "counterexample_expr",
    "BilinearConfig", "TrilinearConfig", "RatioReport", "bilinear_ratio",
    "trilinear_ratio", "ratio_sweep", "leibniz_decomposition",
    "counterexample_fields", "singularity_profile",
    "besov_block_floor", "wall_rate",
    "derivative_mapping_sweep", "fit_line", "classify_growth", "get_bank",
]
