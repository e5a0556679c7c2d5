"""Fourier-mode toolkit for viscoelastic damped waves with exponential
memory and their thermal-relaxation (third-order) companion model.

The package is organised by concern:

- :mod:`viscowave.spectrum` -- characteristic roots, discriminants,
  printed asymptotic truncations, branch tracking;
- :mod:`viscowave.kernels` -- closed-form mode kernels, mode solutions and
  leading diffusion-wave profiles;
- :mod:`viscowave.oracle` -- independent fixed-step time integration of
  the mode systems (validation route and degenerate-frequency fallback);
- :mod:`viscowave.quadrature` -- radial Plancherel norms, weighted kernel
  norms and the piecewise rate functions G, H, kappa;
- :mod:`viscowave.experiments` -- decay-rate, profile, optimality,
  envelope and relaxation-limit harnesses;
- :mod:`viscowave.cli` -- config-driven command line with CSV output.
"""

from .errors import (ConfigError, DomainError, InsufficientDataError,
                     InvalidParameterError, MissingParameterError,
                     NearDegenerateError, PreconditionError, RefinementError,
                     StabilityError, TruncationError, ViscowaveError)
from .experiments import (DecayResult, EnergySeries, ExperimentConfig,
                          OptimalityReport, ProfileResult, RateFit,
                          decay_experiment, envelope_check, optimality_check,
                          profile_error_experiment, rate_fit,
                          singular_limit_energy, singular_limit_solution,
                          solution_norm)
from .kernels import (KernelPair, ModeState, ProfilePair, leading_profiles,
                      mgt_mode_solution, vdw_kernels, vdw_mode_solution)
from .oracle import ModeTrajectory, integrate_mgt_mode, integrate_vdw_mode
from .params import ModelParams
from .quadrature import (DataSpectrum, kernel_norm, l2_norm_radial,
                         rate_function, sphere_area)
from .spectrum import (RootSet, asymptotic_roots, cubic_char_roots,
                       cubic_discriminant, cubic_discriminant_expanded,
                       discriminant_zero_radii, quartic_char_roots,
                       track_branches)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataSpectrum", "DecayResult", "DomainError",
    "EnergySeries", "ExperimentConfig", "InsufficientDataError",
    "InvalidParameterError", "KernelPair", "MissingParameterError",
    "ModeState", "ModeTrajectory", "ModelParams", "NearDegenerateError",
    "OptimalityReport", "PreconditionError",
    "ProfilePair", "ProfileResult", "RateFit", "RefinementError", "RootSet",
    "StabilityError", "TruncationError", "ViscowaveError",
    "asymptotic_roots", "cubic_char_roots", "cubic_discriminant",
    "cubic_discriminant_expanded", "decay_experiment",
    "discriminant_zero_radii", "envelope_check", "integrate_mgt_mode",
    "integrate_vdw_mode", "kernel_norm", "l2_norm_radial",
    "leading_profiles", "mgt_mode_solution", "optimality_check",
    "profile_error_experiment", "quartic_char_roots", "rate_fit",
    "rate_function", "singular_limit_energy", "singular_limit_solution",
    "solution_norm", "sphere_area", "track_branches", "vdw_kernels",
    "vdw_mode_solution",
]
