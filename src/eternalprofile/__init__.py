"""Numerical construction of eternal self-similar profiles.

The package locates, for degenerate diffusion with critically weighted
strong absorption, the unique self-similarity exponent beta* whose
radial profile touches zero tangentially, and verifies the analytic
structure of the resulting eternal solution: interface expansions,
phase-space asymptotics, monotonicity in beta, and the one-parameter
rescaling family.
"""

__version__ = "0.1.0"

from .asymptotics import (
    InterfaceExpansion,
    InterfaceFit,
    fit_interface,
    predict_expansion,
)
from .errors import (
    BracketFailure,
    CaseError,
    ConfigError,
    DomainError,
    PlotError,
    ProfileError,
    RegionError,
    StepFailureError,
    TailError,
    WindowError,
)
from .integrate import (
    IntegratorOptions,
    integrate_limit_profile,
    integrate_profile,
)
from .matching import MatchResult, match_profile
from .model import (
    Exponents,
    InterfaceCase,
    Params,
    exponents_from_beta,
    interface_case,
    make_params,
    rescale_profile,
)
from .pdecheck import (
    eval_solution,
    family_member,
    launch_curvature,
    pde_residual,
    profile_ode_residual,
)
from .phasespace import (
    linearize_at_origin,
    stable_manifold_ratio,
    to_phase_coords,
)
from .shooting import ShootingResult, bisect_beta, bracket_beta, solve
from .solution import Classification, LimitProfile, ProfileSolution, StopReason

__all__ = [
    "BracketFailure",
    "CaseError",
    "Classification",
    "ConfigError",
    "DomainError",
    "Exponents",
    "IntegratorOptions",
    "InterfaceCase",
    "InterfaceExpansion",
    "InterfaceFit",
    "LimitProfile",
    "MatchResult",
    "Params",
    "PlotError",
    "ProfileError",
    "ProfileSolution",
    "RegionError",
    "ShootingResult",
    "StepFailureError",
    "StopReason",
    "TailError",
    "WindowError",
    "bisect_beta",
    "bracket_beta",
    "eval_solution",
    "exponents_from_beta",
    "family_member",
    "fit_interface",
    "integrate_limit_profile",
    "integrate_profile",
    "interface_case",
    "launch_curvature",
    "linearize_at_origin",
    "make_params",
    "match_profile",
    "pde_residual",
    "predict_expansion",
    "profile_ode_residual",
    "rescale_profile",
    "solve",
    "stable_manifold_ratio",
    "to_phase_coords",
]
