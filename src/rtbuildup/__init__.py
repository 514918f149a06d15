"""Transient buildup dynamics in 1D double-barrier resonant tunneling structures."""

from .analysis import (
    BuildupDecomposition,
    BuildupSeries,
    FitWindowError,
    NodePositionError,
    NoOnsetError,
    OnsetReport,
    buildup_decomposition,
    delta_curve,
    detect_onset,
    exponential_law,
    fit_envelope_exponent,
    fit_time_constant,
    local_slopes,
    normalize_buildup,
)
from .dynamics import (
    ConvergenceWarning,
    TransientSolution,
    evolve_full,
    evolve_single_resonance,
)
from .moshinsky import (
    MoshinskyOverflowError,
    faddeeva,
    moshinsky_asymptotic,
    moshinsky_m,
)
from .profile import HBAR_EV_FS, HBAR2_OVER_2ME_EV_A2, PotentialProfile, ProfileError, build_profile
from .resonances import (
    BoundStateError,
    GamowResidualError,
    ResonantState,
    WindingMismatchError,
    find_poles,
    one_term_phi,
)
from .scattering import (
    StationaryState,
    bound_state_energies,
    stationary_state,
    stationary_wave,
)

__version__ = "0.1.0"

__all__ = [
    "HBAR_EV_FS",
    "HBAR2_OVER_2ME_EV_A2",
    "PotentialProfile",
    "ProfileError",
    "build_profile",
    "StationaryState",
    "stationary_state",
    "stationary_wave",
    "bound_state_energies",
    "ResonantState",
    "WindingMismatchError",
    "GamowResidualError",
    "BoundStateError",
    "find_poles",
    "one_term_phi",
    "MoshinskyOverflowError",
    "faddeeva",
    "moshinsky_m",
    "moshinsky_asymptotic",
    "TransientSolution",
    "BuildupDecomposition",
    "ConvergenceWarning",
    "evolve_single_resonance",
    "evolve_full",
    "buildup_decomposition",
    "BuildupSeries",
    "OnsetReport",
    "NodePositionError",
    "FitWindowError",
    "NoOnsetError",
    "exponential_law",
    "normalize_buildup",
    "fit_time_constant",
    "delta_curve",
    "detect_onset",
    "fit_envelope_exponent",
    "local_slopes",
]
