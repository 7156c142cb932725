"""Bright and dark collective states of multimode light.

Multimode photon states (Fock and coherent), the unitary collective-mode
basis, basis-free bright/dark classification through the field operator,
dark-state counting, and the classical mode-locked pulse train they explain.
"""

from .cavity import (
    CavityDesign,
    RatioReport,
    TI_SAPPHIRE,
    free_spectral_range,
    gain_bandwidth,
    mode_count,
    ratio_report,
)
from .classify import Classification, Label, classify_coherent, classify_fock, scan_phase
from .collective import CollectiveBasis, build_basis, from_collective, to_collective
from .counting import (
    DarkCensus,
    bright_to_dark_ratio,
    count_pi_phase_dark,
    dark_census,
    enumerate_sign_states,
    locked_dark_phases,
)
from .fock import (
    ModePhases,
    StateVector,
    annihilate,
    apply_field,
    create,
    inner_product,
    tensor,
    vacuum,
)
from .pulses import (
    IntensitySeries,
    LaserField,
    PulseMetrics,
    amplitude_closed,
    amplitude_direct,
    dirichlet,
    intensity_series,
    pulse_metrics,
    unlocked_intensity,
)
from .states import (
    CoherentSpec,
    coherent_bright_dark_expansion,
    coherent_state,
    single_photon_state,
    two_mode_bright,
    two_mode_dark,
)

__version__ = "0.1.0"

__all__ = [
    "CavityDesign",
    "Classification",
    "CoherentSpec",
    "CollectiveBasis",
    "DarkCensus",
    "IntensitySeries",
    "Label",
    "LaserField",
    "ModePhases",
    "PulseMetrics",
    "RatioReport",
    "StateVector",
    "TI_SAPPHIRE",
    "amplitude_closed",
    "amplitude_direct",
    "annihilate",
    "apply_field",
    "bright_to_dark_ratio",
    "build_basis",
    "classify_coherent",
    "classify_fock",
    "coherent_bright_dark_expansion",
    "coherent_state",
    "count_pi_phase_dark",
    "create",
    "dark_census",
    "dirichlet",
    "enumerate_sign_states",
    "free_spectral_range",
    "from_collective",
    "gain_bandwidth",
    "inner_product",
    "intensity_series",
    "locked_dark_phases",
    "mode_count",
    "pulse_metrics",
    "ratio_report",
    "scan_phase",
    "single_photon_state",
    "tensor",
    "to_collective",
    "two_mode_bright",
    "two_mode_dark",
    "unlocked_intensity",
    "vacuum",
]
