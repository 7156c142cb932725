"""Basis-free bright/dark/intermediate classification via the field operator.

The coupling strength ``beta`` is the norm the field operator gives a normalized
state at the detection phases.  Its maximum ``sqrt(M*<N>)``, with ``<N>`` the mean
photon number, is reached when every photon sits in the detected collective mode;
a dark state sits at zero, everything else is intermediate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError, ResourceLimitError
from .fock import ModePhases, StateVector, _lower, _significant, _sum_squares, _unit_scale
from .pulses import dirichlet
from .states import CoherentSpec

DEFAULT_TOL = 1e-10
SCAN_MAX_POINTS = 100_000  # grid points per scan_phase call, checked before building
# Squared norms up to here leave 2**24 of headroom below the float range.
_SQUARE_MAX = 2.0**999


class Label(str, Enum):
    DARK = "Dark"
    BRIGHT = "Bright"
    INTERMEDIATE = "Intermediate"


@dataclass(frozen=True)
class Classification:
    beta: float
    label: Label
    beta_max: float
    tol: float


# Indexed by 2*dark + bright: at most one holds, since tol < 0.5.
_LABELS = np.array([Label.INTERMEDIATE, Label.BRIGHT, Label.DARK], dtype=object)


def _label_for(beta, beta_max: float, tol: float):
    """Dark below tol*beta_max, Bright above (1-tol)*beta_max, else Intermediate:
    a Label for a float beta, an object array of them for an array."""
    return _LABELS[2 * (beta < tol * beta_max) + (beta > (1.0 - tol) * beta_max)]


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < 0.5:
        raise ValueError(f"tol must be in (0, 0.5), got {tol}")


def classify_fock(
    state: StateVector, detection_phases: ModePhases, tol: float = DEFAULT_TOL
) -> Classification:
    """Classify a Fock-space state: beta = |E|psi>| / |psi| <= sqrt(M * <N>) = beta_max.

    With unit phase factors ``E = sqrt(M) b`` for a normalized collective mode b,
    and ``E^dagger E = M b^dagger b <= M N``, equal when every photon sits in b:
    the bound is the state's, not its truncation's; one photon gives sqrt(M).
    The inequality is exact, so beta above beta_max is rounding in the sums
    (a state with every photon in b can read an ulp over); beta is clamped to it.
    A state whose squared norm passes _SQUARE_MAX is classified with its
    amplitudes scaled by a power of two, which is exact: ``|E psi|**2 <= M * top
    * |psi|**2``, and ``M * top`` stays below RANK_TABLE_MAX < 2**24, so below
    that norm no product or sum overflows.
    """
    _check_tol(tol)
    if state.is_zero():
        raise DegenerateInputError("cannot classify the zero vector")
    amp = state._amp
    psi_sq = _sum_squares(amp)
    if not psi_sq <= _SQUARE_MAX:  # the products below could overflow
        amp = amp * _unit_scale(amp)
        state = StateVector._from_arrays(state.modes, state._layout, amp, state.cutoff)
        return classify_fock(state, detection_phases, tol)
    lowered = _lower(state, detection_phases)[0]
    lowered = lowered[_significant(lowered)]  # as apply_field prunes
    n_psi_sq = _sum_squares(amp * np.sqrt(state._photons))
    e_psi_sq = _sum_squares(lowered)
    if n_psi_sq == 0.0:  # <N> = 0
        raise DegenerateInputError("vacuum state couples to nothing; trivially dark", vacuum=True)
    beta_max = math.sqrt(state.modes * (n_psi_sq / psi_sq))
    beta = min(math.sqrt(e_psi_sq) / math.sqrt(psi_sq), beta_max)
    return Classification(beta, _label_for(beta, beta_max, tol), beta_max, tol)


def classify_coherent(
    spec: CoherentSpec, detection_phases: ModePhases, tol: float = DEFAULT_TOL
) -> Classification:
    """Classify a multimode coherent state analytically (no truncation).

    Coherent states are field-operator eigenstates, so
    ``beta = |sum_m exp(i*(theta_m + det_m))| / sqrt(M)`` with maximum sqrt(M).
    """
    _check_tol(tol)
    if spec.alpha == 0:
        raise DegenerateInputError(
            "alpha = 0 is the vacuum; trivially dark", vacuum=True
        )
    modes = spec.phases.modes
    if detection_phases.modes != modes:
        raise DimensionMismatchError(
            f"{detection_phases.modes} detection phases for {modes} modes"
        )
    total = sum(
        cmath.exp(1j * (t + d))
        for t, d in zip(spec.phases.theta, detection_phases.theta)
    )
    beta = abs(total) / math.sqrt(modes)
    beta_max = math.sqrt(modes)
    return Classification(beta, _label_for(beta, beta_max, tol), beta_max, tol)


def _locked(modes: int, phases, tol: float):
    """The locked ladder at zero detection, where both families share
    beta = |dirichlet|/sqrt(M): (betas, labels, beta_max), scalars for a scalar phase."""
    _check_tol(tol)
    kernel = dirichlet(modes, phases)  # refuses a mode count past 2**53 before math.sqrt
    beta_max = math.sqrt(modes)
    betas = np.abs(kernel) / beta_max
    return betas, _label_for(betas, beta_max, tol), beta_max


def _scan_columns(modes: int, grid_points: int, tol: float):
    """scan_phase as columns: the phi and beta arrays, a Label per point and beta_max."""
    if modes < 2 or grid_points < 2 * modes or grid_points % modes:
        raise ValueError(
            f"grid_points={grid_points} cannot resolve all dark phases of {modes} modes; "
            "need at least 2 modes and a multiple of the mode count >= 2*modes"
        )
    if grid_points > SCAN_MAX_POINTS:
        raise ResourceLimitError(
            f"grid_points={grid_points} exceeds {SCAN_MAX_POINTS} scan points"
        )
    phis = 2.0 * math.pi * np.arange(grid_points) / grid_points
    betas, labels, beta_max = _locked(modes, phis, tol)
    return phis, betas, labels.tolist(), beta_max


def scan_phase(
    modes: int,
    family: str,
    grid_points: int,
    tol: float = DEFAULT_TOL,
) -> list[tuple[float, Classification]]:
    """Classify the locked phase ladder across one period of the phase step.

    The grid, a multiple of M of at least 2*M points, holds every multiple of
    2*pi/M: exactly M - 1 dark points and one bright point per period.
    """
    if family not in ("single_photon", "coherent"):
        raise ValueError(f"family must be 'single_photon' or 'coherent', got {family!r}")
    phis, betas, labels, beta_max = _scan_columns(modes, grid_points, tol)
    points = zip(phis.tolist(), betas.tolist(), labels)
    return [(phi, Classification(beta, label, beta_max, tol)) for phi, beta, label in points]
