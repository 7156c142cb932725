"""Basis-free bright/dark/intermediate classification via the field operator.

The coupling strength ``beta`` is the norm the field operator gives a
normalized state at the detection phases.  For any state confined to the
N-photon sector of M modes the maximum is ``sqrt(M*N)``; a dark state sits
at zero, everything else is intermediate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError, ResourceLimitError
from .fock import ModePhases, StateVector, _lower, _significant
from .pulses import dirichlet
from .states import CoherentSpec

DEFAULT_TOL = 1e-10
SCAN_MAX_POINTS = 100_000  # grid points per scan_phase call, checked before building


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


def _label_for(beta: float, beta_max: float, tol: float) -> Label:
    if beta < tol * beta_max:
        return Label.DARK
    if beta > (1.0 - tol) * beta_max:
        return Label.BRIGHT
    return Label.INTERMEDIATE


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < 0.5:
        raise ValueError(f"tol must be in (0, 0.5), got {tol}")


def classify_fock(
    state: StateVector, detection_phases: ModePhases, tol: float = DEFAULT_TOL
) -> Classification:
    """Classify a Fock-sector state: beta = |E|psi>| / |psi|.

    ``beta_max = sqrt(M * N)`` with N the highest occupied photon sector;
    for single-photon states this is the familiar sqrt(M) enhancement.
    """
    _check_tol(tol)
    norm = state.norm()
    if norm == 0.0:
        raise DegenerateInputError("cannot classify the zero vector")
    top = state.top_sector()
    if top == 0:
        raise DegenerateInputError(
            "vacuum state couples to nothing; trivially dark", vacuum=True
        )
    lowered = _lower(state, detection_phases)[0]
    lowered = lowered[_significant(lowered)]  # as apply_field prunes
    beta = math.sqrt(np.vdot(lowered, lowered).real) / norm
    beta_max = math.sqrt(state.modes * top)
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


def _classify_locked(modes: int, phases, tol: float) -> list[Classification]:
    """Locked ladder at zero detection; both families share beta = |dirichlet|/sqrt(M)."""
    _check_tol(tol)
    beta_max = math.sqrt(modes)
    betas = (abs(dirichlet(modes, phases)) / beta_max).tolist()
    return [Classification(b, _label_for(b, beta_max, tol), beta_max, tol) for b in betas]


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
    if modes < 2 or grid_points < 2 * modes or grid_points % modes:
        raise ValueError(
            f"grid_points={grid_points} cannot resolve all dark phases of {modes} modes; "
            "need at least 2 modes and a multiple of the mode count >= 2*modes"
        )
    if grid_points > SCAN_MAX_POINTS:
        raise ResourceLimitError(
            f"grid_points={grid_points} exceeds {SCAN_MAX_POINTS} scan points"
        )
    phis = [2.0 * math.pi * k / grid_points for k in range(grid_points)]
    return list(zip(phis, _classify_locked(modes, phis, tol)))
