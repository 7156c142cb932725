"""Unitary change of basis between individual modes and collective modes.

Row 0 of the matrix is the symmetric (uniform) combination ``1/sqrt(M)``;
its collective mode is the only one that couples maximally to the field
operator at aligned phases.  Two constructions are provided:

* ``hadamard`` -- real entries ``+-1/sqrt(M)``, Sylvester recursion,
  defined for M a power of two.
* ``dft``      -- rows ``exp(2*pi*i*j*m/M)/sqrt(M)``, defined for every M;
  its rows diagonalize linear phase ladders, so row K picks out the
  phase step ``2*pi*K/M``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SectorError, UnsupportedBasisError
from .fock import ModePhases, StateVector
from .states import _one_photon_layout

BASIS_KINDS = ("hadamard", "dft")


@dataclass(frozen=True)
class CollectiveBasis:
    modes: int
    matrix: np.ndarray  # shape (M, M); row j = collective mode j
    kind: str


def build_basis(modes: int, kind: str) -> CollectiveBasis:
    """Build the M x M collective-mode matrix of the requested kind."""
    if modes < 1:
        raise ValueError(f"need at least one mode, got {modes}")
    kind = kind.lower()
    if kind not in BASIS_KINDS:
        raise UnsupportedBasisError(f"unknown basis kind {kind!r}; use one of {BASIS_KINDS}")
    if kind == "hadamard":
        if modes & (modes - 1):
            raise UnsupportedBasisError(
                f"hadamard basis needs a power-of-two mode count, got {modes}; "
                "the dft basis covers every mode count"
            )
        m = np.ones((1, 1), dtype=complex) / np.sqrt(modes)
        while len(m) < modes:
            m = np.kron([[1, 1], [1, -1]], m)
    else:
        j, k = np.meshgrid(np.arange(modes), np.arange(modes), indexing="ij")
        m = np.exp(2j * np.pi * j * k / modes) / np.sqrt(modes)
    m.setflags(write=False)
    return CollectiveBasis(modes, m, kind)


def _single_photon_vector(state: StateVector) -> np.ndarray:
    """Amplitudes <m|state); rejects anything outside the one-photon sector."""
    wrong = state._photons != 1
    if wrong.any():
        raise SectorError(
            f"collective decomposition needs a single-photon state, "
            f"found occupation {tuple(state._occ[wrong.argmax()].tolist())}"
        )
    vec = np.zeros(state.modes, dtype=complex)
    vec[state._occ.argmax(axis=1)] = state._amp
    return vec


def to_collective(
    state: StateVector, basis: CollectiveBasis, reference_phases: ModePhases
) -> np.ndarray:
    """Coefficients of a single-photon state on the collective kets.

    Collective ket j is ``sum_m exp(-i*ref_m) O[j, m] |m>``; the returned
    vector has the same norm as the input (the map is unitary).
    """
    if basis.modes != state.modes:
        raise DimensionMismatchError(
            f"{basis.modes}-mode basis applied to a {state.modes}-mode state"
        )
    if reference_phases.modes != state.modes:
        raise DimensionMismatchError(
            f"{reference_phases.modes} reference phases for {state.modes} modes"
        )
    vec = _single_photon_vector(state)
    phased = np.exp(1j * np.asarray(reference_phases.theta)) * vec
    return basis.matrix.conj() @ phased


def from_collective(
    coefficients: np.ndarray, basis: CollectiveBasis, reference_phases: ModePhases
) -> StateVector:
    """Inverse of :func:`to_collective`; rebuilds the single-photon state."""
    coefficients = np.asarray(coefficients, dtype=complex)
    if coefficients.shape != (basis.modes,):
        raise DimensionMismatchError(
            f"{coefficients.shape} coefficients for a {basis.modes}-mode basis"
        )
    if reference_phases.modes != basis.modes:
        raise DimensionMismatchError(
            f"{reference_phases.modes} reference phases for {basis.modes} modes"
        )
    vec = np.exp(-1j * np.asarray(reference_phases.theta)) * (basis.matrix.T @ coefficients)
    return StateVector._from_arrays(basis.modes, _one_photon_layout(basis.modes), vec, 1)
