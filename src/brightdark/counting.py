"""Counting dark states: exact combinatorics plus exhaustive verification.

Two regimes.  With phases free to be any multiple of pi, a single photon
over M modes (M even) is dark whenever the +1 and -1 weights balance,
giving ``M! / (2 * ((M/2)!)^2)`` states up to a global sign.  Locking the
phases to a linear ladder collapses this to M - 1 dark phase steps
``2*pi*K/M`` against a single bright one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import DEFAULT_TOL, Label, _locked
from .errors import ResourceLimitError

ENUMERATION_MAX_MODES = 24
# dark_census bound: C(M, M/2) has about 0.301*M digits, and Python converts
# ints of up to 4300 digits to text.
COUNT_MAX_MODES = 14_000


def count_pi_phase_dark(modes: int) -> int:
    """Balanced +-1 weight vectors modulo global sign: C(M, M/2) / 2, exact."""
    if modes < 2 or modes % 2:
        raise ValueError(
            f"closed-form count needs an even mode count >= 2, got {modes}; "
            "enumerate_sign_states handles odd counts (empty result)"
        )
    return math.comb(modes, modes // 2) // 2


def _balanced_masks(modes: int):
    """Yield, in chunks of up to 2^16 and in increasing order, the masks of entries
    1..M-1 (bit b set: entry b + 1 is -1) whose vector sums to zero; every one
    of the 2^(M-1) masks is popcounted, an independent check of the closed form."""
    if modes < 1:
        raise ValueError(f"need at least one mode, got {modes}")
    if modes > ENUMERATION_MAX_MODES:
        raise ResourceLimitError(
            f"enumeration over 2^{modes - 1} sign vectors exceeds the "
            f"{ENUMERATION_MAX_MODES}-mode bound"
        )
    total = 1 << (modes - 1)
    for start in range(0, total, 1 << 16):
        masks = np.arange(start, min(start + (1 << 16), total), dtype=np.uint32)
        # Component sum is 1 + (M - 1 - k) - k with k minus-signs among the rest.
        yield masks[2 * np.bitwise_count(masks) == modes]


def enumerate_sign_states(modes: int) -> np.ndarray:
    """Exhaustively list every zero-sum vector in {+1,-1}^M, first entry +1,
    as the rows of a (count, M) int8 array in increasing mask order.

    Scans all 2^(M-1) assignments of the remaining entries, so the result is
    an independent check of :func:`count_pi_phase_dark`.
    """
    masks = np.concatenate(list(_balanced_masks(modes))).astype("<u4", copy=False)
    bits = np.unpackbits(masks.view(np.uint8).reshape(-1, 4), axis=1, bitorder="little")
    signs = np.ones((masks.size, modes), dtype=np.int8)
    signs[:, 1:] -= 2 * bits[:, : modes - 1].view(np.int8)
    return signs


def locked_dark_phases(modes: int, tol: float = DEFAULT_TOL) -> list[float]:
    """Phase steps 2*pi*K/M, K = 1..M-1, that make the locked ladder dark.

    Every phase and the K = 0 endpoint are classified in one vectorised
    Dirichlet-kernel call; the endpoint must be bright and the rest dark.
    """
    if modes < 2:
        raise ValueError(f"need at least 2 modes, got {modes}")
    phases = [2.0 * math.pi * k / modes for k in range(1, modes)]
    labels = _locked(modes, [0.0] + phases, tol)[1]
    for phi, got, want in zip([0.0] + phases, labels, [Label.BRIGHT] + [Label.DARK] * len(phases)):
        if got is not want:
            raise AssertionError(f"phase {phi} classified {got.value}, not {want.value}")
    return phases


def bright_to_dark_ratio(modes: int) -> float:
    """Locked ladder: one bright phase per period against M - 1 dark ones."""
    if modes < 2:
        raise ValueError(f"need at least 2 modes, got {modes}")
    return 1.0 / (modes - 1)


@dataclass(frozen=True)
class DarkCensus:
    """Summary of dark-state counts for M modes.

    ``pi_phase_count`` is the closed-form count for free pi-multiple phases
    (None for odd M, where that formula does not apply); ``enumerated_count``
    is the exhaustive tally (None when enumeration was skipped).  The locked
    ladder always has M - 1 dark steps against one bright.
    """

    modes: int
    pi_phase_count: int | None
    enumerated_count: int | None
    locked_dark_count: int
    bright_count: int
    ratio: float


def dark_census(modes: int, enumerate_states: bool = False) -> DarkCensus:
    if modes > COUNT_MAX_MODES:
        raise ResourceLimitError(f"{modes} modes exceed the {COUNT_MAX_MODES}-mode census bound")
    analytic = count_pi_phase_dark(modes) if modes % 2 == 0 and modes >= 2 else None
    enumerated = sum(m.size for m in _balanced_masks(modes)) if enumerate_states else None
    if analytic is not None and enumerated is not None and analytic != enumerated:
        raise AssertionError(
            f"closed form {analytic} disagrees with enumeration {enumerated}"
        )
    return DarkCensus(
        modes=modes,
        pi_phase_count=analytic,
        enumerated_count=enumerated,
        locked_dark_count=modes - 1,
        bright_count=1,
        ratio=bright_to_dark_ratio(modes),
    )
