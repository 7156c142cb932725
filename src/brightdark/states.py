"""Constructors for the multimode photon states used throughout the package.

Conventions: the locked linear phase ladder assigns mode m the phase
``theta_m = m * step`` (mode 0 is the reference).  Single-photon states
carry ``exp(-i*theta_m)`` amplitudes, coherent states carry per-mode
amplitudes ``exp(+i*theta_m) * alpha``; the field-operator magnitudes are
identical for both choices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffError, DegenerateInputError, ResourceLimitError
from .fock import ModePhases, StateVector

COHERENT_MAX_TERMS = 1_000_000  # Fock terms; also caps the photon cutoff search


@dataclass(frozen=True)
class CoherentSpec:
    """Per-mode coherent amplitude ``alpha`` with a phase ladder on top.

    ``cutoff_prob`` bounds the Poisson tail mass discarded by truncating at
    ``n_max`` total photons; if ``n_max`` is None it is chosen automatically.
    """

    alpha: complex
    phases: ModePhases
    cutoff_prob: float = 1e-12
    n_max: int | None = None

    def __post_init__(self):
        if not 0.0 < self.cutoff_prob < 1.0:
            raise ValueError(f"cutoff_prob must be in (0, 1), got {self.cutoff_prob}")
        a = complex(self.alpha)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError(f"alpha must be finite, got {self.alpha}")

    @property
    def mean_total_photons(self) -> float:
        r = math.hypot(self.alpha.real, self.alpha.imag)  # inf where abs(alpha) overflows
        return self.phases.modes * (r * r)

    def required_cutoff(self) -> int:
        """Smallest N with Poisson tail P(total > N) below cutoff_prob."""
        return _poisson_cutoff(self.mean_total_photons, self.cutoff_prob)

    def resolved_cutoff(self) -> int:
        needed = self.required_cutoff()
        if self.n_max is None:
            return needed
        if self.n_max < needed:
            raise CutoffError(
                f"n_max={self.n_max} keeps more than {self.cutoff_prob} of the "
                f"photon-number tail; need n_max >= {needed}",
                required_cutoff=needed,
            )
        return self.n_max


def _poisson_cutoff(mean: float, tail: float) -> int:
    """Smallest N with Poisson tail P(X > N) < tail, summed in log space smallest
    term first from where the Bernstein bound leaves about 1e-20 of ``tail``."""
    if mean == 0.0:
        return 0
    margin = 46.0 - math.log(tail)
    start = mean + margin / 3.0 + math.sqrt(margin**2 / 9.0 + 2.0 * margin * mean)
    if not start <= COHERENT_MAX_TERMS:
        raise ResourceLimitError(f"mean {mean} photons: cutoff beyond {COHERENT_MAX_TERMS}")
    upper = 0.0
    for n in range(math.ceil(start), 0, -1):
        upper += math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))
        if upper >= tail:
            return n
    return 0


def single_photon_state(phases: ModePhases) -> StateVector:
    """One photon spread evenly over M modes: sum_m exp(-i*theta_m)|m> / sqrt(M)."""
    m_modes = phases.modes
    if m_modes < 2:
        raise DegenerateInputError(
            f"single-photon interference needs at least 2 modes, got {m_modes}"
        )
    amp = np.exp(-1j * np.asarray(phases.theta)) / math.sqrt(m_modes)
    return StateVector._from_arrays(m_modes, np.eye(m_modes, dtype=np.int64), amp, 1)


def _stars_and_bars(modes: int, total_max: int) -> np.ndarray:
    """All occupations of ``modes`` modes with sum <= total_max, in lexicographic order."""
    occ = np.zeros((1, modes), dtype=np.int64)
    left = np.array([total_max])
    for m in range(modes):
        counts = left + 1
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        occ = np.repeat(occ, counts, axis=0)
        occ[:, m] = np.arange(starts.size) - starts
        left = np.repeat(left, counts) - occ[:, m]
    return occ


def coherent_state(spec: CoherentSpec) -> StateVector:
    """Tensor product of per-mode coherent states ``|exp(i*theta_m) alpha>``.

    Expanded in the Fock basis and truncated at the resolved total-photon
    cutoff, so the norm is within ``cutoff_prob`` of 1.
    """
    modes = spec.phases.modes
    n_max = spec.resolved_cutoff()
    if math.comb(n_max + modes, modes) > COHERENT_MAX_TERMS:
        raise ResourceLimitError(
            f"{modes} modes up to {n_max} photons exceed {COHERENT_MAX_TERMS} Fock terms"
        )
    mode_amp = complex(spec.alpha) * np.exp(1j * np.asarray(spec.phases.theta))
    # Single-mode Fock coefficients alpha_m^n / sqrt(n!), one row per mode.
    steps = np.ones((modes, n_max + 1), dtype=complex)
    steps[:, 1:] = mode_amp[:, None] / np.sqrt(np.arange(1, n_max + 1))
    per_mode = np.cumprod(steps, axis=1)

    occ = _stars_and_bars(modes, n_max)
    amp = per_mode[0, occ[:, 0]] * math.exp(-spec.mean_total_photons / 2.0)
    for m in range(1, modes):
        amp *= per_mode[m, occ[:, m]]
    return StateVector._from_arrays(modes, occ, amp, n_max)


def _two_mode_sum(n_photons: int, phi_tilde: float, dark: bool) -> StateVector:
    if n_photons < 0:
        raise ValueError(f"photon number must be non-negative, got {n_photons}")
    # N! / (2^N n! (N-n)!) as one exact integer ratio: no factorial leaves the float range.
    ratio = [math.comb(n_photons, k) / 2**n_photons for k in range(n_photons + 1)]
    n = np.arange(n_photons + 1)
    amp = np.sqrt(ratio) * np.exp(1j * n * phi_tilde)
    if dark:
        amp[1::2] = -amp[1::2]
    else:
        amp = cmath.exp(-1j * n_photons * phi_tilde) * amp
    return StateVector._from_arrays(2, np.column_stack([n, n_photons - n]), amp, n_photons)


def two_mode_bright(n_photons: int, phi_tilde: float = 0.0) -> StateVector:
    """N-photon two-mode state with maximal field coupling sqrt(2N).

    ``exp(-i*N*phi) * sqrt(N!/2^N) * sum_n exp(i*n*phi) / sqrt(n!(N-n)!) |n, N-n>``.
    """
    return _two_mode_sum(n_photons, phi_tilde, dark=False)


def two_mode_dark(n_photons: int, phi_tilde: float = 0.0) -> StateVector:
    """N-photon two-mode state annihilated by the field operator when the
    detection phase difference equals ``phi_tilde``; alternating-sign partner
    of :func:`two_mode_bright`."""
    return _two_mode_sum(n_photons, phi_tilde, dark=True)


def coherent_bright_dark_expansion(
    alpha: complex, n_max: int, branch: str
) -> list[complex]:
    """Coefficients ``exp(-|alpha|^2) sqrt(2^N) alpha^N / sqrt(N!)`` for N=0..n_max.

    These are the weights of the two-mode N-photon bright (dark) states in the
    phase-aligned (phase-opposed) two-mode coherent state.  Both branches share
    the same closed form; the dark pairing puts the pi phase on mode 0, i.e.
    ``|-alpha, alpha>``.
    """
    if branch not in ("bright", "dark"):
        raise ValueError(f"branch must be 'bright' or 'dark', got {branch!r}")
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    a = complex(alpha)
    r = math.hypot(a.real, a.imag)  # inf past the float range, where abs(a) raises
    if r == 0.0 or r * r == math.inf:  # the vacuum; or weights that peak near N = 2r^2
        return [complex(r == 0.0)] + [0j] * n_max
    # In log space: exp(-r^2) and (sqrt(2) r)^N leave the float range long before their product.
    log_step = math.log(r) + 0.5 * math.log(2.0)
    return [
        cmath.rect(math.exp(n * log_step - r * r - 0.5 * math.lgamma(n + 1)), n * cmath.phase(a))
        for n in range(n_max + 1)
    ]
