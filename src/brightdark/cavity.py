"""Cavity and gain-medium arithmetic for the mode-count estimate.

All quantities are SI (meters, seconds, rad/s); unit conversion belongs at
the CLI boundary.  The worked reference configuration is a Ti:Sapphire
oscillator (780 nm center, 30 nm gain bandwidth, 250 mm plane cavity,
45 ns pulses at a 1 ms repetition period); the published estimate for that
system quotes ~4e4 modes and a bright-to-dark ratio of ~2.5e-5, which this
module reproduces at the order-of-magnitude level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .counting import bright_to_dark_ratio
from .errors import ConfigurationError, finite

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by the SI definition of the metre
# Published estimates quoted for the reference Ti:Sapphire configuration.
QUOTED_MODE_COUNT = 4e4
QUOTED_RATIO = 2.5e-5


@dataclass(frozen=True)
class CavityDesign:
    lambda0: float       # center wavelength, m
    dlambda_g: float     # gain bandwidth, m
    length: float        # cavity length, m
    n_index: float = 1.0
    pulse_duration: float = 45e-9   # s
    rep_period: float = 1e-3        # s

    def __post_init__(self):
        for name, value in vars(self).items():
            if not finite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        for name in ("lambda0", "dlambda_g", "length", "pulse_duration", "rep_period"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.n_index < 1.0:
            raise ConfigurationError(f"n_index must be >= 1, got {self.n_index}")
        if self.dlambda_g >= self.lambda0:
            raise ConfigurationError(
                f"gain bandwidth {self.dlambda_g} must be below the center "
                f"wavelength {self.lambda0}"
            )


TI_SAPPHIRE = CavityDesign(
    lambda0=780e-9, dlambda_g=30e-9, length=0.25, n_index=1.0,
    pulse_duration=45e-9, rep_period=1e-3,
)


def _in_range(name: str, value: float) -> float:
    """A derived quantity, refused if it overflowed or underflowed out of (0, inf)."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{name} is {value}, out of floating-point range")
    return value


def free_spectral_range(design: CavityDesign) -> float:
    """Longitudinal mode spacing pi*c/(n*L) of a plane-mirror cavity, rad/s."""
    spacing = math.pi * SPEED_OF_LIGHT / (design.n_index * design.length)
    return _in_range("the mode spacing", spacing)


def gain_bandwidth(design: CavityDesign) -> float:
    """Gain bandwidth 2*pi*c*dlambda/lambda0^2 in rad/s."""
    square = design.lambda0 * design.lambda0  # overflows to inf, where ** would raise
    omega = 2.0 * math.pi * SPEED_OF_LIGHT * design.dlambda_g / _in_range("lambda0^2", square)
    return _in_range("the gain bandwidth", omega)


def mode_count(design: CavityDesign) -> int:
    """Modes fitting inside the gain band: floor(gain_bandwidth / spacing)."""
    modes = gain_bandwidth(design) // free_spectral_range(design)
    if not math.isfinite(modes):
        raise ConfigurationError(f"the mode count is {modes}, out of floating-point range")
    m = int(modes)
    if m < 2:
        raise ConfigurationError(
            f"only {m} mode(s) fit the gain band; no mode-locking possible"
        )
    return m


@dataclass(frozen=True)
class RatioReport:
    delta_omega: float
    delta_omega_g: float
    mode_count: int
    theory_ratio: float
    measured_ratio: float
    orders_match: bool

    def to_dict(self) -> dict:
        return {
            "delta_omega": self.delta_omega,
            "delta_omega_g": self.delta_omega_g,
            "M": self.mode_count,
            "theory_ratio": self.theory_ratio,
            "measured_ratio": self.measured_ratio,
            "orders_match": self.orders_match,
            "quoted_M": QUOTED_MODE_COUNT,
            "quoted_ratio": QUOTED_RATIO,
        }


def ratio_report(design: CavityDesign) -> RatioReport:
    """Compare 1/(M-1) against the measured light/no-light duty ratio."""
    if design.pulse_duration >= design.rep_period:
        raise ConfigurationError(
            f"pulse duration {design.pulse_duration} must be below the "
            f"repetition period {design.rep_period}"
        )
    m = mode_count(design)
    theory = bright_to_dark_ratio(m)
    measured = _in_range("the measured ratio", design.pulse_duration / design.rep_period)
    orders = abs(math.log10(theory / measured)) < 1.0
    return RatioReport(
        delta_omega=free_spectral_range(design),
        delta_omega_g=gain_bandwidth(design),
        mode_count=m,
        theory_ratio=theory,
        measured_ratio=measured,
        orders_match=orders,
    )
