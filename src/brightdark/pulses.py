"""Classical mode-locked pulse train: direct mode sum and its closed form.

A comb of ``2*n_side + 1`` equally spaced modes with a common amplitude and
a locked linear phase produces the Dirichlet-kernel envelope

    A(t) = E0 * sin(m_total * x) / sin(x),   x = (delta_omega * t + phi) / 2,

with peak ``E0 * m_total`` repeating every round-trip period
``tau = 2*pi/delta_omega``.  Breaking the phase lock (random per-mode
phases) keeps the mean intensity but destroys the peaks.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ResolutionError, ResourceLimitError

SINGULARITY_EPS = 1e-12
SERIES_MAX_SAMPLES = 10_000_000  # samples per series, checked before allocating
FORMAT_CHUNK = 4096  # rows formatted per pass; bounds the Python floats alive at once
FOLD_CHUNK = 1 << 16  # modes drawn and folded per pass by unlocked_intensity


@dataclass(frozen=True)
class LaserField:
    """Symmetric mode comb m = -n_side..+n_side around a carrier.

    The envelope depends on the mode spacing ``delta_omega`` and the locked
    phase offset ``phi`` alone; the carrier frequency drops out.
    """

    n_side: int
    e0: float = 1.0
    delta_omega: float = 1.0
    phi: float = 0.0

    def __post_init__(self):
        if self.n_side < 1:
            raise ValueError(f"n_side must be >= 1, got {self.n_side}")
        for name in ("e0", "delta_omega", "phi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.delta_omega <= 0:
            raise ValueError(f"delta_omega must be positive, got {self.delta_omega}")
        if self.m_total > sys.float_info.max:  # compared exactly; e0 * m_total would raise
            raise ValueError("m_total = 2*n_side + 1 is past the largest float")
        peak = self.e0 * self.m_total  # squared as a product: float ** 2 raises on overflow
        for name, value in (("(e0*m_total)^2", peak * peak), ("2*pi/delta_omega", self.period)):
            if not math.isfinite(value):
                raise ValueError(f"{name} overflows: e0={self.e0}, delta_omega={self.delta_omega}")

    @property
    def m_total(self) -> int:
        return 2 * self.n_side + 1

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.delta_omega


def dirichlet(modes: int, phase):
    """Dirichlet kernel sin(modes*phase/2) / sin(phase/2), the field of locked modes.

    The phase is reduced to [-pi, pi) before halving, so the only removable
    singularity is at 0, where the limit is ``modes``.  For odd ``modes`` the
    result is 2*pi-periodic; for even ``modes`` only its magnitude is.
    """
    x = np.remainder(np.asarray(phase, dtype=float) + math.pi, 2.0 * math.pi) - math.pi
    den = np.sin(0.5 * x)
    out = np.full(x.shape, float(modes))
    np.divide(np.sin(0.5 * modes * x), den, out=out, where=np.abs(den) >= SINGULARITY_EPS)
    return float(out) if np.ndim(phase) == 0 else out


def amplitude_closed(field_: LaserField, t):
    """Closed-form envelope; m_total is odd, so each period peaks at E0*m_total."""
    phase = field_.delta_omega * np.asarray(t, dtype=float) + field_.phi
    return field_.e0 * dirichlet(field_.m_total, phase)


def amplitude_direct(field_: LaserField, t):
    """Direct mode sum sum_m E0*exp(i*m*(delta_omega*t + phi)); oracle for the closed form."""
    t_arr = np.asarray(t, dtype=float)
    if t_arr.size * field_.m_total > SERIES_MAX_SAMPLES:
        raise ResourceLimitError(
            f"{t_arr.size} samples x {field_.m_total} modes exceed "
            f"{SERIES_MAX_SAMPLES} mode samples"
        )
    m = np.arange(-field_.n_side, field_.n_side + 1)
    phase = np.multiply.outer(t_arr * field_.delta_omega + field_.phi, m)
    out = field_.e0 * np.exp(1j * phase).sum(axis=-1)
    if np.ndim(t) == 0:
        return complex(out)
    return out


@dataclass(frozen=True)
class IntensitySeries:
    t: np.ndarray
    intensity: np.ndarray
    metadata: dict = field(default_factory=dict)


def _tiled(field_: LaserField, t: np.ndarray, one_period: np.ndarray, kind, seed):
    """The series on grid ``t``: one period's intensity repeated over every period,
    with the series' parameters as metadata, in the order of the CSV header."""
    samples_per_period, periods = len(one_period), len(t) // len(one_period)
    resolution_ok = samples_per_period >= 4 * field_.m_total
    meta = {
        "kind": kind,
        "n_side": field_.n_side,
        "m_total": field_.m_total,
        "e0": field_.e0,
        "delta_omega": field_.delta_omega,
        "phi": field_.phi,
        "samples_per_period": samples_per_period,
        "periods": periods,
        "resolution_ok": resolution_ok,
    }
    if seed is not None:
        meta["seed"] = seed
    if not resolution_ok:
        meta["warning"] = (
            f"samples_per_period={samples_per_period} under-resolves the main "
            f"lobe; need >= {4 * field_.m_total}"
        )
    return IntensitySeries(t, np.tile(one_period, periods), meta)


def _time_grid(field_: LaserField, samples_per_period: int, periods: int) -> np.ndarray:
    if samples_per_period < 2:
        raise ValueError(f"samples_per_period must be >= 2, got {samples_per_period}")
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    count = samples_per_period * periods
    if count > SERIES_MAX_SAMPLES:
        raise ResourceLimitError(
            f"{samples_per_period} samples x {periods} periods exceed "
            f"{SERIES_MAX_SAMPLES} samples"
        )
    if not math.isfinite(field_.period * periods):
        raise ValueError(f"{periods} periods of {field_.period} overflow the time grid")
    return np.arange(count) * (field_.period / samples_per_period)


def intensity_series(
    field_: LaserField, samples_per_period: int, periods: int = 1
) -> IntensitySeries:
    """Locked-phase intensity A(t)^2 on a uniform grid.  The kernel of odd m_total is
    2*pi-periodic, so one period is evaluated and tiled: the values are exactly periodic."""
    t = _time_grid(field_, samples_per_period, periods)
    amp = amplitude_closed(field_, t[:samples_per_period])
    return _tiled(field_, t, amp**2, "locked", None)


def unlocked_intensity(
    field_: LaserField, seed: int, samples_per_period: int, periods: int = 100
) -> IntensitySeries:
    """Intensity with the phase lock broken: per-mode phases drawn once from a
    seeded generator, then evaluated deterministically over the grid.  Mode m
    adds exp(2*pi*i*m*k/S) at sample k, which depends only on m mod S, so the
    modes fold into S bins and one inverse FFT gives one period, which is tiled.
    The phases are drawn and folded FOLD_CHUNK modes at a time, in mode order."""
    if field_.m_total > SERIES_MAX_SAMPLES:
        raise ResourceLimitError(f"{field_.m_total} modes exceed {SERIES_MAX_SAMPLES} modes")
    t = _time_grid(field_, samples_per_period, periods)
    rng = np.random.default_rng(seed)
    bins = np.zeros(samples_per_period, dtype=complex)
    for lo in range(-field_.n_side, field_.n_side + 1, FOLD_CHUNK):
        m = np.arange(lo, min(lo + FOLD_CHUNK, field_.n_side + 1))
        phases = rng.uniform(0.0, 2.0 * math.pi, m.size)
        np.add.at(bins, m % samples_per_period, np.exp(1j * phases))
    amp = field_.e0 * samples_per_period * np.fft.ifft(bins)
    return _tiled(field_, t, np.abs(amp) ** 2, "unlocked", seed)


@dataclass(frozen=True)
class PulseMetrics:
    fwhm: float
    period: float
    duty_ratio: float
    peak: float


def pulse_metrics(series: IntensitySeries) -> PulseMetrics:
    """FWHM of the main lobe by linear interpolation of the half-max crossings.

    The period is analytic (2*pi/delta_omega), not measured from the series.
    """
    meta = series.metadata
    if not meta.get("resolution_ok", False):
        raise ResolutionError(meta.get("warning", "series under-resolved"))
    samples = meta["samples_per_period"]
    if len(series.intensity) < samples:
        raise ResolutionError("series shorter than one period")
    period = 2.0 * math.pi / meta["delta_omega"]
    dt = period / samples

    intensity = series.intensity
    n = len(intensity)
    peak_idx = int(np.argmax(intensity))
    peak = float(intensity[peak_idx])
    half = peak / 2.0

    def crossing_offset(step: int) -> float:
        # Walk away from the peak (wrapping) to the first dip below half-max.
        prev = peak
        for k in range(1, samples):
            cur = float(intensity[(peak_idx + step * k) % n])
            if cur < half:
                return (k - 1) + (prev - half) / (prev - cur)
            prev = cur
        raise ResolutionError("no half-maximum crossing within one period")

    fwhm = (crossing_offset(+1) + crossing_offset(-1)) * dt
    return PulseMetrics(fwhm=fwhm, period=period, duty_ratio=fwhm / period, peak=peak)


def _format_rows(*columns) -> Iterator[str]:
    """'%.12g' text of float columns, one comma-separated row per line up to the
    shortest column, yielded FORMAT_CHUNK rows at a time through one %-template."""
    rows = min(len(c) for c in columns)
    line = ",".join(["%.12g"] * len(columns)) + "\n"
    for lo in range(0, rows, FORMAT_CHUNK):
        chunk = np.column_stack([c[lo : min(lo + FORMAT_CHUNK, rows)] for c in columns])
        yield line * len(chunk) % tuple(chunk.ravel().tolist())


def _csv_chunks(series: IntensitySeries) -> Iterator[str]:
    """series_to_csv's text: a comment line per metadata item, in order, then _format_rows'."""
    yield "".join(f"# {k}={v}\n" for k, v in series.metadata.items()) + "t_prime,intensity\n"
    yield from _format_rows(series.t, series.intensity)


def series_to_csv(series: IntensitySeries) -> str:
    """CSV with a commented header recording the grid and field parameters."""
    return "".join(_csv_chunks(series))
