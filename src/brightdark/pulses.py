"""Classical mode-locked pulse train: direct mode sum and its closed form.

A comb of ``2*n_side + 1`` equally spaced modes with a common amplitude and
a locked linear phase produces the Dirichlet-kernel envelope

    A(t) = E0 * sin(m_total * x) / sin(x),   x = (delta_omega * t + phi) / 2,

with peak ``E0 * m_total`` repeating every round-trip period
``tau = 2*pi/delta_omega``.  Breaking the phase lock (random per-mode
phases) keeps the mean intensity but destroys the peaks.

Both series are exactly periodic, so an IntensitySeries of the library holds
one period of S samples and the period count P, never S*P values: its ``t``
and ``intensity`` arrays are built on first read and kept, and the writers
take their rows from the period a chunk at a time.

The writers' text, and the '%.12g' kernel behind it, live in textio.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, ResourceLimitError
from .textio import _Column, _csv_chunks

SINGULARITY_EPS = 1e-12
DIRICHLET_MAX_MODES = 2**53  # past it, modes*phase/2 keeps no digit of the phase
SERIES_MAX_SAMPLES = 10_000_000  # samples per series, checked before allocating
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
        if peak * peak < sys.float_info.min:  # zero, or subnormal intensities
            raise ValueError(f"(e0*m_total)^2 underflows: e0={self.e0}")

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
    result is 2*pi-periodic; for even ``modes`` only its magnitude is.  More
    than DIRICHLET_MAX_MODES modes raise ValueError: the kernel would be a
    rounding artefact, or NaN once modes*phase/2 overflows.  So does a NaN or
    infinite phase, which would fail the singularity test and read as the peak.
    """
    if modes > DIRICHLET_MAX_MODES:  # compared exactly, as an int
        raise ValueError("too many modes: the kernel would keep no digit of the phase")
    x = np.asarray(phase, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("phase must be finite")
    x = np.remainder(x + math.pi, 2.0 * math.pi) - math.pi
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


def _grid(lo: int, hi: int, step: float) -> np.ndarray:
    """The sample times k*step of k = lo..hi-1.  A float arange gives the bits of an
    int one times step, without a cast that costs more than the product."""
    t = np.arange(lo, hi, dtype=float)
    t *= step
    return t


class IntensitySeries:
    """Samples ``intensity`` at times ``t``, with the parameters that made them as
    ``metadata``, in the order of the CSV header.

    ``IntensitySeries(t, intensity, metadata)`` holds the arrays it is given.
    The series of intensity_series and unlocked_intensity hold one period of S
    samples and the period count P instead (_periodic): ``t`` and ``intensity``
    are built, S*P values each, on first read and kept.  The writers read
    either form through _columns, a chunk of rows at a time.
    """

    def __init__(self, t, intensity, metadata=None):
        self._t, self._intensity = t, intensity
        self.metadata = {} if metadata is None else metadata
        self._period = None

    @classmethod
    def _periodic(cls, period: np.ndarray, periods: int, step: float, metadata: dict):
        """``periods`` copies of ``period``, sampled every ``step`` from t = 0."""
        series = cls(None, None, metadata)
        series._period, series._periods, series._step = period, periods, step
        return series

    @property
    def t(self):
        if self._t is None:
            self._t = _grid(0, len(self._period) * self._periods, self._step)
        return self._t

    @property
    def intensity(self):
        if self._intensity is None:
            self._intensity = np.tile(self._period, self._periods)
        return self._intensity

    def _columns(self):
        """(t, intensity) as float columns sliced [lo:hi] by the writers: the arrays
        held, or columns that build each slice from the period."""
        if self._period is None:
            return np.asarray(self._t, dtype=float), np.asarray(self._intensity, dtype=float)
        size = len(self._period) * self._periods
        return _Column(size, lambda lo, hi: _grid(lo, hi, self._step)), _Column(size, self._repeat)

    def _repeat(self, lo: int, hi: int) -> np.ndarray:
        """Samples lo..hi-1 of the period repeated: a view of the period unless
        they wrap, for a gather costs more than the chunk's copy into the writer."""
        k = lo % len(self._period)
        if k + hi - lo <= len(self._period):
            return self._period[k : k + hi - lo]
        return self._period.take(np.arange(lo, hi), mode="wrap")


def _periodic_series(field_: LaserField, one_period: np.ndarray, periods: int, step: float,
                     kind, seed) -> IntensitySeries:
    """One period's intensity repeated ``periods`` times, with the series' parameters
    as metadata, in the order of the CSV header."""
    samples_per_period = len(one_period)
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
    return IntensitySeries._periodic(one_period, periods, step, meta)


def _time_step(field_: LaserField, samples_per_period: int, periods: int) -> float:
    """The grid's time step, once the grid is known to fit the bounds."""
    if samples_per_period < 2:
        raise ValueError(f"samples_per_period must be >= 2, got {samples_per_period}")
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    if samples_per_period * periods > SERIES_MAX_SAMPLES:
        raise ResourceLimitError(
            f"{samples_per_period} samples x {periods} periods exceed "
            f"{SERIES_MAX_SAMPLES} samples"
        )
    if not math.isfinite(field_.period * periods):
        raise ValueError(f"{periods} periods of {field_.period} overflow the time grid")
    return field_.period / samples_per_period


def intensity_series(
    field_: LaserField, samples_per_period: int, periods: int = 1
) -> IntensitySeries:
    """Locked-phase intensity A(t)^2 on a uniform grid.  The kernel of odd m_total is
    2*pi-periodic, so one period is evaluated and repeated: the values are exactly periodic."""
    step = _time_step(field_, samples_per_period, periods)
    amp = amplitude_closed(field_, _grid(0, samples_per_period, step))
    return _periodic_series(field_, amp**2, periods, step, "locked", None)


def unlocked_intensity(
    field_: LaserField, seed: int, samples_per_period: int, periods: int = 100
) -> IntensitySeries:
    """Intensity with the phase lock broken: per-mode phases drawn once from a
    seeded generator, then evaluated deterministically over the grid.  Mode m
    adds exp(2*pi*i*m*k/S) at sample k, which depends only on m mod S, so the
    modes fold into S bins and one inverse FFT gives one period, which is repeated.
    The phases are drawn and folded FOLD_CHUNK modes at a time, in mode order."""
    if field_.m_total > SERIES_MAX_SAMPLES:
        raise ResourceLimitError(f"{field_.m_total} modes exceed {SERIES_MAX_SAMPLES} modes")
    step = _time_step(field_, samples_per_period, periods)
    rng = np.random.default_rng(seed)
    bins = np.zeros(samples_per_period, dtype=complex)
    for lo in range(-field_.n_side, field_.n_side + 1, FOLD_CHUNK):
        m = np.arange(lo, min(lo + FOLD_CHUNK, field_.n_side + 1))
        phases = rng.uniform(0.0, 2.0 * math.pi, m.size)
        np.add.at(bins, m % samples_per_period, np.exp(1j * phases))
    amp = field_.e0 * samples_per_period * np.fft.ifft(bins)
    return _periodic_series(field_, np.abs(amp) ** 2, periods, step, "unlocked", seed)


@dataclass(frozen=True)
class PulseMetrics:
    fwhm: float
    period: float
    duty_ratio: float
    peak: float


def pulse_metrics(series: IntensitySeries) -> PulseMetrics:
    """FWHM of the main lobe by linear interpolation of the half-max crossings.

    The first period is read: the peak is the largest of its samples, and the
    walk to each crossing wraps within it.  The period is analytic
    (2*pi/delta_omega), not measured from the series.
    """
    meta = series.metadata
    if not meta.get("resolution_ok", False):
        raise ResolutionError(meta.get("warning", "series under-resolved"))
    samples = meta["samples_per_period"]
    _, column = series._columns()
    if len(column) < samples:
        raise ResolutionError("series shorter than one period")
    period = 2.0 * math.pi / meta["delta_omega"]
    dt = period / samples

    intensity = column[:samples]
    peak_idx = int(np.argmax(intensity))
    peak = float(intensity[peak_idx])
    half = peak / 2.0

    def crossing_offset(step: int) -> float:
        # Walk away from the peak (wrapping) to the first dip below half-max.
        prev = peak
        for k in range(1, samples):
            cur = float(intensity[(peak_idx + step * k) % samples])
            if cur < half:
                return (k - 1) + (prev - half) / (prev - cur)
            prev = cur
        raise ResolutionError("no half-maximum crossing within one period")

    fwhm = (crossing_offset(+1) + crossing_offset(-1)) * dt
    return PulseMetrics(fwhm=fwhm, period=period, duty_ratio=fwhm / period, peak=peak)


def series_to_csv(series: IntensitySeries) -> str:
    """CSV with a commented header recording the grid and field parameters."""
    return "".join(_csv_chunks(series.metadata, series._columns(), {}))
