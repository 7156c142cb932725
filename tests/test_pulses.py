"""Pulse-train envelope: closed form vs direct sum, metrics, unlocked phases."""

import math

import numpy as np
import pytest

from brightdark import pulses
from brightdark.errors import ResolutionError, ResourceLimitError
from brightdark.pulses import (
    LaserField,
    amplitude_closed,
    amplitude_direct,
    intensity_series,
    pulse_metrics,
    series_to_csv,
    unlocked_intensity,
)


def test_peak_at_time_zero():
    field = LaserField(n_side=3)
    assert amplitude_closed(field, 0.0) == pytest.approx(field.e0 * 7)
    assert amplitude_direct(field, 0.0) == pytest.approx(field.e0 * 7)


def test_direct_sum_past_the_sample_bound_is_refused():
    # 2e9 modes: the mode index array alone would take 16 GB.
    with pytest.raises(ResourceLimitError, match="mode samples"):
        amplitude_direct(LaserField(n_side=10**9), np.zeros(100))


def test_direct_sum_at_the_sample_bound_runs(monkeypatch):
    monkeypatch.setattr(pulses, "SERIES_MAX_SAMPLES", 90)
    field = LaserField(n_side=4)  # 9 modes
    assert amplitude_direct(field, np.zeros(10)) == pytest.approx(np.full(10, 9.0))
    with pytest.raises(ResourceLimitError):
        amplitude_direct(field, np.zeros(11))


def test_first_zero_of_the_envelope():
    field = LaserField(n_side=5, delta_omega=2.0)
    t_zero = 2 * math.pi / (field.m_total * field.delta_omega)
    assert amplitude_closed(field, t_zero) == pytest.approx(0.0, abs=1e-12)


def test_next_period_repeats_the_peak():
    field = LaserField(n_side=4, delta_omega=3.0)
    assert amplitude_closed(field, field.period) == pytest.approx(
        field.e0 * field.m_total
    )


def test_three_mode_zero_sum():
    # 1 + 2*cos(2*pi/3) = 0
    field = LaserField(n_side=1)
    t = 2 * math.pi / 3
    assert amplitude_direct(field, t).real == pytest.approx(0.0, abs=1e-12)
    assert amplitude_closed(field, t) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n_side", [1, 5, 50])
def test_closed_form_matches_direct_sum(n_side):
    field = LaserField(n_side=n_side, e0=1.3, delta_omega=0.8, phi=0.4)
    t = np.linspace(0.0, field.period, 10_000, endpoint=False)
    closed = amplitude_closed(field, t)
    direct = amplitude_direct(field, t)
    scale = field.e0 * field.m_total
    assert np.max(np.abs(closed - direct.real)) <= 1e-10 * scale
    assert np.max(np.abs(direct.imag)) <= 1e-10 * scale


def test_late_window_keeps_the_first_period_shape():
    # Far from t = 0 the unreduced kernel misses its removable singularities.
    field = LaserField(n_side=50)
    tau = np.arange(1024) * (field.period / 1024)
    peak = field.e0 * field.m_total
    late = amplitude_closed(field, 1e6 * field.period + tau)
    assert np.max(np.abs(late)) <= peak
    assert np.max(np.abs(late - amplitude_closed(field, tau))) <= 1e-6 * peak


def test_rejects_single_mode():
    with pytest.raises(ValueError):
        LaserField(n_side=0)


@pytest.mark.parametrize("name", ["e0", "delta_omega", "phi", "omega0"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_field_refuses_non_finite_parameters(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        LaserField(n_side=2, **{name: bad})


def test_series_peak_and_grid():
    field = LaserField(n_side=5, e0=2.0)
    series = intensity_series(field, samples_per_period=256, periods=2)
    assert len(series.t) == 512
    peak = field.e0**2 * field.m_total**2
    assert series.intensity[0] == pytest.approx(peak)
    assert series.intensity[256] == pytest.approx(peak)
    assert series.metadata["resolution_ok"]


def test_series_mean_counts_the_modes():
    # Incoherent average: each of the m_total modes contributes e0^2.
    field = LaserField(n_side=8, e0=1.5)
    series = intensity_series(field, samples_per_period=512)
    mean = float(np.mean(series.intensity))
    assert mean == pytest.approx(field.e0**2 * field.m_total, rel=1e-9)


def test_series_periodicity():
    field = LaserField(n_side=6, delta_omega=2.2)
    series = intensity_series(field, samples_per_period=128, periods=2)
    first, second = series.intensity[:128], series.intensity[128:]
    np.testing.assert_allclose(second, first, rtol=1e-10, atol=1e-10)


def test_series_undersampling_warns_in_metadata():
    field = LaserField(n_side=40)
    series = intensity_series(field, samples_per_period=64)
    assert not series.metadata["resolution_ok"]
    assert "warning" in series.metadata


def test_phase_offset_translates_the_train():
    field0 = LaserField(n_side=4, delta_omega=1.0, phi=0.0)
    samples = 256
    shift_samples = 32  # phi = -shift * delta_omega * dt => exact grid shift
    dt = field0.period / samples
    phi = -shift_samples * field0.delta_omega * dt
    shifted = LaserField(n_side=4, delta_omega=1.0, phi=phi)
    base = intensity_series(field0, samples).intensity
    moved = intensity_series(shifted, samples).intensity
    np.testing.assert_allclose(moved, np.roll(base, shift_samples), rtol=1e-10, atol=1e-8)


def test_metrics_duty_ratio_bracket():
    field = LaserField(n_side=5)
    series = intensity_series(field, samples_per_period=2048)
    metrics = pulse_metrics(series)
    assert metrics.period == pytest.approx(field.period, abs=1e-12)
    m_tot = field.m_total
    assert 0.5 / m_tot <= metrics.duty_ratio <= 2.0 / m_tot
    assert metrics.peak == pytest.approx(field.m_total**2)


def test_duty_ratio_shrinks_with_mode_count():
    duties = []
    for n_side in (2, 4, 8, 16, 32, 64):
        field = LaserField(n_side=n_side)
        series = intensity_series(field, samples_per_period=16 * field.m_total)
        duties.append(pulse_metrics(series).duty_ratio)
    assert all(a > b for a, b in zip(duties, duties[1:]))


def test_metrics_refuse_underresolved_series():
    field = LaserField(n_side=40)
    series = intensity_series(field, samples_per_period=64)
    with pytest.raises(ResolutionError):
        pulse_metrics(series)


def test_unlocked_is_deterministic_per_seed():
    field = LaserField(n_side=10)
    a = unlocked_intensity(field, seed=42, samples_per_period=128, periods=3)
    b = unlocked_intensity(field, seed=42, samples_per_period=128, periods=3)
    assert np.array_equal(a.intensity, b.intensity)
    c = unlocked_intensity(field, seed=43, samples_per_period=128, periods=3)
    assert not np.array_equal(a.intensity, c.intensity)


@pytest.mark.parametrize("n_side,samples", [(10, 128), (10, 7), (3, 64)])
def test_unlocked_matches_direct_mode_sum(n_side, samples):
    # samples < m_total folds several modes into one FFT bin.
    field = LaserField(n_side=n_side, e0=1.3, delta_omega=0.7, phi=0.2)
    series = unlocked_intensity(field, seed=5, samples_per_period=samples, periods=3)
    mode_phases = np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, field.m_total)
    m = np.arange(-n_side, n_side + 1)
    phase = np.multiply.outer(series.t * field.delta_omega, m) + mode_phases
    direct = np.abs(field.e0 * np.exp(1j * phase).sum(axis=-1)) ** 2
    peak = (field.e0 * field.m_total) ** 2
    assert np.max(np.abs(series.intensity - direct)) <= 1e-9 * peak


def test_unlocked_mean_matches_incoherent_sum():
    field = LaserField(n_side=10, e0=1.2)
    series = unlocked_intensity(field, seed=1, samples_per_period=128, periods=100)
    mean = float(np.mean(series.intensity))
    assert mean == pytest.approx(field.e0**2 * field.m_total, rel=0.05)


@pytest.mark.parametrize("seed", range(10))
def test_unlocked_peak_stays_far_below_locked_peak(seed):
    field = LaserField(n_side=10)  # m_total = 21
    series = unlocked_intensity(field, seed=seed, samples_per_period=128, periods=20)
    locked_peak = field.e0**2 * field.m_total**2
    assert float(np.max(series.intensity)) < 0.5 * locked_peak


def test_csv_export_headers_and_rows():
    field = LaserField(n_side=2, delta_omega=1.0)
    series = intensity_series(field, samples_per_period=8)
    text = series_to_csv(series)
    lines = text.splitlines()
    assert "# n_side=2" in lines
    assert "# m_total=5" in lines
    assert "# delta_omega=1.0" in lines
    header_idx = lines.index("t_prime,intensity")
    assert len(lines) - header_idx - 1 == 8
    first = lines[header_idx + 1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(25.0)
