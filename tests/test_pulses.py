"""Pulse-train envelope: closed form vs direct sum, metrics, unlocked phases."""

import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from brightdark import pulses
from brightdark.cli import main
from brightdark.errors import ResolutionError, ResourceLimitError
from brightdark.pulses import (
    IntensitySeries,
    LaserField,
    amplitude_closed,
    amplitude_direct,
    intensity_series,
    pulse_metrics,
    series_to_csv,
    unlocked_intensity,
)
from brightdark.textio import FORMAT_CHUNK, _csv_chunks, _json_chunks, _Records


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


@pytest.mark.parametrize("name", ["e0", "delta_omega", "phi"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_field_refuses_non_finite_parameters(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        LaserField(n_side=2, **{name: bad})


@pytest.mark.parametrize(
    "params, match",
    [
        ({"e0": 1e200}, "m_total"),
        ({"e0": -1e200}, "m_total"),
        ({"e0": 1.4e154 / 11}, "m_total"),  # (e0*M)^2 just past the largest float
        ({"delta_omega": 1e-320}, "delta_omega overflows"),
        ({"delta_omega": 1e-308}, "delta_omega overflows"),
    ],
)
def test_field_refuses_an_overflowing_peak_or_period(params, match):
    with pytest.raises(ValueError, match=match):
        LaserField(n_side=5, **params)


@pytest.mark.parametrize("e0", [0.0, -0.0, 1e-300, 1e-160, -1e-160, 1.4e-154 / 11])
def test_field_refuses_an_underflowing_peak(e0):
    # 1.4e-154 / 11: (e0*M)^2 just below the smallest normal float.
    with pytest.raises(ValueError, match=f"underflows: e0={e0}"):
        LaserField(n_side=5, e0=e0)


def test_field_keeps_the_smallest_normal_peak():
    field = LaserField(n_side=5, e0=1.5e-154 / 11)
    peak = float(np.max(intensity_series(field, samples_per_period=64).intensity))
    assert sys.float_info.min <= peak <= 1.5e-154**2


@pytest.mark.parametrize("n_side", [10**400, 2**1023], ids=["10**400", "2**1023"])
def test_field_refuses_a_mode_count_past_the_float_range(n_side):
    with pytest.raises(ValueError, match="past the largest float"):
        LaserField(n_side=n_side, e0=1e-300)


def test_field_keeps_the_largest_finite_peak():
    field = LaserField(n_side=5, e0=1.3e154 / 11)
    series = intensity_series(field, samples_per_period=64)
    assert math.isfinite(float(np.max(series.intensity)))


def test_time_grid_past_the_largest_float_is_refused():
    field = LaserField(n_side=2, delta_omega=4e-308)  # period 1.57e308
    assert math.isfinite(intensity_series(field, 32, 1).t[-1])
    with pytest.raises(ValueError, match="overflow the time grid"):
        intensity_series(field, 32, 2)


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
    field = LaserField(n_side=6, delta_omega=2.2, phi=0.3)
    for series in (
        intensity_series(field, samples_per_period=128, periods=5),
        unlocked_intensity(field, seed=3, samples_per_period=128, periods=5),
    ):
        rows = series.intensity.reshape(5, 128)
        assert (rows == rows[0]).all()


@pytest.mark.parametrize(
    "n_side, samples, periods, phi",
    [(5, 64, 50, 0.0), (5, 256, 50, 0.4), (20, 200, 13, -1.1), (1, 6, 50, 2.5)],
)
def test_series_matches_direct_sum_at_the_grid_times(n_side, samples, periods, phi):
    field = LaserField(n_side=n_side, e0=1.3, delta_omega=0.8, phi=phi)
    series = intensity_series(field, samples_per_period=samples, periods=periods)
    direct = np.abs(amplitude_direct(field, series.t)) ** 2
    peak = (field.e0 * field.m_total) ** 2
    assert np.max(np.abs(series.intensity - direct)) <= 1e-10 * peak


def test_locked_series_evaluates_the_kernel_on_one_period(monkeypatch):
    sizes, kernel = [], pulses.dirichlet
    monkeypatch.setattr(
        pulses, "dirichlet", lambda modes, phase: sizes.append(np.size(phase)) or kernel(modes, phase)
    )
    series = intensity_series(LaserField(n_side=3), samples_per_period=64, periods=40)
    assert sizes == [64] and series.intensity.shape == (64 * 40,)


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


def test_metrics_read_the_first_period():
    one = intensity_series(LaserField(n_side=5), samples_per_period=2048)
    # Later periods that are not copies of the first do not move the metrics.
    tail = np.concatenate([one.intensity[::-1] * 2.0, np.zeros(2048)])
    longer = IntensitySeries(one.t, np.concatenate([one.intensity, tail]), one.metadata)
    assert pulse_metrics(longer) == pulse_metrics(one)


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_dirichlet_refuses_a_non_finite_phase(phase):
    # NaN fails the singularity test, and the kernel read as its peak.
    for value in (phase, np.array([0.0, phase, 1.0])):
        with pytest.raises(ValueError, match="phase must be finite"):
            pulses.dirichlet(5, value)
    with pytest.raises(ValueError, match="phase must be finite"):
        amplitude_closed(LaserField(3), phase)


@pytest.mark.parametrize("modes", [2**53, 2**53 - 1], ids=["2**53", "2**53-1"])
def test_dirichlet_at_the_mode_bound_runs(modes):
    assert pulses.dirichlet(modes, 0.0) == float(modes)
    assert math.isfinite(pulses.dirichlet(modes, 3.0))


@pytest.mark.parametrize(
    "modes",
    [2**53 + 1, int(1e46), int(sys.float_info.max), 10**400],
    ids=["2**53+1", "1e46", "float-max", "10**400"],
)
def test_dirichlet_refuses_modes_past_the_bound(modes):
    with pytest.raises(ValueError, match="too many modes") as info:
        pulses.dirichlet(modes, 3.0)
    assert not any(ch.isdigit() for ch in str(info.value))


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


def test_unlocked_at_the_mode_bound_runs(monkeypatch):
    monkeypatch.setattr(pulses, "SERIES_MAX_SAMPLES", 9)
    series = unlocked_intensity(LaserField(n_side=4), seed=0, samples_per_period=9, periods=1)
    assert float(np.mean(series.intensity)) == pytest.approx(9.0)
    # Past the bound the refusal comes before any phase is drawn.
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ResourceLimitError, match="modes"):
        unlocked_intensity(LaserField(n_side=5), seed=0, samples_per_period=8, periods=1)


@pytest.mark.parametrize(
    "n_side, samples, chunk", [(4, 9, 2), (20, 16, 3), (50, 7, 5), (37, 128, 75)]
)
def test_unlocked_fold_in_chunks_matches_the_one_shot_fold(monkeypatch, n_side, samples, chunk):
    field = LaserField(n_side=n_side, e0=1.7)
    monkeypatch.setattr(pulses, "FOLD_CHUNK", field.m_total)
    one_shot = unlocked_intensity(field, seed=11, samples_per_period=samples, periods=2)
    monkeypatch.setattr(pulses, "FOLD_CHUNK", chunk)
    chunked = unlocked_intensity(field, seed=11, samples_per_period=samples, periods=2)
    assert np.array_equal(chunked.intensity, one_shot.intensity)
    assert chunked.metadata == one_shot.metadata


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


def _random_series(seed, rows):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 10.0, rows))
    return IntensitySeries(t, rng.lognormal(0.0, 8.0, rows), {"seed": seed})


def _csv_writer(seed, rows):
    series = _random_series(seed, rows)
    return lambda: _csv_chunks(series.metadata, series._columns(), {})


def _json_writer(seed, rows):
    rng = np.random.default_rng(seed)
    labels = [("Dark", "Bright")[k % 2] for k in range(rows)]
    doc = {"points": _Records({"y": rng.lognormal(0.0, 8.0, rows), "label": labels}, {"c": 2.5})}
    return lambda: _json_chunks(doc)


def test_csv_writers_interleaved_in_one_thread_keep_their_own_text():
    # The kernel's work arrays are shared by every writer of a thread, the JSON
    # writer's too: a writer must be done with them before it yields a chunk.
    rows = 2 * FORMAT_CHUNK + 5
    for second in (_csv_writer, _json_writer):
        writers = [_csv_writer(1, rows), second(2, rows)]
        want = ["".join(writer()) for writer in writers]
        got = ["", ""]
        for chunks in itertools.zip_longest(*(writer() for writer in writers), fillvalue=""):
            for n, chunk in enumerate(chunks):
                got[n] += chunk
        assert got == want


def test_csv_writers_in_two_threads_match_one_thread():
    from concurrent.futures import ThreadPoolExecutor

    series = [_random_series(seed, 3 * FORMAT_CHUNK) for seed in range(6)]
    want = [series_to_csv(s) for s in series]
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(series_to_csv, series)) == want


def test_csv_header_follows_the_metadata_order():
    metadata = {"periods": 1, "note": "hand-built", "kind": "locked", "seed": 4}
    series = IntensitySeries(np.array([0.0, 0.5]), np.array([2.0, 1.0]), metadata)
    assert series_to_csv(series) == (
        "# periods=1\n# note=hand-built\n# kind=locked\n# seed=4\n"
        "t_prime,intensity\n0,2\n0.5,1\n"
    )



# A library series holds one period; its writers take rows from the period.
# S = 1000 puts chunk boundaries (FORMAT_CHUNK = 4096 rows) inside a period, and
# S = 10000 makes chunks that start inside a period and end before its end, and
# S = 4095 a first chunk that ends one sample past the first period.
def _library_series(kind, periods, samples=1000):
    field = LaserField(n_side=3, e0=1.3, delta_omega=0.8, phi=0.4)
    if kind == "locked":
        return intensity_series(field, samples, periods)
    return unlocked_intensity(field, 5, samples, periods)


def _texts(series, t, intensity):
    """The CSV text of ``series`` and the JSON text of the two columns."""
    return series_to_csv(series), "".join(_json_chunks({"t_prime": t, "intensity": intensity}))


def _same(a, b):
    return a == b  # pytest would spend minutes on a diff of two long texts


@pytest.mark.parametrize(
    "samples, periods", [(1000, 1), (1000, 2), (1000, 3), (1000, 7), (10000, 2), (4095, 2)]
)
@pytest.mark.parametrize("kind", ["locked", "unlocked"])
def test_library_series_write_the_bytes_of_their_arrays(kind, samples, periods):
    series = _library_series(kind, periods, samples)
    texts = _texts(series, *series._columns())
    copy = IntensitySeries(series.t, series.intensity, series.metadata)
    assert _same(texts, _texts(copy, copy.t, copy.intensity))
    # Reading the arrays does not change what the series writes.
    assert _same(texts, _texts(series, *series._columns()))
    assert len(texts[0].splitlines()) == len(series.metadata) + 1 + samples * periods


@pytest.mark.parametrize("kind", ["locked", "unlocked"])
def test_library_series_grid_and_metrics_match_the_arrays(kind):
    series = _library_series(kind, 7)
    step = LaserField(n_side=3, delta_omega=0.8).period / 1000
    assert series.t.tobytes() == (np.arange(7000) * step).tobytes()
    assert series.t is series.t and series.intensity is series.intensity
    assert series.intensity.tobytes() == np.tile(series.intensity[:1000], 7).tobytes()
    if kind == "locked":
        copy = IntensitySeries(series.t, series.intensity, series.metadata)
        assert pulse_metrics(series) == pulse_metrics(copy)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_library_series_hold_one_period():
    field = LaserField(n_side=5)
    unlocked_intensity(field, 7, 64, 2)  # the first FFT makes caches that stay
    for make in (intensity_series, lambda f, s, p: unlocked_intensity(f, 7, s, p)):
        assert _peak_bytes(lambda: make(field, 1024, 2000)) < 2**20  # S*P*8 is 16 MB


def test_reading_the_time_grid_allocates_it_once():
    # A float arange scaled in place: an int one would hold a second copy.
    series = intensity_series(LaserField(n_side=5), 100_000, 10)
    assert _peak_bytes(lambda: series.t) < 1.25 * series.t.nbytes


def test_csv_pulse_train_memory_is_flat_in_the_periods(tmp_path):
    out = str(tmp_path / "train.csv")

    def run(periods):
        assert main(["pulse-train", "--n-side", "5", "--samples", "100000",
                     "--periods", str(periods), "--output", out]) == 0

    run(1)  # the formatter's work arrays, made once per thread
    one, twenty = _peak_bytes(lambda: run(1)), _peak_bytes(lambda: run(20))
    assert twenty < one + 100_000 * 8 and twenty < 0.5 * 100_000 * 20 * 8
