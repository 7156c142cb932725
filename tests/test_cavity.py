"""Cavity mode-count arithmetic and the duty-ratio comparison."""

import math

import pytest
from scipy.constants import c

from brightdark.cavity import (
    CavityDesign,
    TI_SAPPHIRE,
    free_spectral_range,
    gain_bandwidth,
    mode_count,
    ratio_report,
)
from brightdark.counting import bright_to_dark_ratio
from brightdark.errors import ConfigurationError


def design(**overrides):
    base = dict(
        lambda0=780e-9, dlambda_g=30e-9, length=0.25, n_index=1.0,
        pulse_duration=45e-9, rep_period=1e-3,
    )
    base.update(overrides)
    return CavityDesign(**base)


def test_free_spectral_range_reference_value():
    assert free_spectral_range(design()) == pytest.approx(3.767e9, rel=1e-3)


def test_free_spectral_range_scales_inverse_with_length():
    assert free_spectral_range(design(length=0.5)) == pytest.approx(
        free_spectral_range(design()) / 2
    )


def test_free_spectral_range_scales_inverse_with_index():
    assert free_spectral_range(design(n_index=1.5)) == pytest.approx(
        free_spectral_range(design()) / 1.5
    )


def test_gain_bandwidth_reference_value():
    # 2*pi*c*30nm/(780nm)^2, evaluated with the exact speed of light
    expected = 2 * math.pi * c * 30e-9 / (780e-9) ** 2
    got = gain_bandwidth(design())
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(9.29e13, rel=1e-2)


def test_gain_bandwidth_quadratic_in_wavelength():
    wide = design()
    doubled = CavityDesign(
        lambda0=1560e-9, dlambda_g=30e-9, length=0.25,
        pulse_duration=45e-9, rep_period=1e-3,
    )
    assert gain_bandwidth(doubled) == pytest.approx(gain_bandwidth(wide) / 4)


def test_mode_count_reference_magnitude():
    m = mode_count(design())
    assert 1e4 <= m < 1e5
    assert m == pytest.approx(2.5e4, rel=0.02)


def test_mode_count_scales_with_length_and_bandwidth():
    base = mode_count(design())
    assert mode_count(design(length=0.5)) == pytest.approx(2 * base, abs=1)
    assert mode_count(design(dlambda_g=15e-9)) == pytest.approx(base / 2, abs=1)


def test_mode_count_floor_contract():
    d = design()
    m = mode_count(d)
    fsr = free_spectral_range(d)
    gw = gain_bandwidth(d)
    assert fsr * m <= gw < fsr * (m + 1)


def test_mode_count_rejects_empty_band():
    tiny = design(dlambda_g=1e-15, length=1e-3)
    with pytest.raises(ConfigurationError):
        mode_count(tiny)


def test_measured_ratio_reference_value():
    report = ratio_report(design())
    assert report.measured_ratio == pytest.approx(4.5e-5)


def test_theory_ratio_in_expected_band():
    report = ratio_report(design())
    assert 1e-5 <= report.theory_ratio < 1e-4


def test_theory_matches_counting_module_bit_exactly():
    d = design()
    report = ratio_report(d)
    assert report.theory_ratio == bright_to_dark_ratio(mode_count(d))


def test_orders_match_for_reference_design():
    assert ratio_report(TI_SAPPHIRE).orders_match


def test_report_dict_fields():
    payload = ratio_report(design()).to_dict()
    assert set(payload) == {
        "delta_omega", "delta_omega_g", "M", "theory_ratio",
        "measured_ratio", "orders_match", "quoted_M", "quoted_ratio",
    }
    assert payload["quoted_M"] == 4e4
    assert payload["quoted_ratio"] == 2.5e-5


def test_quoted_ratio_at_quoted_mode_count():
    # 1/(M-1) at the quoted mode count reproduces the quoted 2.5e-5
    assert bright_to_dark_ratio(40001) == pytest.approx(2.5e-5, rel=1e-4)


def test_pulse_longer_than_period_rejected():
    with pytest.raises(ConfigurationError):
        ratio_report(design(pulse_duration=2e-3))


def test_invalid_geometry_rejected():
    with pytest.raises(ConfigurationError):
        design(length=-1.0)
    with pytest.raises(ConfigurationError):
        design(n_index=0.5)
    with pytest.raises(ConfigurationError):
        design(dlambda_g=800e-9)


@pytest.mark.parametrize(
    "name", ["lambda0", "dlambda_g", "length", "n_index", "pulse_duration", "rep_period"]
)
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_fields_rejected(name, bad):
    with pytest.raises(ConfigurationError, match="finite"):
        design(**{name: bad})


def test_unit_conversion_round_trip_is_exact():
    # nm -> m -> nm at the CLI boundary must not lose bits
    for nm in (780.0, 30.0, 1055.3):
        assert (nm * 1e-9) / 1e-9 == pytest.approx(nm, rel=1e-15)
