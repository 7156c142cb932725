"""Bright/dark/intermediate classification and phase scans."""

import cmath
import math

import pytest

from brightdark import classify
from brightdark.classify import Label, classify_coherent, classify_fock, scan_phase
from brightdark.errors import DegenerateInputError, ResourceLimitError
from brightdark.fock import ModePhases, StateVector, vacuum
from brightdark.states import CoherentSpec, single_photon_state, two_mode_bright, two_mode_dark


def geometric_beta(m, phi):
    """Independent oracle: |sum_m e^{i m phi}| / sqrt(M) by brute summation."""
    return abs(sum(cmath.exp(1j * k * phi) for k in range(m))) / math.sqrt(m)


def locked_fock(m, phi, tol=1e-10):
    state = single_photon_state(ModePhases.locked(m, phi))
    return classify_fock(state, ModePhases.zero(m), tol)


def locked_coherent(m, phi, alpha=1.0, tol=1e-10):
    spec = CoherentSpec(alpha, ModePhases.locked(m, phi))
    return classify_coherent(spec, ModePhases.zero(m), tol)


def test_bright_alignment_reaches_sqrt_m():
    result = locked_fock(4, 0.0)
    assert result.beta == pytest.approx(2.0, abs=1e-12)
    assert result.beta_max == pytest.approx(2.0)
    assert result.label is Label.BRIGHT


def test_quarter_step_m4_is_dark():
    result = locked_fock(4, math.pi / 2)
    assert result.beta < 1e-12
    assert result.label is Label.DARK


def test_generic_phase_is_intermediate():
    result = locked_fock(4, 0.3)
    assert result.beta == pytest.approx(geometric_beta(4, 0.3), abs=1e-12)
    assert result.beta == pytest.approx(1.889, abs=1e-3)
    assert result.label is Label.INTERMEDIATE


def test_coherent_two_mode_pi_is_dark():
    assert locked_coherent(2, math.pi).label is Label.DARK


def test_coherent_m4_three_quarter_step_is_dark():
    assert locked_coherent(4, 3 * math.pi / 2).label is Label.DARK


def test_coherent_m6_sixth_step_is_dark():
    # geometric series over the 6th roots of unity sums to zero
    assert abs(sum(cmath.exp(1j * k * 2 * math.pi / 6) for k in range(6))) < 1e-12
    assert locked_coherent(6, 2 * math.pi / 6).label is Label.DARK


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8])
def test_families_agree_on_dense_grid(m):
    for k in range(256):
        phi = 2 * math.pi * k / 256
        fock = locked_fock(m, phi)
        coherent = locked_coherent(m, phi)
        assert fock.label is coherent.label
        assert fock.beta == pytest.approx(coherent.beta, abs=1e-10)
    grid = 256 - 256 % m  # scan_phase needs a multiple of M
    for family in ("single_photon", "coherent"):
        for k, (phi, scanned) in enumerate(scan_phase(m, family, grid)):
            assert phi == 2 * math.pi * k / grid
            fock = locked_fock(m, phi)
            assert scanned.label is fock.label
            assert scanned.beta == pytest.approx(fock.beta, abs=1e-10)


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_beta_at_zero_phase_is_sqrt_m(m):
    assert locked_fock(m, 0.0).beta == pytest.approx(math.sqrt(m), abs=1e-12)
    assert locked_coherent(m, 0.0).beta == pytest.approx(math.sqrt(m), abs=1e-12)


def test_multiphoton_bright_state_classifies_bright():
    for n in (1, 2, 5):
        result = classify_fock(two_mode_bright(n), ModePhases.zero(2))
        assert result.beta_max == pytest.approx(math.sqrt(2 * n))
        assert result.label is Label.BRIGHT


def test_multiphoton_dark_state_classifies_dark():
    result = classify_fock(two_mode_dark(4), ModePhases.zero(2))
    assert result.label is Label.DARK


def test_beta_bounded_by_beta_max():
    for phi in (0.0, 0.3, 1.1, 2.0, math.pi):
        r = locked_fock(5, phi)
        assert 0.0 <= r.beta <= r.beta_max + r.tol


def test_classifier_ignores_collective_transform():
    # Basis-free: a round trip through the collective basis keeps the label.
    from brightdark.collective import build_basis, from_collective, to_collective

    state = single_photon_state(ModePhases.locked(4, 0.3))
    ref = ModePhases.zero(4)
    basis = build_basis(4, "dft")
    round_tripped = from_collective(to_collective(state, basis, ref), basis, ref)
    a = classify_fock(state, ref)
    b = classify_fock(round_tripped, ref)
    assert a.label is b.label
    assert a.beta == pytest.approx(b.beta, abs=1e-12)


def test_vacuum_fock_state_is_degenerate():
    with pytest.raises(DegenerateInputError) as err:
        classify_fock(vacuum(3), ModePhases.zero(3))
    assert err.value.vacuum


def test_zero_vector_is_degenerate():
    with pytest.raises(DegenerateInputError):
        classify_fock(StateVector(2, {}, 1), ModePhases.zero(2))


def test_zero_alpha_is_degenerate():
    with pytest.raises(DegenerateInputError) as err:
        classify_coherent(CoherentSpec(0.0, ModePhases.zero(2)), ModePhases.zero(2))
    assert err.value.vacuum


def test_tol_range_is_validated():
    with pytest.raises(ValueError):
        locked_fock(2, 0.0, tol=0.5)
    with pytest.raises(ValueError):
        locked_fock(2, 0.0, tol=0.0)


@pytest.mark.parametrize("family", ["single_photon", "coherent"])
@pytest.mark.parametrize("m", [2, 4, 5])
def test_scan_exact_grid_counts(family, m):
    grid = 4 * m  # contains every multiple of 2*pi/M
    scan = scan_phase(m, family, grid)
    labels = [r.label for _, r in scan]
    assert labels.count(Label.DARK) == m - 1
    assert labels.count(Label.BRIGHT) == 1
    # bright point sits at phi = 0, dark points at the 2*pi*K/M multiples
    assert labels[0] is Label.BRIGHT
    for k in range(1, m):
        assert labels[k * grid // m] is Label.DARK


def test_scan_m2_dark_exactly_at_pi():
    scan = scan_phase(2, "single_photon", 8)
    by_phi = {round(phi, 12): r.label for phi, r in scan}
    assert by_phi[round(math.pi, 12)] is Label.DARK
    assert by_phi[0.0] is Label.BRIGHT


def test_scan_m4_dark_set():
    scan = scan_phase(4, "coherent", 16)
    darks = sorted(phi for phi, r in scan if r.label is Label.DARK)
    expected = [math.pi / 2, math.pi, 3 * math.pi / 2]
    assert darks == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("m,grid", [(4, 7), (4, 10)])
def test_scan_grid_too_coarse_rejected(m, grid):
    with pytest.raises(ValueError, match="cannot resolve all dark phases"):
        scan_phase(m, "coherent", grid)


@pytest.mark.parametrize("grid", [classify.SCAN_MAX_POINTS + 4, 4 * 10**9])
def test_scan_past_the_point_bound_is_refused(grid):
    # 4e9 points would take hours and hundreds of GB if anything were built.
    with pytest.raises(ResourceLimitError, match="scan points"):
        scan_phase(4, "coherent", grid)


def test_scan_at_the_point_bound_runs(monkeypatch):
    monkeypatch.setattr(classify, "SCAN_MAX_POINTS", 16)
    assert len(scan_phase(4, "coherent", 16)) == 16
    with pytest.raises(ResourceLimitError):
        scan_phase(4, "coherent", 20)


def test_scan_unknown_family_rejected():
    with pytest.raises(ValueError):
        scan_phase(4, "squeezed", 16)
