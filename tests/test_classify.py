"""Bright/dark/intermediate classification and phase scans."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brightdark import classify
from brightdark.classify import Label, classify_coherent, classify_fock, scan_phase
from brightdark.errors import DegenerateInputError, DimensionMismatchError, ResourceLimitError
from brightdark.fock import ModePhases, StateVector, vacuum
from brightdark.states import (
    CoherentSpec,
    coherent_state,
    single_photon_state,
    two_mode_bright,
    two_mode_dark,
)


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


def test_coherent_detection_phases_must_match_the_modes():
    with pytest.raises(DimensionMismatchError, match="2 detection phases for 3 modes"):
        classify_coherent(CoherentSpec(1.0, ModePhases.zero(3)), ModePhases.zero(2))


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


@pytest.mark.parametrize(
    "beta_max, tol", [(math.sqrt(7), 1e-6), (2.0, 0.25), (math.sqrt(12), 1e-10)]
)
def test_label_rule_at_its_edges(beta_max, tol):
    # Both comparisons are strict: beta on a threshold is Intermediate, one float out is not.
    low, high = tol * beta_max, (1.0 - tol) * beta_max
    betas = [low, high, np.nextafter(low, -math.inf), np.nextafter(high, math.inf)]
    want = [Label.INTERMEDIATE, Label.INTERMEDIATE, Label.DARK, Label.BRIGHT]
    scalar = [classify._label_for(float(beta), beta_max, tol) for beta in betas]
    column = classify._label_for(np.array(betas), beta_max, tol)
    assert all(got is label for got, label in zip(scalar, want))
    assert all(got is label for got, label in zip(column.tolist(), want))


_THREAD_PROBE = """
from brightdark.classify import classify_fock
from brightdark.fock import ModePhases
from brightdark.states import CoherentSpec, coherent_state, two_mode_bright, two_mode_dark
for state, phases in (
    (coherent_state(CoherentSpec(1.0, ModePhases.zero(4))), ModePhases.zero(4)),
    (two_mode_bright(37, 0.4), ModePhases(2, (0.0, 0.4))),
    (two_mode_dark(12, 0.4), ModePhases(2, (0.0, 1.1))),
):
    result = classify_fock(state, phases, 1e-6)
    print(repr(result.beta), repr(result.beta_max))
"""


def test_classify_fock_bits_do_not_follow_the_blas_thread_count():
    # OpenBLAS's vdot summed in an order set by its thread count: under one
    # thread the coherent state read beta one ulp over beta_max.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    printed = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE], capture_output=True, text=True,
            env={**env, "OPENBLAS_NUM_THREADS": threads}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        printed.append(proc.stdout)
    assert printed[0] == printed[1]
    for line in printed[0].splitlines():
        beta, beta_max = map(float, line.split())
        assert beta <= beta_max


def test_truncated_coherent_state_is_bright_at_its_own_bound():
    # Bounded by the 25-photon cutoff, sqrt(4 * 25) = 10, this state read Intermediate.
    state = coherent_state(CoherentSpec(1.0, ModePhases.zero(4)))
    for tol in (1e-6, 1e-10):
        result = classify_fock(state, ModePhases.zero(4), tol)
        assert result.label is Label.BRIGHT
        assert result.beta_max == pytest.approx(3.99999999999734, rel=1e-12)
        assert result.beta <= result.beta_max


_mode_phases = st.lists(st.floats(0.0, 2 * math.pi), min_size=4, max_size=4)


@settings(max_examples=40, deadline=None)
@given(
    modes=st.integers(2, 4),
    size=st.floats(0.3, 1.0),
    arg=st.floats(0.0, 2 * math.pi),
    theta=_mode_phases,
    detection=_mode_phases,
    tol=st.sampled_from([1e-10, 1e-6]),
)
def test_fock_and_coherent_families_share_one_label_rule(modes, size, arg, theta, detection, tol):
    spec = CoherentSpec(cmath.rect(size, arg), ModePhases(modes, tuple(theta[:modes])))
    phases = ModePhases(modes, tuple(detection[:modes]))
    fock = classify_fock(coherent_state(spec), phases, tol)
    coherent = classify_coherent(spec, phases, tol)
    ratio = coherent.beta / coherent.beta_max
    assert fock.beta / fock.beta_max == pytest.approx(ratio, abs=1e-9)
    if min(abs(ratio - tol), abs(ratio - 1.0 + tol)) > 1e-8:
        assert fock.label is coherent.label


@pytest.mark.parametrize("step", [0.0, 0.4, math.pi])
def test_truncation_does_not_steer_the_label(step):
    spec = CoherentSpec(0.8, ModePhases.locked(3, step))
    needed = spec.resolved_cutoff()
    results = [
        classify_fock(coherent_state(CoherentSpec(spec.alpha, spec.phases, n_max=needed + extra)),
                      ModePhases.zero(3), 1e-6)
        for extra in (0, 5, 10)
    ]
    assert len({r.label for r in results}) == 1
    beta_max = [r.beta_max for r in results]
    assert max(beta_max) - min(beta_max) <= 1e-9 * min(beta_max)


@pytest.mark.parametrize("photons", [1, 5, 20, 60])
def test_dark_ladder_stays_dark_to_twelve_digits(photons):
    # A quadratic form in the detection phases would leave residues near 1e-7 here.
    for phi in np.random.default_rng(photons).uniform(0.0, 2 * math.pi, 5):
        result = classify_fock(two_mode_dark(photons, phi), ModePhases(2, (0.0, phi)))
        assert result.beta <= 1e-12 * result.beta_max
        assert result.label is Label.DARK


_UNIT_STATES = {
    "single-photon": lambda: single_photon_state(ModePhases.locked(4, 0.3)),
    "bright-ladder": lambda: two_mode_bright(5, 0.4),
    "coherent": lambda: coherent_state(CoherentSpec(0.5, ModePhases.locked(3, 0.2))),
}


@pytest.mark.parametrize("build", _UNIT_STATES.values(), ids=_UNIT_STATES.keys())
def test_classification_survives_overflowing_squares(build):
    state = build()
    want = classify_fock(state, ModePhases.zero(state.modes))
    for k in (1, 100, 511, 512, 513, 800, 1000, 1020):  # sums of squares overflow past 511
        scaled = StateVector._from_arrays(state.modes, state._occ, state._amp * 2.0**k, state.cutoff)
        assert classify_fock(scaled, ModePhases.zero(state.modes)) == want


def test_dark_state_survives_overflowing_squares():
    scaled = StateVector(2, {(1, 0): 3e154, (0, 1): -3e154}, 1)
    result = classify_fock(scaled, ModePhases.zero(2))
    assert result.label is Label.DARK and result.beta_max == math.sqrt(2)
    result = classify_fock(StateVector(2, {(1, 0): 3e154, (0, 1): 4e154}, 1), ModePhases.zero(2))
    assert result.beta == pytest.approx(1.4, rel=1e-15) and result.label is Label.INTERMEDIATE


@pytest.mark.parametrize("terms", [
    {(4, 0): 1e308},  # amp * sqrt(n) and the lowered amplitude overflow, the squares too
    {(4, 0): -1e308j, (1, 3): 1e308},
    {(4, 0): 2.0**500},  # the squares stay finite, but past _SQUARE_MAX
])
def test_classification_survives_overflowing_products(terms):
    # Each term of |4,0>, |1,3> has beta 2 of beta_max sqrt(2 * 4).
    result = classify_fock(StateVector(2, terms, 4), ModePhases.zero(2))
    unit = classify_fock(StateVector(2, {occ: 1.0 for occ in terms}, 4), ModePhases.zero(2))
    assert result.beta == unit.beta == 2.0 and result.beta_max == math.sqrt(8)
