"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from brightdark.cavity import CavityDesign, mode_count, ratio_report
from brightdark.classify import Label, classify_coherent, classify_fock, scan_phase
from brightdark.collective import build_basis, to_collective
from brightdark.counting import bright_to_dark_ratio, count_pi_phase_dark, enumerate_sign_states
from brightdark.fock import ModePhases, apply_field, inner_product
from brightdark.pulses import (
    LaserField,
    amplitude_closed,
    amplitude_direct,
    intensity_series,
    pulse_metrics,
    unlocked_intensity,
)
from brightdark.states import (
    CoherentSpec,
    coherent_bright_dark_expansion,
    coherent_state,
    single_photon_state,
    two_mode_bright,
    two_mode_dark,
)


@contextmanager
def criterion(number, text):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {text}")
        raise
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_closed_form_equals_direct_sum():
    with criterion(1, "closed form matches the direct mode sum to 1e-10 of the peak"):
        start = time.perf_counter()
        for n_side in (1, 5, 50):
            field = LaserField(n_side=n_side, e0=1.0, delta_omega=1.7, phi=0.3)
            t = np.linspace(0.0, field.period, 10_000, endpoint=False)
            closed = amplitude_closed(field, t)
            direct = amplitude_direct(field, t)
            bound = 1e-10 * field.e0 * field.m_total
            assert np.max(np.abs(closed - direct.real)) <= bound
            assert np.max(np.abs(direct.imag)) <= bound
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_dark_phase_law():
    with criterion(2, "exact grids give M-1 dark and 1 bright point for M = 2..8"):
        for m in range(2, 9):
            grid = 4 * m
            for family in ("single_photon", "coherent"):
                scan = scan_phase(m, family, grid, tol=1e-10)
                labels = [r.label for _, r in scan]
                assert labels.count(Label.DARK) == m - 1, (m, family)
                assert labels.count(Label.BRIGHT) == 1, (m, family)
        # the four-mode dark set is hit bitwise on the grid
        scan = scan_phase(4, "coherent", 16, tol=1e-10)
        darks = [phi for phi, r in scan if r.label is Label.DARK]
        assert darks == [math.pi / 2, math.pi, 3 * math.pi / 2]


def test_criterion_3_sqrt_m_coupling():
    with criterion(3, "bright-phase coupling equals sqrt(M) to 1e-12 for M in {2,4,8,16}"):
        for m in (2, 4, 8, 16):
            root = math.sqrt(m)
            fock = classify_fock(
                single_photon_state(ModePhases.locked(m, 0.0)), ModePhases.zero(m)
            )
            coherent = classify_coherent(
                CoherentSpec(1.0, ModePhases.locked(m, 0.0)), ModePhases.zero(m)
            )
            assert abs(fock.beta - root) <= 1e-12
            assert abs(coherent.beta - root) <= 1e-12
            assert fock.label is Label.BRIGHT and coherent.label is Label.BRIGHT


def test_criterion_4_combinatorics():
    with criterion(4, "closed-form dark counts equal exhaustive enumeration"):
        start = time.perf_counter()
        expected = {2: 1, 4: 3, 6: 10, 8: 35, 10: 126, 12: 462, 14: 1716, 16: 6435}
        for m, count in expected.items():
            assert count_pi_phase_dark(m) == count
            assert len(enumerate_sign_states(m)) == count
        for m in range(1, 16, 2):
            assert enumerate_sign_states(m).shape == (0, m)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_5_two_mode_photon_ladder():
    with criterion(5, "N-photon pair states: orthonormal, dark kernel, coherent weights"):
        for n in range(7):
            assert abs(two_mode_bright(n).norm() - 1.0) <= 1e-12
            assert abs(two_mode_dark(n).norm() - 1.0) <= 1e-12
        # dark/bright overlap vanishes in every photon sector (N >= 1; at
        # N = 0 both reduce to the same vacuum ket)
        for n in range(1, 7):
            overlap = inner_product(two_mode_dark(n), two_mode_bright(n))
            assert abs(overlap) <= 1e-12
        # the field operator annihilates the dark ladder at matched phases
        for phi_tilde in (0.0, 0.9):
            detection = ModePhases(2, (0.0, phi_tilde))
            for n in range(1, 7):
                out = apply_field(two_mode_dark(n, phi_tilde), detection)
                assert out.norm() <= 1e-12
        # closed-form weights against tensor-product projections
        for alpha in (0.3, 0.8j):
            coeffs = coherent_bright_dark_expansion(alpha, 6, "bright")
            aligned = coherent_state(CoherentSpec(alpha, ModePhases.zero(2)))
            opposed = coherent_state(
                CoherentSpec(alpha, ModePhases(2, (math.pi, 0.0)))
            )
            for n in range(7):
                bright_proj = inner_product(two_mode_bright(n), aligned)
                dark_proj = inner_product(two_mode_dark(n), opposed)
                assert abs(bright_proj - coeffs[n]) <= 1e-10
                assert abs(dark_proj - coeffs[n]) <= 1e-10


def test_criterion_6_collective_basis():
    with criterion(6, "bases unitary to 1e-12 up to M=64; four-mode magnitudes match"):
        for m in range(1, 65):
            kinds = ["dft"]
            if m & (m - 1) == 0:
                kinds.append("hadamard")
            for kind in kinds:
                mat = build_basis(m, kind).matrix
                err = np.max(np.abs(mat @ mat.conj().T - np.eye(m)))
                assert err <= 1e-12, (m, kind, err)
        basis = build_basis(4, "hadamard")
        state = single_photon_state(ModePhases.zero(4))
        for k in range(64):
            phi = 2 * math.pi * k / 64
            coeffs = to_collective(state, basis, ModePhases.locked(4, phi))
            expected = [
                abs(math.cos(phi / 2) * math.cos(phi)),
                abs(math.sin(phi / 2) * math.cos(phi)),
                abs(math.cos(phi / 2) * math.sin(phi)),
                abs(math.sin(phi / 2) * math.sin(phi)),
            ]
            assert np.max(np.abs(np.abs(coeffs) - expected)) <= 1e-10


def test_criterion_7_cavity_reproduction():
    with criterion(7, "Ti:Sapphire inputs give matching light/no-light orders"):
        design = CavityDesign(
            lambda0=780e-9, dlambda_g=30e-9, length=0.25, n_index=1.0,
            pulse_duration=45e-9, rep_period=1e-3,
        )
        report = ratio_report(design)
        # 45 ns / 1 ms; exact up to one float rounding
        assert report.measured_ratio == pytest.approx(4.5e-5, rel=1e-15)
        assert 1e4 <= report.mode_count < 1e5
        assert 1e-5 <= report.theory_ratio < 1e-4
        assert report.orders_match is True


def test_criterion_8_duty_ratio_consistency():
    with criterion(8, "duty ratio tracks 1/M_tot and unlocked runs lose the peaks"):
        duties = []
        for n_side in (8, 16, 32, 64):
            field = LaserField(n_side=n_side)
            m_tot = field.m_total
            series = intensity_series(field, samples_per_period=32 * m_tot)
            duty = pulse_metrics(series).duty_ratio
            assert 0.5 / m_tot <= duty <= 2.0 / m_tot, (n_side, duty)
            duties.append(duty)

            locked_peak = field.e0**2 * m_tot**2
            for seed in (0, 1, 2):
                random_run = unlocked_intensity(
                    field, seed=seed, samples_per_period=4 * m_tot, periods=100
                )
                mean = float(np.mean(random_run.intensity))
                assert abs(mean - field.e0**2 * m_tot) <= 0.05 * field.e0**2 * m_tot
                assert float(np.max(random_run.intensity)) < 0.5 * locked_peak
        assert all(a > b for a, b in zip(duties, duties[1:]))


def test_criterion_9_cross_module_ratio_identity():
    with criterion(9, "cavity theory ratio equals the counting-module ratio bit-exactly"):
        design = CavityDesign(
            lambda0=780e-9, dlambda_g=30e-9, length=0.25, n_index=1.0,
            pulse_duration=45e-9, rep_period=1e-3,
        )
        report = ratio_report(design)
        assert report.theory_ratio == bright_to_dark_ratio(mode_count(design))
