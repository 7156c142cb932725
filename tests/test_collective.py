"""Collective-mode basis: construction, unitarity, and decompositions."""

import cmath
import math

import numpy as np
import pytest
from scipy.linalg import hadamard

from brightdark.collective import build_basis, from_collective, to_collective
from brightdark.errors import DimensionMismatchError, SectorError, UnsupportedBasisError
from brightdark.fock import ModePhases, StateVector
from brightdark.states import single_photon_state, two_mode_bright


def test_two_mode_hadamard_matrix():
    basis = build_basis(2, "hadamard")
    np.testing.assert_allclose(
        basis.matrix, np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-15
    )


def test_four_mode_hadamard_rows():
    basis = build_basis(4, "hadamard")
    np.testing.assert_allclose(basis.matrix[0], np.full(4, 0.5), atol=1e-15)
    np.testing.assert_allclose(basis.matrix[1], [0.5, -0.5, 0.5, -0.5], atol=1e-15)
    assert np.all(np.abs(np.abs(basis.matrix) - 0.5) < 1e-15)


def test_two_point_dft_equals_hadamard():
    np.testing.assert_allclose(
        build_basis(2, "dft").matrix, build_basis(2, "hadamard").matrix, atol=1e-15
    )


def test_dft_rows_are_phase_ladders():
    m = 5
    basis = build_basis(m, "dft")
    for j in range(m):
        expected = np.exp(2j * np.pi * j * np.arange(m) / m) / math.sqrt(m)
        np.testing.assert_allclose(basis.matrix[j], expected, atol=1e-14)


def test_dft_entries_are_roots_of_unity_to_the_last_bits():
    # Each entry is the root of (j*k) % M, so no argument past 2*pi loses digits.
    pi = np.longdouble("3.14159265358979323846264338327950288")
    for m in range(1, 65):
        jk = np.multiply.outer(np.arange(m), np.arange(m)) % m
        exact = np.exp(np.clongdouble(2j) * (pi * jk / m)) / np.sqrt(np.longdouble(m))
        assert np.abs(build_basis(m, "dft").matrix - exact).max() <= 1e-15


def test_hadamard_rejects_non_power_of_two():
    with pytest.raises(UnsupportedBasisError, match="dft"):
        build_basis(6, "hadamard")


@pytest.mark.parametrize("kind,sizes", [("hadamard", (1, 2, 4, 8, 16, 32, 64)),
                                        ("dft", (1, 2, 3, 5, 7, 12, 33, 64))])
def test_unitarity(kind, sizes):
    for m in sizes:
        mat = build_basis(m, kind).matrix
        np.testing.assert_allclose(mat @ mat.conj().T, np.eye(m), atol=1e-12)
        assert np.allclose(mat[0], 1 / math.sqrt(m))
        if kind == "hadamard":
            assert np.array_equal(mat, hadamard(m) / np.sqrt(m))


def test_parseval_norm_preserved():
    rng = np.random.default_rng(3)
    for kind, m in (("hadamard", 8), ("dft", 6)):
        mat = build_basis(m, kind).matrix
        v = rng.normal(size=m) + 1j * rng.normal(size=m)
        assert np.linalg.norm(mat @ v) == pytest.approx(np.linalg.norm(v), abs=1e-12)


def _locked_coefficients(m, phi, kind="hadamard"):
    """Fixed slit state, detection phase ladder phi: the canonical scan call."""
    state = single_photon_state(ModePhases.zero(m))
    return to_collective(state, build_basis(m, kind), ModePhases.locked(m, phi))


def test_bright_phase_selects_symmetric_mode():
    coeffs = _locked_coefficients(4, 0.0)
    np.testing.assert_allclose(np.abs(coeffs), [1, 0, 0, 0], atol=1e-12)


def test_pi_phase_selects_alternating_mode():
    coeffs = _locked_coefficients(4, math.pi)
    np.testing.assert_allclose(np.abs(coeffs), [0, 1, 0, 0], atol=1e-12)


def test_two_mode_quarter_period_decomposition():
    # cos(phi/2) on the symmetric mode, -i*sin(phi/2) on the dark one.
    coeffs = _locked_coefficients(2, math.pi / 2)
    global_phase = coeffs[0] / abs(coeffs[0])
    np.testing.assert_allclose(
        coeffs / global_phase,
        [math.cos(math.pi / 4), -1j * math.sin(math.pi / 4)],
        atol=1e-12,
    )


def test_four_mode_magnitudes_on_grid():
    # |c_j| = {|cos(p/2)cos(p)|, |sin(p/2)cos(p)|, |cos(p/2)sin(p)|, |sin(p/2)sin(p)|}
    for k in range(64):
        phi = 2 * math.pi * k / 64
        coeffs = _locked_coefficients(4, phi)
        expected = [
            abs(math.cos(phi / 2) * math.cos(phi)),
            abs(math.sin(phi / 2) * math.cos(phi)),
            abs(math.cos(phi / 2) * math.sin(phi)),
            abs(math.sin(phi / 2) * math.sin(phi)),
        ]
        np.testing.assert_allclose(np.abs(coeffs), expected, atol=1e-10)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8])
def test_dft_dark_phase_picks_single_row(m):
    for k in range(1, m):
        coeffs = _locked_coefficients(m, 2 * math.pi * k / m, kind="dft")
        expected = np.zeros(m)
        expected[k] = 1.0
        np.testing.assert_allclose(np.abs(coeffs), expected, atol=1e-12)
        assert abs(coeffs[0]) < 1e-12


def test_round_trip():
    m = 8
    rng = np.random.default_rng(11)
    amps = rng.normal(size=m) + 1j * rng.normal(size=m)
    amps /= np.linalg.norm(amps)
    terms = {
        tuple(1 if j == i else 0 for j in range(m)): amps[i] for i in range(m)
    }
    state = StateVector(m, terms, cutoff=1)
    ref = ModePhases.locked(m, 0.7)
    for kind in ("hadamard", "dft"):
        basis = build_basis(m, kind)
        back = from_collective(to_collective(state, basis, ref), basis, ref)
        for occ, amp in state.terms.items():
            assert back.amplitude(occ) == pytest.approx(amp, abs=1e-12)


def test_multi_photon_input_rejected():
    with pytest.raises(SectorError):
        to_collective(two_mode_bright(2), build_basis(2, "dft"), ModePhases.zero(2))


_PHOTON3, _DFT2, _DFT3 = (
    single_photon_state(ModePhases.zero(3)), build_basis(2, "dft"), build_basis(3, "dft")
)


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: build_basis(0, "dft"), ValueError, "at least one mode"),
        (lambda: build_basis(4, "walsh"), UnsupportedBasisError, "unknown basis kind"),
        (lambda: to_collective(_PHOTON3, _DFT2, ModePhases.zero(3)), DimensionMismatchError,
         "2-mode basis applied to a 3-mode state"),
        (lambda: to_collective(_PHOTON3, _DFT3, ModePhases.zero(2)), DimensionMismatchError,
         "2 reference phases for 3 modes"),
        (lambda: from_collective(np.ones(2), _DFT3, ModePhases.zero(3)), DimensionMismatchError,
         "coefficients for a 3-mode basis"),
        (lambda: from_collective(np.ones(3), _DFT3, ModePhases.zero(2)), DimensionMismatchError,
         "2 reference phases for 3 modes"),
    ],
    ids=["no-modes", "unknown-kind", "to-basis", "to-phases", "from-coefficients",
         "from-phases"],
)
def test_mismatched_bases_and_mode_counts_are_refused(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_coefficient_norm_matches_state_norm():
    state = single_photon_state(ModePhases.locked(4, 1.1))
    coeffs = to_collective(state, build_basis(4, "dft"), ModePhases.locked(4, 0.3))
    assert np.linalg.norm(coeffs) == pytest.approx(state.norm(), abs=1e-12)


def test_brute_force_projection_agrees():
    # Independent oracle: build the collective kets explicitly and project.
    m, phi = 4, 0.9
    basis = build_basis(m, "dft")
    ref = ModePhases.locked(m, phi)
    state = single_photon_state(ModePhases.zero(m))
    psi = np.array([state.amplitude(tuple(1 if k == i else 0 for k in range(m)))
                    for i in range(m)])
    coeffs = to_collective(state, basis, ref)
    for j in range(m):
        ket_j = np.array([
            cmath.exp(-1j * ref.theta[i]) * basis.matrix[j, i] for i in range(m)
        ])
        np.testing.assert_allclose(np.vdot(ket_j, psi), coeffs[j], atol=1e-12)
