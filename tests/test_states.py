"""State constructors: single photon, coherent, and two-mode N-photon states."""

import cmath
import itertools
import math

import numpy as np
import pytest

from brightdark.errors import CutoffError, DegenerateInputError, ResourceLimitError
from brightdark.fock import ModePhases, apply_field, inner_product, tensor
from brightdark.states import (
    CoherentSpec,
    _stars_and_bars,
    coherent_bright_dark_expansion,
    coherent_state,
    single_photon_state,
    two_mode_bright,
    two_mode_dark,
)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# single photon
# ---------------------------------------------------------------------------

def test_single_photon_equal_weights():
    state = single_photon_state(ModePhases.locked(2, 0.0))
    assert state.amplitude((1, 0)) == pytest.approx(1 / SQRT2)
    assert state.amplitude((0, 1)) == pytest.approx(1 / SQRT2)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_single_photon_pi_step_is_antisymmetric():
    state = single_photon_state(ModePhases.locked(2, math.pi))
    assert state.amplitude((0, 1)) == pytest.approx(-state.amplitude((1, 0)), abs=1e-12)
    assert apply_field(state, ModePhases.zero(2)).is_zero()


def test_single_photon_quarter_step_m4_is_dark():
    state = single_photon_state(ModePhases.locked(4, math.pi / 2))
    out = apply_field(state, ModePhases.zero(4))
    assert out.norm() < 1e-12


def test_single_photon_needs_two_modes():
    with pytest.raises(DegenerateInputError):
        single_photon_state(ModePhases.zero(1))


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_single_photon_normalized(m):
    state = single_photon_state(ModePhases.locked(m, 0.37))
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------

def _mode_marginal(state, mode, n):
    return sum(
        abs(amp) ** 2 for occ, amp in state.terms.items() if occ[mode] == n
    )


def test_coherent_pi_ladder_alternates_sign():
    alpha = 0.5
    state = coherent_state(CoherentSpec(alpha, ModePhases.locked(4, math.pi)))
    # single-photon amplitudes reveal the per-mode coherent amplitude
    vac_amp = state.amplitude((0, 0, 0, 0))
    for mode, sign in enumerate([1, -1, 1, -1]):
        occ = tuple(1 if k == mode else 0 for k in range(4))
        assert state.amplitude(occ) / vac_amp == pytest.approx(sign * alpha, abs=1e-12)


def test_coherent_quarter_ladder_cycles_through_i():
    alpha = 0.5
    state = coherent_state(CoherentSpec(alpha, ModePhases.locked(4, math.pi / 2)))
    vac_amp = state.amplitude((0, 0, 0, 0))
    expected = [alpha, 1j * alpha, -alpha, -1j * alpha]
    for mode in range(4):
        occ = tuple(1 if k == mode else 0 for k in range(4))
        assert state.amplitude(occ) / vac_amp == pytest.approx(expected[mode], abs=1e-12)


def test_coherent_zero_alpha_is_vacuum():
    state = coherent_state(CoherentSpec(0.0, ModePhases.zero(3)))
    assert state.terms == {(0, 0, 0): pytest.approx(1.0)}


@pytest.mark.parametrize("modes", range(1, 6))
def test_stars_and_bars_lists_the_occupations_in_lexicographic_order(modes):
    for total_max in range(7):
        want = [occ for occ in itertools.product(range(total_max + 1), repeat=modes)
                if sum(occ) <= total_max]
        got = _stars_and_bars(modes, total_max)
        assert got.occ.dtype == got.photons.dtype == np.int64
        assert got.occ.tolist() == [list(occ) for occ in want]
        assert got.photons.tolist() == [sum(occ) for occ in want]
        assert got.top == total_max


def test_coherent_norm_within_tail_tolerance():
    spec = CoherentSpec(0.8, ModePhases.zero(3), cutoff_prob=1e-12)
    state = coherent_state(spec)
    assert abs(state.norm() - 1.0) < 1e-12


def test_coherent_marginal_is_poisson():
    alpha = 0.6
    state = coherent_state(CoherentSpec(alpha, ModePhases.locked(2, 1.0)))
    mean = alpha**2
    for n in range(5):
        expected = math.exp(-mean) * mean**n / math.factorial(n)
        assert _mode_marginal(state, 0, n) == pytest.approx(expected, abs=1e-10)


def test_coherent_explicit_cutoff_too_tight():
    spec = CoherentSpec(1.0, ModePhases.zero(4), cutoff_prob=1e-12, n_max=3)
    with pytest.raises(CutoffError) as err:
        coherent_state(spec)
    assert err.value.required_cutoff > 3


def test_cutoff_for_large_mean_photon_number():
    # Mean 7200: exp(-mean) underflows, so the tail must be summed in log space.
    assert CoherentSpec(30, ModePhases.zero(8)).required_cutoff() == 7805


def test_cutoff_for_a_vanishing_mean_photon_number():
    # Every term of the tail sum stays below cutoff_prob: the search falls through to 0.
    assert CoherentSpec(1e-8, ModePhases.zero(2)).required_cutoff() == 0


def test_coherent_build_past_term_bound_is_refused():
    # Cutoff 35 over 8 modes would expand into C(43, 8) ~ 1.45e8 terms.
    with pytest.raises(ResourceLimitError):
        coherent_state(CoherentSpec(1.0, ModePhases.zero(8)))


def test_coherent_build_with_huge_alpha_is_refused():
    # |alpha|**2, or |alpha| itself, overflows a float; the cutoff guard
    # refuses it, no OverflowError.
    for alpha in [1e200, complex(1.7e308, 1.7e308)]:
        with pytest.raises(ResourceLimitError):
            coherent_state(CoherentSpec(alpha, ModePhases.zero(3)))


def test_coherent_pairwise_factorization_at_pi():
    # Four-mode pi ladder = product of two opposite-phase mode pairs.  Both
    # truncations fully cover total <= 14 photons; beyond that the product
    # keeps tail terms the joint truncation drops, so compare inside.
    alpha = 0.5
    shared_cutoff = 14
    four = coherent_state(
        CoherentSpec(alpha, ModePhases.locked(4, math.pi), n_max=shared_cutoff)
    )
    pair = coherent_state(
        CoherentSpec(alpha, ModePhases.locked(2, math.pi), n_max=shared_cutoff)
    )
    prod = tensor(pair, pair)
    occs = {occ for occ in set(four.terms) | set(prod.terms) if sum(occ) <= shared_cutoff}
    assert len(occs) > 100
    for occ in occs:
        assert four.amplitude(occ) == pytest.approx(prod.amplitude(occ), abs=1e-12)


# ---------------------------------------------------------------------------
# two-mode N-photon states
# ---------------------------------------------------------------------------

def test_two_mode_bright_single_photon():
    state = two_mode_bright(1)
    assert state.amplitude((1, 0)) == pytest.approx(1 / SQRT2)
    assert state.amplitude((0, 1)) == pytest.approx(1 / SQRT2)


def test_two_mode_dark_single_photon():
    state = two_mode_dark(1)
    assert state.amplitude((0, 1)) == pytest.approx(-state.amplitude((1, 0)), abs=1e-15)


def test_two_mode_zero_photons_is_vacuum():
    for factory in (two_mode_bright, two_mode_dark):
        state = factory(0, 0.77)
        assert state.amplitude((0, 0)) == pytest.approx(1.0, abs=1e-15)
        assert len(state.terms) == 1


def test_two_mode_bright_two_photons():
    state = two_mode_bright(2)
    assert state.amplitude((0, 2)) == pytest.approx(0.5)
    assert state.amplitude((1, 1)) == pytest.approx(1 / SQRT2)
    assert state.amplitude((2, 0)) == pytest.approx(0.5)


def test_two_mode_dark_two_photons():
    state = two_mode_dark(2)
    assert state.amplitude((0, 2)) == pytest.approx(0.5)
    assert state.amplitude((1, 1)) == pytest.approx(-1 / SQRT2)
    assert state.amplitude((2, 0)) == pytest.approx(0.5)


def test_two_mode_negative_photon_number():
    with pytest.raises(ValueError):
        two_mode_bright(-1)


@pytest.mark.parametrize("n", range(1, 7))
def test_bright_dark_orthogonal_and_normalized(n):
    # Oracle: sum_k (-1)^k C(n,k) = 0 drives the orthogonality.
    assert sum((-1) ** k * math.comb(n, k) for k in range(n + 1)) == 0
    bright, dark = two_mode_bright(n, 0.4), two_mode_dark(n, 0.4)
    assert bright.norm() == pytest.approx(1.0, abs=1e-12)
    assert dark.norm() == pytest.approx(1.0, abs=1e-12)
    assert abs(inner_product(dark, bright)) < 1e-12


@pytest.mark.parametrize("phi_tilde", [0.0, 0.7, 2.9])
@pytest.mark.parametrize("n", range(1, 7))
def test_field_ladder_on_bright_and_dark(n, phi_tilde):
    # Matched detection phases: difference between modes equals phi_tilde.
    detection = ModePhases(2, (0.0, phi_tilde))
    dark_out = apply_field(two_mode_dark(n, phi_tilde), detection)
    assert dark_out.is_zero()

    bright_out = apply_field(two_mode_bright(n, phi_tilde), detection)
    assert bright_out.norm() == pytest.approx(math.sqrt(2 * n), abs=1e-12)
    lower = two_mode_bright(n - 1, phi_tilde)
    overlap = inner_product(lower, bright_out)
    assert abs(overlap) == pytest.approx(math.sqrt(2 * n), abs=1e-12)


# ---------------------------------------------------------------------------
# coherent expansion over the two-mode ladder
# ---------------------------------------------------------------------------

def test_expansion_vacuum_limit():
    coeffs = coherent_bright_dark_expansion(0.0, 4, "bright")
    np.testing.assert_allclose(coeffs, [1, 0, 0, 0, 0], atol=1e-15)


def test_expansion_single_photon_coefficient():
    alpha = 0.3
    coeffs = coherent_bright_dark_expansion(alpha, 2, "bright")
    assert coeffs[1] == pytest.approx(math.exp(-alpha**2) * SQRT2 * alpha, abs=1e-14)


def test_expansion_sign_symmetry():
    plus = coherent_bright_dark_expansion(0.45, 6, "dark")
    minus = coherent_bright_dark_expansion(-0.45, 6, "dark")
    np.testing.assert_allclose(np.abs(plus), np.abs(minus), atol=1e-15)


def test_expansion_rejects_bad_branch():
    with pytest.raises(ValueError):
        coherent_bright_dark_expansion(0.3, 4, "grey")


def test_expansion_rejects_a_negative_cutoff():
    with pytest.raises(ValueError, match="n_max must be non-negative"):
        coherent_bright_dark_expansion(0.5, -1, "bright")


@pytest.mark.parametrize(
    "alpha", [math.nan, math.inf, -math.inf, complex(1, math.nan), complex(math.inf, 1)]
)
def test_expansion_refuses_a_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        coherent_bright_dark_expansion(alpha, 2, "bright")


def test_expansion_matches_bright_projections_tightly():
    # The closed form against the Fock-space projection agrees to a few ulp.
    coeffs = coherent_bright_dark_expansion(0.7, 5, "bright")
    aligned = coherent_state(CoherentSpec(0.7, ModePhases.zero(2)))
    for n in range(6):
        assert abs(inner_product(two_mode_bright(n), aligned) - coeffs[n]) <= 1e-15


@pytest.mark.parametrize("alpha", [0.3, 0.8j])
def test_expansion_matches_projections(alpha):
    """Projection oracle: coefficients equal overlaps with the tensor product.

    Bright pairs with the aligned state |a, a>; dark pairs with |-a, a>
    (pi phase on mode 0, matching the alternating-sign convention).
    """
    n_max = 6
    coeffs = coherent_bright_dark_expansion(alpha, n_max, "bright")
    aligned = coherent_state(CoherentSpec(alpha, ModePhases.zero(2)))
    opposed = coherent_state(CoherentSpec(alpha, ModePhases(2, (math.pi, 0.0))))
    for n in range(n_max + 1):
        bright_proj = inner_product(two_mode_bright(n), aligned)
        dark_proj = inner_product(two_mode_dark(n), opposed)
        assert bright_proj == pytest.approx(coeffs[n], abs=1e-10)
        assert dark_proj == pytest.approx(coeffs[n], abs=1e-10)


def test_expansion_alternating_sign_for_swapped_pairing():
    # |a, -a> picks up (-1)^N relative to the printed coefficients.
    alpha = 0.4
    coeffs = coherent_bright_dark_expansion(alpha, 5, "dark")
    swapped = coherent_state(CoherentSpec(alpha, ModePhases.locked(2, math.pi)))
    for n in range(6):
        proj = inner_product(two_mode_dark(n), swapped)
        assert proj == pytest.approx((-1) ** n * coeffs[n], abs=1e-10)


def test_expansion_total_weight_is_unit():
    # The squared coefficients exhaust the coherent state: e^{-2|a|^2} e^{2|a|^2}.
    alpha = 0.8
    coeffs = coherent_bright_dark_expansion(alpha, 40, "bright")
    assert sum(abs(c) ** 2 for c in coeffs) == pytest.approx(1.0, abs=1e-12)


def test_expansion_weight_survives_an_underflowing_prefactor():
    # At alpha 30, e^{-|a|^2} alone underflows; its product with alpha^N does not.
    coeffs = coherent_bright_dark_expansion(30.0, 4000, "bright")
    assert sum(abs(c) ** 2 for c in coeffs) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [1e200, -2e154j, 1.7e308, complex(1.7e308, -1.7e308)])
def test_expansion_with_huge_alpha_underflows_to_zero(alpha):
    # |alpha|^2 is past the float range; every weight is below the smallest float.
    assert coherent_bright_dark_expansion(alpha, 3, "dark") == [0j] * 4


@pytest.mark.parametrize("n", [171, 200, 1000])
def test_two_mode_ladder_past_the_factorial_range(n):
    for state in (two_mode_bright(n, 0.3), two_mode_dark(n, 0.3)):
        assert np.all(np.isfinite(state._amp))
        assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_coherent_spec_invalid_cutoff_prob():
    with pytest.raises(ValueError):
        CoherentSpec(0.3, ModePhases.zero(2), cutoff_prob=0.0)


def test_coherent_spec_rejects_non_finite_alpha():
    with pytest.raises(ValueError):
        CoherentSpec(complex("inf"), ModePhases.zero(2))
