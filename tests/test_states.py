"""State constructors: single photon, coherent, and two-mode N-photon states."""

import cmath
import itertools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from brightdark import fock, pulses, states
from brightdark.cavity import CavityDesign
from brightdark.classify import classify_fock
from brightdark.errors import CutoffError, DegenerateInputError, ResourceLimitError
from brightdark.fock import ModePhases, StateVector, apply_field, inner_product, tensor
from brightdark.states import (
    CoherentSpec,
    _simplex,
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


def _stars_and_bars(modes, total_max):
    """All occupations of ``modes`` modes with sum <= total_max, in lexicographic
    order, and their totals: the construction coherent states used before the
    rank-ordered simplex, kept as the reference for it."""
    occ = np.zeros((1, modes), dtype=np.int64)
    left = np.array([total_max])
    for m in range(modes):
        counts = left + 1
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        occ = np.repeat(occ, counts, axis=0)
        occ[:, m] = np.arange(starts.size) - starts
        left = np.repeat(left, counts) - occ[:, m]  # the photons left for the modes after m
    return occ, total_max - left


@pytest.mark.parametrize("modes", range(1, 6))
def test_stars_and_bars_lists_the_occupations_in_lexicographic_order(modes):
    for total_max in range(7):
        want = [occ for occ in itertools.product(range(total_max + 1), repeat=modes)
                if sum(occ) <= total_max]
        occ, photons = _stars_and_bars(modes, total_max)
        assert occ.dtype == photons.dtype == np.int64
        assert occ.tolist() == [list(occ) for occ in want]
        assert photons.tolist() == [sum(occ) for occ in want]


def _lexicographic_state(spec):
    """coherent_state(spec) over the lexicographic occupations, with the same
    amplitude products, on a layout of its own, lowered per call."""
    modes, n_max = spec.phases.modes, spec.resolved_cutoff()
    steps = np.ones((modes, n_max + 1), dtype=complex)
    steps[:, 1:] = (spec.alpha * np.exp(1j * np.asarray(spec.phases.theta)))[:, None]
    steps[:, 1:] /= np.sqrt(np.arange(1, n_max + 1))
    per_mode = np.cumprod(steps, axis=1)
    occ = _stars_and_bars(modes, n_max)[0]
    amp = per_mode[0].take(occ[:, 0]) * math.exp(-spec.mean_total_photons / 2.0)
    for m in range(1, modes):
        amp *= per_mode[m].take(occ[:, m])
    return StateVector._from_arrays(modes, occ, amp, n_max)


def _rank(occ):
    """Rank in the combinatorial number system: sum_k C(s_k + k, k + 1), with
    s_k the photons in the last k + 1 modes."""
    suffix = itertools.accumulate(reversed(occ))
    return sum(math.comb(s + k, k + 1) for k, s in enumerate(suffix))


@pytest.mark.parametrize("modes", range(1, 7))
def test_simplex_row_t_has_rank_t(modes):
    for top in range(7):
        occ = _simplex(modes, top)
        assert occ.dtype == np.int64
        assert occ.shape == (math.comb(top + modes, modes), modes)
        assert [_rank(row) for row in occ.tolist()] == list(range(len(occ)))
        # So the field operator's lowered ranks are the rows of the lowered occupations.
        lowered = fock._lowered_ranks(occ, top)
        for t, m in zip(*np.nonzero(occ)):
            row = occ[t].copy()
            row[m] -= 1
            assert np.array_equal(occ[lowered[t, m]], row)


@pytest.mark.parametrize("modes", range(1, 6))
def test_simplex_heads_are_prefixes_that_share_its_arrays(modes, monkeypatch):
    monkeypatch.setattr(fock, "_SHARED", {})
    top = 7
    simplex = fock._shared_layout(("simplex", modes), modes, top, lambda: _simplex(modes, top))
    kept = simplex.lowering()
    for n in range(top + 1):
        rows = math.comb(n + modes, modes)
        assert np.array_equal(_simplex(modes, n), simplex.occ[:rows])
        head = simplex.head(n)
        assert head.top == n and head.photons.tolist() == simplex.photons[:rows].tolist()
        low = head._lowering
        # Its entries are the kept ones' first: every mode lowered on the rows below n.
        below = math.comb(n - 1 + modes, modes)
        assert low.slot.size == np.count_nonzero(head.occ) == modes * below
        parts = [(head.occ, simplex.occ), (head.photons, simplex.photons),
                 (low.slot, kept.slot), (low.index, kept.index), (low.term, kept.term)]
        for part, whole in parts if n else parts[:2]:  # the empty head at n=0 views no bytes
            assert np.shares_memory(part, whole)
        # The cut lowering is the one the head's own rows give.
        own = fock._lowering(head.occ, n)
        assert low.count == own.count == below
        for name in ("slot", "index", "term"):
            part, mine = getattr(low, name), getattr(own, name)
            assert part.dtype == mine.dtype == np.int64 and np.array_equal(part, mine)


def test_a_larger_cutoff_rebuilds_the_simplex_once(monkeypatch):
    monkeypatch.setattr(fock, "_SHARED", {})
    builds = []
    monkeypatch.setattr(states, "_simplex", lambda m, n: builds.append(n) or _simplex(m, n))
    phases = ModePhases.locked(3, 0.4)
    for n_max in (10, 14, 10, 14, 12):
        state = coherent_state(CoherentSpec(0.3, phases, n_max=n_max))
        assert state._occ.shape == (math.comb(n_max + 3, 3), 3)
    assert builds == [10, 14]
    assert fock._SHARED["simplex", 3].top == 14


def test_threads_asking_for_cutoffs_keep_the_largest_simplex(monkeypatch):
    monkeypatch.setattr(fock, "_SHARED", {})
    phases = ModePhases.locked(3, 0.4)
    cutoffs = [14 + (5 * k) % 8 for k in range(200)]  # no term pruned up to 21

    def build(n_max):
        state = coherent_state(CoherentSpec(0.6, phases, n_max=n_max))
        return np.array_equal(state._occ, _simplex(3, n_max))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert all(pool.map(build, cutoffs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert fock._SHARED["simplex", 3].top == max(cutoffs)


def test_a_larger_simplex_built_meanwhile_by_another_thread_stays(monkeypatch):
    monkeypatch.setattr(fock, "_SHARED", {})
    phases = ModePhases.locked(3, 0.4)
    small_building, big_held = threading.Event(), threading.Event()

    def simplex(modes, top):
        if top < 21:  # the small set finishes its build after the large one is held
            small_building.set()
            assert big_held.wait(timeout=60)
        return _simplex(modes, top)

    monkeypatch.setattr(states, "_simplex", simplex)
    with ThreadPoolExecutor(max_workers=1) as pool:
        small = pool.submit(coherent_state, CoherentSpec(0.6, phases, n_max=15))
        assert small_building.wait(timeout=60)
        coherent_state(CoherentSpec(0.6, phases, n_max=21))
        big_held.set()
        assert small.result(timeout=60)._occ.shape == (math.comb(18, 3), 3)
    assert fock._SHARED["simplex", 3].top == 21


@pytest.mark.parametrize("modes", range(1, 6))
def test_coherent_terms_equal_the_lexicographic_construction(modes):
    for alpha in (0.3, 0.8 * cmath.exp(0.7j), 1.1j):
        spec = CoherentSpec(alpha, ModePhases(modes, tuple(0.9 * m + 0.1 for m in range(modes))))
        got, want = coherent_state(spec).terms, _lexicographic_state(spec).terms
        assert got.keys() == want.keys()
        assert all(repr(got[occ]) == repr(want[occ]) for occ in want)  # to the bit, signed zeros


def _assert_classifies_as_lexicographic(spec, detection):
    got = classify_fock(coherent_state(spec), detection)
    want = classify_fock(_lexicographic_state(spec), detection)
    assert got.beta == pytest.approx(want.beta, rel=1e-14, abs=0)
    assert got.beta_max == pytest.approx(want.beta_max, rel=1e-14, abs=0)
    assert got.label == want.label


@pytest.mark.parametrize("modes", range(1, 6))
def test_classify_fock_on_coherent_states_keeps_its_results(modes):
    # Rows in rank order sum each lowered slot in another order: the last bits move.
    for k, alpha in enumerate((0.3, 0.65 * cmath.exp(2.1j), 1.0)):
        phases = ModePhases(modes, tuple((1.7 * k + 0.6) * m for m in range(modes)))
        for step in (0.0, 2 * math.pi / modes, 0.37):
            detection = ModePhases.locked(modes, step)
            _assert_classifies_as_lexicographic(CoherentSpec(alpha, phases), detection)


def test_a_simplex_past_the_cache_bound_is_built_per_call(monkeypatch):
    monkeypatch.setattr(fock, "_SHARED", {})
    phases = ModePhases.locked(5, 0.3)
    coherent_state(CoherentSpec(0.3, phases))
    held = dict(fock._SHARED)
    spec = CoherentSpec(1.0, phases)
    state = coherent_state(spec)
    assert state._occ.shape == (201_371, 5)
    assert not state._layout.shared and state._layout._lowering is None
    assert fock._SHARED == held and fock._SHARED["simplex", 5].top == 11
    _assert_classifies_as_lexicographic(spec, ModePhases.locked(5, 1.1))
    assert fock._SHARED == held


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


@pytest.mark.parametrize("n", [states.TWO_MODE_MAX_PHOTONS + 1, 10**4, 2**63, 10**400],
                         ids=["bound+1", "10**4", "2**63", "10**400"])
def test_two_mode_ladder_past_the_photon_bound_is_refused(monkeypatch, n):
    # Before the bound, each math.comb row cost O(N^2) bits: 10**4 took seconds,
    # 2**63 ran out of memory and 10**400 ran without end.
    monkeypatch.setattr(math, "comb", None)  # nothing is built
    for build in (two_mode_bright, two_mode_dark):
        with pytest.raises(ResourceLimitError, match="two-mode bound"):
            build(n)


@pytest.mark.parametrize("n", [2.0, math.nan, "3", None])
def test_two_mode_ladder_refuses_a_photon_number_that_is_no_integer(n):
    with pytest.raises(ValueError, match="must be an integer"):
        two_mode_bright(n)


def test_two_mode_ladder_takes_a_numpy_integer():
    assert two_mode_dark(np.int64(5), 0.3)._layout is two_mode_dark(5, 1.0)._layout


@pytest.mark.parametrize("phi", [math.nan, math.inf, 10**400], ids=["nan", "inf", "10**400"])
def test_two_mode_ladder_refuses_a_phase_that_is_not_finite(phi):
    with pytest.raises(ValueError, match="phi_tilde must be finite"):
        two_mode_bright(3, phi)


# Library twin of the CLI contract: an int past the float range is refused with a
# ValueError wherever the library converts it, never an OverflowError.
_PAST_FLOAT = {
    "dirichlet": lambda: pulses.dirichlet(5, 10**400),
    "dirichlet-array": lambda: pulses.dirichlet(5, [0.0, 10**400]),
    "LaserField": lambda: pulses.LaserField(3, e0=10**400),
    "ModePhases.locked": lambda: ModePhases.locked(3, 10**400),
    "CoherentSpec": lambda: CoherentSpec(10**400, ModePhases.zero(2)),
    "CavityDesign": lambda: CavityDesign(lambda0=10**400, dlambda_g=30e-9, length=0.25),
    "coherent_bright_dark_expansion": lambda: coherent_bright_dark_expansion(10**400, 3, "dark"),
}


@pytest.mark.parametrize("build", _PAST_FLOAT.values(), ids=_PAST_FLOAT.keys())
def test_an_int_past_the_float_range_raises_value_error(build):
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize("modes", [math.nan, 2.5, 4.0, "4"])
def test_dirichlet_refuses_a_mode_count_that_is_no_integer(modes):
    # NaN passed the mode bound and returned NaN; 2.5 returned a number.
    with pytest.raises(ValueError, match="mode count must be an integer"):
        pulses.dirichlet(modes, 0.3)
    assert pulses.dirichlet(np.int64(4), 0.3) == pulses.dirichlet(4, 0.3)
