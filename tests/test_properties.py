"""Property-based invariants over randomized states and phases."""

import cmath
import csv
import io
import json
import math
import numbers

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brightdark.classify import _locked, classify_fock
from brightdark.collective import build_basis, from_collective, to_collective
from brightdark.errors import DegenerateInputError, DimensionMismatchError, ResourceLimitError
from brightdark.fock import (
    _SQUARES_MIN,
    PRUNE_THRESHOLD,
    RANK_LIMIT,
    ModePhases,
    StateVector,
    _lower,
    _multichoose,
    _significant,
    annihilate,
    apply_field,
    create,
    inner_product,
    tensor,
)
from brightdark.pulses import IntensitySeries, series_to_csv
from brightdark.states import (
    CoherentSpec,
    coherent_state,
    single_photon_state,
    two_mode_bright,
    two_mode_dark,
)
from brightdark import fock, textio
from brightdark.textio import (
    FORMAT_CHUNK,
    KERNEL_BLOCK,
    _json_chunks,
    _json_number,
    _Records,
    _text_rows,
)

finite_phases = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
amplitudes = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)


@given(st.lists(finite_phases, min_size=1, max_size=8))
def test_phases_always_reduced(raw):
    phases = ModePhases(len(raw), tuple(raw))
    for theta, original in zip(phases.theta, raw):
        assert 0.0 <= theta < 2 * math.pi
        # reduction preserves the phase factor
        assert np.exp(1j * theta) == pytest.approx(np.exp(1j * original), abs=1e-9)


def _single_photon(modes, amps):
    terms = {
        tuple(1 if j == i else 0 for j in range(modes)): amps[i]
        for i in range(modes)
    }
    return StateVector(modes, terms, cutoff=1)


@settings(max_examples=50)
@given(
    st.lists(amplitudes, min_size=3, max_size=3),
    st.lists(amplitudes, min_size=3, max_size=3),
    amplitudes,
    amplitudes,
    st.lists(finite_phases, min_size=3, max_size=3),
)
def test_field_operator_is_linear(u_amps, v_amps, a, b, thetas):
    phases = ModePhases(3, tuple(thetas))
    u, v = _single_photon(3, u_amps), _single_photon(3, v_amps)
    combo = _single_photon(3, [a * x + b * y for x, y in zip(u_amps, v_amps)])
    lhs = apply_field(combo, phases).amplitude((0, 0, 0))
    rhs = a * apply_field(u, phases).amplitude((0, 0, 0)) + b * apply_field(
        v, phases
    ).amplitude((0, 0, 0))
    assert lhs == pytest.approx(rhs, abs=1e-9)


@settings(max_examples=50)
@given(st.lists(amplitudes, min_size=4, max_size=4), st.lists(finite_phases, min_size=4, max_size=4))
def test_field_norm_bounded_by_sqrt_m(amps, thetas):
    state = _single_photon(4, amps)
    if state.norm() < 1e-6:
        return
    beta = apply_field(state, ModePhases(4, tuple(thetas))).norm() / state.norm()
    assert beta <= 2.0 + 1e-9  # sqrt(M) for M = 4


@settings(max_examples=30)
@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=1),
)
def test_commutator_is_identity_below_cutoff(n0, n1, mode):
    cutoff = 8  # strictly above every generated total
    state = StateVector(2, {(n0, n1): 1.0}, cutoff)
    lhs = annihilate(create(state, mode), mode)
    rhs = create(annihilate(state, mode), mode)
    assert lhs.amplitude((n0, n1)) - rhs.amplitude((n0, n1)) == pytest.approx(
        1.0, abs=1e-12
    )


@settings(max_examples=40)
@given(st.lists(amplitudes, min_size=2, max_size=2))
def test_inner_product_is_positive_on_diagonal(amps):
    state = _single_photon(2, amps)
    value = inner_product(state, state)
    assert value.imag == pytest.approx(0.0, abs=1e-12)
    assert value.real >= 0.0


@settings(max_examples=40)
@given(
    st.lists(amplitudes, min_size=4, max_size=4),
    st.lists(finite_phases, min_size=4, max_size=4),
    st.sampled_from(["hadamard", "dft"]),
)
def test_collective_round_trip_and_parseval(amps, ref_raw, kind):
    state = _single_photon(4, amps)
    basis = build_basis(4, kind)
    ref = ModePhases(4, tuple(ref_raw))
    coeffs = to_collective(state, basis, ref)
    assert np.linalg.norm(coeffs) == pytest.approx(state.norm(), abs=1e-9)
    back = from_collective(coeffs, basis, ref)
    for occ in state.terms:
        assert back.amplitude(occ) == pytest.approx(state.amplitude(occ), abs=1e-9)


# ---------------------------------------------------------------------------
# The array kernel against the per-term dict loops it replaced
# ---------------------------------------------------------------------------

def _pruned(out):
    return {occ: a for occ, a in out.items() if abs(a) >= PRUNE_THRESHOLD}


def _oracle_apply_field(state, phases):
    """E = sum_m exp(i*theta_m) a_m term by term, pruned as StateVector prunes."""
    factors = [complex(math.cos(t), math.sin(t)) for t in phases.theta]
    out = {}
    for occ, amp in state.terms.items():
        for mode, n in enumerate(occ):
            if n == 0:
                continue
            lowered = occ[:mode] + (n - 1,) + occ[mode + 1 :]
            out[lowered] = out.get(lowered, 0.0) + factors[mode] * math.sqrt(n) * amp
    return _pruned(out)


def _oracle_annihilate(state, mode):
    out = {}
    for occ, amp in state.terms.items():
        n = occ[mode]
        if n == 0:
            continue
        lowered = occ[:mode] + (n - 1,) + occ[mode + 1 :]
        out[lowered] = out.get(lowered, 0.0) + math.sqrt(n) * amp
    return _pruned(out)


def _oracle_create(state, mode):
    out = {}
    for occ, amp in state.terms.items():
        if sum(occ) >= state.cutoff:
            continue
        n = occ[mode]
        raised = occ[:mode] + (n + 1,) + occ[mode + 1 :]
        out[raised] = out.get(raised, 0.0) + math.sqrt(n + 1) * amp
    return _pruned(out)


def _oracle_tensor(a, b):
    out = {}
    for occ_a, amp_a in a.terms.items():
        for occ_b, amp_b in b.terms.items():
            out[occ_a + occ_b] = amp_a * amp_b
    return _pruned(out)


def _oracle_inner_product(a, b):
    """<a|b> by the dict loop it replaced: the smaller state's terms looked up in the larger."""
    small, large = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    total = 0.0 + 0.0j
    for occ in small:
        if occ in large:
            total += a.terms[occ].conjugate() * b.terms[occ]
    return total


def _assert_terms_close(got, want):
    for occ in set(got) | set(want):
        assert got.get(occ, 0.0) == pytest.approx(want.get(occ, 0.0), abs=1e-12)


def _oracle_norm(terms):
    return math.sqrt(sum(abs(a) ** 2 for a in terms.values()))


@st.composite
def _occupations(draw, modes, cutoff):
    left = draw(st.integers(min_value=0, max_value=cutoff))
    occ = []
    for _ in range(modes):
        occ.append(draw(st.integers(min_value=0, max_value=left)))
        left -= occ[-1]
    return tuple(draw(st.permutations(occ)))


tiny = st.floats(min_value=1e-16, max_value=1e-14)


@st.composite
def fock_states(draw, modes=None):
    if modes is None:
        modes = draw(st.integers(min_value=1, max_value=24))
    cutoff = draw(st.integers(min_value=0, max_value=5))
    terms = draw(
        st.dictionaries(_occupations(modes, cutoff), st.one_of(amplitudes, tiny), max_size=12)
    )
    thetas = draw(st.lists(finite_phases, min_size=modes, max_size=modes))
    return StateVector(modes, terms, cutoff), ModePhases(modes, tuple(thetas))


def _reference_lowered_ranks(occ, top):
    """The lowered ranks by 2-D gathers, the form the flat passes replaced."""
    modes = occ.shape[1]
    table = _multichoose(modes, top)
    suffix = np.cumsum(occ[:, ::-1], axis=1)[:, ::-1]
    k = np.arange(modes - 1, -1, -1)
    rank = table[k + 1, suffix].sum(axis=1)
    drop = np.cumsum(table[k, suffix], axis=1)
    return np.subtract(rank[:, None], drop, out=drop)


def _reference_lower(state, phases):
    """fock._lower by 2-D gathers and masked reductions, the form the flat passes replaced."""
    modes, occ, top = state.modes, state._occ, state.top_sector()
    slot = _reference_lowered_ranks(occ, top)
    occupied = occ > 0
    entries = np.count_nonzero(occupied)
    lo = slot.min(where=occupied, initial=RANK_LIMIT - 1)
    hi = slot.max(where=occupied, initial=0)
    if entries and hi - lo < entries:
        slot -= lo
        count = int(hi - lo) + 1
    else:
        distinct, inverse = np.unique(slot[occupied], return_inverse=True)
        slot[occupied] = inverse
        count = distinct.size
    slot[~occupied] = count
    root = np.exp(1j * np.asarray(phases.theta))[:, None] * np.sqrt(np.arange(top + 1))
    weight = root[np.arange(modes), occ]
    weight *= state._amp[:, None]
    flat = slot.ravel()
    amps = np.empty(count, dtype=complex)
    amps.real = np.bincount(flat, weight.real.ravel(), count + 1)[:count]
    amps.imag = np.bincount(flat, weight.imag.ravel(), count + 1)[:count]
    return amps, slot


def _lowered_slots(state, lowering):
    """The slots of a lowering as the reference's ``(T, M)`` matrix: ``count``
    where a mode is empty."""
    slot = np.full(state._occ.size, lowering.count)
    slot[np.flatnonzero(state._occ)] = lowering.slot
    return slot.reshape(state._occ.shape)


def _assert_lower_matches_reference(state, phases):
    amps, lowering = _lower(state, phases)
    want_amps, want_slot = _reference_lower(state, phases)
    assert np.array_equal(_lowered_slots(state, lowering), want_slot)
    assert np.array_equal(amps.view(np.uint64), want_amps.view(np.uint64))  # equal to the bit


@settings(max_examples=100)
@given(fock_states())
def test_field_kernel_matches_dict_oracle(case):
    # Up to 24 modes: both sides of _COLUMN_MODES.
    state, phases = case
    _assert_lower_matches_reference(state, phases)
    _assert_terms_close(apply_field(state, phases).terms, _oracle_apply_field(state, phases))


def _sparse_sectors():
    """Six modes, a few terms in sectors 1, 3 and 7: lowered ranks with gaps."""
    rows = [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (1, 1, 0, 0, 1, 0), (0, 3, 0, 0, 0, 0),
            (7, 0, 0, 0, 0, 0), (0, 0, 2, 0, 0, 5), (1, 1, 1, 1, 1, 2)]
    return StateVector(6, {row: complex(k + 1, -k) for k, row in enumerate(rows)}, cutoff=7)


def _coherent(modes, alpha):
    return coherent_state(CoherentSpec(alpha, ModePhases(modes, tuple(0.7 * m for m in range(modes)))))


_FIXED_STATES = {
    "single-photon-64": lambda: single_photon_state(ModePhases.locked(64, 0.3)),
    **{f"bright-{n}": (lambda n=n: two_mode_bright(n, 0.4)) for n in (1, 2, 17, 60)},
    **{f"dark-{n}": (lambda n=n: two_mode_dark(n, 0.4)) for n in (1, 2, 17, 60)},
    **{f"coherent-{m}": (lambda m=m: _coherent(m, 0.9 - 0.1 * m)) for m in range(1, 6)},
    "sparse-sectors": _sparse_sectors,
}


@pytest.mark.parametrize("build", _FIXED_STATES.values(), ids=_FIXED_STATES.keys())
def test_field_kernel_matches_reference_on_fixed_states(build, monkeypatch):
    monkeypatch.setattr(fock, "_SHARED", {})
    # Twice: a shared layout's lowering is made on the first call, read on the second.
    layouts = []
    for _ in range(2):
        state = build()
        phases = ModePhases(state.modes, tuple(1.3 * m + 0.2 for m in range(state.modes)))
        _assert_lower_matches_reference(state, phases)
        layouts.append(state._layout)
    shared = layouts[0].shared
    assert (layouts[0] is layouts[1]) == shared
    assert shared == (build in list(_FIXED_STATES.values())[:9])  # the single photon, the ladders
    # A coherent state holds a new head of the shared simplex: views of its
    # arrays, with the kept lowering cut to its entries.
    coherent = build in list(_FIXED_STATES.values())[9:14]
    kept = layouts[0]._lowering is not None
    assert kept == np.shares_memory(layouts[0].occ, layouts[1].occ) == (shared or coherent)
    if build is _sparse_sectors:  # the slots are renumbered, not shifted: np.unique ran
        amps = _lower(state, phases)[0]
        assert amps.size == len(_oracle_apply_field(state, phases))


@pytest.mark.parametrize("rows, amp, kept", [
    ([(0, 0, 0, 0), (1, 0, 0, 0)], [8.185889219744301e-15, 1.875 + 1j], 1),  # one of 8 cells
    ([(3,)], [0.64 + 0.105j], 1),  # the one cell
])
def test_field_kernel_rounds_a_lone_entry_as_the_reference(rows, amp, kept, monkeypatch):
    # numpy rounds a one-element complex product in place without its vector
    # loop, and the reference's (T, M) product is in place: one cell takes the
    # scalar loop, one occupied entry of more cells the vector loop.
    monkeypatch.setattr(fock, "_SHARED", {})
    occ, amp = np.array(rows), np.array(amp)
    modes, cutoff = occ.shape[1], int(occ.sum(axis=1).max())
    layout = fock._shared_layout("lone", modes, cutoff, lambda: occ)
    for arg in (occ, layout, layout):  # lowered per call, then kept
        state = StateVector._from_arrays(modes, arg, amp, cutoff)
        _assert_lower_matches_reference(state, ModePhases(modes, (1.0,) * modes))
    assert layout._lowering.slot.size == kept


def _ulps(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# Magnitudes within 4 ulps of the threshold, on the axes or turned by an
# angle; components whose squares underflow or overflow; NaN and inf.
_near_threshold = st.builds(
    lambda k, angle: cmath.rect(_ulps(PRUNE_THRESHOLD, k), angle),
    st.integers(min_value=-4, max_value=4),
    st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2]),
              st.floats(min_value=-math.pi, max_value=math.pi)),
)
_far_components = st.sampled_from([0.0, 1e-160, -1e-160, 1e160, -1e160, 1.0, math.nan, math.inf])
_mask_amplitudes = st.one_of(_near_threshold, st.builds(complex, _far_components, _far_components))


@settings(max_examples=200)
@given(st.lists(_mask_amplitudes, min_size=1, max_size=40))
def test_significant_mask_is_the_hypot_mask(values):
    # Short arrays take hypot alone; the tiled one takes the squares.
    for amp in (np.array(values), np.resize(np.array(values), _SQUARES_MIN + 7)):
        want = np.hypot(amp.real, amp.imag) >= PRUNE_THRESHOLD
        assert np.array_equal(_significant(amp), want)
        assert want.tolist() == [abs(a) >= PRUNE_THRESHOLD for a in amp.tolist()]


@settings(max_examples=100)
@given(fock_states(), fock_states(), st.data())
def test_ladder_and_tensor_match_dict_oracles(case, other, data):
    # The drawn states hold amplitudes near PRUNE_THRESHOLD and terms at the
    # cutoff, which create truncates away.
    state, other = case[0], other[0]
    mode = data.draw(st.integers(min_value=0, max_value=state.modes - 1))
    _assert_terms_close(annihilate(state, mode).terms, _oracle_annihilate(state, mode))
    _assert_terms_close(create(state, mode).terms, _oracle_create(state, mode))
    _assert_terms_close(tensor(state, other).terms, _oracle_tensor(state, other))


@settings(max_examples=100)
@given(fock_states(), fock_states(), st.data())
def test_photon_totals_are_the_row_sums(case, other, data):
    # The drawn amplitudes near PRUNE_THRESHOLD make every operation prune rows,
    # and the totals must be pruned with them.
    (state, phases), other = case, other[0]
    mode = data.draw(st.integers(min_value=0, max_value=state.modes - 1))
    alpha = data.draw(st.complex_numbers(min_magnitude=0.05, max_magnitude=0.6))
    built = [state, annihilate(state, mode), create(state, mode), apply_field(state, phases),
             tensor(state, other), coherent_state(CoherentSpec(alpha, ModePhases.zero(2)))]
    if not state.is_zero():
        built.append(state.normalized())
    for out in built:
        assert out._photons.dtype == np.int64
        assert out._photons.tolist() == out._occ.sum(axis=1).tolist()


@settings(max_examples=100)
@given(fock_states(), st.data())
def test_inner_product_and_lookup_match_dict_oracles(case, data):
    # The two draws share a mode count; their supports overlap, are disjoint
    # or are empty as the draws fall.
    state = case[0]
    other = data.draw(fock_states(modes=state.modes))[0]
    for a, b in [(state, other), (other, state), (state, state)]:
        scale = max(a.norm() * b.norm(), 1.0)
        assert abs(inner_product(a, b) - _oracle_inner_product(a, b)) <= 1e-12 * scale
    for occ, amp in state.terms.items():
        assert state.amplitude(occ) == amp
    absent = (state.cutoff + 1,) + (0,) * (state.modes - 1)
    drawn = data.draw(_occupations(state.modes, state.cutoff))
    assert state.amplitude(absent) == 0.0
    assert state.amplitude(drawn) == state.terms.get(drawn, 0.0)
    for wrong in [drawn + (0,), drawn[:-1], (0,) * (state.modes + 1)]:
        with pytest.raises(DimensionMismatchError):
            state.amplitude(wrong)


def test_inner_product_needs_no_rank_index():
    # 64 modes up to 40 photons: C(104, 64) is past the field operator's rank
    # bound, but matching rows needs no rank.
    modes, top = 64, 40
    rows = [(top,) + (0,) * (modes - 1), (1,) * top + (0,) * (modes - top)]
    rows.append((0,) * (modes - 2) + (20, 20))
    psi = StateVector(modes, dict(zip(rows, [0.6, 0.8j, 0.0])), cutoff=top)
    with pytest.raises(ResourceLimitError):
        apply_field(psi, ModePhases.zero(modes))
    assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-15)
    assert inner_product(psi, StateVector(modes, {rows[2]: 1.0}, top)) == 0.0


def _oracle_two_mode_bright(n_photons, phi):
    """The closed form in the docstring of two_mode_bright, term by term."""
    scale = cmath.exp(-1j * n_photons * phi) * math.sqrt(math.factorial(n_photons) / 2.0**n_photons)
    out = {}
    for n in range(n_photons + 1):
        norm = math.sqrt(math.factorial(n) * math.factorial(n_photons - n))
        out[(n, n_photons - n)] = scale * cmath.exp(1j * n * phi) / norm
    return _pruned(out)


def _oracle_two_mode_sum(n_photons, phi, dark):
    """The per-term dict builder the array ladder replaced, bright phase included."""
    terms = {}
    for n in range(n_photons + 1):
        amp = math.sqrt(math.comb(n_photons, n) / 2**n_photons) * cmath.exp(1j * n * phi)
        if dark and n % 2:
            amp = -amp
        terms[(n, n_photons - n)] = amp
    state = StateVector(2, terms, cutoff=n_photons)
    if dark:
        return state
    global_phase = cmath.exp(-1j * n_photons * phi)
    return StateVector._from_arrays(2, state._occ, global_phase * state._amp, n_photons)


@given(
    st.one_of(st.integers(min_value=0, max_value=60), st.sampled_from([171, 200])),
    finite_phases,
)
def test_two_mode_bright_matches_closed_form(n_photons, phi):
    bright = two_mode_bright(n_photons, phi)
    for got, dark in [(bright, False), (two_mode_dark(n_photons, phi), True)]:
        want = _oracle_two_mode_sum(n_photons, phi, dark)
        assert np.array_equal(got._occ, want._occ) and np.array_equal(got._amp, want._amp)
    if n_photons <= 60:  # the factorials below leave the float range from N = 171
        _assert_terms_close(bright.terms, _oracle_two_mode_bright(n_photons, phi))


@settings(max_examples=100)
@given(fock_states())
def test_classify_fock_beta_matches_dict_oracle(case):
    state, phases = case
    if state.is_zero() or state.top_sector() == 0:
        with pytest.raises(DegenerateInputError):
            classify_fock(state, phases)
        return
    beta = _oracle_norm(_oracle_apply_field(state, phases)) / _oracle_norm(state.terms)
    assert classify_fock(state, phases).beta == pytest.approx(beta, rel=1e-12, abs=1e-15)


@settings(max_examples=100)
@given(fock_states())
def test_classify_fock_beta_within_its_mean_photon_bound(case):
    # E^dagger E <= M N for unit phase factors, so beta <= sqrt(M <N>) for every state.
    state, phases = case
    if state.is_zero() or state.top_sector() == 0:
        return
    result = classify_fock(state, phases)
    weights = np.abs(state._amp) ** 2
    assert result.beta_max == pytest.approx(
        math.sqrt(state.modes * (weights @ state._occ.sum(axis=1)) / weights.sum()), rel=1e-12
    )
    assert result.beta <= result.beta_max * (1 + 1e-12)


@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-3e-15, max_value=3e-15),
)
def test_pruning_at_threshold_matches_dict_oracle(modes, x, residual):
    # Two photons whose lowered amplitudes cancel up to about `residual`.
    one = [tuple(int(k == m) for k in range(modes)) for m in range(2)]
    state = StateVector(modes, {one[0]: x, one[1]: residual - x}, cutoff=1)
    phases = ModePhases.zero(modes)
    want = _oracle_apply_field(state, phases)
    assert apply_field(state, phases).terms == want
    if not state.is_zero():
        beta = _oracle_norm(want) / _oracle_norm(state.terms)
        assert classify_fock(state, phases).beta == pytest.approx(beta, rel=1e-12)


@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
)
def test_dark_ladder_cancellation_survives_summation(n, phi):
    # numpy's complex product may round differently from Python's (fused
    # multiply-add), so past N = 2, where the residual nears the prune
    # threshold, only its size is compared with the oracle's.
    state, detection = two_mode_dark(n, phi), ModePhases(2, (0.0, phi))
    out = apply_field(state, detection)
    assert out.norm() <= 1e-13
    assert _oracle_norm(_oracle_apply_field(state, detection)) <= 1e-13
    if n <= 2:  # rounding stays a few times below the prune threshold
        assert out.is_zero()


def _oracle_coherent_terms(spec):
    """Every occupation up to the cutoff, amplitude multiplied out mode by mode."""
    modes, n_max = spec.phases.modes, spec.resolved_cutoff()
    mode_amp = [spec.alpha * cmath.exp(1j * t) for t in spec.phases.theta]

    def occupations(m, left):
        if m == 0:
            yield ()
            return
        for n in range(left + 1):
            for rest in occupations(m - 1, left - n):
                yield (n,) + rest

    terms = {}
    for occ in occupations(modes, n_max):
        amp = complex(math.exp(-modes * abs(spec.alpha) ** 2 / 2.0))
        for a, n in zip(mode_amp, occ):
            amp *= a**n / math.sqrt(math.factorial(n))
        terms[occ] = amp
    return terms


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=4),
    st.complex_numbers(min_magnitude=0.05, max_magnitude=0.6),
    st.data(),
)
def test_coherent_state_matches_per_term_product(modes, alpha, data):
    thetas = data.draw(st.lists(finite_phases, min_size=modes, max_size=modes))
    spec = CoherentSpec(alpha, ModePhases(modes, tuple(thetas)))
    got = coherent_state(spec).terms
    want = {occ: a for occ, a in _oracle_coherent_terms(spec).items() if abs(a) >= PRUNE_THRESHOLD}
    assert got.keys() == want.keys()
    for occ, a in want.items():
        assert got[occ] == pytest.approx(a, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# The chunked %.12g formatter against the per-row writers it replaced
# ---------------------------------------------------------------------------

def _oracle_series_to_csv(series):
    """One csv.writer row of two f-strings per sample."""
    buf = io.StringIO()
    for key in (
        "kind",
        "n_side",
        "m_total",
        "e0",
        "delta_omega",
        "phi",
        "samples_per_period",
        "periods",
        "resolution_ok",
        "seed",
        "warning",
    ):
        if key in series.metadata:
            buf.write(f"# {key}={series.metadata[key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t_prime", "intensity"])
    for t, i in zip(series.t, series.intensity):
        writer.writerow([f"{t:.12g}", f"{i:.12g}"])
    return buf.getvalue()


def _oracle_round_sig(value):
    """Round every number to 12 significant digits, one element at a time."""
    if isinstance(value, bool):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(f"{float(value):.12g}")
    if isinstance(value, dict):
        return {k: _oracle_round_sig(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_oracle_round_sig(v) for v in value]
    return value


def _near(centre):
    """Floats within 1e-11 (relative) of +-centre, where 12-digit rounding can switch notation."""
    return st.floats(
        min_value=centre * (1 - 1e-11), max_value=centre * (1 + 1e-11)
    ).flatmap(lambda x: st.sampled_from([x, -x]))


edge_floats = st.one_of(
    st.floats(),  # any float, nan and +-inf included
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308]),
    st.floats(min_value=-2.2e-308, max_value=2.2e-308),  # subnormals
    st.sampled_from([1e-4, 1e12, 1e300, 1e-300]).flatmap(_near),
    st.floats(min_value=-1e3, max_value=1e3),
)
edge_values = st.lists(edge_floats, min_size=1, max_size=40)
# Lengths around the formatter's chunk, so that partial and whole chunks both show.
row_counts = [0, 1, 2, 37, FORMAT_CHUNK - 1, FORMAT_CHUNK, FORMAT_CHUNK + 1]


def _tiled(values, rows):
    """A float64 array of `rows` entries, the drawn edge values repeated."""
    return np.resize(np.array(values, dtype=float), rows)


@pytest.mark.parametrize("rows", row_counts)
@settings(max_examples=20, deadline=None)
@given(
    edge_values,
    edge_values,
    st.sampled_from([0, 5]),  # extra intensity rows: both writers stop at the shorter column
    st.sampled_from([{}, {"kind": "locked", "n_side": 3}]),
)
def test_series_csv_matches_csv_writer_oracle(rows, t_values, i_values, extra, metadata):
    series = IntensitySeries(_tiled(t_values, rows), _tiled(i_values, rows + extra), metadata)
    assert series_to_csv(series) == _oracle_series_to_csv(series)


# The masks' hard cases: integers ('%.12g' drops the '.0'), non-finite values,
# 1e12 <= |y| < 1e16 (fixed notation in repr), subnormals (shorter repr).
_WRITER_EDGES = [
    121.0, -0.0, 0.0, 120.99999999999999, math.nan, math.inf, -math.inf, 1e12,
    -123456789012345.0, 9.999999999999e15, 1e16, 5e-324, -2.5e-320, 1e-05, 0.1, 1e22,
]


@pytest.mark.parametrize("rows", row_counts)
@settings(max_examples=8, deadline=None)  # the pure-Python oracle takes 0.15 s at 4k rows
@given(edge_values, edge_values)
@example(_WRITER_EDGES, _WRITER_EDGES[::-1])
def test_json_writer_matches_the_json_dumps_oracle(rows, x_values, y_values):
    x, y = _tiled(x_values, rows), _tiled(y_values, rows)
    labels = [("Dark", "Bright", 'a "100%" label')[k % 3] for k in range(rows)]
    doc = {
        "meta": {"x": x, "n": 3, "flag": True, "name": "100%", "none": None},
        "points": _Records({"y": y, "label": labels}, {"c": 2.5}),
        "empty": {"dict": {}, "list": [], "x": x[:0]},
        "nested": [(1, np.int64(-7), np.float64(y_values[0])), [x[:3], [0.1, x_values[0]]]],
        'a "quoted"\tkey\u00e9': x_values,
    }
    points = [{"y": b, "label": s, "c": 2.5} for b, s in zip(y, labels)]
    want = json.dumps(_oracle_round_sig({**doc, "points": points}), sort_keys=True, indent=2)
    assert "".join(_json_chunks(doc)) == want


# ---------------------------------------------------------------------------
# The vectorised %.12g kernel against per-value formatting
# ---------------------------------------------------------------------------

def _kernel_values():
    """Doubles where the kernel's proof is tight, and their negatives: every decimal
    exponent from -330 to 308 with the neighbours of each power of ten; the doubles
    nearest the ties (n + 0.5)*10**k of 12-digit rounding, and theirs; mantissas with
    0 to 11 trailing zeros; both sides of the 1e-4 and 1e12 notation switches; the
    largest mantissas below each power of ten, and the tie between them; and
    mantissas whose scaled y is just inside and just outside the proof's band."""
    rng = np.random.default_rng(14)
    powers = np.array([float(f"1e{k}") for k in range(-330, 309)])
    mantissas = rng.integers(10**11, 10**12, 40).tolist()
    ties = np.array([float(f"{n}5e{k}") for n in mantissas for k in range(-336, 297, 7)])
    band = np.array([float(f"{n}.{f}e{k}") for n in mantissas[:20] for k in range(-300, 290, 73)
                     for f in ("4996", "49969", "4997", "49971", "4998",
                               "5002", "50029", "5003", "50031", "5004")])
    zeros = np.array([float(f"{n // 10**z * 10**z}e{k}") for z in range(12)
                      for n in mantissas[:8] for k in range(-322, 297, 9)])
    offsets = np.array([0.0, 1e-16, 1e-13, 4.9e-13, 5e-13, 5.1e-13, 1e-12, 5e-12, 1e-11])
    switches = np.concatenate([c * (1 + offsets) for c in (1e-4, 1e12)] +
                              [c * (1 - offsets) for c in (1e-4, 1e12)])
    below = np.array([float(f"9.99999999999{t}e{k}") for k in range(-330, 308) for t in ("", "5")])
    values = np.concatenate([powers, ties, zeros, switches, band, below])
    values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])
    return np.concatenate([values, -values, [math.nan, math.inf, -math.inf]])


_KERNEL_VALUES = _kernel_values()


@pytest.mark.parametrize("json_text", [False, True], ids=["csv", "json"])
def test_g12_kernel_matches_per_value_text(json_text):
    exact = _json_number if json_text else "%.12g".__mod__
    got = "".join(_text_rows(["", "\n"], [_KERNEL_VALUES], json=json_text)).splitlines()
    want = [exact(x) for x in _KERNEL_VALUES.tolist()]
    assert len(got) == len(want)
    assert [(x, g) for x, g, w in zip(_KERNEL_VALUES.tolist(), got, want) if g != w] == []


def test_kernel_proves_all_but_a_thousandth_of_benchmark_shaped_values(monkeypatch):
    # The pulse_train csv op's data: an evenly spaced t over one period and a
    # uniform intensity.  Only 0 and roundings near a tie should reach Python.
    rows = 100_000
    t = np.arange(rows) * (2 * math.pi / rows)
    intensity = np.random.default_rng(1).uniform(0.0, 100.0, rows)
    fallbacks = []
    monkeypatch.setattr(textio, "_json_number", lambda x: fallbacks.append(x) or _json_number(x))
    "".join(_json_chunks({"t": t, "points": _Records({"y": intensity}, {})}))
    assert len(fallbacks) <= 2 * rows // 1000


# _Records whose float columns sit at uneven offsets in a row, each written
# through its own view: two floats around a string (scan-phase's points), three
# floats, one float between long literals.
_LAYOUTS = {
    "around-a-string": lambda floats, labels: ({"beta": floats(0), "label": labels,
                                                "phi": floats(1)}, {"m": 4}),
    "three-floats": lambda floats, labels: ({"a": floats(0), "c": floats(1), "d": floats(2)},
                                            {"b": "x" * 5}),
    "between-long-literals": lambda floats, labels: ({"m": floats(0)},
                                                     {"a": "\u03b1" * 40, "z": "long " * 20}),
}


@pytest.mark.parametrize("rows", [1, FORMAT_CHUNK + 1, KERNEL_BLOCK + 3])
@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_json_records_with_uneven_float_columns_match_the_oracle(layout, rows):
    def floats(j):  # another stretch of the kernel's hard values per column
        return np.resize(np.roll(_KERNEL_VALUES, -7919 * j - rows), rows)

    labels = [("Dark", "Bright", 'a "100%" label')[k % 3] for k in range(rows)]
    columns, constants = _LAYOUTS[layout](floats, labels)
    points = [{**{k: c[r] for k, c in columns.items()}, **constants} for r in range(rows)]
    want = json.dumps(_oracle_round_sig({"points": points}), sort_keys=True, indent=2)
    assert "".join(_json_chunks({"points": _Records(columns, constants)})) == want


def test_json_leaves_are_written_by_exact_type():
    leaves = [True, False, None, 7, np.int64(-7), 0.1, np.float64(0.1), 'a "b"\u00e9']
    want = ["true", "false", "null", "7", "-7", "0.1", "0.1", '"a \\"b\\"\\u00e9"']
    assert [textio._json_scalar(v) for v in leaves] == want
    for other in (np.float32(0.5), np.bool_(True), 1j, [1]):
        with pytest.raises(TypeError, match="no JSON text"):
            textio._json_scalar(other)
    beta, _, beta_max = _locked(4, 1.0, 1e-10)  # classify --phase's leaves
    assert type(beta) is type(beta_max) is float


@pytest.mark.parametrize("rows", row_counts)
def test_writers_match_per_value_text_on_the_kernel_values(rows):
    start = rows * 7 % len(_KERNEL_VALUES)  # each row count reads another stretch
    t = np.roll(_KERNEL_VALUES, -start)[:rows]
    intensity = np.roll(_KERNEL_VALUES, -start - 1)[:rows]
    series = IntensitySeries(t, intensity, {})
    assert series_to_csv(series) == _oracle_series_to_csv(series)
    doc = {"t": t, "points": _Records({"y": intensity}, {})}
    want = {"t": t, "points": [{"y": y} for y in intensity]}
    assert "".join(_json_chunks(doc)) == json.dumps(_oracle_round_sig(want), sort_keys=True, indent=2)
