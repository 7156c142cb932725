"""Property-based invariants over randomized states and phases."""

import cmath
import csv
import io
import json
import math
import numbers

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brightdark.classify import classify_fock
from brightdark.cli import _round_sig
from brightdark.collective import build_basis, from_collective, to_collective
from brightdark.errors import DegenerateInputError, DimensionMismatchError, ResourceLimitError
from brightdark.fock import (
    PRUNE_THRESHOLD,
    ModePhases,
    StateVector,
    annihilate,
    apply_field,
    create,
    inner_product,
    tensor,
)
from brightdark.pulses import FORMAT_CHUNK, IntensitySeries, series_to_csv
from brightdark.states import CoherentSpec, coherent_state, two_mode_bright, two_mode_dark

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
        modes = draw(st.integers(min_value=1, max_value=6))
    cutoff = draw(st.integers(min_value=0, max_value=5))
    terms = draw(
        st.dictionaries(_occupations(modes, cutoff), st.one_of(amplitudes, tiny), max_size=12)
    )
    thetas = draw(st.lists(finite_phases, min_size=modes, max_size=modes))
    return StateVector(modes, terms, cutoff), ModePhases(modes, tuple(thetas))


@settings(max_examples=100)
@given(fock_states())
def test_field_kernel_matches_dict_oracle(case):
    state, phases = case
    _assert_terms_close(apply_field(state, phases).terms, _oracle_apply_field(state, phases))


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


@pytest.mark.parametrize("rows", row_counts)
@settings(max_examples=20, deadline=None)
@given(edge_values)
def test_round_sig_matches_per_element_oracle(rows, values):
    doc = {"x": _tiled(values, rows), "n": 3, "flag": True}
    got, want = _round_sig(doc), _oracle_round_sig(doc)
    assert all(type(v) is float for v in got["x"])
    assert json.dumps(got) == json.dumps(want)
