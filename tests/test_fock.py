"""Ladder operators, the field operator, and inner products on sparse states."""

import cmath
import math

import numpy as np
import pytest

from brightdark import fock
from brightdark.classify import Label, classify_fock
from brightdark.collective import build_basis, from_collective, to_collective
from brightdark.errors import DegenerateInputError, DimensionMismatchError, ResourceLimitError
from brightdark.fock import (
    ModePhases,
    StateVector,
    annihilate,
    apply_field,
    create,
    inner_product,
    tensor,
    vacuum,
)
from brightdark.states import (
    CoherentSpec,
    coherent_state,
    single_photon_state,
    two_mode_bright,
    two_mode_dark,
)

SQRT2 = math.sqrt(2.0)


def ket(modes, occ, amp=1.0, cutoff=None):
    occ = tuple(occ)
    return StateVector(modes, {occ: amp}, cutoff if cutoff is not None else sum(occ))


def test_annihilate_single_quantum():
    out = annihilate(ket(2, (1, 0)), 0)
    assert out.terms == {(0, 0): pytest.approx(1.0)}


def test_annihilate_normalization():
    out = annihilate(ket(2, (2, 0), cutoff=2), 0)
    assert out.amplitude((1, 0)) == pytest.approx(SQRT2)
    assert len(out.terms) == 1


def test_annihilate_vacuum_gives_zero_vector():
    out = annihilate(vacuum(2), 1)
    assert out.is_zero()


def test_annihilate_mode_out_of_range():
    with pytest.raises(IndexError):
        annihilate(ket(2, (1, 0)), 2)
    with pytest.raises(IndexError):
        annihilate(ket(2, (1, 0)), -1)


def test_create_then_annihilate_round_trip():
    state = vacuum(3, cutoff=2)
    up = create(create(state, 1), 1)
    assert up.amplitude((0, 2, 0)) == pytest.approx(SQRT2)
    down = annihilate(up, 1)
    assert down.amplitude((0, 1, 0)) == pytest.approx(2.0)


def test_create_truncates_at_cutoff():
    full = ket(1, (3,), cutoff=3)
    assert create(full, 0).is_zero()


def test_commutation_below_cutoff():
    # [a, a+] acts as identity on every ket strictly below the cutoff.
    cutoff = 4
    for occ in [(0, 0), (1, 0), (2, 1), (1, 2)]:
        state = ket(2, occ, cutoff=cutoff)
        for mode in range(2):
            lhs = annihilate(create(state, mode), mode)
            rhs = create(annihilate(state, mode), mode)
            diff = lhs.amplitude(occ) - rhs.amplitude(occ)
            assert diff == pytest.approx(1.0, abs=1e-12)


def test_field_on_symmetric_pair_reaches_sqrt_m():
    plus = StateVector(2, {(1, 0): 1 / SQRT2, (0, 1): 1 / SQRT2}, 1)
    out = apply_field(plus, ModePhases.zero(2))
    assert out.amplitude((0, 0)) == pytest.approx(SQRT2)
    assert out.norm() == pytest.approx(SQRT2)


def test_field_annihilates_antisymmetric_pair():
    minus = StateVector(2, {(1, 0): 1 / SQRT2, (0, 1): -1 / SQRT2}, 1)
    assert apply_field(minus, ModePhases.zero(2)).is_zero()


def test_field_annihilates_two_photon_dark_combination():
    # (1/sqrt2)[(1/sqrt2)|0,2> - |1,1> + (1/sqrt2)|2,0>]: ladder algebra cancels.
    state = StateVector(
        2,
        {(0, 2): 0.5, (1, 1): -1 / SQRT2, (2, 0): 0.5},
        cutoff=2,
    )
    assert state.norm() == pytest.approx(1.0)
    assert apply_field(state, ModePhases.zero(2)).is_zero()


def test_field_requires_matching_mode_count():
    with pytest.raises(DimensionMismatchError):
        apply_field(ket(2, (1, 0)), ModePhases.zero(3))


def test_field_is_linear():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    u = StateVector(2, {(1, 0): 0.3, (0, 1): 0.2 + 0.1j}, 1)
    v = StateVector(2, {(1, 0): -0.5j, (0, 1): 0.8}, 1)
    combo = StateVector(
        2,
        {
            (1, 0): a * u.amplitude((1, 0)) + b * v.amplitude((1, 0)),
            (0, 1): a * u.amplitude((0, 1)) + b * v.amplitude((0, 1)),
        },
        1,
    )
    phases = ModePhases(2, (0.4, 1.9))
    lhs = apply_field(combo, phases)
    fu = apply_field(u, phases)
    fv = apply_field(v, phases)
    expected = a * fu.amplitude((0, 0)) + b * fv.amplitude((0, 0))
    assert lhs.amplitude((0, 0)) == pytest.approx(expected, abs=1e-12)


def test_field_past_the_int64_index_bound_is_refused():
    # C(40 + 64, 64) is about 1.7e29 ranks, past 2**63.
    state = ket(64, (40,) + (0,) * 63)
    with pytest.raises(ResourceLimitError):
        apply_field(state, ModePhases.zero(64))
    with pytest.raises(ResourceLimitError):
        classify_fock(state, ModePhases.zero(64))


def test_field_past_the_rank_table_bound_is_refused():
    # 3 x (10**7 + 1) table cells; the ranks alone would fit in int64.
    state = ket(2, (10**7, 0))
    with pytest.raises(ResourceLimitError):
        apply_field(state, ModePhases.zero(2))


def test_field_on_empty_state_and_vacuum():
    empty = StateVector(3, {}, cutoff=2)
    assert apply_field(empty, ModePhases.zero(3)).is_zero()
    assert apply_field(vacuum(3), ModePhases.zero(3)).is_zero()
    with pytest.raises(DegenerateInputError, match="zero vector") as exc:
        classify_fock(empty, ModePhases.zero(3))
    assert not exc.value.vacuum
    with pytest.raises(DegenerateInputError) as exc:
        classify_fock(vacuum(3), ModePhases.zero(3))
    assert exc.value.vacuum


def test_inner_product_orthonormal_basis():
    assert inner_product(ket(2, (1, 0)), ket(2, (1, 0))) == pytest.approx(1.0)
    assert inner_product(ket(2, (1, 0)), ket(2, (0, 1))) == 0.0


def test_inner_product_conjugate_linear_first_argument():
    a = StateVector(1, {(1,): 2.0j}, 1)
    b = StateVector(1, {(1,): 3.0}, 1)
    assert inner_product(a, b) == pytest.approx(-6.0j)
    assert inner_product(b, a) == pytest.approx(6.0j)


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner_product(ket(2, (1, 0)), ket(3, (1, 0, 0)))


def test_tensor_concatenates_modes():
    left = StateVector(2, {(1, 0): 0.6, (0, 1): 0.8}, 1)
    right = ket(1, (2,), cutoff=2)
    prod = tensor(left, right)
    assert prod.modes == 3
    assert prod.amplitude((1, 0, 2)) == pytest.approx(0.6)
    assert prod.amplitude((0, 1, 2)) == pytest.approx(0.8)


def test_state_vector_prunes_tiny_amplitudes():
    state = StateVector(2, {(1, 0): 1.0, (0, 1): 1e-16}, 1)
    assert (0, 1) not in state.terms


def test_terms_view_is_read_only():
    state = StateVector(2, {(1, 0): 0.6, (0, 1): 0.8}, 1)
    with pytest.raises(TypeError):
        state.terms[(1, 0)] = 1.0
    with pytest.raises(AttributeError):
        state.terms = {}
    with pytest.raises(AttributeError):
        state.modes = 3
    assert state.amplitude((1, 0)) == 0.6
    assert state.norm() == pytest.approx(1.0)


def test_library_reads_no_terms_view(monkeypatch):
    def refuse(self):
        raise AssertionError("library code read StateVector.terms")

    monkeypatch.setattr(StateVector, "terms", property(refuse))
    phases = ModePhases.locked(3, 0.4)
    photon = single_photon_state(phases)
    pair = StateVector(2, {(1, 0): 0.6, (0, 1): 0.8}, 1)
    assert inner_product(photon, photon) == pytest.approx(1.0)
    assert photon.amplitude((0, 1, 0)) == pytest.approx(cmath.exp(-0.4j) / math.sqrt(3))
    assert apply_field(photon, phases).amplitude((0, 0, 0)) == pytest.approx(math.sqrt(3))
    assert annihilate(pair, 0).amplitude((0, 0)) == pytest.approx(0.6)
    assert create(pair, 1).is_zero()
    assert tensor(pair, pair).amplitude((1, 0, 0, 1)) == pytest.approx(0.48)
    assert inner_product(vacuum(2), vacuum(2)) == 1.0
    assert classify_fock(photon, phases).label is Label.BRIGHT
    bright, dark = two_mode_bright(4, 0.3), two_mode_dark(4, 0.3)
    assert inner_product(bright, dark) == pytest.approx(0.0, abs=1e-12)
    assert classify_fock(dark, ModePhases(2, (0.0, 0.3))).beta == pytest.approx(0.0, abs=1e-12)
    coherent = coherent_state(CoherentSpec(0.3, ModePhases.zero(2)))
    assert inner_product(coherent, coherent) == pytest.approx(1.0, abs=1e-12)
    basis = build_basis(3, "dft")
    back = from_collective(to_collective(photon, basis, phases), basis, phases)
    assert inner_product(back, photon) == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf), -math.inf])
def test_state_vector_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="finite"):
        StateVector(2, {(1, 0): bad, (0, 1): 1.0}, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mode_phases_reject_non_finite_phases(bad):
    with pytest.raises(ValueError, match="finite"):
        ModePhases(3, (0.0, bad, 0.0))
    # Not the "zero vector" error that a pruned NaN state used to give.
    with pytest.raises(ValueError, match="finite"):
        classify_fock(single_photon_state(ModePhases.locked(4, bad)), ModePhases.zero(4))


def test_state_vector_rejects_over_cutoff_terms():
    with pytest.raises(ValueError):
        StateVector(2, {(2, 1): 1.0}, cutoff=2)


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: ModePhases(0, ()), ValueError, "at least one mode"),
        (lambda: ModePhases(3, (0.0, 1.0)), DimensionMismatchError, "2 phases for 3 modes"),
        (lambda: StateVector(0), ValueError, "at least one mode"),
        (lambda: StateVector(2, {(1,): 1.0}), DimensionMismatchError, "1 entries for 2 modes"),
        (lambda: StateVector(2, {(-1, 1): 1.0}, 1), ValueError, "negative occupation"),
        (lambda: StateVector(1, cutoff=-1), ValueError, "cutoff must be non-negative"),
        (lambda: vacuum(0), ValueError, "at least one mode"),
        (lambda: StateVector(2).normalized(), ZeroDivisionError, "zero vector"),
    ],
    ids=["no-phases", "phase-count", "no-modes", "short-row", "negative", "cutoff", "vacuum",
         "normalize-empty"],
)
def test_malformed_phases_and_states_are_refused(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_mode_phases_reduce_to_standard_interval():
    phases = ModePhases(3, (-0.1, 7.0, 2 * math.pi))
    for theta in phases.theta:
        assert 0.0 <= theta < 2 * math.pi
    assert phases.theta[2] == 0.0


def test_locked_phase_ladder_steps():
    step = 0.5  # power of two: the m*step recurrence is exact in floats
    phases = ModePhases.locked(5, step)
    raw = [m * step for m in range(5)]
    for m in range(1, 5):
        assert raw[m] - raw[m - 1] == step
    np.testing.assert_allclose(phases.theta, raw, atol=0)


@pytest.mark.parametrize("k", [0, 1, 100, 511, 512, 513, 800, 1000, 1020])
def test_norm_and_normalized_survive_overflowing_squares(k):
    # The sum of squares, about 4**k, overflows from k = 513; the power-of-two rescale is exact.
    state = coherent_state(CoherentSpec(0.5, ModePhases.locked(3, 0.2)))
    scaled = StateVector._from_arrays(state.modes, state._occ, state._amp * 2.0**k, state.cutoff)
    assert scaled.norm() == state.norm() * 2.0**k
    normalized = scaled.normalized()
    assert np.array_equal(normalized._occ, state._occ)
    assert np.array_equal(normalized._amp, state.normalized()._amp)


def test_normalized_keeps_a_norm_past_the_float_range():
    state = StateVector(2, {(1, 0): 3e154, (0, 1): 4e154}, 1)
    assert state.norm() == pytest.approx(5e154, rel=1e-15)
    big = StateVector(2, {(1, 0): 1.5e308, (0, 1): -1.5e308}, 1)
    assert big.norm() == math.inf
    for got, want in ((state, [0.6, 0.8]), (big, [SQRT2 / 2, -SQRT2 / 2])):
        assert got.normalized()._amp == pytest.approx(want, rel=1e-15)


def _layout_bytes(layout):
    """The array bytes a layout holds: its occupations, totals and any kept lowering."""
    kept = layout._lowering
    arrays = [layout.occ, layout.photons]
    if kept is not None:
        arrays += [kept.slot, kept.term, kept.index]
    return sum(a.nbytes for a in arrays)


def test_states_of_one_size_share_a_read_only_layout():
    one = single_photon_state(ModePhases.zero(5))
    two = single_photon_state(ModePhases.locked(5, 0.3))
    back = from_collective(np.eye(5)[2], build_basis(5, "dft"), ModePhases.zero(5))
    assert one._layout is two._layout is back._layout
    assert one.normalized()._layout is one._layout
    assert two_mode_bright(7, 0.2)._layout is two_mode_dark(7, 1.0)._layout
    with pytest.raises(ValueError, match="read-only"):
        one._occ[0, 0] = 2
    with pytest.raises(ValueError, match="read-only"):
        one._photons[0] = 2


def test_shared_layouts_pin_at_most_the_cache_bound(monkeypatch):
    monkeypatch.setattr(fock, "_SHARED", {})
    for modes in range(2, 65):
        state = single_photon_state(ModePhases.zero(modes))
        apply_field(state, ModePhases.zero(modes))  # keeps the lowering
    for photons in range(61):
        state = two_mode_bright(photons)
        apply_field(state, ModePhases.zero(2))
    held = list(fock._SHARED.values())
    assert all(layout._lowering is not None for layout in held)
    assert sum(map(_layout_bytes, held)) <= fock.LAYOUT_CACHE_BYTES
    assert sum(map(_layout_bytes, held)) == sum(map(fock._pinned_bytes, held))
    # A set past the bound (6504 bytes) is validated per call, and keeps no lowering.
    monkeypatch.setattr(fock, "LAYOUT_CACHE_BYTES", 6000)
    big = [two_mode_bright(90), two_mode_bright(90)]
    assert big[0]._occ.shape == (91, 2)  # nothing pruned
    assert big[0]._layout is not big[1]._layout
    apply_field(big[0], ModePhases.zero(2))
    assert big[0]._layout._lowering is None
    assert ("ladder", 90) not in fock._SHARED
    # Within the lower bound the oldest layouts leave first.
    two_mode_bright(80)
    assert list(fock._SHARED) == [("ladder", 80)]
    assert fock._pinned_bytes(fock._SHARED["ladder", 80]) == 5784


@pytest.mark.parametrize("build, key", [
    (lambda: single_photon_state(ModePhases.zero(6)), ("eye", 6)),
    (lambda: two_mode_dark(9), ("ladder", 9)),
    (lambda: coherent_state(CoherentSpec(0.5, ModePhases.zero(3))), ("simplex", 3)),
])
def test_pinned_bytes_count_the_kept_lowering(build, key, monkeypatch):
    monkeypatch.setattr(fock, "_SHARED", {})
    state = build()
    classify_fock(state, ModePhases.zero(state.modes))  # keeps the lowering
    layout = fock._SHARED[key]
    assert layout._lowering is not None and layout.shared
    assert fock._pinned_bytes(layout) == _layout_bytes(layout)


def test_a_pruned_state_leaves_its_shared_layout_unchanged():
    shared = single_photon_state(ModePhases.zero(4))
    apply_field(shared, ModePhases.zero(4))
    layout, lowering = shared._layout, shared._layout._lowering
    amp = np.array([0.5, 1e-17, 0.5, 0.5j])
    pruned = StateVector._from_arrays(4, layout, amp, 1)
    assert pruned._layout is not layout
    assert pruned._occ.tolist() == [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert layout.occ.tolist() == np.eye(4, dtype=int).tolist()
    assert layout._lowering is lowering
    assert single_photon_state(ModePhases.zero(4))._layout is layout
    assert apply_field(pruned, ModePhases.zero(4)).amplitude((0, 0, 0, 0)) == 1 + 0.5j
