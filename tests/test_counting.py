"""Dark-state counts: closed form vs exhaustive enumeration, locked phase law."""

import itertools
import math

import numpy as np
import pytest

from brightdark.classify import Label, classify_fock
from brightdark.counting import (
    bright_to_dark_ratio,
    count_pi_phase_dark,
    dark_census,
    enumerate_sign_states,
    locked_dark_phases,
)
from brightdark.errors import ResourceLimitError
from brightdark.fock import ModePhases
from brightdark.states import single_photon_state


@pytest.mark.parametrize("m,expected", [(2, 1), (4, 3), (6, 10), (8, 35)])
def test_closed_form_small_values(m, expected):
    assert count_pi_phase_dark(m) == expected


def test_closed_form_rejects_odd():
    with pytest.raises(ValueError, match="enumerate_sign_states"):
        count_pi_phase_dark(5)


def test_closed_form_is_exact_big_integer():
    m = 40000
    value = count_pi_phase_dark(m)
    assert value == math.comb(m, m // 2) // 2
    assert value % 1 == 0


def test_enumeration_m2():
    states = enumerate_sign_states(2)
    assert states.dtype == np.int8
    np.testing.assert_array_equal(states, [[1, -1]])


def test_enumeration_m4():
    states = enumerate_sign_states(4)
    assert states.shape == (3, 4)
    assert (states[:, 0] == 1).all()
    assert (states.sum(axis=1) == 0).all()


def test_enumeration_odd_is_empty():
    assert enumerate_sign_states(3).shape == (0, 3)
    assert enumerate_sign_states(7).shape == (0, 7)


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12, 14, 16])
def test_enumeration_matches_closed_form(m):
    assert len(enumerate_sign_states(m)) == count_pi_phase_dark(m)


@pytest.mark.parametrize("m", range(1, 13))
def test_enumeration_matches_product_oracle(m):
    # Entry 1 is the lowest mask bit, so it varies fastest: product's last slot.
    want = [
        (1,) + rest[::-1]
        for rest in itertools.product((1, -1), repeat=m - 1)
        if 1 + sum(rest) == 0
    ]
    states = enumerate_sign_states(m)
    assert states.dtype == np.int8
    np.testing.assert_array_equal(states, np.array(want, dtype=np.int8).reshape(-1, m))


def test_enumeration_resource_bound():
    with pytest.raises(ResourceLimitError):
        enumerate_sign_states(25)


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_every_sign_vector_is_dark(m):
    # Cross-module check: balanced signs as 0/pi phases give dark states.
    detection = ModePhases.zero(m)
    for vec in enumerate_sign_states(m):
        phases = ModePhases(m, tuple(0.0 if s == 1 else math.pi for s in vec))
        result = classify_fock(single_photon_state(phases), detection)
        assert result.label is Label.DARK


def test_monotonicity():
    counts = [count_pi_phase_dark(m) for m in range(2, 18, 2)]
    assert all(a < b for a, b in zip(counts, counts[1:]))
    ratios = [bright_to_dark_ratio(m) for m in range(2, 18)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_locked_dark_phases_m2():
    assert locked_dark_phases(2) == pytest.approx([math.pi])


def test_locked_dark_phases_m4():
    assert locked_dark_phases(4) == pytest.approx(
        [math.pi / 2, math.pi, 3 * math.pi / 2]
    )


def test_locked_dark_phases_m7_all_verified():
    phases = locked_dark_phases(7)
    assert phases == pytest.approx([2 * math.pi * k / 7 for k in range(1, 7)])


def test_locked_dark_phase_count_is_m_minus_1():
    for m in range(2, 12):
        assert len(locked_dark_phases(m)) == m - 1


def test_locked_dark_phases_always_checks_the_labels():
    # At a tolerance far below rounding no step is labelled: the K = 0 check fails first.
    with pytest.raises(AssertionError, match=r"phase 0\.0 classified Intermediate, not Bright"):
        locked_dark_phases(7, tol=1e-300)


@pytest.mark.parametrize("m,expected", [(2, 1.0), (4, 1 / 3)])
def test_ratio_small(m, expected):
    assert bright_to_dark_ratio(m) == pytest.approx(expected)


@pytest.mark.parametrize("count", [bright_to_dark_ratio, locked_dark_phases])
def test_ratio_and_dark_phases_need_two_modes(count):
    with pytest.raises(ValueError, match="at least 2 modes"):
        count(1)


def test_ratio_large_m():
    assert bright_to_dark_ratio(40000) == pytest.approx(2.50006e-5, rel=1e-4)


def test_census_even_with_enumeration():
    census = dark_census(6, enumerate_states=True)
    assert census.pi_phase_count == 10
    assert census.enumerated_count == 10
    assert census.locked_dark_count == 5
    assert census.bright_count == 1
    assert census.ratio == pytest.approx(0.2)


def test_census_odd():
    census = dark_census(7, enumerate_states=True)
    assert census.pi_phase_count is None
    assert census.enumerated_count == 0
    assert census.locked_dark_count == 6
