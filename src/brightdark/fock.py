"""Sparse truncated Fock space for M bosonic modes.

A state is stored as an occupation matrix (one row ``(n_0, ..., n_{M-1})``
per term) and an amplitude vector; only nonzero terms are kept.  Lookups
match a row, inner products pair the sorted rows of two states, and ladder
operators, tensor products and the detection-point field operator
``E = sum_m exp(i*theta_m) a_m`` (``a_m`` lowers mode ``m``) index the
arrays; ``terms`` is a read-only tuple-keyed view for outside callers.
The field operator ranks occupations in the combinatorial number system.
Ranks are exact in int64 while ``C(top + M, M) < 2**63`` (``top`` the
highest occupied sector), and the rank table has ``(M + 1) * (top + 1)``
cells; past either bound (``RANK_LIMIT``, ``RANK_TABLE_MAX``) it raises
ResourceLimitError before allocating.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatchError, ResourceLimitError

# Amplitudes below this magnitude are dropped after every operation so that
# exact zeros stay exact in sparse comparisons.
PRUNE_THRESHOLD = 1e-15

TWO_PI = 2.0 * math.pi


def _significant(amp: np.ndarray) -> np.ndarray:
    """Mask of the amplitudes kept.  ``hypot`` gives the magnitude that Python's
    ``abs`` gives; numpy's complex ``abs`` can differ from it in the last bit,
    which moves terms at the threshold across it."""
    return np.hypot(amp.real, amp.imag) >= PRUNE_THRESHOLD


def _reduce_phase(x: float) -> float:
    """Reduce a phase to [0, 2*pi); guards the x % 2pi == 2pi rounding case."""
    r = x % TWO_PI
    if r >= TWO_PI:
        r = 0.0
    return r


@dataclass(frozen=True)
class ModePhases:
    """Per-mode phase assignment theta_m in radians, stored in [0, 2*pi)."""

    modes: int
    theta: tuple[float, ...]

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError(f"need at least one mode, got {self.modes}")
        if len(self.theta) != self.modes:
            raise DimensionMismatchError(
                f"{len(self.theta)} phases for {self.modes} modes"
            )
        if not all(math.isfinite(t) for t in self.theta):
            raise ValueError(f"phases must be finite, got {self.theta}")
        object.__setattr__(
            self, "theta", tuple(_reduce_phase(t) for t in self.theta)
        )

    @classmethod
    def zero(cls, modes: int) -> "ModePhases":
        return cls(modes, (0.0,) * modes)

    @classmethod
    def locked(cls, modes: int, step: float) -> "ModePhases":
        """Linear phase ladder theta_m = m * step (equal spacing between modes)."""
        return cls(modes, tuple(m * step for m in range(modes)))


class StateVector:
    """Pure state of ``modes`` bosonic modes, truncated at ``cutoff`` total photons.

    The terms are held as a ``(T, modes)`` int64 occupation matrix and a
    length-T amplitude vector.  ``terms``, the read-only map from occupation
    tuples to amplitudes, is built from them the first time it is read.
    Instances are immutable values: every operation returns a new StateVector.
    """

    def __init__(self, modes: int, terms: Mapping = MappingProxyType({}), cutoff: int = 1):
        if modes < 1:
            raise ValueError(f"need at least one mode, got {modes}")
        keys = list(terms)
        wrong = next((occ for occ in keys if len(occ) != modes), None)
        if wrong is not None:
            raise _length_error(wrong, modes)
        occ = np.array(keys, dtype=np.int64).reshape(len(keys), modes)
        self._store(modes, cutoff, occ, np.array(list(terms.values()), dtype=complex))

    @classmethod
    def _from_arrays(
        cls, modes: int, occ: np.ndarray, amp: np.ndarray, cutoff: int
    ) -> "StateVector":
        """Build from an occupation matrix and amplitude vector, with the same checks."""
        state = cls.__new__(cls)
        state._store(modes, cutoff, occ, amp)
        return state

    def __setattr__(self, name, value):
        raise AttributeError(f"StateVector is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        return (
            f"StateVector(modes={self.modes}, cutoff={self.cutoff}, "
            f"occupations={self._occ.tolist()}, amplitudes={self._amp.tolist()})"
        )

    def _store(self, modes: int, cutoff: int, occ: np.ndarray, amp: np.ndarray) -> None:
        """Validate the term arrays in one pass, prune tiny amplitudes, keep them."""
        if modes < 1:
            raise ValueError(f"need at least one mode, got {modes}")
        if cutoff < 0:
            raise ValueError(f"cutoff must be non-negative, got {cutoff}")
        if occ.shape[1:] != (modes,):
            raise _length_error(occ[0], modes)
        totals = occ.sum(axis=1)
        top = int(totals.max(initial=0))
        if top > cutoff or occ.min(initial=0) < 0:
            negative = (occ < 0).any(axis=1)
            row = int((negative | (totals > cutoff)).argmax())
            occ_t = tuple(occ[row].tolist())
            if negative[row]:
                raise ValueError(f"negative occupation in {occ_t}")
            raise ValueError(f"occupation {occ_t} exceeds photon cutoff {cutoff}")
        if not np.isfinite(amp).all():
            raise ValueError(f"amplitudes must be finite, got {amp[~np.isfinite(amp)][0]}")
        keep = _significant(amp)
        if not keep.all():
            occ, amp = occ[keep], amp[keep]
            top = int(totals[keep].max(initial=0))
        # Straight into the instance dict: __setattr__ refuses every write.
        self.__dict__.update(modes=modes, cutoff=cutoff, _occ=occ, _amp=amp, _top=top)

    @cached_property
    def terms(self) -> Mapping[tuple[int, ...], complex]:
        """Read-only map from occupation tuples to amplitudes, built on first read."""
        # Zipping the column lists makes the key tuples without a list per term.
        keys = zip(*self._occ.T.tolist())
        return MappingProxyType(dict(zip(keys, self._amp.tolist())))

    def norm(self) -> float:
        return math.sqrt(np.vdot(self._amp, self._amp).real)

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero vector")
        return StateVector._from_arrays(self.modes, self._occ, self._amp / n, self.cutoff)

    def is_zero(self) -> bool:
        return self._amp.size == 0

    def top_sector(self) -> int:
        """Largest total photon number carried by any stored term (0 if empty)."""
        return self._top

    def amplitude(self, occ: tuple[int, ...]) -> complex:
        row = np.asarray(occ)
        if row.shape != (self.modes,):
            raise _length_error(occ, self.modes)
        return complex(self._amp[(self._occ == row).all(axis=1)].sum())  # rows are distinct


def _length_error(occ, modes: int) -> DimensionMismatchError:
    occ = tuple(int(n) for n in occ)
    return DimensionMismatchError(
        f"occupation {occ} has {len(occ)} entries for {modes} modes"
    )


def vacuum(modes: int, cutoff: int = 0) -> StateVector:
    return StateVector._from_arrays(modes, np.array([(0,) * modes]), np.ones(1, complex), cutoff)


def _check_mode(state: StateVector, mode: int) -> None:
    if not 0 <= mode < state.modes:
        raise IndexError(f"mode {mode} out of range for {state.modes} modes")


def annihilate(state: StateVector, mode: int) -> StateVector:
    """Apply a_mode: |..., n, ...> -> sqrt(n) |..., n-1, ...>."""
    _check_mode(state, mode)
    n = state._occ[:, mode]
    keep = n > 0
    occ = state._occ[keep]
    occ[:, mode] -= 1  # one-to-one on the kept terms: no two land on one occupation
    amp = np.sqrt(n[keep]) * state._amp[keep]
    return StateVector._from_arrays(state.modes, occ, amp, state.cutoff)


def create(state: StateVector, mode: int) -> StateVector:
    """Apply a_mode^dagger; terms raised past the cutoff are truncated away."""
    _check_mode(state, mode)
    keep = state._occ.sum(axis=1) < state.cutoff
    occ = state._occ[keep]
    occ[:, mode] += 1  # one-to-one, as in annihilate
    amp = np.sqrt(occ[:, mode]) * state._amp[keep]
    return StateVector._from_arrays(state.modes, occ, amp, state.cutoff)


# Bounds of the field operator's rank index: the rank range C(top + M, M)
# and the rank table's (M + 1) * (top + 1) cells.
RANK_LIMIT = 2**63
RANK_TABLE_MAX = 10_000_000


def _multichoose(modes: int, top: int) -> np.ndarray:
    """Table ``P[j, s] = C(s + j - 1, j)`` for j = 0..modes, s = 0..top.

    By Pascal's rule each row past s = 0 is the cumulative sum of the row
    above, and each column the cumulative sum of the column before; the
    table is filled along its shorter side.
    """
    table = np.zeros((modes + 1, top + 1), dtype=np.int64)
    if modes <= top:
        table[0] = 1
        for j in range(1, modes + 1):
            np.cumsum(table[j - 1, 1:], out=table[j, 1:])
    else:
        table[0, 0] = 1
        for s in range(1, top + 1):
            np.cumsum(table[:, s - 1], out=table[:, s])
    return table


def _lowered_ranks(occ: np.ndarray, top: int) -> np.ndarray:
    """Rank of every term with mode m lowered by one, as a ``(T, M)`` matrix.

    Occupations are indexed by their rank in the combinatorial number system:
    with ``s_k`` the photons in the last k+1 modes, ``rank = sum_k C(s_k + k, k+1)``.
    Lowering mode m lowers every ``s_k`` with ``k >= M-1-m`` by one, so by
    Pascal's rule it subtracts ``sum_{k >= M-1-m} C(s_k + k - 1, k)``: one gather
    and one cumulative sum give every lowered rank.  Entries where mode m is
    empty are meaningless.
    """
    modes = occ.shape[1]
    table = _multichoose(modes, top)
    # suffix[:, m] is the photon count of modes m..M-1, i.e. s_k for k = M-1-m.
    suffix = np.cumsum(occ[:, ::-1], axis=1)[:, ::-1]
    k = np.arange(modes - 1, -1, -1)
    rank = table[k + 1, suffix].sum(axis=1)
    drop = np.cumsum(table[k, suffix], axis=1)
    return np.subtract(rank[:, None], drop, out=drop)


def _lower(state: StateVector, phases: ModePhases):
    """Apply E = sum_m exp(i*theta_m) a_m to the stored arrays.

    Returns the summed amplitude of each output slot and the ``(T, M)`` slot
    matrix: entry (t, m) is where lowering mode m of term t lands, or
    ``len(amplitudes)`` where mode m of term t is empty.  Entries are summed
    in term-major, mode-minor order, as a loop over the terms would.
    """
    if phases.modes != state.modes:
        raise DimensionMismatchError(
            f"{phases.modes} phases for a {state.modes}-mode state"
        )
    modes, occ = state.modes, state._occ
    top = state.top_sector()
    # The cheap table bound first: it keeps math.comb small.
    if (modes + 1) * (top + 1) > RANK_TABLE_MAX or math.comb(top + modes, modes) >= RANK_LIMIT:
        raise ResourceLimitError(
            f"{modes} modes up to {top} photons exceed the Fock rank index bounds"
        )
    slot = _lowered_ranks(occ, top)
    occupied = occ > 0
    entries = np.count_nonzero(occupied)
    lo = slot.min(where=occupied, initial=RANK_LIMIT - 1)
    hi = slot.max(where=occupied, initial=0)
    if entries and hi - lo < entries:  # the ranks fill their range, as for coherent states
        slot -= lo
        count = int(hi - lo) + 1
    else:
        distinct, inverse = np.unique(slot[occupied], return_inverse=True)
        slot[occupied] = inverse
        count = distinct.size
    slot[~occupied] = count
    # exp(i*theta_m) * sqrt(n) for every mode m and photon number n.
    root = np.exp(1j * np.asarray(phases.theta))[:, None] * np.sqrt(np.arange(top + 1))
    weight = root[np.arange(modes), occ]
    weight *= state._amp[:, None]
    flat = slot.ravel()
    amps = np.empty(count, dtype=complex)
    amps.real = np.bincount(flat, weight.real.ravel(), count + 1)[:count]
    amps.imag = np.bincount(flat, weight.imag.ravel(), count + 1)[:count]
    return amps, slot


def apply_field(state: StateVector, phases: ModePhases) -> StateVector:
    """Detection-point field operator: sum_m exp(i*theta_m) a_m, linear in the state."""
    amps, slot = _lower(state, phases)
    # Every entry that lands on a slot names its occupation; -1 marks slots
    # no entry reaches, and the last cell collects the empty modes.
    source = np.full(amps.size + 1, -1)
    source[slot.ravel()] = np.arange(slot.size)
    del slot  # the (T, M) slots are not needed while the output is built
    reached = source[:-1] >= 0
    rows, cols = np.divmod(source[:-1][reached], state.modes)
    occ = state._occ[rows]
    occ[np.arange(rows.size), cols] -= 1
    return StateVector._from_arrays(state.modes, occ, amps[reached], state.cutoff)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.modes != b.modes:
        raise DimensionMismatchError(
            f"inner product between {a.modes}- and {b.modes}-mode states"
        )
    # Rows are distinct in each state, so equal sorted neighbours are one row of a, one of b.
    occ = np.vstack([a._occ, b._occ])
    order = np.lexsort(occ.T)
    occ, amp = occ[order], np.concatenate([a._amp.conj(), b._amp])[order]
    pair = (occ[1:] == occ[:-1]).all(axis=1)
    return complex((amp[:-1][pair] * amp[1:][pair]).sum())


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; modes of ``b`` are appended after those of ``a``."""
    occ = np.hstack([np.repeat(a._occ, b._amp.size, axis=0), np.tile(b._occ, (a._amp.size, 1))])
    amp = np.multiply.outer(a._amp, b._amp).ravel()
    return StateVector._from_arrays(a.modes + b.modes, occ, amp, a.cutoff + b.cutoff)
