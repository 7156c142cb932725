"""Sparse truncated Fock space for M bosonic modes.

A state is stored as an occupation layout (one row ``(n_0, ..., n_{M-1})``
per term, read-only, with the row totals, validated once) and an amplitude
vector; only nonzero terms are kept.  States built on the same occupations
share one layout: ``normalized`` keeps its state's, and the constructors
whose occupations depend only on a size take theirs from a cache of at
most LAYOUT_CACHE_BYTES (``_shared_layout``).  Lookups match a row, inner
products pair the sorted rows of two states, and ladder operators, tensor
products and the detection-point field operator
``E = sum_m exp(i*theta_m) a_m`` (``a_m`` lowers mode ``m``) index the
arrays; ``terms`` is a read-only tuple-keyed view for outside callers.
The field operator ranks occupations in the combinatorial number system.
Ranks are exact in int64 while ``C(top + M, M) < 2**63`` (``top`` the
highest occupied sector), and the rank table has ``(M + 1) * (top + 1)``
cells; past either bound (``RANK_LIMIT``, ``RANK_TABLE_MAX``) it raises
ResourceLimitError before allocating.  Its lowering of a layout, the
output slot of every entry (t, m), belongs to the layout: a cached layout
keeps that of its occupied entries, and any other makes that of all its
T*M cells per call, as on a dense layout (coherent states) carrying the
empty modes costs less than dropping them.

The kernels make flat passes over the ``(T, M)`` arrays.  With M a few
modes, numpy runs a broadcast multi-index gather, ``sum(axis=1)`` or
``cumsum(axis=1)`` as one short inner loop per row, at 4-5 ns an element
(numpy 2.4, one x86-64 core), where a ``take`` from the raveled table costs
about 0.8 ns, a product with ``ones(M)`` about 1 ns and the M - 1 column
adds of a running sum about 0.8 ns.  So gathers index raveled tables, sums
over the modes are matrix-vector products, and running sums over the modes
are column adds up to ``_COLUMN_MODES`` modes and ``np.cumsum`` past it.
The prune mask squares the amplitudes (2.6 ns a value) and calls ``hypot``
(8.7 ns) only near the threshold.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, ResourceLimitError

# Amplitudes below this magnitude are dropped after every operation so that
# exact zeros stay exact in sparse comparisons.
PRUNE_THRESHOLD = 1e-15

TWO_PI = 2.0 * math.pi


# Squared magnitudes decide every amplitude outside this band around
# PRUNE_THRESHOLD**2: they carry a few ulps of rounding and hypot one, so
# 2**-40 leaves a wide margin.  hypot decides inside the band, and for arrays
# below _SQUARES_MIN values, where its one call costs less than the squares'.
_BAND = (PRUNE_THRESHOLD**2 * (1.0 - 2.0**-40), PRUNE_THRESHOLD**2 * (1.0 + 2.0**-40))
_SQUARES_MIN = 512


def _significant(amp: np.ndarray) -> np.ndarray:
    """Mask of the amplitudes kept: those whose magnitude, as Python's ``abs``
    gives it, reaches PRUNE_THRESHOLD.  ``hypot`` gives that magnitude; numpy's
    complex ``abs`` can differ from it in the last bit, which moves terms at
    the threshold across it."""
    re, im = amp.real, amp.imag
    if amp.size < _SQUARES_MIN:
        return np.hypot(re, im) >= PRUNE_THRESHOLD
    with np.errstate(over="ignore"):  # an inf square is decided right: kept
        square = re * re + im * im
    keep = square >= _BAND[0]
    near = keep == (square < _BAND[1])  # inside the band, or NaN
    if near.any():
        keep[near] = np.hypot(re[near], im[near]) >= PRUNE_THRESHOLD
    return keep


def _sum_squares(x: np.ndarray) -> float:
    """``sum |x|**2``, by ``np.einsum`` over the float view and not by BLAS:
    OpenBLAS's ``vdot`` sums in an order that follows its thread count, so the
    last bit of a sum moved with ``OPENBLAS_NUM_THREADS``."""
    f = x.view(np.float64)
    return float(np.einsum("i,i", f, f))


def _square_sum(x: np.ndarray) -> tuple[float, float]:
    """``sum |x * scale|**2`` and ``scale``, which is 1 unless the sum overflows.

    Then it is ``_unit_scale(x)``, and the sum is redone on ``x * scale``.  A
    power-of-two product is exact, so the sum over ``scale**2`` keeps its bits.
    """
    square = _sum_squares(x)
    if square < math.inf:
        return square, 1.0
    scale = _unit_scale(x)
    return _sum_squares(x * scale), scale


def _unit_scale(x: np.ndarray) -> float:
    """The power of two that brings the largest real or imaginary part of x into [0.5, 1)."""
    largest = max(np.abs(x.real).max(initial=0.0), np.abs(x.imag).max(initial=0.0))
    return 2.0 ** -math.frexp(largest)[1]


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


class _Layout:
    """The occupation side of a state: a read-only ``(T, M)`` int64 matrix of
    distinct rows, the T photon totals and the top sector, validated once.

    States whose amplitudes change over the same occupations (``normalized``,
    the size-keyed constructors through ``_shared_layout``) hold one layout;
    ``states.coherent_state`` builds its own, valid by construction.
    ``lowering()`` gives the field operator's slots for it; a shared layout
    keeps those of its occupied entries for its next state, any other
    computes those of every cell per call.
    """

    __slots__ = ("occ", "photons", "top", "shared", "_lowering")

    def __init__(self, occ: np.ndarray, photons: np.ndarray, top: int):
        occ.setflags(write=False)
        photons.setflags(write=False)
        self.occ, self.photons, self.top = occ, photons, top
        self.shared, self._lowering = False, None

    @classmethod
    def validated(cls, modes: int, cutoff: int, occ: np.ndarray) -> "_Layout":
        """Check every row: ``modes`` entries, none negative, at most ``cutoff`` photons."""
        if occ.shape[1:] != (modes,):
            raise _length_error(occ[0], modes)
        totals = occ @ np.ones(modes, dtype=np.int64)
        top = int(totals.max(initial=0))
        if top > cutoff or occ.min(initial=0) < 0:
            negative = (occ < 0).any(axis=1)
            row = int((negative | (totals > cutoff)).argmax())
            occ_t = tuple(occ[row].tolist())
            if negative[row]:
                raise ValueError(f"negative occupation in {occ_t}")
            raise ValueError(f"occupation {occ_t} exceeds photon cutoff {cutoff}")
        return cls(occ, totals, top)

    def rows(self, keep: np.ndarray) -> "_Layout":
        """The kept rows, as a new layout: rows of a valid layout need no checks."""
        photons = self.photons[keep]
        return _Layout(self.occ[keep], photons, int(photons.max(initial=0)))

    def lowering(self) -> "_Lowering":
        """The field operator's lowering of ``occ``: kept if the layout is shared."""
        low = self._lowering
        if low is None:
            low = _lowering(self.occ, self.top, self.shared)
            if self.shared:
                self._lowering = low
        return low


class StateVector:
    """Pure state of ``modes`` bosonic modes, truncated at ``cutoff`` total photons.

    The terms are held as an occupation layout (see ``_Layout``: the ``(T, modes)``
    int64 occupation matrix and the T photon totals) and a length-T amplitude
    vector.  ``terms``, the read-only map from occupation tuples to amplitudes, is
    built from them the first time it is read.
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
        cls, modes: int, occ: "np.ndarray | _Layout", amp: np.ndarray, cutoff: int
    ) -> "StateVector":
        """Build from an occupation matrix or layout and an amplitude vector, with
        the same checks."""
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

    def _store(self, modes: int, cutoff: int, occ, amp: np.ndarray) -> None:
        """Validate a raw occupation matrix into a layout (a layout given was validated
        for ``modes`` and a cutoff of at most ``cutoff``), check the amplitudes, prune
        tiny ones, keep them."""
        if modes < 1:
            raise ValueError(f"need at least one mode, got {modes}")
        if cutoff < 0:
            raise ValueError(f"cutoff must be non-negative, got {cutoff}")
        layout = occ if isinstance(occ, _Layout) else _Layout.validated(modes, cutoff, occ)
        if not np.isfinite(amp).all():
            raise ValueError(f"amplitudes must be finite, got {amp[~np.isfinite(amp)][0]}")
        keep = _significant(amp)
        if not keep.all():
            layout, amp = layout.rows(keep), amp[keep]
        # Straight into the instance dict: __setattr__ refuses every write.
        self.__dict__.update(modes=modes, cutoff=cutoff, _layout=layout, _occ=layout.occ,
                             _amp=amp, _photons=layout.photons, _top=layout.top)

    @cached_property
    def terms(self) -> Mapping[tuple[int, ...], complex]:
        """Read-only map from occupation tuples to amplitudes, built on first read."""
        # Zipping the column lists makes the key tuples without a list per term.
        keys = zip(*self._occ.T.tolist())
        return MappingProxyType(dict(zip(keys, self._amp.tolist())))

    def norm(self) -> float:
        square, scale = _square_sum(self._amp)
        return math.sqrt(square) / scale

    def normalized(self) -> "StateVector":
        square, scale = _square_sum(self._amp)
        if square == 0.0:
            raise ZeroDivisionError("cannot normalize the zero vector")
        # The scaled amplitudes over their norm: a norm past the float range still divides.
        amp = self._amp * scale / math.sqrt(square)
        return StateVector._from_arrays(self.modes, self._layout, amp, self.cutoff)

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
    keep = state._photons < state.cutoff
    occ = state._occ[keep]
    occ[:, mode] += 1  # one-to-one, as in annihilate
    amp = np.sqrt(occ[:, mode]) * state._amp[keep]
    return StateVector._from_arrays(state.modes, occ, amp, state.cutoff)


# Bounds of the field operator's rank index: the rank range C(top + M, M)
# and the rank table's (M + 1) * (top + 1) cells.
RANK_LIMIT = 2**63
RANK_TABLE_MAX = 10_000_000
# Array bytes that the shared occupation layouts may pin, lowerings included.
LAYOUT_CACHE_BYTES = 1 << 20
# Up to this many modes the running sums over modes are column adds, which
# match or beat np.cumsum on the short rows at every term count.  On wider
# states with few terms, such as single photons in up to 64 modes, one
# np.cumsum call costs less than M - 1 column passes.
_COLUMN_MODES = 4

_SHARED: dict = {}  # key -> _Layout, oldest first
_SHARED_LOCK = threading.Lock()


def _pinned_bytes(layout: _Layout) -> int:
    """The array bytes a shared layout holds once its lowering is kept: at most
    three int64 words an occupied entry, its slot, row and root-table index.  An
    occupation matrix that views a larger one counts as a matrix of its own."""
    return layout.occ.nbytes + layout.photons.nbytes + 24 * np.count_nonzero(layout.occ)


def _shared_layout(key, modes: int, cutoff: int, build) -> _Layout:
    """The layout of ``build()``'s occupations, one for every call with ``key``.

    States built on it share its validation and its lowering.  The shared
    layouts pin at most LAYOUT_CACHE_BYTES, the oldest leaving first; a set
    larger than that is validated per call, as any other.
    """
    layout = _SHARED.get(key)
    if layout is not None:
        return layout
    layout = _Layout.validated(modes, cutoff, build())
    size = _pinned_bytes(layout)
    if size <= LAYOUT_CACHE_BYTES:
        with _SHARED_LOCK:
            held = sum(map(_pinned_bytes, _SHARED.values()))
            while held + size > LAYOUT_CACHE_BYTES:
                held -= _pinned_bytes(_SHARED.pop(next(iter(_SHARED))))
            layout.shared = True
            _SHARED[key] = layout
    return layout


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
    Pascal's rule it subtracts ``sum_{k >= M-1-m} C(s_k + k - 1, k)``: two
    gathers and one running sum give every lowered rank.  Entries where mode m
    is empty are meaningless.
    """
    modes = occ.shape[1]
    width = top + 1
    table = _multichoose(modes, top).ravel()
    columns = modes <= _COLUMN_MODES
    # at[:, m] = s + (M-1-m) * width, with s the photons in modes m..M-1, is the
    # flat index of table[M-1-m, s]; the table one row on reads table[M-m, s].
    if columns:
        at = occ + width
        at[:, -1] -= width
        for m in range(modes - 2, -1, -1):
            at[:, m] += at[:, m + 1]
    else:
        at = np.cumsum(occ[:, ::-1], axis=1)[:, ::-1] + width * np.arange(modes - 1, -1, -1)
    rank = table[width:].take(at) @ np.ones(modes, dtype=np.int64)
    slot = table.take(at)  # each column becomes rank minus its running sum
    if columns:
        np.subtract(rank, slot[:, 0], out=slot[:, 0])
        for m in range(1, modes):
            np.subtract(slot[:, m - 1], slot[:, m], out=slot[:, m])
        return slot
    np.cumsum(slot, axis=1, out=slot)
    return np.subtract(rank[:, None], slot, out=slot)


class _Lowering(NamedTuple):
    """Where the field operator sends the entries (t, m) of an occupation matrix,
    taken in term-major, mode-minor order: lowering mode m of term t lands on
    output slot ``slot``, of ``count``, with the weight at flat index ``index =
    m * (top + 1) + n_tm`` of the root table.

    ``term`` is None when the entries are every cell of the ``(T, M)`` matrix,
    as made per call, and the empty modes land on slot ``count``, which is
    discarded.  A shared layout with an empty mode keeps only its occupied
    entries, ``n_tm > 0``, and ``term`` gives the row t of each.
    """

    slot: np.ndarray
    count: int
    index: np.ndarray
    term: np.ndarray | None


def _lowering(occ: np.ndarray, top: int, compact: bool) -> _Lowering:
    """The lowering of every cell of ``occ``, or with ``compact`` of its occupied
    entries, where some mode is empty."""
    modes, width = occ.shape[1], top + 1
    # The cheap table bound first: it keeps math.comb small.
    if (modes + 1) * width > RANK_TABLE_MAX or math.comb(top + modes, modes) >= RANK_LIMIT:
        raise ResourceLimitError(
            f"{modes} modes up to {top} photons exceed the Fock rank index bounds"
        )
    slot = _lowered_ranks(occ, top)
    empty = occ == 0
    entries = np.count_nonzero(occ)
    # -1 sits below every rank, and read as an unsigned integer above every
    # rank, so two plain reductions find both ends of the occupied slots.
    np.putmask(slot, empty, -1)
    lo = int(slot.view(np.uint64).min(initial=RANK_LIMIT - 1))
    hi = int(slot.max(initial=0))
    if entries and hi - lo < entries:  # the ranks fill their range, as for coherent states
        slot -= lo
        count = hi - lo + 1
    else:
        occupied = ~empty
        distinct, inverse = np.unique(slot[occupied], return_inverse=True)
        slot[occupied] = inverse
        count = distinct.size
    np.putmask(slot, empty, count)
    index = occ + width * np.arange(modes)
    if not compact or entries == occ.size:  # no empty mode to leave out
        return _Lowering(slot, count, index, None)
    entry = np.flatnonzero(occ)
    return _Lowering(slot.take(entry), count, index.take(entry), entry // modes)


def _lower(state: StateVector, phases: ModePhases):
    """Apply E = sum_m exp(i*theta_m) a_m to the stored arrays.

    Returns the summed amplitude of each output slot and the layout's
    ``_Lowering``.  Entries are summed in term-major, mode-minor order, as a
    loop over the terms would.
    """
    if phases.modes != state.modes:
        raise DimensionMismatchError(
            f"{phases.modes} phases for a {state.modes}-mode state"
        )
    low = state._layout.lowering()
    # exp(i*theta_m) * sqrt(n) for every mode m and photon number n.
    root = np.exp(1j * np.asarray(phases.theta))[:, None] * np.sqrt(np.arange(state._top + 1))
    weight = root.ravel().take(low.index)
    if low.term is None:
        weight *= state._amp[:, None]
    else:  # not in place, so that one entry takes the vector loop, as more cells in place do
        weight = weight * state._amp.take(low.term)
    amps = np.zeros(low.count + 1, dtype=complex)
    np.add.at(amps, low.slot.ravel(), weight.ravel())  # in entry order, as np.bincount sums
    return amps[:-1], low


def apply_field(state: StateVector, phases: ModePhases) -> StateVector:
    """Detection-point field operator: sum_m exp(i*theta_m) a_m, linear in the state."""
    amps, low = _lower(state, phases)
    # Every entry that lands on a slot names its occupation; -1 marks slots
    # no entry reaches, and the last cell collects the empty modes.
    source = np.full(amps.size + 1, -1)
    source[low.slot.ravel()] = np.arange(low.slot.size)
    reached = source[:-1] >= 0
    entry = source[:-1][reached]
    rows = entry // state.modes if low.term is None else low.term[entry]
    cols = low.index.ravel()[entry] // (state._top + 1)
    del low  # a (T, M) lowering is not needed while the output is built
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
