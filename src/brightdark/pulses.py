"""Classical mode-locked pulse train: direct mode sum and its closed form.

A comb of ``2*n_side + 1`` equally spaced modes with a common amplitude and
a locked linear phase produces the Dirichlet-kernel envelope

    A(t) = E0 * sin(m_total * x) / sin(x),   x = (delta_omega * t + phi) / 2,

with peak ``E0 * m_total`` repeating every round-trip period
``tau = 2*pi/delta_omega``.  Breaking the phase lock (random per-mode
phases) keeps the mean intensity but destroys the peaks.

Both series are exactly periodic, so an IntensitySeries of the library holds
one period of S samples and the period count P, never S*P values: its ``t``
and ``intensity`` arrays are built on first read and kept, and the writers
take their rows from the period a chunk at a time.

The writers' '%.12g' text comes from one vectorised kernel, _g12_block,
which the CSV rows here and the JSON tables of the CLI share: numpy writes
every value whose 12-digit rounding it can prove exact, and Python's own
formatting writes the rest.
"""

from __future__ import annotations

import math
import sys
import threading
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, ResourceLimitError

SINGULARITY_EPS = 1e-12
DIRICHLET_MAX_MODES = 2**53  # past it, modes*phase/2 keeps no digit of the phase
SERIES_MAX_SAMPLES = 10_000_000  # samples per series, checked before allocating
FORMAT_CHUNK = 4096  # rows formatted per pass; bounds the byte matrix of a pass
KERNEL_BLOCK = 8192  # values per pass of the '%.12g' kernel, the size of its work arrays
FOLD_CHUNK = 1 << 16  # modes drawn and folded per pass by unlocked_intensity


@dataclass(frozen=True)
class LaserField:
    """Symmetric mode comb m = -n_side..+n_side around a carrier.

    The envelope depends on the mode spacing ``delta_omega`` and the locked
    phase offset ``phi`` alone; the carrier frequency drops out.
    """

    n_side: int
    e0: float = 1.0
    delta_omega: float = 1.0
    phi: float = 0.0

    def __post_init__(self):
        if self.n_side < 1:
            raise ValueError(f"n_side must be >= 1, got {self.n_side}")
        for name in ("e0", "delta_omega", "phi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.delta_omega <= 0:
            raise ValueError(f"delta_omega must be positive, got {self.delta_omega}")
        if self.m_total > sys.float_info.max:  # compared exactly; e0 * m_total would raise
            raise ValueError("m_total = 2*n_side + 1 is past the largest float")
        peak = self.e0 * self.m_total  # squared as a product: float ** 2 raises on overflow
        for name, value in (("(e0*m_total)^2", peak * peak), ("2*pi/delta_omega", self.period)):
            if not math.isfinite(value):
                raise ValueError(f"{name} overflows: e0={self.e0}, delta_omega={self.delta_omega}")

    @property
    def m_total(self) -> int:
        return 2 * self.n_side + 1

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.delta_omega


def dirichlet(modes: int, phase):
    """Dirichlet kernel sin(modes*phase/2) / sin(phase/2), the field of locked modes.

    The phase is reduced to [-pi, pi) before halving, so the only removable
    singularity is at 0, where the limit is ``modes``.  For odd ``modes`` the
    result is 2*pi-periodic; for even ``modes`` only its magnitude is.  More
    than DIRICHLET_MAX_MODES modes raise ValueError: the kernel would be a
    rounding artefact, or NaN once modes*phase/2 overflows.  So does a NaN or
    infinite phase, which would fail the singularity test and read as the peak.
    """
    if modes > DIRICHLET_MAX_MODES:  # compared exactly, as an int
        raise ValueError("too many modes: the kernel would keep no digit of the phase")
    x = np.asarray(phase, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("phase must be finite")
    x = np.remainder(x + math.pi, 2.0 * math.pi) - math.pi
    den = np.sin(0.5 * x)
    out = np.full(x.shape, float(modes))
    np.divide(np.sin(0.5 * modes * x), den, out=out, where=np.abs(den) >= SINGULARITY_EPS)
    return float(out) if np.ndim(phase) == 0 else out


def amplitude_closed(field_: LaserField, t):
    """Closed-form envelope; m_total is odd, so each period peaks at E0*m_total."""
    phase = field_.delta_omega * np.asarray(t, dtype=float) + field_.phi
    return field_.e0 * dirichlet(field_.m_total, phase)


def amplitude_direct(field_: LaserField, t):
    """Direct mode sum sum_m E0*exp(i*m*(delta_omega*t + phi)); oracle for the closed form."""
    t_arr = np.asarray(t, dtype=float)
    if t_arr.size * field_.m_total > SERIES_MAX_SAMPLES:
        raise ResourceLimitError(
            f"{t_arr.size} samples x {field_.m_total} modes exceed "
            f"{SERIES_MAX_SAMPLES} mode samples"
        )
    m = np.arange(-field_.n_side, field_.n_side + 1)
    phase = np.multiply.outer(t_arr * field_.delta_omega + field_.phi, m)
    out = field_.e0 * np.exp(1j * phase).sum(axis=-1)
    if np.ndim(t) == 0:
        return complex(out)
    return out


def _grid(lo: int, hi: int, step: float) -> np.ndarray:
    """The sample times k*step of k = lo..hi-1.  A float arange gives the bits of an
    int one times step, without a cast that costs more than the product."""
    t = np.arange(lo, hi, dtype=float)
    t *= step
    return t


class _Column:
    """A float column of ``size`` values whose slice [lo:hi] is ``rows(lo, hi)``:
    what the writers read of a periodic series, one chunk of rows at a time."""

    dtype = np.dtype(float)

    def __init__(self, size: int, rows):
        self._size, self._rows = size, rows

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: slice) -> np.ndarray:
        lo, hi, _ = index.indices(self._size)
        return self._rows(lo, hi)


class IntensitySeries:
    """Samples ``intensity`` at times ``t``, with the parameters that made them as
    ``metadata``, in the order of the CSV header.

    ``IntensitySeries(t, intensity, metadata)`` holds the arrays it is given.
    The series of intensity_series and unlocked_intensity hold one period of S
    samples and the period count P instead (_periodic): ``t`` and ``intensity``
    are built, S*P values each, on first read and kept.  The writers read
    either form through _columns, a chunk of rows at a time.
    """

    def __init__(self, t, intensity, metadata=None):
        self._t, self._intensity = t, intensity
        self.metadata = {} if metadata is None else metadata
        self._period = None

    @classmethod
    def _periodic(cls, period: np.ndarray, periods: int, step: float, metadata: dict):
        """``periods`` copies of ``period``, sampled every ``step`` from t = 0."""
        series = cls(None, None, metadata)
        series._period, series._periods, series._step = period, periods, step
        return series

    @property
    def t(self):
        if self._t is None:
            self._t = _grid(0, len(self._period) * self._periods, self._step)
        return self._t

    @property
    def intensity(self):
        if self._intensity is None:
            self._intensity = np.tile(self._period, self._periods)
        return self._intensity

    def _columns(self):
        """(t, intensity) as float columns sliced [lo:hi] by the writers: the arrays
        held, or columns that build each slice from the period."""
        if self._period is None:
            return np.asarray(self._t, dtype=float), np.asarray(self._intensity, dtype=float)
        size = len(self._period) * self._periods
        return _Column(size, lambda lo, hi: _grid(lo, hi, self._step)), _Column(size, self._repeat)

    def _repeat(self, lo: int, hi: int) -> np.ndarray:
        """Samples lo..hi-1 of the period repeated: a view of the period unless
        they wrap, for a gather costs more than the chunk's copy into the writer."""
        k = lo % len(self._period)
        if k + hi - lo <= len(self._period):
            return self._period[k : k + hi - lo]
        return self._period.take(np.arange(lo, hi), mode="wrap")


def _periodic_series(field_: LaserField, one_period: np.ndarray, periods: int, step: float,
                     kind, seed) -> IntensitySeries:
    """One period's intensity repeated ``periods`` times, with the series' parameters
    as metadata, in the order of the CSV header."""
    samples_per_period = len(one_period)
    resolution_ok = samples_per_period >= 4 * field_.m_total
    meta = {
        "kind": kind,
        "n_side": field_.n_side,
        "m_total": field_.m_total,
        "e0": field_.e0,
        "delta_omega": field_.delta_omega,
        "phi": field_.phi,
        "samples_per_period": samples_per_period,
        "periods": periods,
        "resolution_ok": resolution_ok,
    }
    if seed is not None:
        meta["seed"] = seed
    if not resolution_ok:
        meta["warning"] = (
            f"samples_per_period={samples_per_period} under-resolves the main "
            f"lobe; need >= {4 * field_.m_total}"
        )
    return IntensitySeries._periodic(one_period, periods, step, meta)


def _time_step(field_: LaserField, samples_per_period: int, periods: int) -> float:
    """The grid's time step, once the grid is known to fit the bounds."""
    if samples_per_period < 2:
        raise ValueError(f"samples_per_period must be >= 2, got {samples_per_period}")
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    if samples_per_period * periods > SERIES_MAX_SAMPLES:
        raise ResourceLimitError(
            f"{samples_per_period} samples x {periods} periods exceed "
            f"{SERIES_MAX_SAMPLES} samples"
        )
    if not math.isfinite(field_.period * periods):
        raise ValueError(f"{periods} periods of {field_.period} overflow the time grid")
    return field_.period / samples_per_period


def intensity_series(
    field_: LaserField, samples_per_period: int, periods: int = 1
) -> IntensitySeries:
    """Locked-phase intensity A(t)^2 on a uniform grid.  The kernel of odd m_total is
    2*pi-periodic, so one period is evaluated and repeated: the values are exactly periodic."""
    step = _time_step(field_, samples_per_period, periods)
    amp = amplitude_closed(field_, _grid(0, samples_per_period, step))
    return _periodic_series(field_, amp**2, periods, step, "locked", None)


def unlocked_intensity(
    field_: LaserField, seed: int, samples_per_period: int, periods: int = 100
) -> IntensitySeries:
    """Intensity with the phase lock broken: per-mode phases drawn once from a
    seeded generator, then evaluated deterministically over the grid.  Mode m
    adds exp(2*pi*i*m*k/S) at sample k, which depends only on m mod S, so the
    modes fold into S bins and one inverse FFT gives one period, which is repeated.
    The phases are drawn and folded FOLD_CHUNK modes at a time, in mode order."""
    if field_.m_total > SERIES_MAX_SAMPLES:
        raise ResourceLimitError(f"{field_.m_total} modes exceed {SERIES_MAX_SAMPLES} modes")
    step = _time_step(field_, samples_per_period, periods)
    rng = np.random.default_rng(seed)
    bins = np.zeros(samples_per_period, dtype=complex)
    for lo in range(-field_.n_side, field_.n_side + 1, FOLD_CHUNK):
        m = np.arange(lo, min(lo + FOLD_CHUNK, field_.n_side + 1))
        phases = rng.uniform(0.0, 2.0 * math.pi, m.size)
        np.add.at(bins, m % samples_per_period, np.exp(1j * phases))
    amp = field_.e0 * samples_per_period * np.fft.ifft(bins)
    return _periodic_series(field_, np.abs(amp) ** 2, periods, step, "unlocked", seed)


@dataclass(frozen=True)
class PulseMetrics:
    fwhm: float
    period: float
    duty_ratio: float
    peak: float


def pulse_metrics(series: IntensitySeries) -> PulseMetrics:
    """FWHM of the main lobe by linear interpolation of the half-max crossings.

    The first period is read: the peak is the largest of its samples, and the
    walk to each crossing wraps within it.  The period is analytic
    (2*pi/delta_omega), not measured from the series.
    """
    meta = series.metadata
    if not meta.get("resolution_ok", False):
        raise ResolutionError(meta.get("warning", "series under-resolved"))
    samples = meta["samples_per_period"]
    _, column = series._columns()
    if len(column) < samples:
        raise ResolutionError("series shorter than one period")
    period = 2.0 * math.pi / meta["delta_omega"]
    dt = period / samples

    intensity = column[:samples]
    peak_idx = int(np.argmax(intensity))
    peak = float(intensity[peak_idx])
    half = peak / 2.0

    def crossing_offset(step: int) -> float:
        # Walk away from the peak (wrapping) to the first dip below half-max.
        prev = peak
        for k in range(1, samples):
            cur = float(intensity[(peak_idx + step * k) % samples])
            if cur < half:
                return (k - 1) + (prev - half) / (prev - cur)
            prev = cur
        raise ResolutionError("no half-maximum crossing within one period")

    fwhm = (crossing_offset(+1) + crossing_offset(-1)) * dt
    return PulseMetrics(fwhm=fwhm, period=period, duty_ratio=fwhm / period, peak=peak)


# Tables of the '%.12g' kernel, indexed by a value's decimal exponent e (less
# _EXP_MIN) or by groups of its digits.  A cell is 24 bytes, three little-endian
# words: word 0 holds the sign at byte 2 and what precedes the digit string
# ("0.000" for fixed e < 0; the first digit and the point in sci notation);
# words 1-2 hold the digits, with the point after digit e (fixed e >= 0), or
# digits 1-11 and the exponent (sci).  Unused bytes are NUL.
CELL = 24
_EXP_MIN, _EXP_MAX = -291, 290  # floor(log10|x|) for 1e-290 < |x| < 1e290
_e = np.arange(_EXP_MIN, _EXP_MAX + 1)
_SCALE = np.array([float(f"1e{11 - e}") for e in _e.tolist()])  # correctly rounded
_d, _z = np.arange(48, 58), np.arange(10) == 0  # ASCII digits; which digit is zero
# The 4 digits of 0..9999 as 4 bytes; how many of them are left once trailing
# zeros go (0 for 0), and that length as counted from digit 4 or 8 of a mantissa
_QUAD = (_d[:, None, None, None] | _d[:, None, None] << 8 | _d[:, None] << 16 | _d << 24)
_QUAD = _QUAD.ravel().astype(np.uint64)
_QUAD_LEN = _z * (1 + _z[:, None] * (1 + _z[:, None, None] * (1 + _z[:, None, None, None])))
_QUAD_LEN = (4 - _QUAD_LEN.ravel()).astype(np.uint8)
_QUAD_LEN_4, _QUAD_LEN_8 = (np.where(_QUAD_LEN, _QUAD_LEN + k, 0).astype(np.uint8) for k in (4, 8))
_KEEP_LO = np.array([(1 << 8 * min(k, 8)) - 1 for k in range(13)], dtype=np.uint64)
_KEEP_HI = np.array([(1 << 8 * max(k - 8, 0)) - 1 for k in range(13)], dtype=np.uint64)
_fixed, _sci, _ae = (_e >= 0) & (_e < 12), (_e < -4) | (_e >= 12), np.abs(_e)
_KEEP_MIN = np.where(_fixed, _e + 1, 0)  # fixed notation keeps every integer digit
_POINT_AT = np.where(_fixed, _e + 1, np.where(_sci, 1, 13))  # digits before the point
_before = np.where(_fixed, _e + 1, 12)  # the digits that do not move for the point
_SPLIT_LO, _SPLIT_HI = _KEEP_LO[_before], _KEEP_HI[_before]
_DOT_LO = np.where(_fixed & (_e < 7), 0x2E << 8 * np.clip(_e + 1, 0, 7), 0).astype(np.uint64)
_DOT_HI = np.where(_fixed & (_e >= 7), 0x2E << 8 * np.clip(_e - 7, 0, 7), 0).astype(np.uint64)
_DOT_0 = np.where(_sci, 0x2E << 56, 0).astype(np.uint64)
_PREFIX = np.select([_e == e for e in range(-4, 0)],
                    [int.from_bytes(b"\0\0\0" + b"0.000"[: 1 - e], "little") for e in range(-4, 0)])
_PREFIX = _PREFIX.astype(np.uint64)
_FIRST = np.where(_sci, 0xFF, 0).astype(np.uint64)  # sci moves digit 0 to word 0
_TAIL = np.where(_sci, (0x65 << 24) | (np.where(_e < 0, 0x2D, 0x2B) << 32)
                 | np.where(_ae >= 100, _ae // 100 + 48, 0) << 40
                 | (_ae // 10 % 10 + 48) << 48 | (_ae % 10 + 48) << 56, 0).astype(np.uint64)
_MINUS = np.uint64(0x2D << 16)
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(x: float) -> str:
    """The JSON text of x rounded to 12 significant digits, as json.dumps writes it."""
    text = repr(float(f"{x:.12g}"))
    return _NON_FINITE.get(text, text)


class _KernelWork:
    """The arrays of _g12_block, KERNEL_BLOCK values each: one set per thread,
    made on the thread's first call to _kernel_work.

    The kernel keeps its input, its output and every intermediate in them.
    Some twenty arrays allocated per pass would be handed back to the system
    after each call and faulted in again on the next, at a cost that rises
    and falls with the load on the machine.  _text_rows copies the cells out
    before it yields, so writers interleaved in one thread share them safely.
    """

    def __init__(self):
        self.values = np.empty(KERNEL_BLOCK)
        self.cells = np.empty((KERNEL_BLOCK, 3), dtype=np.uint64)
        self.real = np.empty((2, KERNEL_BLOCK))
        self.int = np.empty((5, KERNEL_BLOCK), dtype=np.int64)
        self.word = np.empty((5, KERNEL_BLOCK), dtype=np.uint64)
        self.flag = np.empty((4, KERNEL_BLOCK), dtype=bool)
        self.byte = np.empty((2, KERNEL_BLOCK), dtype=np.uint8)


_THREAD = threading.local()


def _kernel_work() -> _KernelWork:
    """This thread's kernel arrays; a process that never formats a float makes none."""
    try:
        return _THREAD.work
    except AttributeError:
        _THREAD.work = _KernelWork()
        return _THREAD.work


def _g12_cells(values: np.ndarray, json: bool = False) -> np.ndarray:
    """The '%.12g' text of every value (its _json_number text when ``json``) as
    an (N, CELL) uint8 matrix, NUL where a cell holds no character."""
    x = np.asarray(values, dtype=float).ravel()
    cells = np.empty((x.size, CELL), dtype=np.uint8)
    work = _kernel_work()
    for lo in range(0, x.size, KERNEL_BLOCK):
        k = min(KERNEL_BLOCK, x.size - lo)
        work.values[:k] = x[lo : lo + k]
        _g12_block(work, k, json)
        cells[lo : lo + k] = work.cells[:k].view(np.uint8)
    return cells


def _g12_block(work: _KernelWork, k: int, json: bool) -> None:
    """Write the cells of the k values ``work.values[:k]`` into ``work.cells[:k]``,
    three uint64 words each (see CELL).

    The fast path takes a finite x with 1e-290 < |x| < 1e290.  With
    e = floor(log10|x|) and y = |x| * 10**(11 - e) (a correctly rounded power
    of ten), y is within about 2.3e-16*y < 2.5e-4 of the exact product, so
    when |y - n| < 0.499 for n = rint(y), the exact product is within
    0.49925 of n: n is that product rounded to an integer, with no tie.  When
    also 1e11 <= n < 1e12, n is the 12-digit mantissa '%.12g' rounds x to and
    e is its exponent.  log10 errs by an ulp or two, so e is off by one only
    within about 1e-13 (relative) of a power of ten: one too low, y rounds to
    1e12 and fails the range test; one too high, y rounds to 1e11, and so
    does the exact 12-digit rounding of x.  The text follows the %g rules:
    fixed notation for -4 <= e < 12, else sci with a signed exponent of at
    least 2 digits; trailing zeros are stripped, and the point with them.  A
    value the fast path does not prove is written per value, by '%.12g' (CSV)
    or _json_number.  JSON text differs from '%.12g' only where the rounding
    is an integer (e >= the index of its last nonzero digit: "121.0",
    "1000000000000.0"), so those are written by _json_number too.

    Every step writes into the work arrays; the table lookups take
    mode="clip" only because that spares np.take a buffer (every index is
    in range).
    """
    x, cells = work.values[:k], work.cells[:k]
    a, y = work.real[:, :k]
    i, j, g0, g1, g2 = work.int[:, :k]
    lo, hi, w, v, moved = work.word[:, :k]
    ok, t, point, sci = work.flag[:, :k]
    digits, d = work.byte[:, :k]

    def take(table, index, out):
        return table.take(index, out=out, mode="clip")

    np.abs(x, out=a)
    np.greater(a, 1e-290, out=ok)
    ok &= np.less(a, 1e290, out=t)  # NaN compares false
    np.copyto(a, 1.0, where=np.logical_not(ok, out=t))
    np.floor(np.log10(a, out=y), out=y)
    np.copyto(i, y, casting="unsafe")
    i -= _EXP_MIN
    take(_SCALE, i, y)
    y *= a
    n = np.rint(y, out=a)  # |x| is spent
    y -= n
    ok &= np.less(np.abs(y, out=y), 0.499, out=t)  # n is y's integer, with no tie
    ok &= np.greater_equal(n, 1e11, out=t)
    ok &= np.less(n, 1e12, out=t)
    np.copyto(g2, np.clip(n, 1e11, 1e12 - 1, out=n), casting="unsafe")
    np.divmod(g2, 10**8, out=(g0, g2))
    np.divmod(g2, 10**4, out=(g1, g2))  # the mantissa's digits 0-3, 4-7 and 8-11
    take(_QUAD, g1, lo)
    lo <<= 32
    lo |= take(_QUAD, g0, w)  # digits 0-7, one byte each
    take(_QUAD, g2, hi)  # digits 8-11
    take(_QUAD_LEN_8, g2, digits)  # up to the last nonzero one
    np.maximum(digits, take(_QUAD_LEN_4, g1, d), out=digits)
    np.maximum(digits, take(_QUAD_LEN, g0, d), out=digits)
    if json:
        ok &= np.greater(digits, np.add(i, _EXP_MIN + 1, out=j), out=t)
    keep = np.maximum(digits, take(_KEEP_MIN, i, j), out=j)
    lo &= take(_KEEP_LO, keep, w)
    hi &= take(_KEEP_HI, keep, w)
    np.greater(keep, take(_POINT_AT, i, g0), out=point)
    take(_sci, i, sci)

    # Word 0: the sign, the prefix, and in sci notation digit 0 and the point.
    np.bitwise_and(lo, take(_FIRST, i, w), out=w)
    w <<= 48
    w |= take(_PREFIX, i, v)
    w |= np.multiply(np.less(x, 0, out=t), _MINUS, out=v)
    w |= np.multiply(take(_DOT_0, i, v), point, out=v)
    np.copyto(cells[:, 0], w)
    # Word 1: in fixed notation the digits before the point, the point, and
    # the digits after it moved one byte up; in sci notation digits 1-8.
    np.bitwise_and(lo, take(_SPLIT_LO, i, v), out=w)
    np.bitwise_xor(lo, w, out=moved)
    w |= np.left_shift(moved, 8, out=v)
    w |= np.multiply(take(_DOT_LO, i, v), point, out=v)
    np.right_shift(lo, 8, out=v)
    v |= np.left_shift(hi, 56, out=lo)
    np.copyto(w, v, where=sci)
    np.copyto(cells[:, 1], w)
    # Word 2: the same for digits 8-11 and the digit moved out of word 1; in
    # sci notation digits 9-11 and the exponent.
    np.bitwise_and(hi, take(_SPLIT_HI, i, v), out=w)
    np.bitwise_xor(hi, w, out=v)
    v <<= 8
    w |= v
    moved >>= 56
    w |= moved
    w |= np.multiply(take(_DOT_HI, i, v), point, out=v)
    hi >>= 8
    hi |= take(_TAIL, i, v)
    np.copyto(w, hi, where=sci)
    np.copyto(cells[:, 2], w)

    if not ok.all():
        unproven = np.flatnonzero(~ok)
        exact = _json_number if json else "%.12g".__mod__
        text = [exact(value) for value in x[unproven].tolist()]
        cells[unproven] = np.array(text, dtype=f"S{CELL}").view(np.uint64).reshape(-1, 3)


def _text_rows(lits, columns, json: bool = False) -> Iterator[str]:
    """Rows ``lits[0] + column 0 + lits[1] + ... + lits[-1]`` up to the shortest
    column, FORMAT_CHUNK rows per chunk; a column is an array or a _Column, and
    each is sliced once per chunk.  A float column is written by
    _g12_block, the float columns of a run of rows together in the kernel's
    work arrays; any other column is a bytes ('S') array, written as it is.
    Each chunk is one byte matrix of literals and NUL-padded cells, compacted
    once."""
    rows = min(len(c) for c in columns)
    floats = [j for j, c in enumerate(columns) if c.dtype.kind == "f"]
    template, starts = bytearray(), []
    for lit, column in zip(lits, columns):
        template += lit.encode()
        starts.append(len(template))
        template += bytes(CELL if column.dtype.kind == "f" else column.itemsize)
    template += lits[-1].encode()
    matrix = np.tile(np.frombuffer(template, dtype=np.uint8), (min(rows, FORMAT_CHUNK), 1))
    run = max(KERNEL_BLOCK // max(len(floats), 1), 1)  # rows per pass of the kernel
    for lo in range(0, rows, FORMAT_CHUNK):
        block = matrix[: min(FORMAT_CHUNK, rows - lo)]
        chunk = [column[lo : lo + len(block)] for column in columns]
        for start, column in zip(starts, chunk):
            if column.dtype.kind != "f":
                text = column.view(np.uint8).reshape(len(block), column.itemsize)
                block[:, start : start + column.itemsize] = text
        for a in range(0, len(block), run):
            b = min(a + run, len(block))
            k = (b - a) * len(floats)
            work = _kernel_work()  # the running thread's, should the writer change threads
            values = work.values[:k].reshape(b - a, len(floats))
            for f, j in enumerate(floats):
                values[:, f] = chunk[j][a:b]
            _g12_block(work, k, json)
            cells = work.cells[:k].view(np.uint8).reshape(b - a, len(floats), CELL)
            for f, j in enumerate(floats):
                block[a:b, starts[j] : starts[j] + CELL] = cells[:, f]
        yield block.tobytes().translate(None, b"\0").decode()


def _csv_chunks(series: IntensitySeries) -> Iterator[str]:
    """series_to_csv's text: a comment line per metadata item, in order, then one
    '%.12g' row per sample, FORMAT_CHUNK rows at a time up to the shorter column."""
    yield "".join(f"# {k}={v}\n" for k, v in series.metadata.items()) + "t_prime,intensity\n"
    yield from _text_rows(["", ",", "\n"], series._columns())


def series_to_csv(series: IntensitySeries) -> str:
    """CSV with a commented header recording the grid and field parameters."""
    return "".join(_csv_chunks(series))
