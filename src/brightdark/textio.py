"""Text output: '%.12g' floats, the CSV and JSON documents, and their writing.

Every float brightdark writes is its '%.12g' text (CSV) or that rounding as
json.dumps writes it (JSON).  One vectorised kernel, _g12_block, writes both
for a block of values: numpy writes every value whose 12-digit rounding it
can prove exact, and Python's own formatting writes the rest.  _text_rows
lays out rows of literals and kernel cells a chunk at a time; the CSV writer
(_csv_chunks) and the JSON writer (_json_chunks) stream their documents from
it, and _write_chunks writes the chunks to stdout or to a file.

Nothing here imports brightdark: the library's series hand their columns
over as arrays or _Column slices.
"""

from __future__ import annotations

import os
import sys
import threading
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

OUTPUT_DIR_ENV = "BRIGHTDARK_OUTPUT_DIR"  # the directory a relative --output is written in
FORMAT_CHUNK = 4096  # rows formatted per pass; bounds the byte matrix of a pass
KERNEL_BLOCK = 8192  # values per pass of the '%.12g' kernel, the size of its work arrays

# Tables of the '%.12g' kernel, by a value's decimal exponent e (as i = e - _EXP_MIN),
# its binary one, groups of its digits, or i and the count d of its digits up to
# the last nonzero one (as ik = i + _NE*d).  A cell is 24 bytes, three little-endian
# words: word 0 holds the sign at byte 2 and what precedes the digit string
# ("0.000" for fixed e < 0; the first digit and the point in sci notation); words
# 1-2 the digits, with the point after digit e (fixed e >= 0), or digits 1-11 and
# the exponent (sci).  Unused bytes are NUL.
CELL = 24
_EXP_MIN, _EXP_MAX, _BAND = -291, 290, 0.4997  # the tables' exponents; the proof's band
_e = np.arange(_EXP_MIN, _EXP_MAX + 1)
_NE = len(_e)
_TEN = np.array([float(f"1e{k}") for k in range(_EXP_MIN, 303)])  # correctly rounded
_SCALE = _TEN[11 - _e - _EXP_MIN]  # 10**(11 - e)
# Per binade 2**b <= |x| < 2**(b+1): i of e = floor(b*log10(2)) (exact here; _EXP_MAX
# past either end), and the power of ten from which e is one more, if in range.
_b10 = np.floor(np.arange(-1023, 1025) * np.log10(2)).astype(np.int64)
_BINADE_I = np.where(_b10 < _EXP_MIN, _EXP_MAX, np.minimum(_b10, _EXP_MAX)) - _EXP_MIN
_BINADE_TEN = np.where((_b10 >= _EXP_MIN) & (_b10 < _EXP_MAX),
                       _TEN[np.clip(_b10 + 1, _EXP_MIN, _EXP_MAX) - _EXP_MIN], np.inf)
# The 4 digits of 0..9999 as 4 bytes (_QUAD_HI: the high 4); the count left once
# trailing zeros go (0 for 0), from digit 0, 4 or 8 of the mantissa, times _NE
# (ik is i plus their maximum); _QUAD_8: digits 8-11 and that count above them.
_d, _z = np.arange(48, 58), np.arange(10) == 0  # ASCII digits; which digit is zero
_QUAD = (_d[:, None, None, None] | _d[:, None, None] << 8 | _d[:, None] << 16 | _d << 24)
_QUAD = _QUAD.ravel().astype(np.uint64)
_QUAD_LEN = _z * (1 + _z[:, None] * (1 + _z[:, None, None] * (1 + _z[:, None, None, None])))
_QUAD_LEN = 4 - _QUAD_LEN.ravel()
_LAST, _LAST_4, _LAST_8 = (np.where(_QUAD_LEN, _QUAD_LEN + k, 0) * _NE for k in (0, 4, 8))
_QUAD_HI, _QUAD_8 = _QUAD << np.uint64(32), _QUAD | _LAST_8.astype(np.uint64) << np.uint64(32)
_KEEP_LO = np.array([(1 << 8 * min(k, 8)) - 1 for k in range(13)], dtype=np.uint64)
_KEEP_HI = np.array([(1 << 8 * max(k - 8, 0)) - 1 for k in range(13)], dtype=np.uint64)
_fixed, _sci, _ae = (_e >= 0) & (_e < 12), (_e < -4) | (_e >= 12), np.abs(_e)
_before = np.where(_fixed, _e + 1, 12)  # the digits that do not move for the point
_MOVE_LO, _MOVE_HI = ~_KEEP_LO[_before], ~_KEEP_HI[_before]
_FIRST = np.where(_sci, 0xFF, 0).astype(np.uint64)  # sci moves digit 0 to word 0
_TAIL = np.where(_sci, (0x65 << 24) | (np.where(_e < 0, 0x2D, 0x2B) << 32)
                 | np.where(_ae >= 100, _ae // 100 + 48, 0) << 40
                 | (_ae // 10 % 10 + 48) << 48 | (_ae % 10 + 48) << 56, 0)
_prefix = np.select([_e == e for e in range(-4, 0)],
                    [int.from_bytes(b"\0\0\0" + b"0.000"[: 1 - e], "little") for e in range(-4, 0)])
# By ik: the kept digits (fixed notation keeps every integer digit); the other bytes
# of each word (the point, where a kept digit follows it; the prefix; the sci
# exponent); and for JSON, whether the rounding is no integer.
_keep = np.maximum(np.arange(13)[:, None], np.where(_fixed, _e + 1, 0))
_point = _keep > np.where(_fixed, _e + 1, np.where(_sci, 1, 13))
_KEEP_LO_IK, _KEEP_HI_IK = _KEEP_LO[_keep].ravel(), _KEEP_HI[_keep].ravel()
_dot = np.where(_point & _fixed, 0x2E << 8 * ((_e + 1) % 8), 0)
_WORD0 = (_prefix | np.where(_point & _sci, 0x2E << 56, 0)).astype(np.uint64).ravel()
_WORD1 = np.where(_e < 7, _dot, 0).astype(np.uint64).ravel()
_WORD2 = np.where(_sci, _TAIL, np.where(_e >= 7, _dot, 0)).astype(np.uint64).ravel()
_FRACTION = (np.arange(13)[:, None] > _e + 1).ravel()
del _TEN, _b10, _QUAD_LEN, _LAST_8, _keep, _point, _dot  # the tables' intermediates
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(x: float) -> str:
    """The JSON text of x rounded to 12 significant digits, as json.dumps writes it."""
    text = repr(float(f"{x:.12g}"))
    return _NON_FINITE.get(text, text)


class _KernelWork:
    """The arrays of _g12_block, KERNEL_BLOCK values each: one set per thread,
    made on the thread's first call to _kernel_work.

    The kernel keeps its input and every intermediate in them.  Some twenty
    arrays allocated per pass would be handed back to the system after each
    call and faulted in again on the next, at a cost that rises and falls with
    the load on the machine.  The kernel writes its output into the caller's
    byte matrix, so writers interleaved in one thread share them safely.
    """

    def __init__(self):
        self.values = np.empty(KERNEL_BLOCK)
        self.real = np.empty((2, KERNEL_BLOCK))
        self.int = np.empty((6, KERNEL_BLOCK), dtype=np.int64)
        self.word = np.empty((6, KERNEL_BLOCK), dtype=np.uint64)
        self.flag = np.empty((2, KERNEL_BLOCK), dtype=bool)


_THREAD = threading.local()


def _kernel_work() -> _KernelWork:
    """This thread's kernel arrays; a process that never formats a float makes none."""
    if not hasattr(_THREAD, "work"):
        _THREAD.work = _KernelWork()
    return _THREAD.work


def _g12_block(work: _KernelWork, cells: list, json: bool) -> None:
    """Write the cells of ``work.values`` into ``cells``: one (m, 3) uint64 array per
    column (see CELL) for its m values, which follow the previous column's; an
    unaligned strided view of a byte matrix, say, so that each word is copied
    once, straight into its rows.

    The fast path takes a finite x with 1e-290 < |x| < 1e291.  e = floor(log10|x|),
    from the binade of |x| and the power of ten in it, is exact but at the double
    just below a power 10**k, which gets e = k: y then rounds to 1e11, as x does
    to 10**k in 12 digits.  y = |x| * 10**(11 - e) (a correctly rounded power of
    ten) is within (2u + u**2)*y < 2.3e-4 of the exact product (u = 2**-53,
    y < 1e12), so when |y - n| < 0.4997 for n = rint(y), the product is within
    0.49993 of n: n is the product rounded, with no tie and a margin of 7e-5,
    and if 1e11 <= n < 1e12, the 12-digit mantissa '%.12g' rounds x to.  The text
    follows the %g rules: fixed notation for -4 <= e < 12, else sci with a signed
    exponent of at least 2 digits; trailing zeros go, and the point with them.
    JSON text differs from it only where the rounding is an integer ("121.0",
    "1000000000000.0"): those, and the values the fast path does not prove, are
    written per value, by '%.12g' (CSV) or _json_number.

    The passes: e, which is _EXP_MAX for 0, NaN, +-inf and values out of range,
    so that y fails the proof; y; n, clamped to [1e11, 1e12) before rint, so that
    the band test fails an n out of range too (y is then 0.5 or more from it, but
    where rounding puts y just below 1e11, whose n is 1e11); digits 0-3, 4-7 and
    8-11 by floor division, their bytes and d from 10**4-entry tables; the words,
    from tables by i and ik, and a select of the sci ones.  Every step writes
    into the work arrays; a lookup's mode="clip" only spares np.take a buffer.
    """
    m = len(cells[0])
    k = m * len(cells)
    x = work.values[:k]
    a, y = work.real[:, :k]
    i, ik, g, g0, g1, r = work.int[:, :k]
    lo, hi, moved, w0, w1, w2 = work.word[:, :k]
    ok, sci = work.flag[:, :k]

    def take(table, index, out):
        return table.take(index, out=out, mode="clip")

    np.abs(x, out=a)
    np.right_shift(a.view(np.int64), 52, out=g)  # the binade
    take(_BINADE_I, g, i)
    i += np.greater_equal(a, take(_BINADE_TEN, g, y), out=ok)
    take(_SCALE, i, y)
    y *= a
    n = np.fmax(y, 1e11, out=a)  # |x| is spent
    np.fmin(n, 1e12 - 1, out=n)
    np.rint(n, out=n)
    y -= n
    np.less(np.abs(y, out=y), _BAND, out=ok)  # n is y's integer, with no tie, and in range
    np.copyto(g, n, casting="unsafe")
    np.floor_divide(g.view(np.uint64), 10**8, out=g0.view(np.uint64))  # unsigned divides faster
    g -= np.multiply(g0, 10**8, out=r)
    np.floor_divide(g.view(np.uint64), 10**4, out=g1.view(np.uint64))
    g -= np.multiply(g1, 10**4, out=r)  # g0, g1, g: the mantissa's digits 0-3, 4-7 and 8-11
    take(_QUAD_HI, g1, lo)
    lo |= take(_QUAD, g0, w0)  # digits 0-7, one byte each
    take(_QUAD_8, g, hi)  # digits 8-11, and in the high half their count
    np.right_shift(hi, 32, out=ik.view(np.uint64))
    np.maximum(ik, take(_LAST_4, g1, r), out=ik)
    np.maximum(ik, take(_LAST, g0, r), out=ik)
    ik += i
    if json:
        ok &= take(_FRACTION, ik, sci)
    lo &= take(_KEEP_LO_IK, ik, w0)
    hi &= take(_KEEP_HI_IK, ik, w0)

    # Word 0: in sci notation digit 0 and the point; the prefix; the sign.
    np.not_equal(take(_FIRST, i, w0), 0, out=sci)
    w0 &= lo
    w0 <<= 48
    w0 |= take(_WORD0, ik, w1)
    np.right_shift(x.view(np.uint64), 63, out=w1)
    w0 |= np.multiply(w1, 0x2D << 16, out=w1)
    # Word 1: in fixed notation the digits before the point, those after it
    # moved one byte up (lo + 255*moved is lo - moved + (moved << 8)), and
    # the point; in sci notation digits 1-8.
    np.bitwise_and(lo, take(_MOVE_LO, i, moved), out=moved)
    np.add(lo, np.multiply(moved, 255, out=w1), out=w1)
    w1 |= take(_WORD1, ik, w2)
    np.right_shift(lo, 8, out=w2)
    w2 |= np.left_shift(hi, 56, out=lo)
    np.copyto(w1, w2, where=sci)
    # Word 2: the same for digits 8-11 and the digit moved out of word 1; in
    # sci notation digits 9-11 and the exponent.
    np.bitwise_and(hi, take(_MOVE_HI, i, lo), out=lo)
    np.add(hi, np.multiply(lo, 255, out=w2), out=w2)
    moved >>= 56
    w2 |= moved
    hi >>= 8
    np.copyto(w2, hi, where=sci)
    w2 |= take(_WORD2, ik, lo)

    words = work.word[3:, :k]
    if not ok.all():
        unproven = np.flatnonzero(np.logical_not(ok, out=ok))
        exact = _json_number if json else "%.12g".__mod__
        text = [exact(value) for value in x[unproven].tolist()]
        words[:, unproven] = np.array(text, dtype=f"S{CELL}").view(np.uint64).reshape(-1, 3).T
    for f, out in enumerate(cells):
        for word in range(3):
            np.copyto(out[:, word], words[word, f * m : (f + 1) * m])


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


def _text_rows(lits, columns, json: bool = False) -> Iterator[str]:
    """Rows ``lits[0] + column 0 + lits[1] + ... + lits[-1]`` up to the shortest
    column, FORMAT_CHUNK rows per chunk; a column is an array or a _Column, and
    each is sliced once per chunk.  _g12_block writes the float columns of a run
    of rows in one pass, through a uint64 view of each one's cells; any other
    column is a bytes ('S') array, written as it is.  Each chunk is one byte
    matrix of literals and NUL-padded cells, compacted once."""
    rows = min(len(c) for c in columns)
    floats = [j for j, c in enumerate(columns) if c.dtype.kind == "f"]
    template, starts = bytearray(), []
    for lit, column in zip(lits, columns):
        template += lit.encode()
        starts.append(len(template))
        template += bytes(CELL if column.dtype.kind == "f" else column.itemsize)
    template += lits[-1].encode()
    matrix = np.tile(np.frombuffer(template, dtype=np.uint8), (min(rows, FORMAT_CHUNK), 1))
    cells = [matrix[:, starts[j] : starts[j] + CELL].view(np.uint64) for j in floats]
    run = max(KERNEL_BLOCK // max(len(floats), 1), 1)  # rows per pass of the kernel
    for lo in range(0, rows, FORMAT_CHUNK):
        block = matrix[: min(FORMAT_CHUNK, rows - lo)]
        chunk = [column[lo : lo + len(block)] for column in columns]
        for start, column in zip(starts, chunk):
            if column.dtype.kind != "f":
                text = column.view(np.uint8).reshape(len(block), column.itemsize)
                block[:, start : start + column.itemsize] = text
        for a in range(0, len(block) if floats else 0, run):
            b = min(a + run, len(block))
            work = _kernel_work()  # the running thread's, should the writer change threads
            values = work.values[: (b - a) * len(floats)].reshape(len(floats), b - a)
            for f, j in enumerate(floats):
                values[f] = chunk[j][a:b]
            _g12_block(work, [column[a:b] for column in cells], json)
        yield block.tobytes().translate(None, b"\0").decode()


def _csv_chunks(metadata: dict, columns, footer: dict) -> Iterator[str]:
    """A series' CSV text: a comment line per metadata item, in order, the header,
    one '%.12g' row of the two columns per sample up to the shorter column,
    FORMAT_CHUNK rows at a time, and a '# key=value' line per footer item, in key
    order, with the value's JSON text."""
    yield "".join(f"# {k}={v}\n" for k, v in metadata.items()) + "t_prime,intensity\n"
    yield from _text_rows(["", ",", "\n"], columns)
    yield "".join(f"# {k}={_json_number(v)}\n" for k, v in sorted(footer.items()))


class _Records(NamedTuple):
    """A JSON list of objects with the same keys: ``columns`` (float ndarrays or
    lists of str) give one value per object, ``constants`` one value for all."""

    columns: dict
    constants: dict


# The text of each leaf type by its exact type: what json.dumps writes for it, a
# float rounded first (encode_basestring_ascii is json.dumps' own for a str).
_LEAF_TEXT = {
    float: _json_number, np.float64: _json_number, int: str, np.int64: str,
    str: encode_basestring_ascii, bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json_scalar(value) -> str:
    """A leaf's JSON text: integers exact, floats through _json_number."""
    text = _LEAF_TEXT.get(type(value))
    if text is None:
        raise TypeError(f"no JSON text for a {type(value).__name__} leaf")
    return text(value)


def _table_chunks(table, indent: int) -> Iterator[str]:
    """The indent=2 JSON text of a 1-D float array, a _Column or _Records whose line
    starts ``indent`` spaces in, FORMAT_CHUNK rows per chunk from _text_rows:
    every row is its literals, the JSON text of its float cells and its quoted
    strings; a row's comma leads it, and the first row's is dropped."""
    pad = "\n" + " " * (indent + 2)
    if not isinstance(table, _Records):
        lits, columns = ["," + pad, ""], [table]
    else:
        lits, columns, text = [], [], "," + pad + "{"
        fields = table.columns | table.constants
        for n, key in enumerate(sorted(fields)):
            text += ("," if n else "") + pad + "  " + encode_basestring_ascii(key) + ": "
            if key in table.columns:
                lits.append(text)
                column = table.columns[key]
                if not isinstance(column, np.ndarray):
                    quoted = {v: encode_basestring_ascii(v) for v in set(column)}
                    column = np.array([quoted[v] for v in column], dtype="S")
                columns.append(column)
                text = ""
            else:
                text += _json_scalar(fields[key])
        lits.append(text + pad + "}")
    if len(columns[0]) == 0:
        yield "[]"
        return
    chunks = _text_rows(lits, columns, json=True)
    yield "[" + next(chunks)[1:]
    yield from chunks
    yield "\n" + " " * indent + "]"


def _json_chunks(value, indent: int = 0) -> Iterator[str]:
    """``json.dumps(value, sort_keys=True, indent=2)``, numbers rounded to 12 significant
    digits, for a container ``indent`` spaces in.  1-D float arrays, _Column and _Records
    stream from _table_chunks, and text is yielded only at their boundaries."""
    if isinstance(value, (_Records, _Column)) or (
        isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.ndim == 1
    ):
        yield from _table_chunks(value, indent)
        return
    if isinstance(value, dict):
        brackets = "{}"
        items = [(encode_basestring_ascii(k) + ": ", value[k]) for k in sorted(value)]
    else:
        brackets, items = "[]", [("", v) for v in value]
    pad, text = "\n" + " " * (indent + 2), brackets[0]
    for head, item in items:
        text += pad + head
        if isinstance(item, (dict, list, tuple, np.ndarray, _Column)):
            parts = _json_chunks(item, indent + 2)
            text += next(parts)  # a nested value's first and last chunks join the text around it
            for part in parts:
                yield text
                text = part
        else:
            text += _json_scalar(item)
        text += ","
    yield (text[:-1] + "\n" + " " * indent if items else text) + brackets[1]


def _write_chunks(chunks, output: str | None) -> None:
    """Write text chunks to stdout, or to ``output`` through a temporary file
    beside it that replaces it only once every chunk is written.  A relative
    ``output`` is taken in $BRIGHTDARK_OUTPUT_DIR when that is set."""
    if output is None:
        sys.stdout.writelines(chunks)
        return
    if not Path(output).name:
        raise ValueError(f"--output {output!r} names no file")
    path = Path(os.environ.get(OUTPUT_DIR_ENV, ""), output)
    path.parent.mkdir(parents=True, exist_ok=True)
    # At most 240 bytes of the name, so that the partial name (7 digits of pid at
    # most) fits the file system's 255 bytes whenever the target's does.
    stem = os.fsdecode(os.fsencode(path.name)[:240])
    partial = path.with_name(f".{stem}.{os.getpid()}.tmp")
    try:
        with open(partial, "w") as f:
            f.writelines(chunks)
        os.replace(partial, path)
    except OSError as exc:
        partial.unlink(missing_ok=True)
        raise OSError(exc.errno, exc.strerror, str(path)) from exc  # name the target
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
