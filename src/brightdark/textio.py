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

import json
import numbers
import os
import sys
import threading
from collections.abc import Iterator
from pathlib import Path
from typing import NamedTuple

import numpy as np

OUTPUT_DIR_ENV = "BRIGHTDARK_OUTPUT_DIR"  # the directory a relative --output is written in
FORMAT_CHUNK = 4096  # rows formatted per pass; bounds the byte matrix of a pass
KERNEL_BLOCK = 8192  # values per pass of the '%.12g' kernel, the size of its work arrays

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


def _json_scalar(value) -> str:
    """A leaf's JSON text: integers exact, other reals through _json_number."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return str(int(value)) if isinstance(value, numbers.Integral) else _json_number(value)
    return json.dumps(value)


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
            text += ("," if n else "") + pad + "  " + json.dumps(key) + ": "
            if key in table.columns:
                lits.append(text)
                column = table.columns[key]
                if not isinstance(column, np.ndarray):
                    quoted = {v: json.dumps(v) for v in set(column)}
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
        brackets, items = "{}", [(json.dumps(k) + ": ", value[k]) for k in sorted(value)]
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
