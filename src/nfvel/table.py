"""Deterministic CSV emission: :class:`CsvTable` and the cell format :func:`format_cell`.

A table holds one sequence per column.  Its bytes come one block of rows at a
time: float arrays and columns of Python floats go through one numpy kernel
that writes ``'%.12e'`` where it can prove the digits, bool arrays become
``1``/``0``, and every other cell, including each float the kernel cannot
prove, goes through :func:`format_cell`.  ``CsvTable.write`` streams the blocks
to a temporary file that replaces the target only once every block rendered,
or straight to a target that is no regular file, such as a pipe.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["CsvTable", "format_cell"]

# Cells formatted at once: one block's work arrays, allocated once per table and
# reused by every block, and its bytes set the peak memory of rendering or writing a
# table.  At 2**12 cells a block's bytes stay under the C allocator's default 128 KiB
# mmap threshold and come from the heap: a fresh write of the default fig4 map takes
# 23 minor page faults, against 236 at 2**13 cells.
_RENDER_CELLS = 2**12
# 10**k for 0 <= k <= 22, all exact doubles; 10**23 is not.
_POWERS_OF_TEN = np.array([float(10**k) for k in range(23)])
# The float kernel fills a cell's 20 bytes as five 4-byte words: "\0-" and
# the leading digit and point, three groups of four digits, and "e-10" ...
# "e+35".  Byte 0 is padding and byte 1 the sign, kept for negative values.
_LEADS = np.array([list(b"\0-%d." % d) for d in range(10)], np.uint8).view(np.uint32).ravel()
_FOUR_DIGITS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0"))
_FOUR_DIGITS = _FOUR_DIGITS.view(np.uint32).ravel()
_EXPONENTS = np.array([list(b"e%+03d" % e) for e in range(-10, 36)], np.uint8).view(np.uint32).ravel()
# The bytes of a kernel cell the CSV keeps, but for the sign's, which only a negative value keeps.
_FLOAT_KEEP = np.arange(20) >= 2


@dataclass(frozen=True)
class CsvTable:
    """Column names, one numpy array or sequence of cells per column, and the header metadata."""

    name: str
    columns: tuple[str, ...]
    data: tuple
    meta: dict

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The cells row by row, with the cells of numpy arrays as Python floats, bools and ints."""
        return tuple(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in self.data)))

    def render(self) -> str:
        return b"".join(self._pieces()).decode()

    def write(self, path: str | Path) -> Path:
        """Write the table's UTF-8 bytes to ``path``.

        A regular file, or a path that names no file yet, changes only once every
        row rendered: the rows go to a new file beside it, which then replaces it.
        Any other target, such as a device or a pipe, takes the rows as they render.
        """
        path = Path(path)
        # Asked of path itself: the real path of /dev/stdout on a pipe names no file.
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "wb") as file:
                file.writelines(self._pieces())
            return path
        # Beside the file a symlink names, so that the link stays.
        target = Path(os.path.realpath(path))
        # A random name: a file a killed run left, or another write's, is never taken.
        temp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
        created = False
        try:
            # Opened as a direct write would open path, so a new file gets the usual
            # permissions; a file it replaces passes on its own.
            with open(temp, "xb") as file:
                created = True
                if os.path.exists(target):
                    shutil.copymode(target, temp)
                file.writelines(self._pieces())
            os.replace(temp, target)
        except OSError as error:
            # Named after the file asked for, as a direct write's error would be.
            raise OSError(error.errno, error.strerror, str(path)) from None
        finally:
            if created:
                with contextlib.suppress(OSError):
                    temp.unlink()
        return path

    def _pieces(self):
        """The file's bytes: the header, then one piece per block of rows."""
        lengths = sorted(set(map(len, self.data))) or [0]
        if len(self.data) != len(self.columns) or len(lengths) > 1:
            raise ValueError(f"{len(self.data)} columns of lengths {lengths} for {len(self.columns)} names")
        meta = [f"# {key} = {_meta_str(self.meta[key])}\n" for key in sorted(self.meta)]
        yield "".join([f"# nfvel {self.name}\n", *meta, ",".join(self.columns), "\n"]).encode()
        # A column that holds only Python floats is formatted as a float array.
        data = [c if isinstance(c, np.ndarray) or set(map(type, c)) != {float} else np.array(c) for c in self.data]
        step = max(1, _RENDER_CELLS // max(len(data), 1))
        yield from _block_lines(data, lengths[0], step)


def format_cell(value) -> str:
    """One CSV cell or ``crlb`` value: ``%.12e``, ``inf``, ``1``/``0``, ``none``; NaN raises."""
    if value is None:
        return "none"
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isfinite(v):
            return f"{v:.12e}"
        # The file contract never carries NaN; anything non-finite means an
        # unbounded or unidentifiable quantity.
        if math.isnan(v):
            raise ValueError("NaN reached an output cell")
        return "inf"
    return str(value)


def _meta_str(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(_meta_str(v) for v in value)
    return str(value)


def _block_lines(columns: list, count: int, step: int):
    """The UTF-8 CSV lines of ``count`` rows of ``columns``, ``step`` rows per piece, each ending in a newline.

    Float arrays go through :func:`_float_cells`, bool arrays become ``1``/``0``, and
    any other column goes through :func:`format_cell`.  A block is assembled in a
    ``(rows, width)`` byte matrix, a slot per cell and a byte per separator, with a
    mask of the bytes kept.  The matrix, its mask and the float kernel's arrays serve
    every block, so only the block's bytes and the texts of :func:`format_cell` are
    allocated per block.
    """
    kinds = [c.dtype.kind if isinstance(c, np.ndarray) else "O" for c in columns]
    floats = [i for i, kind in enumerate(kinds) if kind == "f"]
    rows = min(step, count)
    cells = len(floats) * rows
    # The float kernel's proof arrays, digits, flags and exponents, and each cell's five 4-byte words.
    work = (
        np.empty((3, cells)),
        np.empty((2, cells), np.int64),
        np.empty((2, cells), bool),
        np.empty(cells, np.int8),
        np.empty((cells, 5), np.uint32),
    )
    layout = None
    for first in range(0, count, step):
        block = [c[first : first + step] for c in columns]
        texts = {i: _text_slots(list(map(format_cell, c))) for i, c in enumerate(block) if kinds[i] not in "fb"}
        widths = [texts[i][0].shape[1] if i in texts else 20 if kind == "f" else 1 for i, kind in enumerate(kinds)]
        if widths != layout:
            # A slot of each width and its separator; a float slot keeps the kernel's bytes.
            layout, ends = widths, np.cumsum(np.add(widths, 1))
            starts = ends - widths - 1
            matrix = np.empty((rows, ends[-1]), np.uint8)
            mask = np.ones(matrix.shape, bool)
            matrix[:, ends - 1] = ord(",")
            matrix[:, -1] = ord("\n")
            for start in starts[floats].tolist():
                mask[:, start : start + 20] = _FLOAT_KEEP
        data, kept = matrix[: len(block[0])], mask[: len(block[0])]
        for i, kind in enumerate(kinds):
            if kind == "b":
                np.add(block[i].view(np.uint8), ord("0"), out=data[:, starts[i]])
            elif i in texts:
                data[:, starts[i] : starts[i] + widths[i]], kept[:, starts[i] : starts[i] + widths[i]] = texts[i]
        fallback = _float_cells([block[i] for i in floats], starts[floats], data, kept, work) if floats else None
        yield data[kept].tobytes()
        if fallback is not None:
            kept[fallback] = _FLOAT_KEEP


def _text_slots(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of each text, left-aligned in (texts, width) slots, and their mask."""
    joined = "".join(texts)
    # A character is one byte only in ASCII text.
    sized = texts if joined.isascii() else [text.encode() for text in texts]
    lengths = np.fromiter(map(len, sized), np.int64, len(texts))
    width = int(lengths.max())
    data = np.frombuffer(joined.encode() + bytes(width), np.uint8)
    columns = np.arange(width)
    return data[(np.cumsum(lengths) - lengths)[:, None] + columns], columns < lengths[:, None]


def _float_cells(columns: list, starts: np.ndarray, data: np.ndarray, kept: np.ndarray, work: tuple):
    """Write the cells of float ``columns`` into their 20-byte slots from ``starts`` in ``data`` and ``kept``.

    Gives the ``kept`` index of the slots that :func:`format_cell` filled, whose masks
    the caller restores to the kernel's after the block, or None.
    """
    size = len(columns[0])
    magnitude = work[0][0, : len(columns) * size]
    for row, column, start in zip(magnitude.reshape(-1, size), columns, starts.tolist()):
        np.abs(column, out=row)
        np.less(column, 0.0, out=kept[:, start + 1])
    words, fallback = _float_words(magnitude, *work)
    for cells, start in zip(words.view(np.uint8).reshape(-1, size, 20), starts.tolist()):
        data[:, start : start + 20] = cells
    if not fallback.size:
        return None
    column, row = np.divmod(fallback, size)
    texts, keep = _text_slots([format_cell(columns[j][r]) for j, r in zip(column.tolist(), row.tolist())])
    slots = row[:, None], starts[column][:, None] + np.arange(20)
    data[slots[0], slots[1][:, : texts.shape[1]]] = texts
    kept[slots] = False
    kept[slots[0], slots[1][:, : texts.shape[1]]] = keep
    return slots


def _float_words(magnitude: np.ndarray, real, ints, flags, exponent, words) -> tuple[np.ndarray, np.ndarray]:
    """The ``(cells, 5)`` words of ``'%.12e' % v`` of the cells it proves, and the indices of the rest.

    ``magnitude`` holds each cell's ``|v|``, as the first row of ``real``, and the
    kernel overwrites it; the other arrays are its work arrays, of at least as many cells.

    The kernel writes a cell only where it can prove the digits.  With
    ``p = floor(log10|v|) - 12`` and ``|p| <= 22``, the power ``10**|p|`` is
    exact, so ``|v| * 10**-p``, a division or a multiplication by it, is one
    correctly rounded operation and lies within 2**-10 of the exact value.
    Where it lies in ``[1e12, 1e13)`` and more than 0.004 from every
    half-integer, its nearest integer holds the 13 digits printf rounds to.
    Every other cell, such as a zero, a subnormal, a non-finite value or a
    near-tie, goes through :func:`format_cell`, and its words hold no cell.
    The words hold the cell from its second byte, the sign, which the mask
    keeps for a negative value; a cell of ``format_cell`` is at most 20 bytes.
    """
    n = magnitude.size
    p, scaled = real[1:, :n]
    index, digits = ints[:, :n]
    proven, mask = flags[:, :n]
    exponent, words = exponent[:n], words[:n]
    with np.errstate(divide="ignore"):
        np.log10(magnitude, out=p)
    np.floor(p, out=p)
    p -= 12.0
    np.less_equal(np.abs(p, out=scaled), 22.0, out=proven)
    np.logical_not(proven, out=mask)
    np.copyto(p, 0.0, where=mask)
    np.copyto(exponent, p, casting="unsafe")
    np.copyto(magnitude, 1e12, where=mask)
    # exponent holds p from here, and p's row takes the power of ten.
    power = np.take(_POWERS_OF_TEN, np.abs(exponent, out=index), out=p, mode="clip")
    np.greater(exponent, 0, out=mask)
    np.divide(magnitude, power, out=scaled, where=mask)
    np.logical_not(mask, out=mask)
    np.multiply(magnitude, power, out=scaled, where=mask)
    whole = np.rint(scaled, out=magnitude)
    proven &= np.greater_equal(scaled, 1e12, out=mask)
    proven &= np.less(scaled, 1e13, out=mask)
    proven &= np.less(np.abs(np.subtract(scaled, whole, out=power), out=power), 0.496, out=mask)
    np.logical_not(proven, out=mask)
    np.copyto(whole, 1e12, where=mask)
    np.copyto(digits, whole, casting="unsafe")
    fallback = np.flatnonzero(mask)
    # A rounding carry to 10**13 prints as 1.000000000000 with the exponent raised.
    carry = np.equal(digits, 10**13, out=mask)
    np.copyto(digits, 10**12, where=carry)
    exponent += carry
    exponent += 22
    np.take(_EXPONENTS, exponent, out=words[:, 4], mode="clip")
    # The leading digit, then three groups of four, each split off by subtraction.
    for column, table, scale in ((0, _LEADS, 10**12), (1, _FOUR_DIGITS, 10**8), (2, _FOUR_DIGITS, 10**4)):
        np.floor_divide(digits, scale, out=index)
        np.take(table, index, out=words[:, column], mode="clip")
        index *= scale
        digits -= index
    np.take(_FOUR_DIGITS, digits, out=words[:, 3], mode="clip")
    return words, fallback
