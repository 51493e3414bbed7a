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
from itertools import chain
from pathlib import Path

import numpy as np

__all__ = ["CsvTable", "format_cell"]

# Cells formatted at once: one block's byte slots, not the whole table's, set
# the peak memory of rendering or writing a table.
_RENDER_CELLS = 2**13
# 10**k for 0 <= k <= 22, all exact doubles; 10**23 is not.
_POWERS_OF_TEN = np.array([float(10**k) for k in range(23)])
# The float kernel fills a cell's 20 bytes as five 4-byte words: "\0-" and
# the leading digit and point, three groups of four digits, and "e-10" ...
# "e+35".  Byte 0 is padding and byte 1 the sign, kept for negative values.
_LEADS = np.array([list(b"\0-%d." % d) for d in range(10)], np.uint8).view(np.uint32).ravel()
_FOUR_DIGITS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0"))
_FOUR_DIGITS = _FOUR_DIGITS.view(np.uint32).ravel()
_EXPONENTS = np.array([list(b"e%+03d" % e) for e in range(-10, 36)], np.uint8).view(np.uint32).ravel()


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
        for i in range(0, lengths[0], step):
            yield _block_bytes([c[i : i + step] for c in data])


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


def _block_bytes(columns: list) -> bytes:
    """The UTF-8 CSV lines of one block of columns, each ending in a newline."""
    # The cells' own slots are freed once _block_slots returns, before the bytes are gathered.
    data, kept = _block_slots(columns)
    return data[kept].tobytes()


def _block_slots(columns: list) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, width) byte slots of one block of CSV lines, and the mask of the bytes kept.

    The columns of one kind are formatted together: float arrays by the ``%.12e``
    kernel, bool arrays as ``1``/``0``, any other by :func:`format_cell`.
    """
    count = len(columns[0])
    kinds = [c.dtype.kind if isinstance(c, np.ndarray) else "O" for c in columns]
    slots = [None] * len(columns)
    for kind in dict.fromkeys(kinds):
        indices = [i for i, k in enumerate(kinds) if k == kind]
        group = [columns[i] for i in indices]
        if kind == "f":
            parts = _float_slots(np.array(group, np.float64))
        elif kind == "b":
            digits = np.array(group, np.uint8)[..., None] + ord("0")
            parts = digits, np.ones(digits.shape, bool)
        else:
            texts = list(map(format_cell, chain.from_iterable(group)))
            parts = [part.reshape(len(group), count, part.shape[1]) for part in _text_slots(texts)]
        for index, cells, keep in zip(indices, *parts):
            slots[index] = cells, keep

    ends = [np.full((count, 1), ord(end), np.uint8) for end in "," * (len(columns) - 1) + "\n"]
    always = np.ones((count, 1), bool)
    data = np.concatenate([part for (cells, _), end in zip(slots, ends) for part in (cells, end)], axis=1)
    kept = np.concatenate([part for _, keep in slots for part in (keep, always)], axis=1)
    return data, kept


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


def _float_slots(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``'%.12e' % v`` of (columns, rows) floats in (columns, rows, width) slots, and the mask of the bytes kept.

    The kernel writes a cell only where it can prove the digits.  With
    ``p = floor(log10|v|) - 12`` and ``|p| <= 22``, the power ``10**|p|`` is
    exact, so ``|v| * 10**-p``, a division or a multiplication by it, is one
    correctly rounded operation and lies within 2**-10 of the exact value.
    Where it lies in ``[1e12, 1e13)`` and more than 0.004 from every
    half-integer, its nearest integer holds the 13 digits printf rounds to.
    Every other cell, such as a zero, a subnormal, a non-finite value or a
    near-tie, goes through :func:`format_cell`.
    """
    signed = values.ravel()
    magnitude = np.abs(signed)
    with np.errstate(divide="ignore"):
        p = np.floor(np.log10(magnitude)) - 12.0
    proven = np.abs(p) <= 22.0
    p = np.where(proven, p, 0.0).astype(np.int64)
    magnitude[~proven] = 1e12
    power = _POWERS_OF_TEN[np.abs(p)]
    scaled = np.where(p > 0, magnitude / power, magnitude * power)
    whole = np.rint(scaled)
    proven &= (scaled >= 1e12) & (scaled < 1e13) & (np.abs(scaled - whole) < 0.496)
    digits = np.where(proven, whole, 1e12).astype(np.int64)
    # A rounding carry to 10**13 prints as 1.000000000000 with the exponent raised.
    carry = digits == 10**13
    digits[carry] = 10**12
    fallback = np.flatnonzero(~proven).tolist()
    width = 20
    if fallback:
        cells, kept = _text_slots(list(map(format_cell, signed[fallback].tolist())))
        width = max(width, cells.shape[1])

    words = np.zeros((signed.size, -(-width // 4)), np.uint32)
    words[:, 0] = _LEADS[digits // 10**12]
    digits %= 10**12
    words[:, 1] = _FOUR_DIGITS[digits // 10**8]
    words[:, 2] = _FOUR_DIGITS[digits // 10**4 % 10**4]
    words[:, 3] = _FOUR_DIGITS[digits % 10**4]
    words[:, 4] = _EXPONENTS[p + carry + 22]
    slots = words.view(np.uint8)
    keep = np.zeros(slots.shape, bool)
    keep[:, 1] = signed < 0.0
    keep[:, 2:20] = True
    if fallback:
        slots[fallback, : cells.shape[1]] = cells
        keep[fallback] = False
        keep[fallback, : cells.shape[1]] = kept
    return slots.reshape(*values.shape, -1), keep.reshape(*values.shape, -1)
