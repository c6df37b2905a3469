"""Bounded reads and checked writes of the little-endian binary files.

Both file formats (``model_io`` and ``lsh``) go through this module.
A :class:`Writer` lays a whole file out in memory before it opens the
path, so a value that does not fit its field (a text over the u16
length limit, a count over u32, a non-finite float) raises
``ValueError`` naming the field and leaves no file behind. A
:class:`Reader` checks every read against the bytes left: running past
the end, malformed text, a non-finite float and bytes left over raise
``ValueError`` naming the path, the byte offset and the field, on one
line.

Both sides share one record shape, a run of ``u16 length, UTF-8 text,
fixed-width row`` records (attribute names, pretrained tokens, index
entries), which they lay out and parse as arrays. The layout's
:func:`ranges` is also the one such helper of the package's other
array code.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

_TEXT_LIMIT = 0xFFFF


def ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``arange(s, s + c)`` for every (s, c), concatenated."""
    return np.repeat(start - (np.cumsum(count) - count), count) + np.arange(count.sum())


def _clip(text: str, keep: int = 40) -> str:
    return repr(text) if len(text) <= keep else repr(text[:keep]) + "..."


def _first_non_finite(values: np.ndarray) -> int | None:
    """Flat index of the first non-finite value, or None."""
    finite = np.isfinite(values.ravel())
    return None if finite.all() else int(finite.argmin())


def to_f32(values, field: str) -> np.ndarray:
    """``values`` as a contiguous little-endian f32 array; a value that
    is not a finite f32 raises ``ValueError`` naming the field."""
    with np.errstate(over="ignore"):
        out = np.ascontiguousarray(values, dtype="<f4")
    bad = _first_non_finite(out)
    if bad is not None:
        raise ValueError(
            f"{field}: value {np.asarray(values).flat[bad]} at flat index {bad}"
            " is not a finite f32"
        )
    return out


class Writer:
    """The bytes of one file, laid out in memory and written by :meth:`write`."""

    def __init__(self):
        self.parts: list = []

    def raw(self, data) -> None:
        self.parts.append(data)

    def pack(self, fmt: str, field: str, *values) -> None:
        try:
            self.parts.append(struct.pack(fmt, *values))
        except struct.error as exc:
            raise ValueError(f"{field} {values} does not fit {fmt!r}: {exc}") from None

    def f32(self, values, field: str) -> None:
        self.parts.append(to_f32(values, field))

    def records(self, texts, rows: np.ndarray, field: str) -> None:
        """One ``u16 length, UTF-8 text, row`` record per text; ``rows``
        holds one fixed-width row per text (any dtype, first axis)."""
        raws = [t.encode("utf-8") for t in texts]
        lens = np.fromiter(map(len, raws), dtype=np.int64, count=len(raws))
        if lens.size and lens.max() > _TEXT_LIMIT:
            i = int(lens.argmax())
            raise ValueError(
                f"{field} {_clip(texts[i])} is {lens[i]} bytes in UTF-8,"
                f" over the limit of {_TEXT_LIMIT}"
            )
        rows = np.ascontiguousarray(rows)
        width = rows.itemsize * math.prod(rows.shape[1:])
        rows = rows.view(np.uint8).reshape(len(raws), width)
        size = 2 + lens + width
        starts = np.cumsum(size) - size
        out = np.empty(int(size.sum()), dtype=np.uint8)
        out[starts] = lens & 0xFF
        out[starts + 1] = lens >> 8
        text = np.frombuffer(b"".join(raws), dtype=np.uint8)
        out[ranges(starts + 2, lens)] = text
        out[(starts + 2 + lens)[:, None] + np.arange(width)] = rows
        self.parts.append(out)

    def write(self, path: str | Path) -> None:
        with open(path, "wb") as fh:
            for part in self.parts:
                fh.write(part)


class Reader:
    """Bounded reads over the bytes of one file.

    Every read names the field it reads; ``last`` is the byte offset
    where the latest read started, for checks made on its value.
    """

    def __init__(self, data: bytes, path: str | Path):
        self.data = memoryview(data)
        self.path = path
        self.pos = 0
        self.last = 0

    def fail(self, what: str, field: str, pos: int | None = None) -> ValueError:
        at = self.pos if pos is None else pos
        return ValueError(f"{self.path}: {what} at byte {at} while reading {field}")

    def take(self, n: int, field: str) -> memoryview:
        left = len(self.data) - self.pos
        if n > left:
            raise self.fail(f"truncated ({n} bytes needed, {left} left)", field)
        self.last = self.pos
        self.pos += n
        return self.data[self.last : self.pos]

    def unpack(self, fmt: str, field: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), field))

    def text(self, field: str) -> str:
        (n,) = self.unpack("<H", f"{field} length")
        try:
            return str(self.take(n, field), "utf-8")
        except UnicodeDecodeError:
            raise self.fail("invalid UTF-8", field, self.last) from None

    def array(self, dtype: str, count: int, field: str) -> np.ndarray:
        """``count`` raw numbers of ``dtype``, read-only."""
        return np.frombuffer(self.take(np.dtype(dtype).itemsize * count, field), dtype=dtype)

    def finite(self, values: np.ndarray, offsets, field: str) -> None:
        """Fail on the first non-finite value of the f32 ``values``, row i
        read from byte ``offsets[i]`` as part of ``field.format(i)``."""
        bad = _first_non_finite(values)
        if bad is not None:
            i, j = divmod(bad, max(values.shape[-1], 1))
            raise self.fail(
                f"non-finite value {values.flat[bad]}", field.format(i), int(offsets[i]) + 4 * j
            )

    def f32(self, shape: tuple[int, ...], field: str) -> np.ndarray:
        """The next f32 values as a new float32 array of ``shape``; a
        non-finite value fails."""
        values = self.array("<f4", math.prod(shape), field)
        self.finite(values.reshape(1, -1), [self.last], field)
        return values.astype(np.float32).reshape(shape)

    def records(
        self, n: int, width: int, text_field: str, row_field: str, floats: int | None = None
    ) -> tuple[list[str], np.ndarray, list[int]]:
        """``n`` records as :meth:`Writer.records` lays them out.

        Record i is read as ``text_field.format(i)`` and
        ``row_field.format(i)``. Returns the texts, the rows as an (n,
        width) uint8 array and each record's byte offset. When
        ``floats`` is given, the row bytes from there on are f32 and must
        be finite.
        """
        texts, starts, row_at = [], [], []
        data, size = self.data, len(self.data)
        for i in range(n):
            at = self.pos
            k = data[at] | data[at + 1] << 8 if at + 2 <= size else 0
            if at + 2 + k + width > size:  # the checked reads say what is cut short
                self.text(text_field.format(i))
                self.take(width, row_field.format(i))
            try:
                texts.append(str(data[at + 2 : at + 2 + k], "utf-8"))
            except UnicodeDecodeError:
                raise self.fail("invalid UTF-8", text_field.format(i), at + 2) from None
            starts.append(at)
            row_at.append(at + 2 + k)
            self.pos = at + 2 + k + width
        if not row_at:  # width comes from the file: allocate nothing by it
            return texts, np.zeros((0, width), dtype=np.uint8), starts
        buf = np.frombuffer(self.data, dtype=np.uint8)
        rows = buf[np.array(row_at, dtype=np.int64)[:, None] + np.arange(width)]
        if floats is not None:
            values = rows[:, floats:].view("<f4")
            self.finite(values, [a + floats for a in row_at], row_field)
        return texts, rows, starts

    def finish(self) -> None:
        extra = len(self.data) - self.pos
        if extra:
            raise ValueError(f"{self.path}: {extra} trailing bytes at byte {self.pos}")
