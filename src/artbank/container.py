"""The binary container shared by the style bank (magic ``ISPB``) and the
denoiser checkpoint (magic ``ABDN``).

A file is four magic bytes and a u16 version, then a format-specific run of
little-endian u32 fields, u32-length-prefixed UTF-8 strings and float64
arrays, and nothing after the last declared byte. Every way a file can fail
to match that layout raises a ``FormatError`` subclass.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import (BadMagicError, FormatError, MalformedHeaderError,
                     TruncatedFileError, VersionMismatchError)


class Writer:
    """Accumulates one file's bytes, starting with its magic and version."""

    def __init__(self, magic: bytes, version: int):
        self._parts = [magic, struct.pack("<H", version)]

    def u32(self, *values: int) -> None:
        self._parts.append(struct.pack(f"<{len(values)}I", *values))

    def string(self, text: str) -> None:
        raw = text.encode("utf-8")
        self.u32(len(raw))
        self._parts.append(raw)

    def array(self, arr: np.ndarray) -> None:
        self._parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    """Reads one file's fields in order after checking its magic and version.

    ``kind`` names the format in error messages ("bank", "checkpoint").
    """

    def __init__(self, raw: bytes, magic: bytes, version: int, kind: str):
        self._raw = raw
        self._pos = 0
        # A file shorter than the magic is truncated if what it holds is a
        # prefix of the magic, and not this format otherwise.
        head = raw[:len(magic)]
        if head != magic[:len(head)]:
            raise BadMagicError(f"not a {kind} file (bad magic)")
        self._take(len(magic), "magic")
        found = struct.unpack("<H", self._take(2, "version"))[0]
        if found != version:
            raise VersionMismatchError(f"unsupported {kind} version: {found}")

    def _take(self, n: int, what: str) -> bytes:
        if n > len(self._raw) - self._pos:
            raise TruncatedFileError(f"file ended while reading {what}")
        chunk = self._raw[self._pos:self._pos + n]
        self._pos += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self._take(4, what))[0]

    def string(self, what: str) -> str:
        raw = self._take(self.u32(f"{what} length"), what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedHeaderError(f"{what} is not valid UTF-8") from None

    def array(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        """A writable float64 array of ``shape``; every value must be finite."""
        # Python ints: a corrupt dimension must not wrap around in numpy.
        chunk = self._take(8 * math.prod(shape), what)
        arr = np.frombuffer(chunk, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.isfinite(arr).all():
            raise FormatError(f"{what} holds a non-finite value")
        return arr

    def finish(self) -> None:
        extra = len(self._raw) - self._pos
        if extra:
            raise FormatError(f"{extra} trailing bytes after the payload")
