"""Little-endian framing for the TSCK, TSCQ, TSCV and WAV file formats.

``Reader`` parses one ``bytes`` object and raises the format's error class
for any malformed input; every size is checked against the bytes that
remain before anything is allocated. The functions below it build and write bytes.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DecodeError, TinySoundError


FORMATS = {b"TSCK": "checkpoint", b"TSCQ": "quantized checkpoint", b"TSCV": "vocab file",
           b"RIFF": "WAV file"}


class Reader:
    """Cursor over a file that starts with ``magic``; another is an error whose
    ``found_format`` is that magic's ``FORMATS`` name, or None."""

    def __init__(self, data: bytes, magic: bytes, error: type[TinySoundError]):
        self._data = memoryview(data)
        self._error = error
        self.kind = FORMATS[magic]  # names the file in messages
        self._field = 0  # start of the field being read, reported as the offset
        if bytes(self._data[:4]) != magic:
            exc = self.error(f"bad {self.kind} magic {bytes(self._data[:4])!r}")
            exc.found_format = FORMATS.get(bytes(self._data[:4]))
            raise exc
        self._pos = 4

    def error(self, message: str) -> TinySoundError:
        if issubclass(self._error, DecodeError):
            return self._error(message, offset=self._field)
        return self._error(message)

    @contextmanager
    def rejecting(self, what: str, *errors: type[Exception]):
        """Re-raise ``errors`` from checking decoded values as this file's error."""
        try:
            yield
        except errors as exc:
            raise self.error(f"invalid {self.kind} {what}: {exc}") from exc

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def take(self, n: int, what: str) -> memoryview:
        self._field = self._pos
        if n > self.remaining:
            raise self.error(f"truncated {self.kind} while reading {what}")
        self._pos += n
        return self._data[self._pos - n : self._pos]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, size_fmt: str, what: str) -> str:
        """A length (packed as ``size_fmt``), then that many bytes of UTF-8."""
        (size,) = self.unpack(size_fmt, what)
        raw = self.take(size, what)
        with self.rejecting(what, UnicodeDecodeError):
            return bytes(raw).decode("utf-8")

    def json_object(self, what: str) -> dict:
        """u32-length UTF-8 JSON text that must be an object."""
        with self.rejecting(what, ValueError, RecursionError):
            value = json.loads(self.text("<I", what))
        if not isinstance(value, dict):
            raise self.error(f"{what} block is a JSON {type(value).__name__}, not an object")
        return value

    def shape(self, what: str) -> tuple[int, ...]:
        """u8 ndim, then ndim u32 dims."""
        (ndim,) = self.unpack("<B", what)
        return self.unpack(f"<{ndim}I", what)

    def array(self, dtype, shape: tuple[int, ...], what: str) -> np.ndarray:
        """An owned, writeable, native-order copy of a row-major payload.

        numpy rejects (ValueError) shapes it cannot represent, such as more
        than 64 dims or an empty shape whose other dims overflow.
        """
        dtype = np.dtype(dtype)
        payload = self.take(math.prod(shape) * dtype.itemsize, what)
        with self.rejecting(f"{what} shape {shape}", ValueError):
            array = np.frombuffer(payload, dtype=dtype).reshape(shape)
        return array.astype(dtype.newbyteorder("="))


def json_block(obj) -> bytes:
    blob = json.dumps(obj, sort_keys=True).encode("utf-8")
    return struct.pack("<I", len(blob)) + blob


def name_block(name: str) -> bytes:
    encoded = name.encode("utf-8")
    return struct.pack("<H", len(encoded)) + encoded


def shape_block(shape: tuple[int, ...]) -> bytes:
    return struct.pack(f"<B{len(shape)}I", len(shape), *shape)


def write_file(path, data: bytes) -> None:
    """Every save: ``data`` to ``<path>.tmp``, then one ``os.replace`` onto ``path``."""
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
