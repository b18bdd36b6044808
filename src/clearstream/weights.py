"""Weight bundle container and its binary serialization format.

Layout ("CBW1"): a fixed 8-byte header, then one record per tensor.

    header:  magic b"CBW1" (the trailing byte is the format version digit),
             u32 LE record count
    record:  u16 LE name length, name bytes (UTF-8),
             u8 ndim, ndim x u32 LE dims,
             prod(dims) float32 LE values

All tensors are float32.  Loading is defensive: malformed input raises a
typed subclass of WeightFormatError (never an arbitrary exception), and
oversized dim products are rejected before any allocation happens.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"CBW1"

# Hard cap on elements per tensor; anything above is treated as a
# corrupt header rather than an allocation request.
_MAX_ELEMENTS = 1 << 31
_MAX_NDIM = 32


class WeightFormatError(Exception):
    """Base class for malformed weight bundles."""


class BadMagicError(WeightFormatError):
    pass


class TruncatedBundleError(WeightFormatError):
    pass


class DimOverflowError(WeightFormatError):
    pass


@dataclass
class TensorRecord:
    name: str
    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float32)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape


@dataclass
class WeightBundle:
    """Named float32 tensors.

    bind keeps what is built from the tensors, such as the pipeline's
    engines, for the bundle's lifetime.  The first bind makes the bundle
    read-only: its tensors stop being writeable and add raises, so
    nothing bound can go stale.
    """

    records: dict[str, TensorRecord] = field(default_factory=dict)
    _bound: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def add(self, name: str, data: np.ndarray) -> None:
        if self._bound:
            raise ValueError("bundle is read-only: engines are bound to it")
        if name in self.records:
            raise ValueError(f"duplicate tensor name: {name}")
        self.records[name] = TensorRecord(name, data)

    def tensor(self, name: str) -> np.ndarray:
        if name not in self.records:
            raise KeyError(f"bundle is missing tensor {name!r}")
        return self.records[name].data

    def names(self) -> list[str]:
        return list(self.records)

    def bind(self, key, build):
        """build(self, key), built on the first call with an equal key
        and kept until the bundle is dropped."""
        if key not in self._bound:
            for rec in self.records.values():
                if rec.data.base is not None:  # a view, writable through its base
                    rec.data = rec.data.copy()
            built = build(self, key)
            for rec in self.records.values():
                rec.data.flags.writeable = False
            self._bound[key] = built
        return self._bound[key]

    def validate_specs(self, specs: list[tuple[str, tuple[int, ...], int]]) -> None:
        """Check that every (name, shape, fan_in) spec is satisfied."""
        for name, shape, _ in specs:
            if name not in self.records:
                raise ValueError(f"bundle is missing tensor {name!r}")
            got = self.records[name].dims
            if tuple(got) != tuple(shape):
                raise ValueError(
                    f"tensor {name!r} has dims {got}, expected {tuple(shape)}"
                )


def random_init(config, seed: int) -> WeightBundle:
    """Uniform init in [-k, k] with k = 1/sqrt(fan_in), per tensor.

    config is anything exposing tensor_specs() -> [(name, shape, fan_in)]
    (an engine config or the whole pipeline config).  The same (config,
    seed) pair always produces a byte-identical bundle.
    """
    specs = config.tensor_specs()
    rng = np.random.default_rng(seed)
    bundle = WeightBundle()
    for name, shape, fan_in in specs:
        k = 1.0 / np.sqrt(float(fan_in))
        bundle.add(name, rng.uniform(-k, k, size=shape).astype(np.float32))
    return bundle


def zero_init(config) -> WeightBundle:
    """All-zero bundle for the given config (useful in tests)."""
    specs = config.tensor_specs()
    bundle = WeightBundle()
    for name, shape, _ in specs:
        bundle.add(name, np.zeros(shape, dtype=np.float32))
    return bundle


def dump_weights(bundle: WeightBundle) -> bytes:
    chunks = [MAGIC, struct.pack("<I", len(bundle.records))]
    for rec in bundle.records.values():
        name_b = rec.name.encode("utf-8")
        if len(name_b) > 0xFFFF:
            raise ValueError(f"tensor name too long: {rec.name!r}")
        if rec.data.ndim > _MAX_NDIM:
            raise ValueError(f"tensor {rec.name!r} has too many dims")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<B", rec.data.ndim))
        chunks.append(struct.pack(f"<{rec.data.ndim}I", *rec.data.shape))
        chunks.append(
            np.ascontiguousarray(rec.data, dtype="<f4").tobytes()
        )
    return b"".join(chunks)


def save_weights(bundle: WeightBundle, path: str | Path) -> None:
    Path(path).write_bytes(dump_weights(bundle))


class _Reader:
    """Cursor over a binary file of known size.  Each record is checked
    against the bytes left before anything is allocated for it, and its
    values are read straight into their array: no copy of the whole
    file is held."""

    def __init__(self, f: io.BufferedIOBase, size: int):
        self.f, self.size, self.pos = f, size, 0

    def _advance(self, n: int) -> None:
        if self.pos + n > self.size:
            raise TruncatedBundleError(
                f"needed {n} bytes at offset {self.pos}, "
                f"only {self.size - self.pos} remain"
            )
        self.pos += n

    def take(self, n: int) -> bytes:
        self._advance(n)
        out = self.f.read(n)
        if len(out) != n:  # the file shrank while being read
            raise TruncatedBundleError(f"file ended before offset {self.pos}")
        return out

    def floats(self, dims: tuple[int, ...], n_elem: int) -> np.ndarray:
        self._advance(4 * n_elem)
        out = np.empty(dims, dtype="<f4")
        if self.f.readinto(memoryview(out).cast("B")) != out.nbytes:
            raise TruncatedBundleError(f"file ended before offset {self.pos}")
        return out.astype(np.float32, copy=False)

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def parse_weights(buf: bytes) -> WeightBundle:
    return _parse(_Reader(io.BytesIO(buf), len(buf)))


def _parse(r: _Reader) -> WeightBundle:
    magic = bytes(r.take(4))
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    count = r.u32()
    bundle = WeightBundle()
    for _ in range(count):
        name_len = r.u16()
        try:
            name = str(r.take(name_len), "utf-8")
        except UnicodeDecodeError as e:
            raise WeightFormatError(f"undecodable tensor name: {e}") from e
        ndim = r.u8()
        if ndim > _MAX_NDIM:
            raise DimOverflowError(f"tensor {name!r} declares ndim={ndim}")
        dims = tuple(r.u32() for _ in range(ndim))
        n_elem = 1
        for d in dims:
            n_elem *= d
        if n_elem > _MAX_ELEMENTS:
            raise DimOverflowError(
                f"tensor {name!r} declares {n_elem} elements (dims {dims})"
            )
        data = r.floats(dims, n_elem)
        if name in bundle.records:
            raise WeightFormatError(f"duplicate tensor name {name!r}")
        bundle.add(name, data)
    if r.pos != r.size:
        raise WeightFormatError(
            f"{r.size - r.pos} trailing bytes after last record"
        )
    return bundle


def load_weights(path: str | Path) -> WeightBundle:
    with open(path, "rb") as f:
        return _parse(_Reader(f, os.fstat(f.fileno()).st_size))
