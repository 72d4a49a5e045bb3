"""In-memory columnar tables and key/row-id vectors.

A table is two columns: a 64-bit float key column and a fixed-width opaque
payload column. Rows are addressed by 4-byte unsigned row identifiers, which
caps tables at 2**32 - 1 rows. The split matters because the device side of
this package only ever sees (key, row id) pairs, 12 bytes per entry; payload
bytes stay on the host until late materialization.

Dump format (little-endian): magic b"GOLP", u32 version (currently 1), u64 row
count, u32 payload width, u64 generator seed, then the key column as raw
float64 and the payload column as raw bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

KEY_BYTES = 8
ROW_ID_BYTES = 4
KEY_ENTRY_BYTES = KEY_BYTES + ROW_ID_BYTES
MAX_ROWS = 2**32 - 1
DEFAULT_PAYLOAD_BYTES = 188
DEFAULT_MEMORY_BUDGET = 2 * 1024**3
MASK64 = (1 << 64) - 1

TABLE_MAGIC = b"GOLP"
TABLE_VERSION = 1
_HEADER = struct.Struct("<4sIQIQ")

# Keys are random integers below 2**53 stored as float64, so every key is
# exactly representable and float comparisons are exact.
KEY_DOMAIN = 2**53


@dataclass
class ColumnTable:
    key_column: np.ndarray
    payload_column: np.ndarray
    seed: int = 0

    def __post_init__(self) -> None:
        keys = np.ascontiguousarray(self.key_column, dtype=np.float64)
        payload = np.ascontiguousarray(self.payload_column, dtype=np.uint8)
        if payload.ndim != 2:
            raise ValueError("payload column must be a 2-D byte array")
        if keys.ndim != 1 or len(keys) != payload.shape[0]:
            raise ValueError("key and payload columns must have equal row counts")
        if len(keys) > MAX_ROWS:
            raise ValueError(f"row count {len(keys)} exceeds the 2**32 - 1 row-id limit")
        if payload.shape[1] < 1:
            raise ValueError("payload width must be at least 1 byte")
        if len(keys) and not np.isfinite(keys).all():
            raise ValueError("keys must be finite")
        keys.setflags(write=False)
        payload.setflags(write=False)
        object.__setattr__(self, "key_column", keys)
        object.__setattr__(self, "payload_column", payload)

    @property
    def row_count(self) -> int:
        return len(self.key_column)

    @property
    def payload_bytes(self) -> int:
        return int(self.payload_column.shape[1])

    def payload_value(self, row: int) -> bytes:
        return self.payload_column[row].tobytes()


@dataclass
class KeyVector:
    """(key, row id) pairs: the only thing ever shipped to a device."""

    keys: np.ndarray
    rows: np.ndarray

    def __post_init__(self) -> None:
        keys = np.ascontiguousarray(self.keys, dtype=np.float64)
        rows = np.ascontiguousarray(self.rows, dtype=np.uint32)
        if keys.shape != rows.shape or keys.ndim != 1:
            raise ValueError("keys and rows must be 1-D arrays of equal length")
        if len(keys) and not np.isfinite(keys).all():
            raise ValueError("keys must be finite")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.keys)


@dataclass
class MaterializedResult:
    """Full rows fetched for a set of row ids, in request order."""

    row_ids: np.ndarray
    keys: np.ndarray
    payloads: np.ndarray

    def __len__(self) -> int:
        return len(self.row_ids)

    def payload_value(self, i: int) -> bytes:
        return self.payloads[i].tobytes()


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed & MASK64))


def generate_table(
    n: int,
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
    seed: int = 0,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> ColumnTable:
    """Deterministic synthetic table: same (n, payload_bytes, seed), same bytes.

    Keys are drawn before payloads from a dedicated stream, so the key column
    for a given (n, seed) does not depend on payload_bytes.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > MAX_ROWS:
        raise ValueError(f"n {n} exceeds the 2**32 - 1 row-id limit")
    if payload_bytes < 1:
        raise ValueError("payload_bytes must be at least 1")
    need = n * (KEY_BYTES + payload_bytes)
    if need > memory_budget:
        raise CapacityError(
            f"table of {n} rows x {KEY_BYTES + payload_bytes} bytes "
            f"({need} bytes) exceeds the {memory_budget}-byte budget"
        )
    keys = random_keys(n, seed)
    payload = _rng(seed ^ 0x9E3779B97F4A7C15).integers(
        0, 256, size=(n, payload_bytes), dtype=np.uint8
    )
    return ColumnTable(key_column=keys, payload_column=payload, seed=seed)


def random_keys(n: int, seed: int) -> np.ndarray:
    """The key column generate_table(n, ..., seed) would produce, by itself.

    Lets key-only benchmarks skip payload generation without changing the
    workload.
    """
    return _rng(seed).integers(0, KEY_DOMAIN, size=n, dtype=np.int64).astype(np.float64)


def random_key_vector(n: int, seed: int) -> KeyVector:
    return KeyVector(keys=random_keys(n, seed), rows=np.arange(n, dtype=np.uint32))


def extract_keys(table: ColumnTable) -> KeyVector:
    # Shares the key column (read-only) instead of copying: extraction is free
    # in a columnar layout, which is the premise of key-only offloading.
    return KeyVector(keys=table.key_column, rows=np.arange(table.row_count, dtype=np.uint32))


def materialize(table: ColumnTable, rows) -> MaterializedResult:
    row_arr = np.asarray(rows)
    if row_arr.ndim != 1:
        raise ValueError("rows must be a 1-D sequence of row ids")
    if row_arr.size:
        lo = row_arr.min()
        hi = row_arr.max()
        if lo < 0 or hi >= table.row_count:
            raise IndexError(
                f"row id {int(hi if hi >= table.row_count else lo)} out of range "
                f"for table of {table.row_count} rows"
            )
    row_arr = row_arr.astype(np.uint32)
    return MaterializedResult(
        row_ids=row_arr,
        keys=table.key_column[row_arr],
        payloads=table.payload_column[row_arr],
    )


def full_row_bytes(table: ColumnTable) -> int:
    """Bytes a full-row transfer of the whole table would ship."""
    return table.row_count * (KEY_BYTES + table.payload_bytes)


def key_only_bytes(n: int) -> int:
    """Bytes a key-only transfer of n rows ships: 12 per entry, exactly."""
    return KEY_ENTRY_BYTES * n


def save_table(table: ColumnTable, path) -> None:
    header = _HEADER.pack(
        TABLE_MAGIC,
        TABLE_VERSION,
        table.row_count,
        table.payload_bytes,
        table.seed & MASK64,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(table.key_column.astype("<f8").tobytes())
        fh.write(table.payload_column.tobytes())


def load_table(path) -> ColumnTable:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError("truncated table file")
    magic, version, n, payload_bytes, seed = _HEADER.unpack_from(raw)
    if magic != TABLE_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != TABLE_VERSION:
        raise ValueError(f"unsupported version {version}")
    body = raw[_HEADER.size :]
    expect = n * KEY_BYTES + n * payload_bytes
    if len(body) != expect:
        raise ValueError(f"table body is {len(body)} bytes, expected {expect}")
    keys = np.frombuffer(body[: n * KEY_BYTES], dtype="<f8").astype(np.float64)
    payload = np.frombuffer(body[n * KEY_BYTES :], dtype=np.uint8).reshape(n, payload_bytes)
    return ColumnTable(key_column=keys, payload_column=payload.copy(), seed=seed)
