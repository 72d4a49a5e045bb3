"""In-memory columnar tables and key/row-id vectors.

A table is two columns: a 64-bit float key column and a fixed-width opaque
payload column. Rows are addressed by 4-byte unsigned row identifiers, which
caps tables at 2**32 - 1 rows. The split matters because the device side of
this package only ever sees (key, row id) pairs, 12 bytes per entry; payload
bytes stay on the host until late materialization.

A generated table stores only its keys. Its payload column is a
SeededPayload: byte j of row r is a splitmix64 hash of (seed, r, j), computed
only for the rows a caller asks for, so a query pays for the payload bytes of
the k rows it returns and nothing else. Tables built from arrays (and every
loaded table) store their payload bytes.

Each table builds its KeyVector once, with read-only row ids, so key
extraction is free.

Dump format (little-endian): magic b"GOLP", u32 version (currently 1), u64 row
count, u32 payload width, u64 generator seed, then the key column as raw
float64 and the payload column as raw bytes.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

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

# Rows per block when a whole generated payload column is built or written:
# about 12 MB of bytes at the default width, plus its uint64 scratch.
BLOCK_ROWS = 1 << 16

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(state: np.ndarray) -> np.ndarray:
    """splitmix64's next output for each uint64 state, computed in place."""
    state += _GAMMA
    state ^= state >> np.uint64(30)
    state *= _MIX1
    state ^= state >> np.uint64(27)
    state *= _MIX2
    state ^= state >> np.uint64(31)
    return state


class SeededPayload:
    """A read-only (n, width) uint8 payload column that stores no bytes.

    Row r is computed when asked for: h = splitmix64 output r of the stream
    seeded with seed, then 32-bit word w of the row is the high half of
    h * m_w, for fixed odd multipliers m_w, stored little-endian. Row r's
    bytes depend only on (seed, r, width), not on n, so a shorter column is a
    prefix of a longer one, and they are the same on every platform.
    """

    def __init__(self, n: int, width: int, seed: int) -> None:
        if not 0 <= n <= MAX_ROWS:
            raise ValueError(f"row count {n} is outside 0..2**32 - 1")
        if width < 1:
            raise ValueError("payload width must be at least 1 byte")
        self.shape = (n, width)
        self._state = np.uint64(seed & MASK64)
        words = -(-width // 4)
        self._mult = _splitmix64(np.arange(words, dtype=np.uint64) * _GAMMA) | np.uint64(1)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, index) -> np.ndarray:
        n = self.shape[0]
        if isinstance(index, slice):
            return self.rows(np.arange(*index.indices(n)))
        if isinstance(index, (int, np.integer)):
            return self[np.array([index])][0]
        rows = np.asarray(index)
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise IndexError("payload rows take an int, a slice or a 1-D integer array")
        if rows.size:
            lo, hi = int(rows.min()), int(rows.max())
            if lo < -n or hi >= n:
                raise IndexError(f"row {hi if hi >= n else lo} out of range for {n} rows")
            if lo < 0:
                rows = np.where(rows < 0, rows + n, rows)
        return self.rows(rows)

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """Payload bytes of row ids the caller has checked to lie in 0..n-1.

        materialize checks its ids once and calls this; indexing checks them
        itself first.
        """
        state = ids.astype(np.uint64)
        state *= _GAMMA
        state += self._state
        words = _splitmix64(state)[:, None] * self._mult
        words >>= np.uint64(32)
        out = words.astype("<u4").view(np.uint8)
        return out if out.shape[1] == self.shape[1] else out[:, : self.shape[1]]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a SeededPayload stores no bytes to share")
        out = np.empty(self.shape, dtype=np.uint8)
        for start in range(0, len(self), BLOCK_ROWS):
            out[start : start + BLOCK_ROWS] = self[start : start + BLOCK_ROWS]
        return out if dtype is None else out.astype(dtype, copy=False)


@dataclass
class ColumnTable:
    """A key column and a payload column: stored uint8 rows or a SeededPayload.

    The table's KeyVector (read-only keys, read-only row ids 0..n-1) is built
    here once; its constructor is the table's finite-key check.
    """

    key_column: np.ndarray
    payload_column: np.ndarray | SeededPayload
    seed: int = 0
    key_vector: KeyVector = field(init=False, repr=False)

    def __post_init__(self) -> None:
        keys = np.ascontiguousarray(self.key_column, dtype=np.float64)
        payload = self.payload_column
        stored = not isinstance(payload, SeededPayload)
        if stored:
            payload = np.ascontiguousarray(payload, dtype=np.uint8)
            if payload.ndim != 2:
                raise ValueError("payload column must be a 2-D byte array")
        if keys.ndim != 1 or len(keys) != payload.shape[0]:
            raise ValueError("key and payload columns must have equal row counts")
        if len(keys) > MAX_ROWS:
            raise ValueError(f"row count {len(keys)} exceeds the 2**32 - 1 row-id limit")
        if payload.shape[1] < 1:
            raise ValueError("payload width must be at least 1 byte")
        rows = np.arange(len(keys), dtype=np.uint32)
        key_vector = KeyVector(keys=keys, rows=rows)
        keys.setflags(write=False)
        rows.setflags(write=False)
        if stored:
            payload.setflags(write=False)
        object.__setattr__(self, "key_vector", key_vector)
        object.__setattr__(self, "key_column", keys)
        object.__setattr__(self, "payload_column", payload)

    @property
    def row_count(self) -> int:
        return len(self.key_column)

    @property
    def payload_bytes(self) -> int:
        return int(self.payload_column.shape[1])


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


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed & MASK64))


def generate_table(
    n: int,
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
    seed: int = 0,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> ColumnTable:
    """Deterministic synthetic table: same (n, payload_bytes, seed), same bytes.

    Only the key column is drawn and stored (random_keys, its own stream, so
    it does not depend on payload_bytes). The payload is a SeededPayload,
    computed per row when rows are read. memory_budget still bounds the
    table's logical size, n * (8 + payload_bytes): the bytes a full
    materialization or a dump would hold.
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
    return ColumnTable(
        key_column=random_keys(n, seed),
        payload_column=SeededPayload(n, payload_bytes, seed),
        seed=seed,
    )


def random_keys(n: int, seed: int) -> np.ndarray:
    """The key column generate_table(n, ..., seed) would produce, by itself."""
    return _rng(seed).integers(0, KEY_DOMAIN, size=n, dtype=np.int64).astype(np.float64)


def random_key_vector(n: int, seed: int) -> KeyVector:
    return KeyVector(keys=random_keys(n, seed), rows=np.arange(n, dtype=np.uint32))


def extract_keys(table: ColumnTable) -> KeyVector:
    # The table's own vector, shared read-only: extraction is free in a
    # columnar layout, which is the premise of key-only offloading.
    return table.key_vector


def materialize(table: ColumnTable, rows) -> MaterializedResult:
    row_arr = np.asarray(rows)
    if row_arr.ndim != 1:
        raise ValueError("rows must be a 1-D sequence of row ids")
    if row_arr.size:
        if row_arr.dtype.kind not in "iu":
            raise ValueError(f"row ids must be integers, not {row_arr.dtype}")
        lo = row_arr.min()
        hi = row_arr.max()
        if lo < 0 or hi >= table.row_count:
            raise IndexError(
                f"row id {int(hi if hi >= table.row_count else lo)} out of range "
                f"for table of {table.row_count} rows"
            )
    row_arr = row_arr.astype(np.uint32)
    payload = table.payload_column
    return MaterializedResult(
        row_ids=row_arr,
        keys=table.key_column[row_arr],
        # the ids are checked above, so a seeded column does not check them again
        payloads=payload.rows(row_arr) if isinstance(payload, SeededPayload) else payload[row_arr],
    )


def save_table(table: ColumnTable, path) -> None:
    """Write a dump; the payload goes out BLOCK_ROWS rows at a time."""
    header = _HEADER.pack(
        TABLE_MAGIC,
        TABLE_VERSION,
        table.row_count,
        table.payload_bytes,
        table.seed & MASK64,
    )
    payload = table.payload_column
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(table.key_column.astype("<f8", copy=False))
        for start in range(0, table.row_count, BLOCK_ROWS):
            fh.write(np.ascontiguousarray(payload[start : start + BLOCK_ROWS]))


def load_table(path) -> ColumnTable:
    """Read a dump: each column is read straight into its own array."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError("truncated table file")
        magic, version, n, payload_bytes, seed = _HEADER.unpack(head)
        if magic != TABLE_MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if version != TABLE_VERSION:
            raise ValueError(f"unsupported version {version}")
        body = os.fstat(fh.fileno()).st_size - _HEADER.size
        expect = n * KEY_BYTES + n * payload_bytes
        if body != expect:
            raise ValueError(f"table body is {body} bytes, expected {expect}")
        keys = np.fromfile(fh, dtype="<f8", count=n)
        payload = np.fromfile(fh, dtype=np.uint8, count=n * payload_bytes)
    return ColumnTable(key_column=keys, payload_column=payload.reshape(n, payload_bytes), seed=seed)
