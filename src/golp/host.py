"""CPU-path primitives: full sort, bounded-heap Top-K, hash build/probe.

These are the baselines the dispatch gate compares against. All functions are
pure and single-threaded; parallel execution belongs to the device backends.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .store import DEFAULT_MEMORY_BUDGET, MASK64, KeyVector

ROW_EMPTY = np.uint32(0xFFFFFFFF)  # rowids cap at 2**32 - 2, so this slot value means "free"

_U64 = np.uint64


@dataclass
class TopKResult:
    rows: np.ndarray
    k_requested: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", np.ascontiguousarray(self.rows, dtype=np.uint32))

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class ProbeResult:
    """Equal-key pairs in probe order, then build insertion order."""

    probe_rows: np.ndarray
    build_rows: np.ndarray
    probe_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "probe_rows", np.ascontiguousarray(self.probe_rows, dtype=np.uint32))
        object.__setattr__(self, "build_rows", np.ascontiguousarray(self.build_rows, dtype=np.uint32))
        if len(self.probe_rows) != len(self.build_rows):
            raise ValueError("probe and build row arrays must have equal length")

    @property
    def matches(self) -> list[tuple[int, int]]:
        return [(int(p), int(b)) for p, b in zip(self.probe_rows, self.build_rows)]

    @property
    def match_count(self) -> int:
        return len(self.probe_rows)


def key_bits(keys: np.ndarray) -> np.ndarray:
    # +0.0 folds -0.0 onto +0.0 so keys that compare equal hash equally.
    return (np.ascontiguousarray(keys, dtype=np.float64) + 0.0).view(np.uint64)


def mix64_array(bits: np.ndarray) -> np.ndarray:
    z = bits.astype(np.uint64, copy=True)
    z ^= z >> _U64(30)
    z *= _U64(0xBF58476D1CE4E5B9)
    z ^= z >> _U64(27)
    z *= _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)
    return z


def mix64(bits: int) -> int:
    z = bits & MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    return z


class KeyHashTable:
    """Open-addressed (key, rowid) multimap with linear probing.

    Capacity is fixed at build time (next power of two keeping the load factor
    at or below load_factor_max), so the slot layout is a deterministic
    function of the insertion sequence. Duplicate keys are all retained;
    scanning a probe chain visits them in insertion order.
    """

    load_factor_max = 0.7

    def __init__(self, capacity: int):
        if capacity < 1 or capacity & (capacity - 1):
            raise ValueError("capacity must be a positive power of two")
        self.capacity = capacity
        self.mask = capacity - 1
        self.slot_bits = np.zeros(capacity, dtype=np.uint64)
        self.slot_rows = np.full(capacity, ROW_EMPTY, dtype=np.uint32)
        self.build_count = 0

    def insert(self, bits: int, row: int) -> None:
        if (self.build_count + 1) > self.load_factor_max * self.capacity:
            raise CapacityError("hash table load factor limit exceeded")
        cur = mix64(bits) & self.mask
        rows = self.slot_rows
        while rows[cur] != ROW_EMPTY:
            cur = (cur + 1) & self.mask
        self.slot_bits[cur] = bits
        rows[cur] = row
        self.build_count += 1

    def lookup(self, key: float) -> list[int]:
        bits = np.float64(key + 0.0).view(np.uint64)
        cur = mix64(int(bits)) & self.mask
        out: list[int] = []
        rows = self.slot_rows
        slot_bits = self.slot_bits
        while rows[cur] != ROW_EMPTY:
            if slot_bits[cur] == bits:
                out.append(int(rows[cur]))
            cur = (cur + 1) & self.mask
        return out


def host_full_sort(keys: KeyVector) -> np.ndarray:
    """Row ids ordered by key ascending; equal keys by ascending row id."""
    order = np.lexsort((keys.rows, keys.keys))
    return keys.rows[order]


def host_topk(keys: KeyVector, k: int) -> TopKResult:
    """The k largest keys, descending; equal keys by ascending row id.

    Bounded min-heap of size k (O(N log k)), not a full sort.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    take = min(k, len(keys))
    neg_rows = -keys.rows.astype(np.int64)
    best = heapq.nlargest(take, zip(keys.keys.tolist(), neg_rows.tolist()))
    rows = np.array([-neg for _, neg in best], dtype=np.uint32)
    return TopKResult(rows=rows, k_requested=k)


def host_hash_build(
    build_keys: KeyVector, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> KeyHashTable:
    n = len(build_keys)
    capacity = 8
    while capacity * KeyHashTable.load_factor_max < n:
        capacity *= 2
    # 8 bytes of key bits + 4 bytes of rowid per slot
    if capacity * 12 > memory_budget:
        raise CapacityError(
            f"hash table of {capacity} slots ({capacity * 12} bytes) exceeds "
            f"the {memory_budget}-byte budget"
        )
    table = KeyHashTable(capacity)
    bits = key_bits(build_keys.keys)
    rows = build_keys.rows
    for i in range(n):
        table.insert(int(bits[i]), int(rows[i]))
    return table


def host_hash_probe(table: KeyHashTable, probe_keys: KeyVector) -> ProbeResult:
    bits = key_bits(probe_keys.keys)
    probe_rows = probe_keys.rows
    out_probe: list[int] = []
    out_build: list[int] = []
    slot_bits = table.slot_bits
    slot_rows = table.slot_rows
    mask = table.mask
    for i in range(len(probe_keys)):
        b = bits[i]
        cur = mix64(int(b)) & mask
        while slot_rows[cur] != ROW_EMPTY:
            if slot_bits[cur] == b:
                out_probe.append(int(probe_rows[i]))
                out_build.append(int(slot_rows[cur]))
            cur = (cur + 1) & mask
    return ProbeResult(
        probe_rows=np.array(out_probe, dtype=np.uint32),
        build_rows=np.array(out_build, dtype=np.uint32),
        probe_count=len(probe_keys),
    )
