"""CPU-path primitives: full sort, block-max Top-K, sorted-index join.

These are the baselines the dispatch gate compares against. All functions are
pure and single-threaded; parallel execution belongs to the device backends.

The Top-K is a selection, not a sort. A block-max prefilter reads half the
keys for block maxima and all of them once to compare with the k-th largest
maximum, and keeps the few rows at or above it; argpartition then selects
the k largest of those, and only those k are sorted. That is O(n + k log k)
with about 1 byte per row of scratch (the compare's mask), where an
argpartition over all n writes an 8-byte index per row. A tie-heavy input,
where more than half of a sample of one key per block reaches the
threshold, runs argpartition over all n. The proxy device runs the same two
steps, a selection per chunk and one merge.

The join keeps the host_hash_build/host_hash_probe names of a hash join, but
its build side is a sorted index: the distinct build key bits, ascending,
each with the start of its run of row ids in insertion order. The build
takes numpy's default (SIMD) argsort of the key bits, numbers the runs of
equal bits and sorts the packed (run, position) pairs once, which gives the
permutation of a stable argsort at the cost of two unstable sorts: O(b log b).
The probe sorts its key bits and merges them with the distinct keys in one
pass, a stable sort of the two sorted runs, so every probe key finds its run
without a binary search: O(p log p + d + p + matches) in vectorized numpy for
d distinct build keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .store import DEFAULT_MEMORY_BUDGET, MASK64, KeyVector


@dataclass
class TopKResult:
    rows: np.ndarray

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
    # +0.0 folds -0.0 onto +0.0 so keys that compare equal have equal bits.
    return (np.ascontiguousarray(keys, dtype=np.float64) + 0.0).view(np.uint64)


def mix64(bits: int) -> int:
    z = bits & MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    return z


@dataclass(frozen=True)
class BuildIndex:
    """Build-side keys as runs of equal key bits, with their row ids.

    distinct holds each run's key bits, ascending. Run i's row ids are
    rows[starts[i]:starts[i + 1]], in insertion order; the last start is
    len(rows).
    """

    distinct: np.ndarray
    starts: np.ndarray
    rows: np.ndarray

    def match(self, probe_bits: np.ndarray, probe_rows: np.ndarray):
        """(probe rows, build rows) of every equal-key pair, probe order first.

        The sorted probe bits are merged with the distinct build bits in one
        pass. Each probe key's run (its start and its length) is scattered
        back to its own position, so equal probe keys need no stable order.
        O(p log p + d + p + matches) for d distinct build keys.
        """
        d = len(self.distinct)
        if d == 0:
            return probe_rows[:0], self.rows
        order = np.argsort(probe_bits)
        needles = probe_bits[order]
        # A stable sort of two sorted runs merges them, each build key before
        # any equal needle, so needle j's merged position minus j counts the
        # distinct keys <= it, and its run is one less. A needle below every
        # key gets run -1: the last start less itself, a length of 0.
        merged = np.argsort(np.concatenate([self.distinct, needles]), kind="stable")
        run = np.flatnonzero(merged >= d)
        run -= np.arange(1, len(needles) + 1)
        start = self.starts[run]
        length = self.starts[1:][run] - start
        length *= self.distinct[run] == needles
        lo = np.empty(len(order), dtype=np.intp)
        counts = np.empty(len(order), dtype=np.intp)
        lo[order] = start
        counts[order] = length
        ends = np.cumsum(counts)
        # match i of a probe key sits at its run's start plus i
        pos = np.repeat(lo - (ends - counts), counts)
        pos += np.arange(len(pos))
        return np.repeat(probe_rows, counts), self.rows[pos]


def host_full_sort(keys: KeyVector) -> np.ndarray:
    """Row ids ordered by key ascending; equal keys by ascending row id."""
    order = np.lexsort((keys.rows, keys.keys))
    return keys.rows[order]


def topk_candidates(keys: np.ndarray, rows: np.ndarray, k: int):
    """(keys, rows) of the top min(k, len) entries, unordered, under (key desc, row id asc).

    A block-max prefilter runs first. k distinct blocks hold a key >= floor,
    the k-th largest of their maxima, so the k-th largest key is >= floor
    and every key tied with it survives `keys >= floor`. Blocks are
    m // 2k rows wide, at most 1024, so there are at least 2k of them and
    every other block still gives k maxima: the max pass reads half the
    keys. It runs from 64-row blocks (m >= 128k), where the floor is strong
    enough to pay for itself, and from 8192 rows, where its fixed cost of
    about 20 us does; the second bound matters only for k < 64. When more
    than half the blocks' first keys reach floor (ties), the compare would
    keep most rows and save nothing, so the select runs on all m rows.
    """
    m = len(keys)
    if m <= k:
        return keys, rows
    width = min(1024, m // (2 * k))
    if m >= 8192 and width >= 64:
        blocks = keys[: m // width * width].reshape(-1, width)
        maxima = blocks[::2].max(axis=1)
        floor = np.partition(maxima, len(maxima) - k)[len(maxima) - k]
        # each block's first key samples the rows: a tie-heavy input, where
        # the compare would keep most of them, skips it
        if np.count_nonzero(blocks[:, 0] >= floor) <= len(blocks) // 2:
            pos = np.flatnonzero(keys >= floor)
            keys, rows = keys[pos], rows[pos]
            m = len(keys)
    kth = m - k
    top_pos = np.argpartition(keys, kth)[kth:]
    boundary = keys[top_pos].min()
    greater_pos = np.flatnonzero(keys > boundary)
    need = k - len(greater_pos)
    eq_pos = np.flatnonzero(keys == boundary)
    if len(eq_pos) > need:
        # ties at the boundary resolve toward smaller row ids; row ids are
        # unique, so selecting the need smallest suffices and merge_topk orders them
        eq_pos = eq_pos[np.argpartition(rows[eq_pos], need - 1)[:need]]
    pos = np.concatenate([greater_pos, eq_pos])
    return keys[pos], rows[pos]


def merge_topk(keys: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Row ids of the k best candidates, key descending, equal keys by ascending row id."""
    order = np.lexsort((rows, -keys))
    return rows[order[: min(k, len(keys))]].astype(np.uint32, copy=False)


def host_topk(keys: KeyVector, k: int) -> TopKResult:
    """The k largest keys, descending; equal keys by ascending row id.

    The block-max prefilter, an argpartition of its survivors, then a sort of
    the k selected: O(n + k log k), with about 1 byte per row of scratch.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return TopKResult(rows=merge_topk(*topk_candidates(keys.keys, keys.rows, k), k))


def host_hash_build(
    build_keys: KeyVector, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> BuildIndex:
    n = len(build_keys)
    # the worst case, every key distinct: 8 bytes of key bits and 4 of run
    # start per distinct key, 4 of row id per row, and the end's start
    need = 16 * n + 4
    if need > memory_budget:
        raise CapacityError(
            f"build index of {n} rows ({need} bytes) exceeds "
            f"the {memory_budget}-byte budget"
        )
    bits = key_bits(build_keys.keys)
    order = np.argsort(bits)
    bits = bits[order]
    new_run = np.empty(n, dtype=bool)
    new_run[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=new_run[1:])
    # Numbering the runs and sorting (run, position) once puts equal keys in
    # insertion order: the permutation of a stable argsort. Tables hold fewer
    # than 2**32 rows, so positions and run numbers fit in 32 bits each.
    packed = np.cumsum(new_run, dtype=np.uint64)
    packed -= 1
    packed <<= 32
    packed |= order.view(np.uint64)
    packed.sort()
    packed &= 0xFFFFFFFF
    starts = np.empty(np.count_nonzero(new_run) + 1, dtype=np.uint32)
    starts[:-1] = np.flatnonzero(new_run)
    starts[-1] = n
    return BuildIndex(distinct=bits[new_run], starts=starts, rows=build_keys.rows[packed])


def host_hash_probe(index: BuildIndex, probe_keys: KeyVector) -> ProbeResult:
    probe_rows, build_rows = index.match(key_bits(probe_keys.keys), probe_keys.rows)
    return ProbeResult(
        probe_rows=probe_rows, build_rows=build_rows, probe_count=len(probe_keys)
    )
