"""Host primitives against hand cases and the naive oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from golp.device import ProxyDevice
from golp.errors import CapacityError
from golp.host import (
    host_full_sort,
    host_hash_build,
    host_hash_probe,
    host_topk,
    key_bits,
)
from golp.store import KeyVector, random_key_vector

from .oracles import oracle_join_loop, oracle_join_outer, oracle_sort_rows, oracle_topk_rows


def kv(keys, rows=None):
    keys = np.asarray(keys, dtype=np.float64)
    if rows is None:
        rows = np.arange(len(keys), dtype=np.uint32)
    return KeyVector(keys=keys, rows=np.asarray(rows, dtype=np.uint32))


def test_full_sort_hand_case():
    assert list(host_full_sort(kv([5, 1, 9]))) == [1, 0, 2]


def test_full_sort_empty():
    assert len(host_full_sort(kv([]))) == 0


def test_full_sort_stable_on_ties():
    assert list(host_full_sort(kv([2, 1, 2, 1], [0, 1, 2, 3]))) == [1, 3, 0, 2]


def test_full_sort_matches_oracle():
    rng = np.random.default_rng(11)
    keys = rng.integers(-50, 50, size=10_000).astype(np.float64)
    rows = np.arange(10_000, dtype=np.uint32)
    got = list(host_full_sort(kv(keys, rows)))
    assert got == oracle_sort_rows(keys.tolist(), rows.tolist())


def test_topk_hand_case():
    got = host_topk(kv([5, 1, 9, 3]), 2)
    assert list(got.rows) == [2, 0]


def test_topk_saturates_when_k_exceeds_n():
    keys = [4.0, 4.0, -1.0, 7.0]
    got = host_topk(kv(keys), 10)
    assert len(got.rows) == 4
    assert list(got.rows) == oracle_topk_rows(keys, range(4), 10)
    # with distinct keys, k >= n is exactly the reversed ascending sort
    uniq = [4.0, -1.0, 7.0, 0.5]
    assert list(host_topk(kv(uniq), 10).rows) == list(
        reversed(oracle_sort_rows(uniq, range(4)))
    )
    # an empty table returns no rows, on the host and on the device
    assert len(host_topk(kv([]), 10)) == 0
    with ProxyDevice(workers=2) as dev:
        assert len(dev.topk(kv([]), 10).payload) == 0


def test_topk_tie_rule_prefers_low_row_id():
    got = host_topk(kv([7, 7, 7, 7], [9, 2, 5, 1]), 2)
    assert list(got.rows) == [1, 2]
    # every key tied with the boundary, the row ids shuffled
    keys = np.full(20_000, 7.0)
    rows = np.random.default_rng(72).permutation(len(keys)).astype(np.uint32)
    got = host_topk(kv(keys, rows), 100)
    assert list(got.rows) == oracle_topk_rows(keys.tolist(), rows.tolist(), 100)


def test_topk_rejects_bad_k():
    with pytest.raises(ValueError):
        host_topk(kv([1.0]), 0)


def test_topk_matches_oracle_on_random_instances():
    rng = np.random.default_rng(60)
    for _ in range(25):
        n = int(rng.integers(1, 3000))
        keys = rng.integers(-100, 100, size=n).astype(np.float64)
        rows = rng.permutation(n).astype(np.uint32)
        k = int(rng.integers(1, n + 5))
        got = list(host_topk(kv(keys, rows), k).rows)
        assert got == oracle_topk_rows(keys.tolist(), rows.tolist(), k)


def test_topk_equals_prefix_of_descending_full_sort():
    keys = random_key_vector(100_000, 3)
    full_desc = list(host_full_sort(keys))[::-1]
    # unique keys here, so no tie-rule difference between the two orders
    assert list(host_topk(keys, 100).rows) == full_desc[:100]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=45),
    st.randoms(use_true_random=False),
)
def test_topk_property_heavy_ties(key_ints, k, rnd):
    keys = [float(v) for v in key_ints]
    got = list(host_topk(kv(keys), k).rows)
    assert got == oracle_topk_rows(keys, range(len(keys)), k)
    rows = rnd.sample(range(len(keys)), len(keys))
    got = list(host_topk(kv(keys, rows), k).rows)
    assert got == oracle_topk_rows(keys, rows, k)


@st.composite
def block_max_instances(draw):
    """(keys, rows, k) around the sizes where topk_candidates' block-max prefilter starts.

    Keys are integers in [-domain, 0], about half the zeros -0.0, so a small
    domain piles ties on the floor and on the boundary key; rows are shuffled.
    The "spikes" layout lifts k to 3k scattered keys far above the rest, so
    most blocks' maxima are low and a floor taken from fewer than k blocks
    would drop some of the top k.
    """
    k = draw(st.integers(min_value=1, max_value=100))
    first = max(8192, 2 * k * 64)  # the smallest n the prefilter runs on
    n = draw(st.one_of(
        st.integers(min_value=0, max_value=k),
        st.integers(min_value=first - 3, max_value=first + 40),
        st.integers(min_value=first, max_value=2 * first),
    ))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    keys = rng.integers(-draw(st.sampled_from([0, 1, 3, 30, 10**6])), 1, size=n).astype(np.float64)
    keys[(keys == 0.0) & (rng.random(n) < 0.5)] = -0.0
    order = draw(st.sampled_from(["shuffled", "ascending", "descending", "spikes"]))
    if order == "spikes":
        spikes = rng.choice(n, size=min(n, draw(st.integers(min_value=k, max_value=3 * k))),
                            replace=False)
        keys[spikes] = 1e7 + rng.integers(0, draw(st.sampled_from([3, 10**6])), size=len(spikes))
    elif order != "shuffled":
        keys.sort()
        if order == "descending":
            keys = keys[::-1].copy()
    return keys, rng.permutation(n).astype(np.uint32), k


@settings(max_examples=100, deadline=None)
@given(block_max_instances())
def test_topk_property_block_max_prefilter(instance):
    keys, rows, k = instance
    got = list(host_topk(kv(keys, rows), k).rows)
    assert got == oracle_topk_rows(keys.tolist(), rows.tolist(), k)


def test_topk_peak_memory_is_about_one_byte_per_row():
    # The prefilter's only full-length array is its bool mask; a select over
    # all rows would write an 8-byte index per row.
    n = 1_000_000
    keys = random_key_vector(n, 8)
    tracemalloc.start()
    try:
        got = host_topk(keys, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got) == 100
    assert peak <= 2 * n, f"{peak / n:.2f} bytes per row"


def test_probe_hand_case():
    table = host_hash_build(kv([1, 2, 3]))
    got = host_hash_probe(table, kv([2, 2, 5]))
    assert got.matches == [(0, 1), (1, 1)]
    assert got.probe_count == 3
    assert got.match_count == 2


def test_probe_empty_sides():
    assert host_hash_probe(host_hash_build(kv([])), kv([1, 2])).matches == []
    assert host_hash_probe(host_hash_build(kv([1, 2])), kv([])).matches == []


def test_duplicate_build_keys_all_retained():
    table = host_hash_build(kv([7, 7], [0, 1]))
    got = host_hash_probe(table, kv([7], [5]))
    assert got.matches == [(5, 0), (5, 1)]


def test_probe_matches_nested_loop_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        nb = int(rng.integers(1, 1000))
        npr = int(rng.integers(1, 1000))
        bk = rng.integers(0, 50, size=nb).astype(np.float64)  # small domain: many collisions
        pk = rng.integers(0, 50, size=npr).astype(np.float64)
        br = rng.permutation(nb).astype(np.uint32)
        pr = rng.permutation(npr).astype(np.uint32)
        got = host_hash_probe(host_hash_build(kv(bk, br)), kv(pk, pr)).matches
        assert got == oracle_join_loop(bk, br, pk, pr)


# Build keys in [-3, 3] and probe keys in [-6, 6], each with -0.0 and +0.0:
# probes fall below the smallest and above the largest build key, equal
# probe keys repeat, and both sides carry shuffled row ids, so an argsort
# whose order among equal keys leaked into the output would show.
def _join_keys(bound):
    return st.integers(-bound, bound).map(float) | st.sampled_from([0.0, -0.0])


@settings(max_examples=80, deadline=None)
@given(
    build=st.lists(_join_keys(3), max_size=30),
    probe=st.lists(_join_keys(6), max_size=120),
    descending=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(build=[2.0, -0.0, -1.0, 0.0, 2.0], descending=True, seed=1,
         probe=[6.0, 2.0, 2.0, 0.0, -0.0, 0.0, -1.0, -6.0] * 4)
def test_probe_property_against_loop_oracle(build, probe, descending, seed):
    if descending:
        probe = sorted(probe, reverse=True)
    rng = np.random.default_rng(seed)
    build_rows = rng.permutation(len(build))
    probe_rows = rng.permutation(len(probe))
    got = host_hash_probe(host_hash_build(kv(build, build_rows)), kv(probe, probe_rows))
    assert got.matches == oracle_join_loop(build, build_rows, probe, probe_rows)
    assert got.probe_count == len(probe)


def test_vectorized_join_oracle_agrees_with_literal_loop():
    rng = np.random.default_rng(22)
    for _ in range(10):
        nb, npr = int(rng.integers(0, 60)), int(rng.integers(0, 60))
        bk = rng.integers(0, 8, size=nb).astype(np.float64)
        pk = rng.integers(0, 8, size=npr).astype(np.float64)
        br, pr = np.arange(nb), np.arange(npr)
        assert oracle_join_outer(bk, br, pk, pr) == oracle_join_loop(bk, br, pk, pr)


def test_negative_zero_key_matches_positive_zero():
    table = host_hash_build(kv([0.0], [0]))
    assert host_hash_probe(table, kv([-0.0], [0])).matches == [(0, 0)]
    assert np.array_equal(key_bits(np.array([-0.0])), key_bits(np.array([0.0])))


def test_negative_keys_probe_correctly():
    table = host_hash_build(kv([-3.5, 2.0, -3.5], [0, 1, 2]))
    got = host_hash_probe(table, kv([-3.5], [9]))
    assert got.matches == [(9, 0), (9, 2)]


def test_build_respects_memory_budget():
    with pytest.raises(CapacityError):
        host_hash_build(kv(np.arange(10_000, dtype=np.float64)), memory_budget=1_000)
    # The index's worst case, every key distinct: 8 bytes of key bits and 4 of
    # run start per distinct key, 4 of row id per row, and a 4-byte end.
    # Exactly 16 * n + 4 builds, one byte less does not, whatever the keys.
    for keys in (np.arange(1_000, dtype=np.float64), np.zeros(1_000)):
        host_hash_build(kv(keys), memory_budget=16 * 1_000 + 4)
        with pytest.raises(CapacityError):
            host_hash_build(kv(keys), memory_budget=16 * 1_000 + 3)


@pytest.mark.parametrize("keys", [
    np.random.default_rng(30).choice([-1.5, 0.0, -0.0, 2.0], size=10_000),
    np.random.default_rng(31).permutation(10_000) - 5_000.0,
], ids=["long runs", "all distinct"])
def test_build_order_is_the_stable_argsort(keys):
    rows = np.random.default_rng(32).permutation(len(keys)).astype(np.uint32)
    index = host_hash_build(kv(keys, rows))
    order = np.argsort(key_bits(keys), kind="stable")
    assert np.array_equal(index.rows, rows[order])
    assert np.array_equal(index.distinct, np.unique(key_bits(keys)))
    runs = np.diff(index.starts.astype(np.int64))
    assert np.array_equal(np.repeat(index.distinct, runs), key_bits(keys)[order])


# (build keys, build rows, probe keys, probe rows); None numbers rows 0, 1, ...
JOIN_CASES = {
    "signed zeros": ([0.0, -0.0, 1.0, -0.0], None, [-0.0, 0.0, 2.0, -0.0, 0.0], None),
    "equal keys out of row order": (
        [5.0, 3.0] * 6, np.random.default_rng(33).permutation(12), [3.0, 5.0, 4.0, 3.0], [7, 1, 4, 0]),
    "all-equal build": ([2.0] * 9, np.random.default_rng(34).permutation(9), [2.0, 1.0, 2.0, 3.0], None),
    "empty build": ([], None, [1.0, 2.0], None),
    "empty probe": ([1.0, 2.0], None, [], None),
    "both empty": ([], None, [], None),
    # below and above the build keys both by value and by key bits, where
    # 0.0 is the smallest and negative keys sit above the positive ones
    "probes outside the build keys": (
        [-2.0, 1.0, 1.0, 4.0], None, [-1e300, -9.0, -2.0, 0.0, 0.5, 1.0, 9.0, 1e300], None),
}


@pytest.mark.parametrize("build, build_rows, probe, probe_rows", JOIN_CASES.values(),
                         ids=JOIN_CASES.keys())
def test_probe_edge_cases_match_the_oracles(build, build_rows, probe, probe_rows):
    build_rows = np.arange(len(build)) if build_rows is None else np.asarray(build_rows)
    probe_rows = np.arange(len(probe)) if probe_rows is None else np.asarray(probe_rows)
    got = host_hash_probe(host_hash_build(kv(build, build_rows)), kv(probe, probe_rows))
    want = oracle_join_loop(build, build_rows, probe, probe_rows)
    assert want == oracle_join_outer(build, build_rows, probe, probe_rows)
    assert got.matches == want
    assert got.probe_count == len(probe)


def test_proxy_multi_chunk_probe_over_an_all_equal_build():
    rng = np.random.default_rng(35)
    build_keys = np.full(40, 7.0)
    probe_keys = rng.choice([7.0, 8.0], p=[0.1, 0.9], size=20_000)
    build = kv(build_keys, rng.permutation(40))
    probe = kv(probe_keys, rng.permutation(20_000))
    with ProxyDevice(workers=4) as dev:
        assert len(dev._chunk_bounds(len(probe), 4096)) == 4
        got = dev.probe(build, probe).payload
    want = oracle_join_outer(build_keys, build.rows, probe_keys, probe.rows)
    assert got.matches == want
    assert got.probe_count == len(probe)
