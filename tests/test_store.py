"""Columnar store: generation, key extraction, materialization, dump format."""

import tracemalloc

import numpy as np
import pytest

from golp.errors import CapacityError
from golp.store import (
    ColumnTable,
    KeyVector,
    SeededPayload,
    extract_keys,
    generate_table,
    load_table,
    materialize,
    random_keys,
    save_table,
)


def test_generate_is_deterministic():
    a = generate_table(500, 32, seed=9)
    b = generate_table(500, 32, seed=9)
    assert np.array_equal(a.key_column, b.key_column)
    assert np.array_equal(a.payload_column, b.payload_column)
    c = generate_table(500, 32, seed=10)
    assert not np.array_equal(a.key_column, c.key_column)


def test_keys_do_not_depend_on_payload_width():
    narrow = generate_table(300, 8, seed=3)
    wide = generate_table(300, 250, seed=3)
    assert np.array_equal(narrow.key_column, wide.key_column)
    assert np.array_equal(narrow.key_column, random_keys(300, 3))


def test_table_shape_and_validation():
    t = generate_table(100, 16, seed=0)
    assert t.row_count == 100
    assert t.payload_bytes == 16
    assert t.key_column.dtype == np.float64
    assert t.payload_column.shape == (100, 16)
    with pytest.raises(ValueError):
        ColumnTable(key_column=np.zeros(3), payload_column=np.zeros((4, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        ColumnTable(key_column=np.array([1.0, np.nan]),
                    payload_column=np.zeros((2, 2), dtype=np.uint8))


def test_generate_respects_memory_budget():
    with pytest.raises(CapacityError):
        generate_table(1_000_000, 100, seed=0, memory_budget=1_000_000)


def test_extract_keys_shares_column_and_numbers_rows():
    t = generate_table(64, 8, seed=1)
    kv = extract_keys(t)
    assert kv.keys is t.key_column
    assert extract_keys(t) is kv  # built once, with the table
    assert np.array_equal(kv.rows, np.arange(64, dtype=np.uint32))
    with pytest.raises(ValueError):
        kv.keys[0] = 0.0  # read-only view
    with pytest.raises(ValueError):
        kv.rows[0] = 1


def test_seeded_payload_index_forms():
    col = SeededPayload(40, 10, seed=5)
    whole = np.asarray(col)
    assert whole.shape == col.shape == (40, 10)
    assert len(col) == 40 and whole.dtype == np.uint8
    assert np.array_equal(col[7], whole[7])
    assert np.array_equal(col[np.int64(-1)], whole[-1])
    assert np.array_equal(col[3:30:4], whole[3:30:4])
    assert np.array_equal(col[::-1], whole[::-1])
    assert col[50:].shape == (0, 10)
    for dtype in (np.uint32, np.int64):
        rows = np.array([39, 0, 7, 7], dtype=dtype)
        assert np.array_equal(col[rows], whole[rows])
    assert np.array_equal(col[np.array([-40, -1])], whole[[0, 39]])
    assert col[np.array([], dtype=np.uint32)].shape == (0, 10)
    for bad in (40, -41, np.array([0, 40], dtype=np.uint32), np.array([-41])):
        with pytest.raises(IndexError):
            col[bad]
    with pytest.raises(IndexError):
        col[np.zeros((2, 2), dtype=np.int64)]
    with pytest.raises(IndexError):
        SeededPayload(0, 4, seed=0)[0]


def test_seeded_payload_is_a_function_of_seed_row_and_width():
    a = np.asarray(generate_table(1_000, 188, seed=9).payload_column)
    assert not np.array_equal(a, np.asarray(generate_table(1_000, 188, seed=10).payload_column))
    # row r's bytes do not depend on n: a shorter table is a prefix
    assert np.array_equal(np.asarray(generate_table(300, 188, seed=9).payload_column), a[:300])
    assert np.array_equal(SeededPayload(100_000, 188, seed=9)[np.arange(1_000)], a)
    # distinct rows get distinct bytes, spread over the whole byte range
    assert len(np.unique(a, axis=0)) == 1_000
    counts = np.bincount(a.ravel(), minlength=256)
    assert counts.min() > 0.8 * a.size / 256 and counts.max() < 1.2 * a.size / 256


def test_materialize_on_generated_table_equals_stored_payload():
    t = generate_table(5_000, 37, seed=4)
    stored = ColumnTable(t.key_column, np.asarray(t.payload_column))
    rows = np.array([4_999, 0, 17, 17, 2_500], dtype=np.uint32)
    got, want = materialize(t, rows), materialize(stored, rows)
    assert np.array_equal(got.row_ids, want.row_ids)
    assert np.array_equal(got.keys, want.keys)
    assert np.array_equal(got.payloads, want.payloads)
    assert [got.payloads[i].tobytes() for i in range(5)] == [want.payloads[i].tobytes() for i in range(5)]


def test_generated_table_holds_only_its_keys():
    n = 1_000_000
    tracemalloc.start()
    try:
        t = generate_table(n, 188, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.payload_column.shape == (n, 188)
    assert peak < 24 * n


def test_materialize_fetches_exact_rows():
    t = generate_table(50, 12, seed=2)
    got = materialize(t, np.array([7, 3, 7], dtype=np.uint32))
    assert list(got.row_ids) == [7, 3, 7]
    assert got.keys[0] == t.key_column[7]
    assert np.array_equal(got.payloads[1], t.payload_column[3])
    assert got.payloads[2].tobytes() == t.payload_column[7].tobytes()


def test_materialize_rejects_bad_rows():
    t = generate_table(10, 4, seed=0)
    with pytest.raises(IndexError):
        materialize(t, [10])
    with pytest.raises(IndexError):
        materialize(t, [-1])
    with pytest.raises(ValueError):
        materialize(t, [[0, 1]])


def test_materialize_rejects_non_integer_row_ids():
    t = generate_table(10, 4, seed=0)
    with pytest.raises(ValueError, match="integers"):
        materialize(t, np.array([0.7, 2.9]))
    with pytest.raises(ValueError, match="integers"):
        materialize(t, np.array([True, False]))


def test_materialize_of_no_rows_is_empty():
    t = generate_table(10, 4, seed=0)
    for rows in ([], np.asarray([]), np.array([], dtype=np.uint32)):
        got = materialize(t, rows)
        assert len(got) == 0
        assert got.payloads.shape[0] == 0


def test_dump_round_trip(tmp_path, monkeypatch):
    monkeypatch.setattr("golp.store.BLOCK_ROWS", 100)  # several payload blocks
    t = generate_table(257, 19, seed=42)
    path = tmp_path / "t.golp"
    save_table(t, path)
    assert path.stat().st_size == 28 + 257 * (8 + 19)
    again = load_table(path)
    assert np.array_equal(again.key_column, t.key_column)
    assert np.array_equal(again.payload_column, t.payload_column)
    assert again.seed == 42
    # a loaded table stores its bytes, and writes the same file back
    assert isinstance(again.payload_column, np.ndarray)
    save_table(again, tmp_path / "again.golp")
    assert (tmp_path / "again.golp").read_bytes() == path.read_bytes()


def test_dump_rejects_corruption(tmp_path):
    t = generate_table(40, 8, seed=1)
    path = tmp_path / "t.golp"
    save_table(t, path)
    raw = path.read_bytes()
    (tmp_path / "short.golp").write_bytes(raw[:-5])
    with pytest.raises(ValueError):
        load_table(tmp_path / "short.golp")
    (tmp_path / "magic.golp").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        load_table(tmp_path / "magic.golp")


def test_row_id_limit_guard():
    with pytest.raises(ValueError):
        generate_table(2**32, 1, seed=0, memory_budget=2**60)


def test_key_vector_validation():
    with pytest.raises(ValueError):
        KeyVector(keys=np.zeros(3), rows=np.zeros(4, dtype=np.uint32))
    with pytest.raises(ValueError):
        KeyVector(keys=np.array([np.inf, 0.0]), rows=np.zeros(2, dtype=np.uint32))
    # odd dtypes are coerced, not rejected
    kv = KeyVector(keys=np.zeros(3, dtype=np.float32), rows=np.zeros(3, dtype=np.int64))
    assert kv.keys.dtype == np.float64
    assert kv.rows.dtype == np.uint32
