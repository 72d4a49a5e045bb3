"""Columnar store: generation, key extraction, materialization, dump format."""

import numpy as np
import pytest

from golp.errors import CapacityError
from golp.store import (
    DEFAULT_PAYLOAD_BYTES,
    ColumnTable,
    KeyVector,
    extract_keys,
    full_row_bytes,
    generate_table,
    key_only_bytes,
    load_table,
    materialize,
    random_key_vector,
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
    assert np.array_equal(kv.rows, np.arange(64, dtype=np.uint32))
    with pytest.raises(ValueError):
        kv.keys[0] = 0.0  # read-only view


def test_materialize_fetches_exact_rows():
    t = generate_table(50, 12, seed=2)
    got = materialize(t, np.array([7, 3, 7], dtype=np.uint32))
    assert list(got.row_ids) == [7, 3, 7]
    assert got.keys[0] == t.key_column[7]
    assert np.array_equal(got.payloads[1], t.payload_column[3])
    assert got.payload_value(2) == t.payload_value(7)


def test_materialize_rejects_bad_rows():
    t = generate_table(10, 4, seed=0)
    with pytest.raises(IndexError):
        materialize(t, [10])
    with pytest.raises(IndexError):
        materialize(t, [-1])
    with pytest.raises(ValueError):
        materialize(t, [[0, 1]])


def test_byte_arithmetic():
    t = generate_table(1000, DEFAULT_PAYLOAD_BYTES, seed=0)
    assert full_row_bytes(t) == 1000 * (8 + 188)
    assert key_only_bytes(1000) == 12_000
    assert key_only_bytes(0) == 0


def test_dump_round_trip(tmp_path):
    t = generate_table(257, 19, seed=42)
    path = tmp_path / "t.golp"
    save_table(t, path)
    again = load_table(path)
    assert np.array_equal(again.key_column, t.key_column)
    assert np.array_equal(again.payload_column, t.payload_column)
    assert again.seed == 42


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
