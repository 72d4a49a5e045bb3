"""Coprocessor backends: ledgers, byte accounting, calibration."""

import dataclasses
import statistics

import numpy as np
import pytest

from golp.device import (
    DEFAULT_MODELED_PROFILE,
    FULL_ROW,
    KEY_ONLY,
    OP_PROBE,
    OP_TOPK,
    DeviceProfile,
    ModeledDevice,
    ProxyDevice,
    TransferLedger,
    calibrate_profile,
    estimate_device_cost,
    make_device,
    transfer_entry_bytes,
)
from golp.errors import CalibrationError
from golp.host import host_hash_build, host_hash_probe
from golp.store import KeyVector, random_key_vector

from .oracles import oracle_join_outer, oracle_topk_rows

EXAMPLE_PROFILE = DeviceProfile(
    h2d_bandwidth=10e9,
    d2h_bandwidth=10e9,
    launch_overhead=50e-6,
    kernel_rate_topk=0.1e-9,
    kernel_rate_probe=0.2e-9,
    post_rate=10e-9,
)


def kv(keys, rows=None):
    keys = np.asarray(keys, dtype=np.float64)
    if rows is None:
        rows = np.arange(len(keys), dtype=np.uint32)
    return KeyVector(keys=keys, rows=np.asarray(rows, dtype=np.uint32))


def small_domain_keys(n, seed, domain=64):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, domain, size=n).astype(np.float64)
    return KeyVector(keys=keys, rows=rng.permutation(n).astype(np.uint32))


# --- cost model -------------------------------------------------------------


def test_key_only_topk_worked_example():
    est = estimate_device_cost(OP_TOPK, 1_000_000, 100, KEY_ONLY, profile=EXAMPLE_PROFILE)
    assert est.t_h2d == pytest.approx(1.2e-3, rel=1e-12)
    assert est.t_kernel == pytest.approx(1.5e-4, rel=1e-12)
    assert est.t_d2h == pytest.approx(4e-8, rel=1e-12)
    assert est.t_post == pytest.approx(1e-6, rel=1e-12)
    assert est.total == pytest.approx(1.35104e-3, rel=1e-12)
    # quoted headline figure is the same number at display precision
    assert round(est.total * 1e3, 3) == 1.351


def test_entry_bytes():
    assert transfer_entry_bytes(KEY_ONLY, None) == 12
    assert transfer_entry_bytes(KEY_ONLY, 500) == 12
    assert transfer_entry_bytes(FULL_ROW, 188) == 196
    assert transfer_entry_bytes(FULL_ROW, 4) == 12  # 8-byte key + 4 == key entry
    with pytest.raises(ValueError):
        transfer_entry_bytes(FULL_ROW, None)
    with pytest.raises(ValueError):
        transfer_entry_bytes("compressed", 8)


def test_topk_ledger_byte_accounting():
    res = ModeledDevice().topk(random_key_vector(20_000, 7), 100)
    assert res.ledger.h2d_bytes == 12 * 20_000
    assert res.ledger.d2h_bytes == 4 * 100


def test_probe_ledger_byte_accounting():
    build = small_domain_keys(1_000, 1)
    probe = small_domain_keys(1_000, 2)
    res = ModeledDevice().probe(build, probe)
    assert res.ledger.h2d_bytes == 12 * 2_000
    matches = host_hash_probe(host_hash_build(build), probe).match_count
    assert res.ledger.d2h_bytes == 8 * matches


def test_full_row_to_key_only_byte_ratio():
    n = 3_000_000
    full = estimate_device_cost(OP_TOPK, n, 100, FULL_ROW, payload_bytes=187)
    key = estimate_device_cost(OP_TOPK, n, 100, KEY_ONLY)
    assert full.t_h2d / key.t_h2d == pytest.approx(195 / 12, rel=1e-12)  # 16.25x


def test_probe_with_no_matches_returns_no_bytes():
    res = ModeledDevice().probe(kv([1.0, 2.0]), kv([5.0, 6.0]))
    assert res.payload.match_count == 0
    assert res.ledger.d2h_bytes == 0
    assert res.ledger.t_post == 0.0


def test_empty_input_costs_only_the_launch():
    res = ModeledDevice(EXAMPLE_PROFILE).topk(kv([]), 100)
    assert res.ledger.total == EXAMPLE_PROFILE.launch_overhead
    assert len(res.payload.rows) == 0


def test_modeled_ledger_equals_estimate():
    for n in (1, 99, 20_000):
        res = ModeledDevice().topk(random_key_vector(n, n), 100)
        est = estimate_device_cost(OP_TOPK, n, 100)
        assert res.ledger.total == est.total
        assert (res.ledger.t_h2d, res.ledger.t_kernel, res.ledger.t_d2h, res.ledger.t_post) == (
            est.t_h2d,
            est.t_kernel,
            est.t_d2h,
            est.t_post,
        )


def test_modeled_total_strictly_increasing_in_n():
    totals = [estimate_device_cost(OP_TOPK, n, 100).total for n in (10, 100, 10_000, 1_000_000)]
    assert totals == sorted(totals)
    assert len(set(totals)) == len(totals)


def test_full_row_never_cheaper_than_key_only():
    for payload_bytes in (5, 64, 188, 1024):
        full = estimate_device_cost(OP_TOPK, 50_000, 100, FULL_ROW, payload_bytes=payload_bytes)
        key = estimate_device_cost(OP_TOPK, 50_000, 100, KEY_ONLY)
        assert full.total > key.total


def test_modeled_calls_are_bit_identical():
    keys = random_key_vector(5_000, 3)
    a = ModeledDevice().topk(keys, 50)
    b = ModeledDevice().topk(keys, 50)
    assert a.ledger == b.ledger
    assert np.array_equal(a.payload.rows, b.payload.rows)


def test_profile_validation_and_round_trip():
    with pytest.raises(ValueError):
        DeviceProfile(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        DeviceProfile(1.0, 1.0, -2.0, 1.0, 1.0, 1.0)
    prof = DeviceProfile.from_json_dict(dataclasses.asdict(DEFAULT_MODELED_PROFILE))
    assert prof == DEFAULT_MODELED_PROFILE


def test_make_device_dispatch():
    assert make_device("modeled").name == "modeled"
    proxy = make_device("proxy", workers=2)
    try:
        assert proxy.name == "proxy"
    finally:
        proxy.close()
    with pytest.raises(ValueError):
        make_device("fpga")


def test_proxy_device_closes_its_pool_when_the_block_ends_or_raises():
    with ProxyDevice(workers=2) as dev:
        pool = dev._pool
        assert dev.topk(random_key_vector(10_000, 1), 10).ledger.h2d_bytes == 12 * 10_000
    assert dev._pool is None
    with pytest.raises(RuntimeError):  # a shut-down executor takes no work
        pool.submit(int)

    with pytest.raises(KeyError):
        with ProxyDevice(workers=2) as dev:
            pool = dev._pool
            raise KeyError("fails inside the block")
    assert dev._pool is None
    with pytest.raises(RuntimeError):
        pool.submit(int)


# --- proxy backend ----------------------------------------------------------


def test_proxy_topk_full_row_matches_key_only_answer():
    keys = random_key_vector(10_000, 12)
    dev = ProxyDevice(workers=4)
    try:
        full = dev.topk(keys, 64, mode=FULL_ROW, payload_bytes=188)
        key = dev.topk(keys, 64)
    finally:
        dev.close()
    assert np.array_equal(full.payload.rows, key.payload.rows)
    assert full.ledger.h2d_bytes == 196 * 10_000
    assert key.ledger.h2d_bytes == 12 * 10_000


def signed_keys_with_zeros(n, seed, low=-256, high=256):
    """Keys in [low, high) where about half the zeros are -0.0."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(low, high, size=n).astype(np.float64)
    keys[(keys == 0.0) & (rng.random(n) < 0.5)] = -0.0
    return KeyVector(keys=keys, rows=rng.permutation(n).astype(np.uint32))


def test_proxy_topk_matches_host_multi_chunk():
    # The host and the proxy share one selection, so the proxy's answer is
    # checked against the sorting oracle, not against the host. Keys in
    # [-4, 1) put the k-th key at zero, and every chunk holds more than k
    # -0.0/+0.0 ties, so each chunk and the merge must order them by row id.
    k = 100
    keys = signed_keys_with_zeros(16_384, 9, low=-4, high=1)
    expect = oracle_topk_rows(keys.keys.tolist(), keys.rows.tolist(), k)
    kth = keys.keys[np.argsort(keys.rows)][expect[-1]]
    assert kth == 0.0 and np.signbit(keys.keys[keys.keys == 0.0]).any()
    with ProxyDevice(workers=4) as dev:
        spans = dev._chunk_bounds(len(keys), floor=max(4 * k, 4096))
        assert len(spans) == 4
        assert all((keys.keys[lo:hi] == kth).sum() > k for lo, hi in spans)
        res = dev.topk(keys, k)
    assert list(res.payload.rows) == expect


def test_proxy_probe_matches_host_multi_chunk():
    # The host join and the proxy share one probe scan, so the proxy's answer
    # is checked against the nested-loop oracle, not against the host.
    build = signed_keys_with_zeros(1_500, 4)
    probe = signed_keys_with_zeros(16_384, 5)  # four chunks of 4096 on four workers
    assert np.signbit(build.keys[build.keys == 0.0]).any()
    with ProxyDevice(workers=4) as dev:
        assert len(dev._chunk_bounds(len(probe), floor=4096)) == 4
        res = dev.probe(build, probe)
    assert res.payload.matches == oracle_join_outer(build.keys, build.rows, probe.keys, probe.rows)
    assert res.payload.probe_count == len(probe)


def test_proxy_probe_chunk_boundary_splits_a_run_of_equal_probe_keys():
    # Probe keys in runs of 410 equal keys, the runs in shuffled key order,
    # so each chunk boundary falls inside a run and the two halves of that
    # run are sorted and searched by different chunks; row ids are shuffled
    # on both sides.
    rng = np.random.default_rng(14)
    build = KeyVector(keys=rng.integers(0, 40, size=200).astype(np.float64),
                      rows=rng.permutation(200).astype(np.uint32))
    probe = KeyVector(keys=np.repeat(rng.permutation(40), 410)[:16_384].astype(np.float64),
                      rows=rng.permutation(16_384).astype(np.uint32))
    with ProxyDevice(workers=4) as dev:
        spans = dev._chunk_bounds(len(probe), floor=4096)
        assert len(spans) == 4
        assert all(probe.keys[lo - 1] == probe.keys[lo] for lo, _ in spans[1:])
        res = dev.probe(build, probe)
    assert res.payload.matches == oracle_join_outer(build.keys, build.rows, probe.keys, probe.rows)
    assert res.payload.probe_count == len(probe)


def test_proxy_and_modeled_account_identical_bytes():
    keys = random_key_vector(8_192, 8)
    dev = ProxyDevice(workers=2)
    try:
        proxy = dev.topk(keys, 100)
    finally:
        dev.close()
    modeled = ModeledDevice().topk(keys, 100)
    assert proxy.ledger.h2d_bytes == modeled.ledger.h2d_bytes
    assert proxy.ledger.d2h_bytes == modeled.ledger.d2h_bytes


def test_proxy_total_is_sum_of_phases():
    dev = ProxyDevice(workers=1)
    try:
        led = dev.topk(random_key_vector(4_096, 2), 10).ledger
    finally:
        dev.close()
    assert led.total == led.t_h2d + led.t_kernel + led.t_d2h + led.t_post
    assert led.t_h2d > 0.0 and led.t_kernel > 0.0


def test_proxy_single_worker_equals_multi_worker_answer():
    keys = small_domain_keys(12_000, 13)
    one = ProxyDevice(workers=1)
    four = ProxyDevice(workers=4)
    try:
        a = one.topk(keys, 200).payload.rows
        b = four.topk(keys, 200).payload.rows
    finally:
        one.close()
        four.close()
    assert np.array_equal(a, b)


# --- calibration ------------------------------------------------------------


def modeled_topk_samples(ns, k=100, profile=DEFAULT_MODELED_PROFILE):
    dev = ModeledDevice(profile)
    return [(n, dev.topk(random_key_vector(n, n), k).ledger) for n in ns]


def test_calibrate_profile_recovers_modeled_constants():
    fitted = calibrate_profile(modeled_topk_samples([100_000, 200_000, 400_000]))
    truth = DEFAULT_MODELED_PROFILE
    assert fitted.h2d_bandwidth == pytest.approx(truth.h2d_bandwidth, rel=1e-9)
    assert fitted.d2h_bandwidth == pytest.approx(truth.d2h_bandwidth, rel=1e-9)
    assert fitted.launch_overhead == pytest.approx(truth.launch_overhead, rel=1e-9)
    assert fitted.kernel_rate_topk == pytest.approx(truth.kernel_rate_topk, rel=1e-9)
    assert fitted.post_rate == pytest.approx(truth.post_rate, rel=1e-9)
    # no probe samples given: probe rate falls back to the fitted topk rate
    assert fitted.kernel_rate_probe == fitted.kernel_rate_topk


def overlap_join_sides(n):
    """Build/probe halves with unique keys and ~25% of probe keys matching."""
    nb = n // 2
    build = kv(np.arange(nb, dtype=np.float64))
    probe = kv(np.arange(n - nb, dtype=np.float64) + nb // 2)
    return build, probe


def modeled_probe_samples(ns):
    dev = ModeledDevice(DEFAULT_MODELED_PROFILE)
    samples = []
    for n in ns:
        build, probe = overlap_join_sides(n)
        samples.append((n, dev.probe(build, probe).ledger))
    return samples


def test_calibrate_profile_uses_probe_samples_for_probe_rate():
    probe_samples = modeled_probe_samples([8_000, 16_000, 32_000])
    fitted = calibrate_profile(
        modeled_topk_samples([100_000, 200_000, 400_000]), probe_samples=probe_samples
    )
    assert fitted.kernel_rate_probe == pytest.approx(
        DEFAULT_MODELED_PROFILE.kernel_rate_probe, rel=1e-9
    )
    assert fitted.kernel_rate_topk == pytest.approx(
        DEFAULT_MODELED_PROFILE.kernel_rate_topk, rel=1e-9
    )


def test_calibrate_profile_from_probe_family():
    samples = modeled_probe_samples([8_000, 16_000, 32_000])
    fitted = calibrate_profile(samples, op=OP_PROBE)
    assert fitted.kernel_rate_probe == pytest.approx(
        DEFAULT_MODELED_PROFILE.kernel_rate_probe, rel=1e-9
    )
    assert fitted.post_rate == pytest.approx(DEFAULT_MODELED_PROFILE.post_rate, rel=1e-9)


def test_calibrate_profile_without_returned_bytes_reuses_h2d_bandwidth():
    # probes with no matches return nothing, so there is no d2h sample to fit
    dev = ModeledDevice(DEFAULT_MODELED_PROFILE)
    samples = []
    for n in (8_000, 16_000, 32_000):
        build = kv(np.arange(n // 2, dtype=np.float64))
        probe = kv(np.arange(n - n // 2, dtype=np.float64) + n)
        samples.append((n, dev.probe(build, probe).ledger))
    assert all(led.d2h_bytes == 0 for _, led in samples)
    fitted = calibrate_profile(samples, op=OP_PROBE)
    assert fitted.d2h_bandwidth == fitted.h2d_bandwidth
    assert fitted.h2d_bandwidth == pytest.approx(DEFAULT_MODELED_PROFILE.h2d_bandwidth, rel=1e-9)


def with_kernel_times(samples, t_kernel):
    return [
        (n, TransferLedger.build(led.h2d_bytes, led.d2h_bytes, led.t_h2d, t, led.t_d2h, led.t_post))
        for (n, led), t in zip(samples, t_kernel)
    ]


def test_calibrate_profile_fits_kernel_times_by_relative_error():
    ns = [100_000, 500_000, 1_000_000]
    # kernel times that grow faster than n, as measured on a proxy device
    t = np.array([0.7e-3, 2.2e-3, 5.8e-3])
    fitted = calibrate_profile(with_kernel_times(modeled_topk_samples(ns), t))
    # oracle: ordinary least squares on each row divided by its own time
    n = np.array(ns, dtype=np.float64)
    (rate, launch), *_ = np.linalg.lstsq(np.stack([n / t, 1 / t], axis=1), np.ones(3), rcond=None)
    assert launch > 0.0
    assert fitted.kernel_rate_topk == pytest.approx(rate, rel=1e-9)
    assert fitted.launch_overhead == pytest.approx(launch, rel=1e-9)
    # the smallest size is predicted as well as the largest, not sacrificed to it
    pred = fitted.launch_overhead + fitted.kernel_rate_topk * n
    assert np.max(np.abs(pred - t) / t) < 0.2


def test_calibrate_profile_keeps_launch_overhead_non_negative():
    ns = [100_000, 500_000, 1_000_000]
    # the free relative fit of these times has a negative intercept
    t = np.array([0.2e-3, 4.0e-3, 9.0e-3])
    fitted = calibrate_profile(with_kernel_times(modeled_topk_samples(ns), t))
    n = np.array(ns, dtype=np.float64)
    (_, free_launch), *_ = np.linalg.lstsq(np.stack([n / t, 1 / t], axis=1), np.ones(3), rcond=None)
    assert free_launch < 0.0
    # oracle: the best through-origin line, refitted rather than clamped
    (rate,), *_ = np.linalg.lstsq((n / t)[:, None], np.ones(3), rcond=None)
    assert fitted.launch_overhead <= 1e-12
    assert fitted.kernel_rate_topk == pytest.approx(rate, rel=1e-9)


def test_calibrate_profile_needs_three_distinct_sizes():
    with pytest.raises(CalibrationError):
        calibrate_profile(modeled_topk_samples([1_000, 2_000]))
    dup = modeled_topk_samples([1_000, 1_000, 2_000])
    with pytest.raises(CalibrationError):
        calibrate_profile(dup)
    with pytest.raises(ValueError):
        calibrate_profile(modeled_topk_samples([1_000, 2_000, 4_000]), op="scan")


def test_proxy_profile_predicts_proxy_totals():
    """A profile fitted from proxy ledgers should re-predict those runs.

    Wall-clock noise on shared machines is real, so the bar is a median
    relative error across sizes, with component-wise median ledgers per size.
    """
    ns = [100_000, 500_000, 1_000_000]
    repeats = 5
    dev = ProxyDevice(workers=2)
    try:
        med_ledgers = []
        for n in ns:
            keys = random_key_vector(n, n)
            dev.topk(keys, 100)  # warmup per size
            runs = [dev.topk(keys, 100).ledger for _ in range(repeats)]
            med_ledgers.append(
                (
                    n,
                    TransferLedger.build(
                        h2d_bytes=runs[0].h2d_bytes,
                        d2h_bytes=runs[0].d2h_bytes,
                        t_h2d=statistics.median(r.t_h2d for r in runs),
                        t_kernel=statistics.median(r.t_kernel for r in runs),
                        t_d2h=statistics.median(r.t_d2h for r in runs),
                        t_post=statistics.median(r.t_post for r in runs),
                    ),
                )
            )
    finally:
        dev.close()
    fitted = calibrate_profile(med_ledgers)
    errors = []
    for n, led in med_ledgers:
        pred = estimate_device_cost(OP_TOPK, n, 100, profile=fitted).total
        errors.append(abs(pred - led.total) / led.total)
    assert statistics.median(errors) <= 0.15, f"median relative error {errors}"
