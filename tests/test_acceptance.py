"""Acceptance gate: one test per shipping criterion, pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` to get exactly one
PASSED/FAILED line per criterion; each test also prints the measured
numbers it judged (visible with -s or on failure).
"""

import json
import math
import time

import numpy as np
import pytest

from golp.breakeven import make_fit_result, solve_break_even
from golp.cli import main
from golp.device import (
    DEFAULT_MODELED_PROFILE,
    FULL_ROW,
    KEY_ONLY,
    OP_PROBE,
    OP_TOPK,
    ModeledDevice,
    ProxyDevice,
    estimate_device_cost,
)
from golp.gate import GateConfig, break_even_n
from golp.harness import (
    DEFAULT_MARGINS,
    WorkloadSpec,
    compute_stats,
    e2e_seconds,
    run_margin_sweep,
    run_payload_comparison,
    run_scaling_baseline,
    run_strategy_comparison,
    workload_tables,
)
from golp.host import host_hash_build, host_hash_probe, host_topk
from golp.store import KeyVector

from .oracles import oracle_join_outer, oracle_topk_rows

BENCH_CONFIG = {
    "workload": {
        "n_grid": [1_000, 10_000, 100_000, 500_000],
        "repeats": 2,
        "payload_bytes": 16,
    }
}


def bench_into(tmp_path, out_name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(BENCH_CONFIG), encoding="utf-8")
    out = tmp_path / out_name
    code = main(["bench", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return out


def chunked_join_oracle(bk, br, pk, pr, max_cells=4_000_000):
    """Brute-force join in probe-side chunks to bound the outer product."""
    step = max(1, max_cells // max(1, len(bk)))
    out = []
    for lo in range(0, len(pk), step):
        out.extend(oracle_join_outer(bk, br, pk[lo:lo + step], pr[lo:lo + step]))
    return out


def test_criterion_01_primitives_match_brute_force_oracles():
    rng = np.random.default_rng(20260816)
    t0 = time.perf_counter()
    proxy = ProxyDevice(workers=2)
    modeled = ModeledDevice(DEFAULT_MODELED_PROFILE)
    try:
        for i in range(200):
            n = int(10 ** rng.uniform(1, 5))  # up to 1e5 rows
            k = int(rng.choice([1, 10, 100, max(1, n)]))
            if i % 3 == 0:
                keys = rng.integers(0, max(2, n // 8), size=n).astype(np.float64)
            else:
                keys = rng.standard_normal(n)
            kv = KeyVector(keys=keys, rows=rng.permutation(n).astype(np.uint32))
            expect = oracle_topk_rows(keys.tolist(), kv.rows.tolist(), k)
            assert list(host_topk(kv, k).rows) == expect, f"host topk diverged (n={n}, k={k})"
            assert list(modeled.topk(kv, k).payload.rows) == expect
            assert list(proxy.topk(kv, k).payload.rows) == expect

        for i in range(200):
            nb = int(10 ** rng.uniform(1, 4))  # up to 1e4 per side
            npr = int(10 ** rng.uniform(1, 4))
            domain = max(4, (nb + npr) // 3)
            bk = rng.integers(0, domain, size=nb).astype(np.float64)
            pk = rng.integers(0, domain, size=npr).astype(np.float64)
            build = KeyVector(keys=bk, rows=rng.permutation(nb).astype(np.uint32))
            probe = KeyVector(keys=pk, rows=rng.permutation(npr).astype(np.uint32))
            expect = chunked_join_oracle(bk, build.rows, pk, probe.rows)
            host = host_hash_probe(host_hash_build(build), probe)
            assert host.matches == expect, f"host probe diverged (nb={nb}, np={npr})"
            assert modeled.probe(build, probe).payload.matches == expect
            assert proxy.probe(build, probe).payload.matches == expect
    finally:
        proxy.close()
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 1 took {elapsed:.1f}s, budget is 120s"
    print(f"criterion 1 PASS: 200 topk + 200 probe instances, 3 engines each, "
          f"all equal to the oracles ({elapsed:.1f}s)")


def test_criterion_02_byte_accounting_is_exact():
    n = 3_000_000
    full = estimate_device_cost(OP_TOPK, n, 100, FULL_ROW, payload_bytes=188)
    key = estimate_device_cost(OP_TOPK, n, 100, KEY_ONLY)
    full_bytes = 196 * n
    key_bytes = 12 * n
    assert full.t_h2d * DEFAULT_MODELED_PROFILE.h2d_bandwidth == pytest.approx(
        full_bytes, rel=1e-12
    )
    assert key.t_h2d * DEFAULT_MODELED_PROFILE.h2d_bandwidth == pytest.approx(
        key_bytes, rel=1e-12
    )
    dev = ModeledDevice(DEFAULT_MODELED_PROFILE)
    kv = KeyVector(
        keys=np.arange(20_000, dtype=np.float64),
        rows=np.arange(20_000, dtype=np.uint32),
    )
    led_full = dev.topk(kv, 100, mode=FULL_ROW, payload_bytes=188).ledger
    led_key = dev.topk(kv, 100).ledger
    assert led_full.h2d_bytes == 196 * 20_000
    assert led_key.h2d_bytes == 12 * 20_000
    assert led_key.d2h_bytes == 4 * 100
    led_probe = dev.probe(kv, kv).ledger
    assert led_probe.h2d_bytes == 12 * 40_000
    assert led_probe.d2h_bytes == 8 * 20_000  # every key matches itself once
    proxy = ProxyDevice(workers=2)
    try:
        proxy_led = proxy.topk(kv, 100, mode=FULL_ROW, payload_bytes=188).ledger
    finally:
        proxy.close()
    assert (proxy_led.h2d_bytes, proxy_led.d2h_bytes) == (led_full.h2d_bytes, led_full.d2h_bytes)
    ratio = full_bytes / key_bytes
    assert abs(ratio - 16.2) / 16.2 <= 0.01, f"byte ratio {ratio:.4f} not within 1% of 16.2"
    print(f"criterion 2 PASS: byte formulas exact per call; "
          f"188-byte payload ratio {ratio:.4f} within 1% of 16.2")


def test_criterion_03_solved_crossover_matches_the_sweep(tmp_path, capsys):
    out = bench_into(tmp_path, "run")
    capsys.readouterr()
    code = main([
        "fit",
        "--cpu", str(out / "fig3_scaling.csv"),
        "--tx", str(out / "fig4_payload.csv"),
        "--sweep", str(out / "fig5_breakeven.csv"),
    ])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["relative_error"] is not None
    assert doc["relative_error"] <= 0.05, f"relative error {doc['relative_error']:.4f} > 5%"

    # a*n*log2(n) meets c*n at log2(n) = c/a = 20
    analytic = solve_break_even(lambda n: 2e-9 * n * math.log2(n) - 4e-8 * n)
    analytic_err = abs(analytic - 1_048_576.0) / 1_048_576.0
    assert analytic_err <= 1e-6, f"analytic crossover off by {analytic_err:.2e}"
    print(f"criterion 3 PASS: solved n_star={doc['n_star']:.1f} vs swept "
          f"{doc['measured_n_star']:.1f} (error {doc['relative_error']:.5f} <= 5%); "
          f"analytic case error {analytic_err:.2e} <= 1e-6")


def test_criterion_04_measured_curves_fit_their_bases():
    t0 = time.perf_counter()
    spec = WorkloadSpec(n_grid=(10_000, 50_000, 100_000, 500_000, 1_000_000), repeats=31)
    with ProxyDevice(workers=1) as device:
        scaling = run_scaling_baseline(spec, workload_tables(spec), device)
    cpu_pts = [(float(r.n), r.median_s) for r in scaling if r.op == "full_sort"]

    proxy = ProxyDevice(workers=2)
    tx_pts = []
    try:
        for n in spec.n_grid:
            rng = np.random.default_rng(n)
            kv = KeyVector(keys=rng.standard_normal(n),
                           rows=np.arange(n, dtype=np.uint32))
            proxy.topk(kv, spec.k)  # warmup
            h2d = [proxy.topk(kv, spec.k).ledger.t_h2d for _ in range(spec.repeats)]
            tx_pts.append((float(n), compute_stats(h2d).median))
    finally:
        proxy.close()
    fit = make_fit_result(cpu_pts, tx_pts)
    r2_cpu, r2_tx = fit.r2_cpu, fit.r2_tx

    elapsed = time.perf_counter() - t0
    assert r2_cpu >= 0.95, f"host full_sort R^2 {r2_cpu:.4f} < 0.95"
    assert r2_tx >= 0.95, f"key-only transfer R^2 {r2_tx:.4f} < 0.95"
    assert elapsed < 300.0, f"criterion 4 took {elapsed:.1f}s, budget is 300s"
    print(f"criterion 4 PASS: R^2(cpu)={r2_cpu:.4f}, R^2(tx)={r2_tx:.4f}, "
          f"both >= 0.95 at 31 repeats ({elapsed:.1f}s)")


def test_criterion_05_small_queries_never_benefit_from_the_device():
    spec = WorkloadSpec(n_grid=(1_000, 5_000, 10_000), repeats=3)
    config = GateConfig(min_n_guard=20_000)
    host, device, gated = run_strategy_comparison(spec, workload_tables(spec), config)
    for n in spec.n_grid:
        assert device.per_n[n].median > host.per_n[n].median, (
            f"device_always should lose at n={n}"
        )
        assert gated.per_n[n].median == host.per_n[n].median, (
            f"gated must ride the host path at n={n}"
        )
    assert gated.offload_rate == 0.0
    print("criterion 5 PASS: device_always median > host_only at every small n; "
          "gated with guard=20000 is decision-identical to host_only")


def test_criterion_06_margin_sweep_is_monotone_and_brackets_the_crossover():
    spec = WorkloadSpec()
    rows = run_margin_sweep(spec, DEFAULT_MARGINS)
    rates = [r.offload_rate for r in rows]
    assert all(a >= b for a, b in zip(rates, rates[1:])), f"offload rates not monotone: {rates}"
    switches = [r.switch_n if r.switch_n is not None else float("inf") for r in rows]
    assert all(a <= b for a, b in zip(switches, switches[1:])), (
        f"switch sizes not monotone: {switches}"
    )

    n_star = break_even_n(GateConfig(), spec.k)
    switch0 = rows[0].switch_n
    below = max(n for n in spec.n_grid if n < switch0)
    assert below < n_star <= switch0, (
        f"margin-0 switch {switch0} does not bracket n_star {n_star:.0f}"
    )
    print(f"criterion 6 PASS: offload rates {rates} non-increasing, switches "
          f"{switches} non-decreasing, margin-0 switch brackets n_star={n_star:.0f}")


def test_criterion_07_gated_wins_the_tail_on_a_mixed_workload():
    spec = WorkloadSpec(n_grid=(10_000, 1_000_000), repeats=250, mix=(0.8, 0.2), seed=3)
    assert len(spec.n_grid) * spec.repeats == 500
    host, device, gated = run_strategy_comparison(spec, workload_tables(spec), GateConfig())
    host_stats = compute_stats(host.all_samples())
    device_stats = compute_stats(device.all_samples())
    gated_stats = compute_stats(gated.all_samples())
    assert gated_stats.p95 <= host_stats.p95, (
        f"gated p95 {gated_stats.p95:.6f} > host_only p95 {host_stats.p95:.6f}"
    )
    assert gated_stats.p95 <= device_stats.p95, (
        f"gated p95 {gated_stats.p95:.6f} > device_always p95 {device_stats.p95:.6f}"
    )
    assert gated_stats.p99 <= device_stats.p99, (
        f"gated p99 {gated_stats.p99:.6f} > device_always p99 {device_stats.p99:.6f}"
    )
    print(f"criterion 7 PASS: 500-query 80/20 mix, gated p95={gated_stats.p95:.6f} <= "
          f"host p95={host_stats.p95:.6f} and device p95={device_stats.p95:.6f}; "
          f"gated p99={gated_stats.p99:.6f} <= device p99={device_stats.p99:.6f}")


def test_criterion_08_key_only_end_to_end_speedup():
    def key_only_speedup(records):
        e2e = {mode: e2e_seconds(mode, led) for _, mode, led in records}
        return e2e[FULL_ROW] / e2e[KEY_ONLY]

    spec = WorkloadSpec(n_grid=(3_000_000,), repeats=1)
    speedup = key_only_speedup(run_payload_comparison(spec, workload_tables(spec)))
    assert speedup >= 10.0, f"modeled key-only speedup {speedup:.2f}x < 10x"

    proxy = ProxyDevice(workers=2)
    try:  # informational only: real copies on this host, smaller n to stay in memory
        proxy_spec = WorkloadSpec(n_grid=(1_000_000,), repeats=1)
        proxy_ratio = key_only_speedup(run_payload_comparison(
            proxy_spec, workload_tables(proxy_spec), device=proxy))
    finally:
        proxy.close()
    print(f"criterion 8 PASS: modeled key-only e2e speedup at 3M rows is "
          f"{speedup:.3f}x >= 10x "
          f"(informational proxy speedup at 1M rows: {proxy_ratio:.2f}x)")


def test_criterion_09_modeled_bench_reruns_byte_identical(tmp_path, capsys):
    first = bench_into(tmp_path, "run_a")
    second = bench_into(tmp_path, "run_b")
    capsys.readouterr()
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), (
            f"{name} differs between identical runs"
        )
    print(f"criterion 9 PASS: two identical modeled bench runs produced "
          f"byte-identical output ({len(names)} files)")
