"""Benchmark harness: stats, workloads, strategy runs, sweeps, export."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golp.device import (
    FULL_ROW,
    KEY_ONLY,
    OP_FULL_SORT,
    OP_TOPK,
    ModeledDevice,
    ProxyDevice,
    TransferLedger,
    estimate_device_cost,
)
from golp.errors import StrategyMismatchError
from golp.gate import DEFAULT_CPU_MODEL, GateConfig, estimate_cpu_cost
from golp.harness import (
    DEFAULT_GRID,
    DEVICE_ALWAYS,
    GATED,
    HOST_ONLY,
    BenchReport,
    BreakEvenRow,
    WorkloadSpec,
    breakeven_rows_from_runs,
    compute_stats,
    e2e_seconds,
    export_report,
    model_breakeven_sweep,
    query_sizes,
    run_margin_sweep,
    run_payload_comparison,
    run_scaling_baseline,
    run_strategy_comparison,
    workload_tables,
)

from .oracles import oracle_percentile

SMALL_SPEC = WorkloadSpec(n_grid=(1_000, 5_000, 10_000), repeats=3)
SMALL_TABLES = workload_tables(SMALL_SPEC)


# --- latency stats ----------------------------------------------------------


def test_percentiles_on_one_to_hundred():
    stats = compute_stats([float(v) for v in range(1, 101)])
    assert stats.median == 50.0
    assert stats.p95 == 95.0
    assert stats.p99 == 99.0


def test_percentiles_small_samples():
    one = compute_stats([7.0])
    assert (one.median, one.p95, one.p99) == (7.0, 7.0, 7.0)
    three = compute_stats([5.0, 1.0, 3.0])
    assert three.median == 3.0
    assert three.p95 == 5.0
    assert three.p99 == 5.0


def test_stats_reject_empty_input():
    with pytest.raises(ValueError):
        compute_stats([])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=150))
def test_percentiles_match_counting_oracle(samples):
    stats = compute_stats(samples)
    assert stats.median == oracle_percentile(samples, 0.50)
    assert stats.p95 == oracle_percentile(samples, 0.95)
    assert stats.p99 == oracle_percentile(samples, 0.99)


# --- workload spec ----------------------------------------------------------


def test_workload_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(n_grid=())
    with pytest.raises(ValueError):
        WorkloadSpec(n_grid=(1_000, 1_000))
    with pytest.raises(ValueError):
        WorkloadSpec(n_grid=(2_000, 1_000))
    with pytest.raises(ValueError):
        WorkloadSpec(repeats=0)
    with pytest.raises(ValueError):
        WorkloadSpec(payload_bytes=0)
    with pytest.raises(ValueError):
        WorkloadSpec(n_grid=(10, 20), mix=(1.0,))
    with pytest.raises(ValueError):
        WorkloadSpec(n_grid=(10, 20), mix=(1.0, -0.1))
    with pytest.raises(ValueError):
        WorkloadSpec(n_grid=(10, 20), mix=(0.0, 0.0))


def test_workload_spec_rejects_k_below_one():
    # k is the returned row count: a negative one would bill negative d2h bytes
    for k in (0, -5):
        with pytest.raises(ValueError, match="k must be >= 1"):
            WorkloadSpec(k=k)
    assert WorkloadSpec(k=1).k == 1


def test_workload_mix_normalizes_to_unit_sum():
    spec = WorkloadSpec(n_grid=(10, 20), mix=(2.0, 2.0))
    assert spec.mix == (0.5, 0.5)
    spec = WorkloadSpec(n_grid=(10, 20, 30), mix=(8, 1, 1))
    assert spec.mix == (0.8, 0.1, 0.1)


def test_query_sizes_without_mix_is_grid_times_repeats():
    spec = WorkloadSpec(n_grid=(10, 20), repeats=3)
    assert query_sizes(spec) == [10, 10, 10, 20, 20, 20]


def test_query_sizes_with_mix_is_seeded_and_stable():
    spec = WorkloadSpec(n_grid=(10, 20), repeats=50, mix=(0.8, 0.2), seed=9)
    sizes = query_sizes(spec)
    assert len(sizes) == 100
    assert set(sizes) <= {10, 20}
    assert sizes == query_sizes(spec)
    assert sizes.count(10) > sizes.count(20)
    other = query_sizes(WorkloadSpec(n_grid=(10, 20), repeats=50, mix=(0.8, 0.2), seed=10))
    assert other != sizes


# --- scaling baseline -------------------------------------------------------


def test_modeled_scaling_reports_cost_model_values():
    rows = run_scaling_baseline(SMALL_SPEC, SMALL_TABLES)
    assert len(rows) == 2 * len(SMALL_SPEC.n_grid)
    for row in rows:
        assert row.median_s == row.p95_s
        assert row.median_s == estimate_cpu_cost(DEFAULT_CPU_MODEL, row.op, row.n, SMALL_SPEC.k)
    sort_medians = [r.median_s for r in rows if r.op == OP_FULL_SORT]
    assert sort_medians == sorted(sort_medians)
    assert rows == run_scaling_baseline(SMALL_SPEC, SMALL_TABLES)


def test_real_scaling_times_the_host_primitives():
    spec = WorkloadSpec(n_grid=(1_000, 2_000), repeats=3)
    with ProxyDevice(workers=1) as device:
        rows = run_scaling_baseline(spec, workload_tables(spec), device)
    assert len(rows) == 4
    assert {r.op for r in rows} == {OP_FULL_SORT, OP_TOPK}
    assert all(r.median_s > 0.0 for r in rows)
    assert all(r.p95_s >= r.median_s for r in rows)


# --- payload comparison -----------------------------------------------------


def test_payload_rows_carry_the_exact_byte_ratio():
    spec = WorkloadSpec(n_grid=(1_000, 3_000_000), repeats=1)
    records = run_payload_comparison(spec, workload_tables(spec))
    by_key = {(n, mode): led for n, mode, led in records}
    for n in spec.n_grid:
        full = by_key[(n, FULL_ROW)]
        key = by_key[(n, KEY_ONLY)]
        assert full.h2d_bytes == 196 * n
        assert key.h2d_bytes == 12 * n
        assert full.h2d_bytes / key.h2d_bytes == pytest.approx(49 / 3, rel=1e-12)
        # same link, so modeled transfer time scales exactly with bytes
        assert full.t_h2d / key.t_h2d == pytest.approx(49 / 3, rel=1e-12)


def test_e2e_rows_at_three_million_rows():
    spec = WorkloadSpec(n_grid=(3_000_000,), repeats=1)
    records = run_payload_comparison(spec, workload_tables(spec))
    e2e = {mode: e2e_seconds(mode, led) for _, mode, led in records}
    speedup = {mode: e2e[FULL_ROW] / e2e[mode] for mode in e2e}
    assert e2e[FULL_ROW] == pytest.approx(2.4020016e-2, rel=1e-6)
    assert e2e[KEY_ONLY] == pytest.approx(1.942016e-3, rel=1e-6)
    assert speedup[FULL_ROW] == 1.0
    assert speedup[KEY_ONLY] == pytest.approx(12.368598, rel=1e-6)


def test_e2e_full_row_skips_materialization_key_only_pays_it():
    spec = WorkloadSpec(n_grid=(100_000,), repeats=1)
    led = {mode: ledger for _, mode, ledger in run_payload_comparison(spec, workload_tables(spec))}
    full_led = led[FULL_ROW]
    assert e2e_seconds(FULL_ROW, full_led) == pytest.approx(
        full_led.t_h2d + full_led.t_kernel + full_led.t_d2h, rel=1e-12
    )
    assert e2e_seconds(KEY_ONLY, led[KEY_ONLY]) == pytest.approx(led[KEY_ONLY].total, rel=1e-12)
    assert led[KEY_ONLY].t_post > 0.0


# --- strategy comparison ----------------------------------------------------


def test_small_queries_stay_on_host_and_device_always_loses():
    host, device, gated = run_strategy_comparison(SMALL_SPEC, SMALL_TABLES, GateConfig())
    assert host.offload_rate == 0.0
    assert device.offload_rate == 1.0
    assert gated.offload_rate == 0.0
    for n in SMALL_SPEC.n_grid:
        assert gated.per_n[n].median == host.per_n[n].median
        assert device.per_n[n].median > host.per_n[n].median


def test_large_queries_offload_and_match_device_always():
    spec = WorkloadSpec(n_grid=(500_000, 1_000_000), repeats=2)
    host, device, gated = run_strategy_comparison(spec, workload_tables(spec), GateConfig())
    assert gated.offload_rate == 1.0
    for n in spec.n_grid:
        assert gated.per_n[n].median == device.per_n[n].median
        assert gated.per_n[n].median < host.per_n[n].median


def test_gated_mixed_workload_beats_both_fixed_strategies_at_the_tail():
    spec = WorkloadSpec(n_grid=(10_000, 1_000_000), repeats=250, mix=(0.8, 0.2), seed=3)
    host, device, gated = run_strategy_comparison(spec, workload_tables(spec), GateConfig())
    host_stats = compute_stats(host.all_samples())
    device_stats = compute_stats(device.all_samples())
    gated_stats = compute_stats(gated.all_samples())
    assert gated_stats.p95 <= host_stats.p95
    assert gated_stats.p95 <= device_stats.p95
    assert gated_stats.p99 <= device_stats.p99
    assert 0.0 < gated.offload_rate < 1.0


class _LyingDevice(ModeledDevice):
    """Returns a correct ledger but the wrong rows."""

    def topk(self, keys, k, mode=KEY_ONLY, payload_bytes=None):
        call = super().topk(keys, k, mode=mode, payload_bytes=payload_bytes)
        call.payload.rows[:] = call.payload.rows[::-1]
        return call


def test_divergent_answers_abort_the_comparison():
    with pytest.raises(StrategyMismatchError):
        run_strategy_comparison(SMALL_SPEC, SMALL_TABLES, GateConfig(), device=_LyingDevice())


# --- sweeps -----------------------------------------------------------------


def test_margin_sweep_story_numbers():
    spec = WorkloadSpec()  # default grid, k=100
    rows = run_margin_sweep(spec, margins=(0.0, 5e-3, 10e-3))
    assert rows[0].switch_n == 500_000
    assert rows[0].offload_rate == pytest.approx(3 / 7, rel=1e-12)
    assert rows[1].switch_n == 3_000_000
    assert rows[1].offload_rate == pytest.approx(1 / 7, rel=1e-12)
    assert rows[2].switch_n is None
    assert rows[2].offload_rate == 0.0


def test_margin_sweep_is_monotone():
    rows = run_margin_sweep(WorkloadSpec(), margins=(0.0, 1e-3, 2e-3, 5e-3, 1e-2, 1e9))
    rates = [r.offload_rate for r in rows]
    assert rates == sorted(rates, reverse=True)
    switches = [r.switch_n if r.switch_n is not None else math.inf for r in rows]
    assert switches == sorted(switches)
    assert rows[-1].offload_rate == 0.0


def test_margin_sweep_respects_the_mix_weights():
    spec = WorkloadSpec(n_grid=(10_000, 1_000_000), mix=(0.8, 0.2))
    (row,) = run_margin_sweep(spec, margins=(0.0,))
    assert row.offload_rate == pytest.approx(0.2, rel=1e-12)
    assert row.switch_n == 1_000_000


def test_model_breakeven_sweep_covers_the_grid_span():
    spec = WorkloadSpec(n_grid=(100_000, 500_000))
    rows = model_breakeven_sweep(spec)
    ns = [r.n for r in rows]
    assert ns[0] == 100_000.0
    assert ns[-1] == 500_000.0
    assert ns == sorted(ns)
    assert len(ns) == len(set(ns))
    for row in rows[:: max(1, len(rows) // 7)]:
        assert row.cpu_s == estimate_cpu_cost(DEFAULT_CPU_MODEL, OP_TOPK, int(row.n), spec.k)
        assert row.device_s == estimate_device_cost(OP_TOPK, int(row.n), spec.k,
                                                    payload_bytes=spec.payload_bytes).total


def test_breakeven_rows_join_sort_medians_with_key_only_totals():
    cpu_points = [(1_000, 1e-3), (2_000, 3e-3)]
    key_only = [
        (1_000, TransferLedger(12_000, 1_200, 1e-4, 2e-4, 1e-4, 1e-4)),  # total 5e-4
        (5_000, TransferLedger(60_000, 1_200, 5e-4, 2e-4, 5e-5, 5e-5)),  # no cpu point
    ]
    rows = breakeven_rows_from_runs(cpu_points, key_only)
    assert rows == [BreakEvenRow(1_000.0, 1e-3, 5e-4)]


# --- export -----------------------------------------------------------------

EXPECTED_HEADERS = {
    "fig1_guard.csv": "n,strategy,median_s,p95_s",
    "fig2_margin.csv": "margin_s,offload_rate,switch_n",
    "fig3_scaling.csv": "n,op,median_s,p95_s",
    "fig4_payload.csv": "n,mode,bytes,transfer_s",
    "fig5_breakeven.csv": "n,cpu_s,device_s",
    "fig6_transfer.csv": "n,mode,h2d_bytes,t_h2d,t_kernel,t_d2h,t_post,total_s",
    "fig7_e2e.csv": "n,mode,e2e_s,speedup_vs_full_row",
}


def test_empty_report_exports_headers_and_null_summary(tmp_path):
    written = export_report(BenchReport(), tmp_path)
    assert [p.name for p in written] == list(EXPECTED_HEADERS) + ["summary.json"]
    for name, header in EXPECTED_HEADERS.items():
        assert (tmp_path / name).read_text(encoding="utf-8") == header + "\n"
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary == {"fits": None, "n_star": None, "breakeven_error": None, "strategies": {}}


def test_export_is_byte_identical_across_reruns(tmp_path):
    def build_report():
        spec = WorkloadSpec(n_grid=(1_000, 10_000), repeats=2)
        tables = workload_tables(spec)
        host, device, gated = run_strategy_comparison(spec, tables, GateConfig())
        return BenchReport(
            scaling_rows=run_scaling_baseline(spec, tables),
            payload=run_payload_comparison(spec, tables),
            strategy_runs=(host, device, gated),
            margin_rows=run_margin_sweep(spec),
            breakeven_rows=model_breakeven_sweep(spec),
        )

    first = export_report(build_report(), tmp_path / "a")
    second = export_report(build_report(), tmp_path / "b")
    for p1, p2 in zip(first, second):
        assert p1.read_bytes() == p2.read_bytes()


def test_export_renders_missing_switch_n_as_empty_field(tmp_path):
    report = BenchReport(margin_rows=run_margin_sweep(WorkloadSpec(), margins=(1e9,)))
    export_report(report, tmp_path)
    lines = (tmp_path / "fig2_margin.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "1000000000.000000000,0.000000,"


def test_export_summary_strategy_block(tmp_path):
    spec = WorkloadSpec(n_grid=(1_000, 500_000), repeats=2)
    host, device, gated = run_strategy_comparison(spec, workload_tables(spec), GateConfig())
    export_report(BenchReport(strategy_runs=(host, device, gated)), tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert set(summary["strategies"]) == {HOST_ONLY, DEVICE_ALWAYS, GATED}
    for block in summary["strategies"].values():
        assert set(block) == {"p50", "p95", "p99", "offload_rate"}
    assert summary["strategies"][HOST_ONLY]["offload_rate"] == 0.0
    assert summary["strategies"][DEVICE_ALWAYS]["offload_rate"] == 1.0
    assert summary["strategies"][GATED]["offload_rate"] == pytest.approx(0.5)


def test_default_grid_matches_the_documented_measurement_ceiling():
    assert DEFAULT_GRID[0] == 1_000
    assert DEFAULT_GRID[-1] == 3_000_000
    assert WorkloadSpec().n_grid == DEFAULT_GRID
