"""Dispatch rule, gated execution, and cpu-model calibration."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golp.breakeven import fit_nonneg
from golp.device import (
    DEFAULT_MODELED_PROFILE,
    FULL_ROW,
    OP_FULL_SORT,
    OP_PROBE,
    OP_TOPK,
    DeviceProfile,
    ModeledDevice,
    ProxyDevice,
    estimate_device_cost,
)
from golp.errors import CalibrationError
from golp.gate import (
    DEFAULT_CPU_MODEL,
    DEVICE,
    HOST,
    CpuCostModel,
    GateConfig,
    break_even_n,
    calibrate_cpu_model,
    decide,
    estimate_cpu_cost,
    execute_gated,
    execute_path,
)
from golp.store import extract_keys, generate_table

# Flat-cost construction: the host always costs 10 ms, the device ~4 ms, so
# the gain is ~6 ms at every n and the margin alone decides the path.
FLAT_CPU = CpuCostModel(alpha_sort=0.0, beta_sort=10e-3, alpha_match=0.0, beta_match=10e-3)
FLAT_DEVICE = DeviceProfile(
    h2d_bandwidth=1e15,
    d2h_bandwidth=1e15,
    launch_overhead=4e-3,
    kernel_rate_topk=1e-15,
    kernel_rate_probe=1e-15,
    post_rate=1e-15,
)
FLAT_CONFIG = GateConfig(cpu_model=FLAT_CPU, profile=FLAT_DEVICE)


def test_margin_below_gain_offloads():
    d = decide(dataclasses.replace(FLAT_CONFIG, margin_s=5e-3), OP_TOPK, 1_000, k=100)
    assert d.path == DEVICE
    assert d.c_cpu_est == pytest.approx(10e-3, rel=1e-9)
    assert d.c_gpu_est == pytest.approx(4e-3, rel=1e-6)
    assert d.gain == d.c_cpu_est - d.c_gpu_est


def test_margin_above_gain_stays_on_host():
    d = decide(dataclasses.replace(FLAT_CONFIG, margin_s=10e-3), OP_TOPK, 1_000, k=100)
    assert d.path == HOST
    assert not d.guard_triggered
    assert d.margin_used == 10e-3


def test_gain_exactly_equal_to_margin_stays_on_host():
    gain = decide(FLAT_CONFIG, OP_TOPK, 1_000, k=100).gain
    assert gain > 0
    d = decide(dataclasses.replace(FLAT_CONFIG, margin_s=gain), OP_TOPK, 1_000, k=100)
    assert d.path == HOST  # dispatch needs gain strictly above the margin


def test_row_count_guard():
    cfg = GateConfig(cpu_model=FLAT_CPU, profile=FLAT_DEVICE, min_n_guard=20_000)
    below = decide(cfg, OP_TOPK, 19_999, k=100)
    assert below.path == HOST
    assert below.guard_triggered
    assert below.gain > 0  # gate would have offloaded without the guard
    at = decide(cfg, OP_TOPK, 20_000, k=100)
    assert at.path == DEVICE
    assert not at.guard_triggered


def test_default_configuration_flips_once_over_the_grid():
    cfg = GateConfig()
    paths = [decide(cfg, OP_TOPK, n, k=100).path for n in
             (1_000, 10_000, 20_000, 100_000, 500_000, 1_000_000, 3_000_000)]
    assert paths == [HOST, HOST, HOST, HOST, DEVICE, DEVICE, DEVICE]


def test_default_gain_values_at_story_sizes():
    cfg = GateConfig()
    expected = {
        100_000: -5.570031e-5,
        500_000: 6.488781e-4,
        1_000_000: 1.614772e-3,
        3_000_000: 5.808935e-3,
    }
    for n, gain in expected.items():
        assert decide(cfg, OP_TOPK, n, k=100).gain == pytest.approx(gain, rel=1e-6)


def test_break_even_n_is_where_decide_flips_on_a_proxy_like_config():
    # a slower host, a slower link and a d2h phase that costs more than the
    # h2d of a few thousand rows
    profile = DeviceProfile(
        h2d_bandwidth=2e9,
        d2h_bandwidth=5e6,
        launch_overhead=300e-6,
        kernel_rate_topk=2e-9,
        kernel_rate_probe=2e-9,
        post_rate=100e-9,
    )
    config = GateConfig(
        cpu_model=CpuCostModel(alpha_sort=3e-9, beta_sort=20e-6, alpha_match=0.0, beta_match=0.0),
        profile=profile,
    )
    n_star = break_even_n(config, 100, payload_bytes=64)
    assert decide(config, OP_TOPK, math.floor(n_star), 100, payload_bytes=64).path == HOST
    assert decide(config, OP_TOPK, math.ceil(n_star), 100, payload_bytes=64).path == DEVICE
    free_d2h = GateConfig(cpu_model=config.cpu_model,
                          profile=dataclasses.replace(profile, d2h_bandwidth=1e15))
    assert break_even_n(free_d2h, 100, payload_bytes=64) < n_star - 1.0


def test_probe_decision_charges_both_transfer_sides():
    d = decide(FLAT_CONFIG, OP_PROBE, 1_000, k=3, build_n=9_000)
    expect_gpu = estimate_device_cost(OP_PROBE, 10_000, 3, profile=FLAT_DEVICE).total
    assert d.c_gpu_est == expect_gpu
    assert d.c_cpu_est == estimate_cpu_cost(FLAT_CPU, OP_PROBE, 1_000, 3)


def test_full_row_probe_bills_each_side_at_its_own_width():
    build = generate_table(3_000, 8, seed=6)
    probe = generate_table(5_000, 188, seed=7)
    expect = (8 + 8) * 3_000 + (8 + 188) * 5_000
    cfg = GateConfig(mode=FULL_ROW)
    profile = cfg.profile
    _, decision, _ = execute_gated((build, probe), OP_PROBE, 0, cfg)
    assert decision.c_gpu_est == pytest.approx(
        expect / profile.h2d_bandwidth
        + profile.launch_overhead + profile.kernel_rate_probe * 8_000, rel=1e-12)
    result, latency = execute_path((build, probe), OP_PROBE, 0, cfg, ModeledDevice(profile), DEVICE)
    assert result.match_count == 0 and latency == decision.c_gpu_est
    for device in (ModeledDevice(profile), ProxyDevice(workers=2)):
        with device:
            ledger = device.probe(extract_keys(build), extract_keys(probe), mode=FULL_ROW,
                                  payload_bytes=188, build_payload_bytes=8).ledger
        assert ledger.h2d_bytes == expect


def test_cpu_cost_formulas():
    model = CpuCostModel(alpha_sort=2e-9, beta_sort=1e-5, alpha_match=3e-9, beta_match=2e-5)
    n = 4096
    assert estimate_cpu_cost(model, OP_TOPK, n) == 2e-9 * n * 12 + 1e-5
    assert estimate_cpu_cost(model, OP_FULL_SORT, n) == 2e-9 * n * 12 + 1e-5
    assert estimate_cpu_cost(model, OP_PROBE, n, k=10) == 3e-9 * n * 10 + 2e-5
    assert estimate_cpu_cost(model, OP_TOPK, 0) == 1e-5  # log term floored at n=2
    with pytest.raises(ValueError):
        estimate_cpu_cost(model, "scan", n)
    with pytest.raises(ValueError):
        estimate_cpu_cost(model, OP_TOPK, -1)


def test_execute_path_reports_model_latency_on_modeled_backend():
    table = generate_table(2_000, seed=5)
    cfg = GateConfig()
    device = ModeledDevice(cfg.profile)
    _, host_latency = execute_path(table, OP_TOPK, 100, cfg, device, HOST)
    assert host_latency == estimate_cpu_cost(cfg.cpu_model, OP_TOPK, 2_000, 100)
    _, dev_latency = execute_path(table, OP_TOPK, 100, cfg, device, DEVICE)
    assert dev_latency == estimate_device_cost(OP_TOPK, 2_000, 100, profile=cfg.profile).total


def test_both_paths_materialize_identical_rows():
    table = generate_table(5_000, seed=8)
    cfg = GateConfig()
    device = ModeledDevice(cfg.profile)
    host_res, _ = execute_path(table, OP_TOPK, 64, cfg, device, HOST)
    dev_res, _ = execute_path(table, OP_TOPK, 64, cfg, device, DEVICE)
    assert np.array_equal(host_res.row_ids, dev_res.row_ids)
    assert np.array_equal(host_res.keys, dev_res.keys)
    assert np.array_equal(host_res.payloads, dev_res.payloads)


def test_execute_gated_agrees_with_decide():
    table = generate_table(3_000_000 // 100, seed=1)  # 30k rows: host regime
    cfg = GateConfig()
    result, decision, observed = execute_gated(table, OP_TOPK, 100, cfg)
    assert decision == decide(cfg, OP_TOPK, table.row_count, 100, table.payload_bytes)
    assert decision.path == HOST
    assert observed == decision.c_cpu_est
    assert len(result.row_ids) == 100


def test_execute_gated_device_latency_is_the_ledger_total():
    table = generate_table(500_000, seed=2)
    cfg = GateConfig()
    _, decision, observed = execute_gated(table, OP_TOPK, 100, cfg)
    assert decision.path == DEVICE
    assert observed == decision.c_gpu_est


def test_execute_gated_probe_uses_build_count():
    build = generate_table(2_000, seed=3)
    probe = generate_table(1_000, seed=4)
    cfg = GateConfig(cpu_model=FLAT_CPU, profile=FLAT_DEVICE)
    result, decision, _ = execute_gated((build, probe), OP_PROBE, 1, cfg)
    expect = decide(cfg, OP_PROBE, 1_000, 1, probe.payload_bytes, build_n=2_000)
    assert decision == expect
    assert result.probe_count == 1_000


def test_gate_config_validation():
    with pytest.raises(ValueError):
        GateConfig(margin_s=-1e-3)
    with pytest.raises(ValueError):
        GateConfig(min_n_guard=-1)
    with pytest.raises(ValueError):
        GateConfig(mode="compressed")
    with pytest.raises(ValueError):
        CpuCostModel(alpha_sort=-1e-9, beta_sort=0, alpha_match=0, beta_match=0)


def test_gate_config_json_round_trip():
    cfg = GateConfig(
        margin_s=2.5e-3,
        min_n_guard=1_234,
        cpu_model=CpuCostModel(1e-10, 2e-6, 3e-10, 4e-6),
        profile=FLAT_DEVICE,
        mode=FULL_ROW,
    )
    assert GateConfig.from_json_dict(dataclasses.asdict(cfg)) == cfg
    assert GateConfig.from_json_dict({}) == GateConfig()
    got = GateConfig.from_json_dict({"margin_s": 7e-3, "min_n_guard": None})
    assert got.margin_s == 7e-3
    assert got.min_n_guard is None
    assert got.profile == DEFAULT_MODELED_PROFILE


def test_calibrate_cpu_model_recovers_exact_constants():
    truth = CpuCostModel(alpha_sort=2e-10, beta_sort=3e-6, alpha_match=4e-10, beta_match=2e-6)
    samples = []
    for n in (10_000, 100_000, 1_000_000):
        samples.append((OP_FULL_SORT, n, 1, estimate_cpu_cost(truth, OP_FULL_SORT, n)))
        samples.append((OP_PROBE, n, 7, estimate_cpu_cost(truth, OP_PROBE, n, 7)))
    fitted = calibrate_cpu_model(samples)
    assert fitted.alpha_sort == pytest.approx(truth.alpha_sort, rel=1e-9)
    assert fitted.beta_sort == pytest.approx(truth.beta_sort, rel=1e-9)
    assert fitted.alpha_match == pytest.approx(truth.alpha_match, rel=1e-9)
    assert fitted.beta_match == pytest.approx(truth.beta_match, rel=1e-9)


def test_calibrate_cpu_model_sort_family_alone():
    samples = [(OP_TOPK, n, 100, 1e-10 * n * math.log2(n) + 1e-6)
               for n in (1_000, 10_000, 100_000)]
    fitted = calibrate_cpu_model(samples)
    assert fitted.alpha_sort == pytest.approx(1e-10, rel=1e-9)
    assert fitted.alpha_match == 0.0
    assert fitted.beta_match == 0.0


def test_calibrate_cpu_model_predicts_small_sizes_as_well_as_large():
    # proxy-bench Top-K medians (k = 100), 1k to 3M rows: an absolute fit lets
    # 3M decide and predicts 1k at 0.16x its measured time
    medians = {1_000: 22e-6, 10_000: 42e-6, 100_000: 323e-6, 500_000: 2_055e-6,
               1_000_000: 5_750e-6, 3_000_000: 22_649e-6}
    fitted = calibrate_cpu_model([(OP_TOPK, n, 100, t) for n, t in medians.items()])
    worst = max(abs(estimate_cpu_cost(fitted, OP_TOPK, n, 100) - t) / t
                for n, t in medians.items())
    assert worst <= 0.5, f"largest relative residual {worst:.2f}"


def test_calibrate_cpu_model_input_validation():
    with pytest.raises(CalibrationError):
        calibrate_cpu_model([])
    with pytest.raises(CalibrationError):  # only 2 distinct n in the family
        calibrate_cpu_model([(OP_FULL_SORT, 10, 1, 1e-3), (OP_FULL_SORT, 20, 1, 2e-3)])
    with pytest.raises(CalibrationError):  # flat measurements: nothing grows
        calibrate_cpu_model([(OP_FULL_SORT, n, 1, 5e-3) for n in (10, 20, 40)])
    with pytest.raises(ValueError):
        calibrate_cpu_model([("scan", 10, 1, 1e-3)])


@settings(max_examples=300, deadline=None)
@given(
    ns=st.lists(st.integers(min_value=2, max_value=10**6), min_size=3, max_size=8, unique=True),
    seconds=st.floats(min_value=1e-9, max_value=10.0),
)
def test_flat_calibration_has_no_slope_and_is_rejected(ns, seconds):
    # no rounding residue of the weighted mean may pass as growth
    xs = [n * math.log2(n) for n in ns]
    for relative in (False, True):
        slope, intercept, _, _ = fit_nonneg(xs, [seconds] * len(xs), relative=relative)
        assert (slope, intercept) == (0.0, seconds)
    with pytest.raises(CalibrationError, match="no growth"):
        calibrate_cpu_model([(OP_FULL_SORT, n, 1, seconds) for n in ns])


@pytest.mark.parametrize("call", [
    lambda op: estimate_cpu_cost(DEFAULT_CPU_MODEL, op, 1_000, 10),
    lambda op: estimate_device_cost(op, 1_000, 10),
    lambda op: decide(GateConfig(), op, 1_000, 10),
    lambda op: execute_gated(generate_table(100, 4, seed=1), op, 10, GateConfig()),
    lambda op: execute_path(generate_table(100, 4, seed=1), op, 10, GateConfig(),
                            ModeledDevice(), HOST),
    lambda op: calibrate_cpu_model([(op, n, 10, 1e-3 * n) for n in (10, 20, 40)]),
], ids=["estimate_cpu_cost", "estimate_device_cost", "decide", "execute_gated",
        "execute_path", "calibrate_cpu_model"])
def test_unknown_op_raises_value_error(call):
    with pytest.raises(ValueError, match="unknown op 'scan'"):
        call("scan")


def test_full_sort_has_no_device_path():
    with pytest.raises(ValueError):
        estimate_device_cost(OP_FULL_SORT, 1_000, 10)
    with pytest.raises(ValueError):
        execute_path(generate_table(100, 4, seed=1), OP_FULL_SORT, 10, GateConfig(),
                     ModeledDevice(), HOST)


def test_calibrate_cpu_model_clamps_negative_slope_to_zero():
    # decreasing sort timings (noise artifact) clamp to a flat sort model;
    # the growing match family keeps the calibration as a whole valid
    samples = [(OP_FULL_SORT, n, 1, t) for n, t in ((10, 3e-3), (100, 2e-3), (1_000, 1e-3))]
    samples += [(OP_PROBE, n, 1, 1e-9 * n + 1e-6) for n in (10, 100, 1_000)]
    fitted = calibrate_cpu_model(samples)
    assert fitted.alpha_sort == 0.0
    # the flat fit weighs each time by 1/y**2, so beta is the weighted mean
    # sum(y / y**2) / sum(1 / y**2) = (1833.3...) / (1361111.1...) = 33 / 24500
    assert fitted.beta_sort == pytest.approx(1.346938775510204e-3, rel=1e-9)
    assert fitted.alpha_match == pytest.approx(1e-9, rel=1e-9)
