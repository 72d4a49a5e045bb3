"""Cost-accounted dispatch: estimate both paths, apply guard and margin, run.

The gate offloads a query only when the estimated host cost exceeds the
estimated device cost by more than a configurable margin; ties and everything
below an optional row-count guard stay on the host, the safe default. The
decision record keeps both estimates so a sweep can be audited offline.
calibrate_gate fits the gate's sort line and device profile to a measured
bench.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Optional, Sequence

from .breakeven import fit_nonneg, solve_break_even
from .device import (
    DEFAULT_MODELED_PROFILE,
    KEY_ONLY,
    OP_FULL_SORT,
    OP_TOPK,
    OPS,
    DeviceProfile,
    ModeledDevice,
    OpSpec,
    TransferLedger,
    estimate_device_cost,
    op_spec,
)
from .errors import CalibrationError
from .host import host_hash_build, host_hash_probe, host_topk
from .store import extract_keys, materialize

HOST = "host"
DEVICE = "device"

_TINY_RATE = 1e-12


@dataclass(frozen=True)
class CpuCostModel:
    """Host cost bases: alpha_sort*n*log2(n)+beta_sort and alpha_match*n*k+beta_match."""

    alpha_sort: float
    beta_sort: float
    alpha_match: float
    beta_match: float

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if value < 0.0:
                raise ValueError(f"cpu model coefficient {name} must be non-negative")


# Paired with DEFAULT_MODELED_PROFILE; see that constant for the regime the
# two sets of defaults are tuned to reproduce together.
DEFAULT_CPU_MODEL = CpuCostModel(
    alpha_sort=1.2e-10,
    beta_sort=5e-6,
    alpha_match=5e-10,
    beta_match=5e-6,
)


@dataclass(frozen=True)
class GateConfig:
    margin_s: float = 0.0
    min_n_guard: Optional[int] = None
    cpu_model: CpuCostModel = DEFAULT_CPU_MODEL
    profile: DeviceProfile = DEFAULT_MODELED_PROFILE

    def __post_init__(self) -> None:
        if self.margin_s < 0.0:
            raise ValueError("margin_s must be non-negative")
        if self.min_n_guard is not None and self.min_n_guard < 0:
            raise ValueError("min_n_guard must be non-negative when set")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GateConfig":
        if obj.get("mode", KEY_ONLY) != KEY_ONLY:
            raise ValueError(f"the gate ships keys only; mode {obj['mode']!r} is not supported")
        kwargs = {}
        if "margin_s" in obj:
            kwargs["margin_s"] = float(obj["margin_s"])
        if "min_n_guard" in obj:
            guard = obj["min_n_guard"]
            kwargs["min_n_guard"] = None if guard is None else int(guard)
        sections = (("cpu_model", DEFAULT_CPU_MODEL), ("profile", DEFAULT_MODELED_PROFILE))
        for key, default in sections:
            if key in obj:
                kwargs[key] = _replace_from_json(default, obj[key])
        return cls(**kwargs)


def _replace_from_json(default, obj: dict):
    """default with each field obj names set to float(obj[name]); other keys are ignored."""
    given = {f.name: float(obj[f.name]) for f in fields(default) if f.name in obj}
    return replace(default, **given)


@dataclass(frozen=True)
class GateDecision:
    path: str
    c_cpu_est: float
    c_gpu_est: float
    gain: float
    guard_triggered: bool
    margin_used: float


def estimate_cpu_cost(model: CpuCostModel, op: str, n: int, k: int = 1) -> float:
    if n < 0:
        raise ValueError("n must be non-negative")
    spec = op_spec(op)
    alpha, beta = spec.host_line(model)
    return alpha * n * spec.host_factor(n, k) + beta


def estimate_costs(
    config: GateConfig, op: str, n: float, k: int = 1, build_n: int = 0
) -> tuple[float, float]:
    """(host, device) cost estimates of one query: the pair decide compares.

    The gate always ships keys only, 12 bytes per row whatever the tables'
    payload width. For probes, n is the probe-side row count (the cpu
    model's input) and build_n the build side, so the device estimate covers
    both transfers. Single-table ops have no build side.
    """
    c_cpu = estimate_cpu_cost(config.cpu_model, op, n, k)
    c_gpu = estimate_device_cost(op, n, k, profile=config.profile, build_n=build_n).total
    return c_cpu, c_gpu


def decide(config: GateConfig, op: str, n: int, k: int = 1, build_n: int = 0) -> GateDecision:
    """Pure decision rule: guard first, then strict gain > margin."""
    guard = config.min_n_guard is not None and n < config.min_n_guard
    c_cpu, c_gpu = estimate_costs(config, op, n, k, build_n)
    gain = c_cpu - c_gpu
    path = DEVICE if (not guard and gain > config.margin_s) else HOST
    return GateDecision(
        path=path,
        c_cpu_est=c_cpu,
        c_gpu_est=c_gpu,
        gain=gain,
        guard_triggered=guard,
        margin_used=config.margin_s,
    )


def break_even_n(config: GateConfig, k: int) -> float:
    """Top-K size where decide's gain turns positive: n_star.

    The config's margin and guard do not enter the solve: at margin 0 and
    with no guard in the way, decide keeps floor(n_star) rows on the host and
    sends ceil(n_star) to the device. The solve reads the estimates directly,
    not through decide, so it adds no decisions to a trace of the gate.
    Raises NoCrossingError when the gain does not turn positive on [2, 2**40].
    """
    def gain(n: float) -> float:
        c_cpu, c_gpu = estimate_costs(config, OP_TOPK, n, k)
        return c_cpu - c_gpu

    return solve_break_even(gain)


def execute_path(tables, op: str, k: int, config: GateConfig, device, path: str):
    """Run one query down a fixed path; returns (result, observed_latency).

    The device's clock times the query. A virtual clock reports the call
    ledger for the device path and the cost model for the host path; a wall
    clock times the query end to end, late materialization included.
    """
    spec = op_spec(op, on_device=True)
    n = spec.shape(tables)[0]
    return device.timed(
        lambda: _run_query(tables, spec, k, device, path),
        estimate_cpu_cost(config.cpu_model, op, n, k),
    )


def _run_query(tables, spec: OpSpec, k: int, device, path: str):
    """(result, ledger) of one query; the host path keeps no ledger."""
    if spec.joins:
        build_table, probe_table = tables
        build_keys = extract_keys(build_table)
        probe_keys = extract_keys(probe_table)
        if path == DEVICE:
            call = device.probe(build_keys, probe_keys)
            return call.payload, call.ledger
        return host_hash_probe(host_hash_build(build_keys), probe_keys), None
    keys = extract_keys(tables)
    if path == DEVICE:
        call = device.topk(keys, k)
        rows, ledger = call.payload.rows, call.ledger
    else:
        rows, ledger = host_topk(keys, k).rows, None
    return materialize(tables, rows), ledger


def execute_gated(tables, op: str, k: int, config: GateConfig, device=None):
    """Decide, then run the chosen path; returns (result, decision, latency)."""
    if device is None:
        device = ModeledDevice(config.profile)
    n, build_n = op_spec(op).shape(tables)
    decision = decide(config, op, n, k, build_n)
    result, observed = execute_path(tables, op, k, config, device, decision.path)
    return result, decision, observed


def calibrate_gate(
    config: GateConfig,
    sort_medians: Sequence[tuple[int, float]],
    key_only: Sequence[tuple[int, TransferLedger]],
) -> GateConfig:
    """config with its sort line and device profile fitted to a measured bench.

    sort_medians are (n, seconds) full-sort medians; key_only are (n, ledger)
    key-only Top-K calls, n the rows the kernel saw. Each needs at least 3
    distinct n. Every fit is breakeven.fit_nonneg with relative=True:
    residuals are weighed relative to the measured time, so the smallest
    size is predicted as well as the largest, and no constant goes negative.

    - alpha_sort and beta_sort: the full sort's host line, which Top-K
      shares. A line that does not grow is rejected.
    - Bandwidths: through-origin fits of bytes against time. The d2h one
      falls back to the h2d one when no call returned bytes.
    - Launch overhead and kernel rate: a line of t_kernel against n. The
      probe's kernel rate is the fitted Top-K rate.
    - Post rate: a through-origin fit of t_post against returned rows.

    The margin, the guard and the probe's host line come back unchanged.
    """
    if len({int(n) for n, _ in sort_medians}) < 3:
        raise CalibrationError("calibration needs >= 3 distinct n")
    sort = OPS[OP_FULL_SORT]
    alpha, beta, _, _ = fit_nonneg([float(n) * sort.host_factor(n, 1) for n, _ in sort_medians],
                                   [seconds for _, seconds in sort_medians], relative=True)
    if alpha == 0.0:
        raise CalibrationError("calibration found no growth")

    if len({int(n) for n, _ in key_only}) < 3:
        raise CalibrationError("calibration needs >= 3 distinct n")
    ledgers = [led for _, led in key_only]
    h2d_slope, _, _, _ = fit_nonneg([led.h2d_bytes for led in ledgers],
                                    [led.t_h2d for led in ledgers],
                                    relative=True, through_origin=True)
    if h2d_slope <= 0.0:
        raise CalibrationError("cannot fit h2d bandwidth: no usable transfer samples")
    d2h_slope, _, _, _ = fit_nonneg([led.d2h_bytes for led in ledgers],
                                    [led.t_d2h for led in ledgers],
                                    relative=True, through_origin=True)
    rate, launch, _, _ = fit_nonneg([n for n, _ in key_only], [led.t_kernel for led in ledgers],
                                    relative=True)
    rate = max(rate, _TINY_RATE)
    returned = [led.d2h_bytes / OPS[OP_TOPK].returned_row_bytes for led in ledgers]
    post_slope, _, _, _ = fit_nonneg(returned, [led.t_post for led in ledgers],
                                     relative=True, through_origin=True)

    return replace(
        config,
        cpu_model=replace(config.cpu_model, alpha_sort=alpha, beta_sort=beta),
        profile=DeviceProfile(
            h2d_bandwidth=1.0 / h2d_slope,
            d2h_bandwidth=1.0 / d2h_slope if d2h_slope > 0.0 else 1.0 / h2d_slope,
            launch_overhead=max(launch, _TINY_RATE),
            kernel_rate_topk=rate,
            kernel_rate_probe=rate,
            post_rate=max(post_slope, _TINY_RATE),
        ),
    )
