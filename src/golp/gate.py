"""Cost-accounted dispatch: estimate both paths, apply guard and margin, run.

The gate offloads a query only when the estimated host cost exceeds the
estimated device cost by more than a configurable margin; ties and everything
below an optional row-count guard stay on the host, the safe default. The
decision record keeps both estimates so a sweep can be audited offline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .breakeven import fit_nonneg, solve_break_even
from .device import (
    DEFAULT_MODELED_PROFILE,
    KEY_ONLY,
    OP_TOPK,
    DeviceProfile,
    ModeledDevice,
    OpSpec,
    estimate_device_cost,
    op_spec,
    replace_from_json,
)
from .errors import CalibrationError
from .host import host_hash_build, host_hash_probe, host_topk
from .store import extract_keys, materialize

HOST = "host"
DEVICE = "device"


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

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CpuCostModel":
        return replace_from_json(DEFAULT_CPU_MODEL, obj)


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
        if "cpu_model" in obj:
            kwargs["cpu_model"] = CpuCostModel.from_json_dict(obj["cpu_model"])
        if "profile" in obj:
            kwargs["profile"] = DeviceProfile.from_json_dict(obj["profile"])
        return cls(**kwargs)


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


def calibrate_cpu_model(samples: Sequence[tuple]) -> tuple[float, float]:
    """Least-squares (alpha, beta) from (op, n, k, measured_seconds) samples.

    Every sample's op must share one host line (Top-K and the full sort
    share the sort line), and the samples need at least 3 distinct n. The
    caller writes the pair into that line's CpuCostModel fields. The fit is
    breakeven.fit_nonneg with relative=True, the rule calibrate_profile uses
    too: residuals are weighed relative to the measured time, so the
    smallest size is predicted as well as the largest, and the coefficients
    stay non-negative. A calibration where nothing grows is rejected.
    """
    specs = [op_spec(op) for op, _, _, _ in samples]
    if not specs:
        raise CalibrationError("no calibration samples")
    if len({spec.host_line for spec in specs}) > 1:
        raise CalibrationError("calibration samples span more than one host line")
    if len({int(n) for _, n, _, _ in samples}) < 3:
        raise CalibrationError("calibration needs >= 3 distinct n")
    alpha, beta, _, _ = fit_nonneg(
        [float(n) * spec.host_factor(n, k) for spec, (_, n, k, _) in zip(specs, samples)],
        [seconds for _, _, _, seconds in samples],
        relative=True,
    )
    if alpha == 0.0:
        raise CalibrationError("calibration found no growth")
    return alpha, beta
