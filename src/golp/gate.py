"""Cost-accounted dispatch: estimate both paths, apply guard and margin, run.

The gate offloads a query only when the estimated host cost exceeds the
estimated device cost by more than a configurable margin; ties and everything
below an optional row-count guard stay on the host, the safe default. The
decision record keeps both estimates so a sweep can be audited offline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence

from .breakeven import fit_nonneg, solve_break_even
from .device import (
    DEFAULT_MODELED_PROFILE,
    KEY_ONLY,
    MODES,
    OP_TOPK,
    DeviceProfile,
    ModeledDevice,
    OpSpec,
    estimate_device_cost,
    op_spec,
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
        return cls(**{f.name: float(obj[f.name]) for f in fields(cls)})


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
    mode: str = KEY_ONLY

    def __post_init__(self) -> None:
        if self.margin_s < 0.0:
            raise ValueError("margin_s must be non-negative")
        if self.min_n_guard is not None and self.min_n_guard < 0:
            raise ValueError("min_n_guard must be non-negative when set")
        if self.mode not in MODES:
            raise ValueError(f"unknown transfer mode {self.mode!r}")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GateConfig":
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
        if "mode" in obj:
            kwargs["mode"] = str(obj["mode"])
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
    alpha = getattr(model, f"alpha_{spec.cpu_family}")
    beta = getattr(model, f"beta_{spec.cpu_family}")
    return alpha * n * spec.row_factor(n, k) + beta


def estimate_costs(
    config: GateConfig,
    op: str,
    n: float,
    k: int = 1,
    payload_bytes: Optional[int] = None,
    build_n: int = 0,
    build_payload_bytes: Optional[int] = None,
) -> tuple[float, float]:
    """(host, device) cost estimates of one query: the pair decide compares.

    For probes, n is the probe-side row count (the cpu model's input) and
    build_n the build side, so the device estimate covers both transfers,
    each at its own table's payload width. Single-table ops have no build
    side.
    """
    c_cpu = estimate_cpu_cost(config.cpu_model, op, n, k)
    c_gpu = estimate_device_cost(
        op, n, k, config.mode, payload_bytes, config.profile, build_n, build_payload_bytes
    ).total
    return c_cpu, c_gpu


def decide(
    config: GateConfig,
    op: str,
    n: int,
    k: int = 1,
    payload_bytes: Optional[int] = None,
    build_n: int = 0,
    build_payload_bytes: Optional[int] = None,
) -> GateDecision:
    """Pure decision rule: guard first, then strict gain > margin."""
    guard = config.min_n_guard is not None and n < config.min_n_guard
    c_cpu, c_gpu = estimate_costs(config, op, n, k, payload_bytes, build_n, build_payload_bytes)
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


def break_even_n(config: GateConfig, k: int, payload_bytes: Optional[int] = None) -> float:
    """Top-K size where decide's gain turns positive: n_star.

    The config's margin and guard do not enter the solve: at margin 0 and
    with no guard in the way, decide keeps floor(n_star) rows on the host and
    sends ceil(n_star) to the device. The solve reads the estimates directly,
    not through decide, so it adds no decisions to a trace of the gate.
    Raises NoCrossingError when the gain does not turn positive on [2, 2**40].
    """
    def gain(n: float) -> float:
        c_cpu, c_gpu = estimate_costs(config, OP_TOPK, n, k, payload_bytes)
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
        lambda: _run_query(tables, spec, k, config, device, path),
        estimate_cpu_cost(config.cpu_model, op, n, k),
    )


def _run_query(tables, spec: OpSpec, k: int, config: GateConfig, device, path: str):
    """(result, ledger) of one query; the host path keeps no ledger."""
    if spec.joins:
        build_table, probe_table = tables
        build_keys = extract_keys(build_table)
        probe_keys = extract_keys(probe_table)
        if path == DEVICE:
            call = device.probe(
                build_keys, probe_keys, mode=config.mode,
                payload_bytes=probe_table.payload_bytes,
                build_payload_bytes=build_table.payload_bytes,
            )
            return call.payload, call.ledger
        return host_hash_probe(host_hash_build(build_keys), probe_keys), None
    keys = extract_keys(tables)
    if path == DEVICE:
        call = device.topk(keys, k, mode=config.mode, payload_bytes=tables.payload_bytes)
        rows, ledger = call.payload.rows, call.ledger
    else:
        rows, ledger = host_topk(keys, k).rows, None
    return materialize(tables, rows), ledger


def execute_gated(tables, op: str, k: int, config: GateConfig, device=None):
    """Decide, then run the chosen path; returns (result, decision, latency)."""
    if device is None:
        device = ModeledDevice(config.profile)
    n, build_n, payload_bytes, build_payload_bytes = op_spec(op).shape(tables)
    decision = decide(config, op, n, k, payload_bytes, build_n, build_payload_bytes)
    result, observed = execute_path(tables, op, k, config, device, decision.path)
    return result, decision, observed


def calibrate_cpu_model(samples: Sequence[tuple]) -> CpuCostModel:
    """Least-squares cpu constants from (op, n, k, measured_seconds) samples.

    Each op family present needs at least 3 distinct n. Each family is fitted
    by breakeven.fit_nonneg with relative=True, the rule calibrate_profile
    uses too: residuals are weighed relative to the measured time, so the
    smallest size is predicted as well as the largest, and the coefficients
    stay non-negative. A calibration where nothing grows is rejected.
    """
    by_family: dict[str, list[tuple[float, float, float]]] = {}
    for op, n, k, seconds in samples:
        spec = op_spec(op)
        by_family.setdefault(spec.cpu_family, []).append(
            (n, float(n) * spec.row_factor(n, k), seconds)
        )
    if not by_family:
        raise CalibrationError("no calibration samples")
    coefficients = {f.name: 0.0 for f in fields(CpuCostModel)}
    for family, points in by_family.items():
        if len({int(n) for n, _, _ in points}) < 3:
            raise CalibrationError(f"{family}-family calibration needs >= 3 distinct n")
        coefficients[f"alpha_{family}"], coefficients[f"beta_{family}"], _, _ = fit_nonneg(
            [x for _, x, _ in points], [y for _, _, y in points], relative=True
        )
    model = CpuCostModel(**coefficients)
    if model.alpha_sort == 0.0 and model.alpha_match == 0.0:
        raise CalibrationError("calibration found no growth in either op family")
    return model
