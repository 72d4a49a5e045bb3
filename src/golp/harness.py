"""Benchmark harness: workloads, strategy comparison, sweeps, figure export.

Queries run strictly sequentially so timings never contend with each other;
the only parallelism lives inside the proxy device. Under the modeled backend
every reported latency is virtual-clock arithmetic, which makes a whole bench
run a deterministic function of (spec, config) and lets reruns produce
byte-identical output files.

Exported figure data, one CSV per file:

  fig1_guard.csv     n,strategy,median_s,p95_s
  fig2_margin.csv    margin_s,offload_rate,switch_n
  fig3_scaling.csv   n,op,median_s,p95_s
  fig4_payload.csv   n,mode,bytes,transfer_s
  fig5_breakeven.csv n,cpu_s,device_s
  fig6_transfer.csv  n,mode,h2d_bytes,t_h2d,t_kernel,t_d2h,t_post,total_s
  fig7_e2e.csv       n,mode,e2e_s,speedup_vs_full_row

Every section reads one seeded table per grid size, built by workload_tables.
fig4, fig6 and fig7 come from the same (n, mode, ledger) records. fig5 is
the gate's own Top-K estimates under the modeled backend; under the proxy
backend it is the measured Top-K host medians against the key-only ledger
totals. summary.json holds the fitted constants, the solved crossover, its
validation error, and per-strategy latency percentiles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .breakeven import BreakEven, FitResult
from .device import (
    FULL_ROW,
    KEY_ONLY,
    OP_FULL_SORT,
    OP_TOPK,
    ModeledDevice,
    TransferLedger,
    wall_clock,
)
from .errors import StrategyMismatchError
from .gate import (
    DEFAULT_CPU_MODEL,
    DEVICE,
    HOST,
    GateConfig,
    decide,
    estimate_costs,
    estimate_cpu_cost,
    execute_gated,
    execute_path,
)
from .host import host_full_sort, host_topk, mix64
from .store import (
    DEFAULT_PAYLOAD_BYTES,
    MASK64,
    ColumnTable,
    generate_table,
)

HOST_ONLY = "host_only"
DEVICE_ALWAYS = "device_always"
GATED = "gated"
STRATEGIES = (HOST_ONLY, DEVICE_ALWAYS, GATED)

# n grid mirrors the measurement ceiling of 3M rows; 31 repeats give a stable
# median, and one warmed-up run per cell is discarded before sampling.
DEFAULT_GRID = (1_000, 10_000, 20_000, 100_000, 500_000, 1_000_000, 3_000_000)
DEFAULT_REPEATS = 31
WARMUP_RUNS = 1

DEFAULT_MARGINS = (0.0, 5e-3, 10e-3)

# model_breakeven_sweep's geometric step: a 1% grid, fine enough to localize
# the crossover to the same precision the validation bound cares about.
SWEEP_STEP = 1.01


@dataclass(frozen=True)
class WorkloadSpec:
    """A benchmark workload: which sizes to run, how often, and with what mix."""

    n_grid: tuple[int, ...] = DEFAULT_GRID
    k: int = 100
    repeats: int = DEFAULT_REPEATS
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES
    mix: Optional[tuple[float, ...]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        grid = tuple(int(n) for n in self.n_grid)
        if not grid:
            raise ValueError("n_grid must be nonempty")
        if any(n < 1 for n in grid):
            raise ValueError("n_grid entries must be >= 1")
        if any(b >= a for a, b in zip(grid[1:], grid)):
            raise ValueError("n_grid must be strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be >= 1")
        if self.mix is not None:
            mix = tuple(float(w) for w in self.mix)
            if len(mix) != len(grid):
                raise ValueError("mix must have one weight per n_grid entry")
            if any(not math.isfinite(w) or w < 0 for w in mix):
                raise ValueError("mix weights must be finite and non-negative")
            total = math.fsum(mix)
            if total <= 0:
                raise ValueError("mix weights must not all be zero")
            object.__setattr__(self, "mix", tuple(w / total for w in mix))


@dataclass(frozen=True)
class LatencyStats:
    samples: tuple[float, ...]
    median: float
    p95: float
    p99: float


def _nearest_rank(ordered: Sequence[float], p: float) -> float:
    idx = max(1, math.ceil(p * len(ordered)))
    return ordered[idx - 1]


def compute_stats(samples: Sequence[float]) -> LatencyStats:
    """Nearest-rank percentiles: index = ceil(p*n), 1-based, on the sorted sample."""
    if len(samples) == 0:
        raise ValueError("compute_stats needs at least one sample")
    ordered = sorted(float(s) for s in samples)
    return LatencyStats(
        samples=tuple(float(s) for s in samples),
        median=_nearest_rank(ordered, 0.50),
        p95=_nearest_rank(ordered, 0.95),
        p99=_nearest_rank(ordered, 0.99),
    )


@dataclass(frozen=True)
class StrategyRun:
    strategy: str
    per_n: dict[int, LatencyStats]
    offload_rate: float

    def all_samples(self) -> list[float]:
        out: list[float] = []
        for n in sorted(self.per_n):
            out.extend(self.per_n[n].samples)
        return out


class ScalingRow(NamedTuple):
    n: int
    op: str
    median_s: float
    p95_s: float


class MarginRow(NamedTuple):
    margin_s: float
    offload_rate: float
    switch_n: Optional[int]


class BreakEvenRow(NamedTuple):
    n: float
    cpu_s: float
    device_s: float


def query_sizes(spec: WorkloadSpec) -> list[int]:
    """The query sequence: grid x repeats, or seeded draws from the mix."""
    if spec.mix is None:
        return [n for n in spec.n_grid for _ in range(spec.repeats)]
    rng = np.random.Generator(np.random.PCG64(spec.seed & MASK64))
    count = spec.repeats * len(spec.n_grid)
    draws = rng.choice(np.asarray(spec.n_grid, dtype=np.int64), size=count, p=spec.mix)
    return [int(x) for x in draws]


def workload_tables(spec: WorkloadSpec) -> dict[int, ColumnTable]:
    """One seeded table per grid size, in grid order: the rows every section reads for n."""
    return {n: generate_table(n, spec.payload_bytes, seed=(spec.seed ^ mix64(n)) & MASK64)
            for n in spec.n_grid}


def run_scaling_baseline(
    spec: WorkloadSpec,
    tables: dict[int, ColumnTable],
    device=None,
    cpu_model=None,
) -> list[ScalingRow]:
    """Host engine cost per n for full_sort and topk (fig3 rows).

    On a virtual clock the rows are cost-model values (both ops share the
    cpu model's sort line, and the numbers are reproducible bit for bit) and no
    host primitive runs; on a wall clock the real host primitives are timed on
    tables[n]'s keys, discarding one warmup run per cell.
    """
    if device is None:
        device = ModeledDevice()
    model = cpu_model if cpu_model is not None else DEFAULT_CPU_MODEL
    rows: list[ScalingRow] = []
    if device.virtual_clock:
        for n in spec.n_grid:
            for op in (OP_FULL_SORT, OP_TOPK):
                v = estimate_cpu_cost(model, op, n, spec.k)
                rows.append(ScalingRow(n, op, v, v))
        return rows

    for n in spec.n_grid:
        kv = tables[n].key_vector
        for op, run in (
            (OP_FULL_SORT, lambda: host_full_sort(kv)),
            (OP_TOPK, lambda: host_topk(kv, spec.k)),
        ):
            for _ in range(WARMUP_RUNS):
                run()
            samples = []
            for _ in range(spec.repeats):
                t0 = wall_clock()
                run()
                samples.append(wall_clock() - t0)
            stats = compute_stats(samples)
            rows.append(ScalingRow(n, op, stats.median, stats.p95))
    return rows


def run_payload_comparison(spec: WorkloadSpec, tables: dict[int, ColumnTable],
                           device=None) -> list[tuple[int, str, TransferLedger]]:
    """Full-row vs key-only Top-K offload per n: one (n, mode, ledger) per call.

    Records come in grid order, full_row before key_only at each n. fig4,
    fig6 and fig7 are all written from them. Byte counts are exact under
    every backend; the times are modeled or measured depending on the device.
    """
    if device is None:
        device = ModeledDevice()
    records: list[tuple[int, str, TransferLedger]] = []
    for n in spec.n_grid:
        kv = tables[n].key_vector
        for mode in (FULL_ROW, KEY_ONLY):
            call = device.topk(kv, spec.k, mode=mode, payload_bytes=tables[n].payload_bytes)
            records.append((n, mode, call.ledger))
    return records


def e2e_seconds(mode: str, ledger: TransferLedger) -> float:
    """fig7's end-to-end time of one call.

    full_row is done after t_h2d + t_kernel + t_d2h (the payloads rode along);
    key_only pays the whole ledger, late materialization (t_post) included.
    """
    if mode == FULL_ROW:
        return ledger.t_h2d + ledger.t_kernel + ledger.t_d2h
    return ledger.total


def _fingerprint(result) -> tuple:
    return (
        tuple(int(r) for r in result.row_ids),
        tuple(float(x) for x in result.keys),
    )


def run_strategy_comparison(
    spec: WorkloadSpec,
    tables: dict[int, ColumnTable],
    config: GateConfig,
    device=None,
) -> tuple[StrategyRun, StrategyRun, StrategyRun]:
    """One identical Top-K query stream under host_only, device_always, gated.

    Every strategy answers the same seeded query sequence; per-n answers are
    checked for equality across strategies before any latency is reported,
    and a mismatch aborts the run. On a virtual clock each distinct n
    executes once per strategy (further repeats would report the same
    latency); on a wall clock every query executes and is timed, after one
    discarded warmup run per (n, strategy) cell.
    """
    if device is None:
        device = ModeledDevice(config.profile)
    sizes = query_sizes(spec)

    first_answers: dict[int, tuple[str, tuple]] = {}
    runs: list[StrategyRun] = []
    for strategy in STRATEGIES:
        per_n_samples: dict[int, list[float]] = {n: [] for n in spec.n_grid}
        last: dict[int, tuple[float, str]] = {}
        offloaded = 0
        measured = not device.virtual_clock
        for n in sizes:
            if n not in last or measured:
                if n not in last and measured:
                    _run_one(tables[n], spec.k, config, device, strategy)  # warmup
                result, latency, path = _run_one(tables[n], spec.k, config, device, strategy)
                _check_result(first_answers, strategy, n, result)
                last[n] = (latency, path)
            latency, path = last[n]
            per_n_samples[n].append(latency)
            offloaded += path == DEVICE

        per_n = {n: compute_stats(s) for n, s in per_n_samples.items() if s}
        runs.append(StrategyRun(
            strategy=strategy,
            per_n=per_n,
            offload_rate=offloaded / len(sizes),
        ))
    return tuple(runs)


def _run_one(table: ColumnTable, k: int, config: GateConfig, device, strategy: str):
    """(result, latency, path) of one query."""
    if strategy == GATED:
        result, decision, latency = execute_gated(table, OP_TOPK, k, config, device)
        return result, latency, decision.path
    path = HOST if strategy == HOST_ONLY else DEVICE
    result, latency = execute_path(table, OP_TOPK, k, config, device, path)
    return result, latency, path


def _check_result(first_answers: dict, strategy: str, n: int, result) -> None:
    """Records the first strategy's answer per n; a later different one aborts."""
    fp = _fingerprint(result)
    first_strategy, first_fp = first_answers.setdefault(n, (strategy, fp))
    if first_fp != fp:
        raise StrategyMismatchError(
            f"answers diverge at n={n}: strategy {strategy!r} disagrees "
            f"with {first_strategy!r}"
        )


def run_margin_sweep(
    spec: WorkloadSpec,
    margins: Sequence[float] = DEFAULT_MARGINS,
    config: Optional[GateConfig] = None,
) -> list[MarginRow]:
    """Pure decision sweep: offload rate and first offloaded n per margin.

    Grid sizes are weighted by the workload mix when one is set, uniformly
    otherwise. switch_n is None when no grid size goes to the device.
    """
    if config is None:
        config = GateConfig()
    weights = spec.mix if spec.mix is not None else tuple(
        1.0 / len(spec.n_grid) for _ in spec.n_grid
    )
    rows: list[MarginRow] = []
    for margin in margins:
        cfg = replace(config, margin_s=float(margin))
        rate = 0.0
        switch_n: Optional[int] = None
        for n, w in zip(spec.n_grid, weights):
            d = decide(cfg, OP_TOPK, n, spec.k)
            if d.path == DEVICE:
                rate += w
                if switch_n is None:
                    switch_n = n
        rows.append(MarginRow(float(margin), rate, switch_n))
    return rows


def model_breakeven_sweep(
    spec: WorkloadSpec,
    config: Optional[GateConfig] = None,
) -> list[BreakEvenRow]:
    """Fine geometric (n, cpu_s, device_s) sweep on the cost models (fig5), by SWEEP_STEP."""
    if config is None:
        config = GateConfig()
    lo, hi = spec.n_grid[0], spec.n_grid[-1]
    rows: list[BreakEvenRow] = []
    x = float(lo)
    seen: set[int] = set()
    while True:
        n = min(int(round(x)), hi)
        if n not in seen:
            seen.add(n)
            cpu_s, device_s = estimate_costs(config, OP_TOPK, n, spec.k)
            rows.append(BreakEvenRow(float(n), cpu_s, device_s))
        if n >= hi:
            break
        x *= SWEEP_STEP
    return rows


def breakeven_rows_from_runs(
    cpu_points: Sequence[tuple[int, float]],
    key_only: Sequence[tuple[int, TransferLedger]],
) -> list[BreakEvenRow]:
    """Measured (n, cpu_s, device_s) sweep: host medians joined by n with key-only totals."""
    dev_at = {n: led.total for n, led in key_only}
    return [BreakEvenRow(float(n), s, dev_at[n]) for n, s in sorted(cpu_points) if n in dev_at]


@dataclass
class BenchReport:
    """Everything one bench run produced, ready for export_report."""

    scaling_rows: list[ScalingRow] = field(default_factory=list)
    # run_payload_comparison's (n, mode, ledger) records
    payload: list[tuple[int, str, TransferLedger]] = field(default_factory=list)
    strategy_runs: tuple[StrategyRun, ...] = ()
    margin_rows: list[MarginRow] = field(default_factory=list)
    breakeven_rows: list[BreakEvenRow] = field(default_factory=list)
    fit: Optional[FitResult] = None
    breakeven: Optional[BreakEven] = None


def _sec(v: float) -> str:
    return f"{v:.9f}"


def _frac(v: float) -> str:
    return f"{v:.6f}"


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")


def export_report(report: BenchReport, out_dir) -> list[Path]:
    """Writes the seven figure CSVs and summary.json into out_dir.

    Empty sections still produce their files, header row only. All floats
    are fixed-format (seconds at 9 decimals), so identical reports export
    byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, header: str, rows) -> None:
        path = out / name
        _write_csv(path, header, rows)
        written.append(path)

    emit("fig1_guard.csv", "n,strategy,median_s,p95_s", (
        (str(n), run.strategy, _sec(stats.median), _sec(stats.p95))
        for run in report.strategy_runs
        for n, stats in sorted(run.per_n.items())
    ))
    emit("fig2_margin.csv", "margin_s,offload_rate,switch_n", (
        (_sec(r.margin_s), _frac(r.offload_rate),
         "" if r.switch_n is None else str(r.switch_n))
        for r in report.margin_rows
    ))
    emit("fig3_scaling.csv", "n,op,median_s,p95_s", (
        (str(r.n), r.op, _sec(r.median_s), _sec(r.p95_s))
        for r in report.scaling_rows
    ))
    emit("fig4_payload.csv", "n,mode,bytes,transfer_s", (
        (str(n), mode, str(led.h2d_bytes), _sec(led.t_h2d))
        for n, mode, led in report.payload
    ))
    emit("fig5_breakeven.csv", "n,cpu_s,device_s", (
        (str(int(r.n)), _sec(r.cpu_s), _sec(r.device_s))
        for r in report.breakeven_rows
    ))
    emit("fig6_transfer.csv", "n,mode,h2d_bytes,t_h2d,t_kernel,t_d2h,t_post,total_s", (
        (str(n), mode, str(led.h2d_bytes), _sec(led.t_h2d), _sec(led.t_kernel),
         _sec(led.t_d2h), _sec(led.t_post), _sec(led.total))
        for n, mode, led in report.payload
    ))
    full_e2e = {n: e2e_seconds(mode, led) for n, mode, led in report.payload if mode == FULL_ROW}
    emit("fig7_e2e.csv", "n,mode,e2e_s,speedup_vs_full_row", (
        (str(n), mode, _sec(e2e), _frac(full_e2e[n] / e2e))
        for n, mode, led in report.payload
        for e2e in (e2e_seconds(mode, led),)
    ))

    fits = None if report.fit is None else {
        key: getattr(report.fit, key) for key in ("a", "b", "c", "d", "r2_cpu", "r2_tx")
    }
    summary = {
        "fits": fits,
        "n_star": report.breakeven.n_star if report.breakeven else None,
        "breakeven_error": (
            report.breakeven.relative_error if report.breakeven else None
        ),
        "strategies": {
            run.strategy: {
                "p50": stats.median,
                "p95": stats.p95,
                "p99": stats.p99,
                "offload_rate": run.offload_rate,
            }
            for run in report.strategy_runs
            for stats in (compute_stats(run.all_samples()),)
            if run.per_n
        },
    }
    summary_path = out / "summary.json"
    with open(summary_path, "w", encoding="utf-8", newline="") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    written.append(summary_path)
    return written
