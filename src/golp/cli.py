"""Command-line front end: gen, bench, fit, and gate-sim subcommands.

Config precedence is flags over config-file values over built-in defaults;
the GOLP_OUT environment variable replaces only the built-in default output
directory. Exit codes are a stable scripting contract: 0 success, 2 usage or
config error, 3 cross-strategy answer mismatch, 4 fit or crossover failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .breakeven import BreakEven, make_fit_result, validate_break_even
from .device import KEY_ONLY, OP_FULL_SORT, OP_TOPK, calibrate_profile, make_device
from .errors import (
    CalibrationError,
    GolpError,
    NoCrossingError,
    StrategyMismatchError,
    SweepBracketError,
)
from .gate import GateConfig, break_even_n, calibrate_cpu_model, decide
from .harness import (
    BenchReport,
    BreakEvenRow,
    DEFAULT_MARGINS,
    PayloadComparison,
    ScalingRow,
    WorkloadSpec,
    breakeven_rows_from_runs,
    export_report,
    model_breakeven_sweep,
    run_margin_sweep,
    run_payload_comparison,
    run_scaling_baseline,
    run_strategy_comparison,
)
from .store import KEY_ENTRY_BYTES, generate_table, save_table

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_FIT = 4

DEFAULT_OUT_DIR = "golp_out"
BACKENDS = ("modeled", "proxy")

_WORKLOAD_KEYS = ("n_grid", "k", "repeats", "payload_bytes", "mix", "seed")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    workload: WorkloadSpec
    gate: GateConfig
    backend: str = "modeled"
    output_dir: Path = Path(DEFAULT_OUT_DIR)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        obj = json.load(f)
    if not isinstance(obj, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return obj


def load_run_config(args: argparse.Namespace) -> RunConfig:
    raw = _load_json(args.config) if args.config else {}
    wl = {k: v for k, v in dict(raw.get("workload") or {}).items() if k in _WORKLOAD_KEYS}
    if "n_grid" in wl:
        wl["n_grid"] = tuple(wl["n_grid"])
    if wl.get("mix") is not None:
        wl["mix"] = tuple(wl["mix"])
    if getattr(args, "seed", None) is not None:
        wl["seed"] = args.seed
    spec = WorkloadSpec(**wl)
    gate = GateConfig.from_json_dict(raw.get("gate") or {})
    backend = getattr(args, "backend", None) or raw.get("backend") or "modeled"
    out = (
        getattr(args, "out", None)
        or raw.get("output_dir")
        or os.environ.get("GOLP_OUT")
        or DEFAULT_OUT_DIR
    )
    return RunConfig(workload=spec, gate=gate, backend=backend, output_dir=Path(out))


def cmd_gen(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    table = generate_table(args.n, args.payload_bytes, seed=seed)
    out = Path(args.out) if args.out else Path("table.golp")
    save_table(table, out)
    print(f"wrote {out} ({out.stat().st_size} bytes, {table.row_count} rows)")
    return EXIT_OK


def _fit_from_runs(scaling: Sequence[ScalingRow], payload: PayloadComparison):
    cpu_pts = [(float(r.n), r.median_s) for r in scaling if r.op == OP_FULL_SORT]
    tx_pts = [
        (float(r.n), r.transfer_s)
        for r in payload.payload_rows
        if r.mode == KEY_ONLY
    ]
    return make_fit_result(cpu_pts, tx_pts)


def _solve_with_sweep(gate: GateConfig, spec: WorkloadSpec, sweep: Sequence[BreakEvenRow]):
    """The gate's crossover validated against the sweep, or None if it has none.

    A sweep that does not bracket a crossover leaves the solved n_star
    unvalidated. Either reason goes to stderr: the figures are worth
    exporting all the same.
    """
    try:
        n_star = break_even_n(gate, spec.k, spec.payload_bytes)
    except NoCrossingError as exc:
        print(f"warning: no n_star: {exc}", file=sys.stderr)
        return None
    try:
        return validate_break_even(n_star, sweep)
    except SweepBracketError as exc:
        print(f"warning: n_star not validated: {exc}", file=sys.stderr)
        return BreakEven(n_star)


def cmd_bench(args: argparse.Namespace) -> int:
    rc = load_run_config(args)
    spec, gate = rc.workload, rc.gate

    with make_device(rc.backend, gate.profile, workers=args.workers) as device:
        scaling = run_scaling_baseline(spec, device, cpu_model=gate.cpu_model)
        payload = run_payload_comparison(spec, device=device)
        if device.virtual_clock:
            sweep = model_breakeven_sweep(spec, gate)
        else:
            # a measured run gates on constants calibrated from itself and is
            # validated against its own curves
            gate = dataclasses.replace(
                gate,
                cpu_model=calibrate_cpu_model([
                    (OP_FULL_SORT, r.n, spec.k, r.median_s)
                    for r in scaling if r.op == OP_FULL_SORT
                ]),
                profile=calibrate_profile(payload.key_only_ledgers, op=OP_TOPK),
            )
            sweep = breakeven_rows_from_runs(scaling, payload.transfer_rows)
        strategies = run_strategy_comparison(spec, gate, device=device)
    margins = run_margin_sweep(spec, DEFAULT_MARGINS, gate)
    fit = _fit_from_runs(scaling, payload)
    be = _solve_with_sweep(gate, spec, sweep)

    report = BenchReport(
        scaling_rows=list(scaling),
        payload=payload,
        strategy_runs=strategies,
        margin_rows=margins,
        breakeven_rows=list(sweep),
        fit=fit,
        breakeven=be,
    )
    files = export_report(report, rc.output_dir)
    for p in files:
        print(f"wrote {p}")
    if be is not None:
        line = f"n_star={be.n_star:.1f}"
        if be.relative_error is not None:
            line += (
                f" measured={be.measured_n_star:.1f}"
                f" relative_error={be.relative_error:.4f}"
            )
        print(line)
    return EXIT_OK


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_rows(path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as f:
        return [row for row in csv.reader(f) if row and any(c.strip() for c in row)]


def _check_width(path, rows: list[list[str]], width: int) -> list[list[str]]:
    """rows, if each has at least width cells; a shorter one is a ValueError."""
    for row in rows:
        if len(row) < width:
            raise ValueError(f"{path}: row {','.join(row)!r} has {len(row)} of {width} columns")
    return rows


def read_curve_csv(path, role: str) -> list[tuple[float, float]]:
    """(n, seconds) points from a plain two-column CSV or a bench figure file.

    fig3_scaling.csv contributes its full_sort medians (cpu role only) and
    fig4_payload.csv its key_only transfer times (tx role only).
    """
    rows = _read_rows(path)
    if not rows:
        raise CalibrationError(f"{path}: empty curve file")
    header = [c.strip() for c in rows[0]]
    if _is_number(header[0]):
        return [(float(r[0]), float(r[1])) for r in _check_width(path, rows, 2)]
    cols = {name: i for i, name in enumerate(header)}
    data = _check_width(path, rows[1:], len(header))
    if "op" in cols and "median_s" in cols:
        if role != "cpu":
            raise ValueError(f"{path}: scaling data only describes the cpu curve")
        return [
            (float(r[cols["n"]]), float(r[cols["median_s"]]))
            for r in data if r[cols["op"]] == OP_FULL_SORT
        ]
    if "mode" in cols and "transfer_s" in cols:
        if role != "tx":
            raise ValueError(f"{path}: payload data only describes the transfer curve")
        return [
            (float(r[cols["n"]]), float(r[cols["transfer_s"]]))
            for r in data if r[cols["mode"]] == KEY_ONLY
        ]
    if "n" in cols and "seconds" in cols:
        return [(float(r[cols["n"]]), float(r[cols["seconds"]])) for r in data]
    raise ValueError(f"{path}: unrecognized curve header {header!r}")


def read_sweep_csv(path) -> list[tuple[float, float, float]]:
    """(n, host_s, device_s) rows from fig5_breakeven.csv or a plain 3-column CSV."""
    rows = _read_rows(path)
    if not rows:
        raise SweepBracketError(f"{path}: empty sweep file")
    start = 0 if _is_number(rows[0][0]) else 1
    return [(float(r[0]), float(r[1]), float(r[2])) for r in _check_width(path, rows[start:], 3)]


def cmd_fit(args: argparse.Namespace) -> int:
    """Solves the crossover of the gate's config with the fitted curves in place.

    The host's sort family takes a and b, the key-only transfer takes the
    bandwidth KEY_ENTRY_BYTES / c, and d adds to the launch overhead.
    """
    rc = load_run_config(args)
    cpu_pts = read_curve_csv(args.cpu, "cpu")
    tx_pts = read_curve_csv(args.tx, "tx")
    fit = make_fit_result(cpu_pts, tx_pts)
    if not fit.c > 0.0:
        raise CalibrationError("transfer curve has no per-row growth (c <= 0)")
    gate = dataclasses.replace(
        rc.gate,
        cpu_model=dataclasses.replace(rc.gate.cpu_model, alpha_sort=fit.a, beta_sort=fit.b),
        profile=dataclasses.replace(
            rc.gate.profile,
            h2d_bandwidth=KEY_ENTRY_BYTES / fit.c,
            launch_overhead=rc.gate.profile.launch_overhead + fit.d,
        ),
        mode=KEY_ONLY,
    )
    n_star = break_even_n(gate, rc.workload.k, rc.workload.payload_bytes)
    be = (validate_break_even(n_star, read_sweep_csv(args.sweep))
          if args.sweep else BreakEven(n_star))
    out_doc = dataclasses.asdict(fit)
    out_doc["n_star"] = be.n_star
    out_doc["measured_n_star"] = be.measured_n_star
    out_doc["relative_error"] = be.relative_error
    text = json.dumps(out_doc, indent=2, sort_keys=True)
    print(text)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "fit.json").write_text(text + "\n", encoding="utf-8")
    return EXIT_OK


def _parse_margins(text: str) -> list[float]:
    try:
        margins = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad margin list {text!r}") from exc
    if not margins or any(not math.isfinite(m) or m < 0 for m in margins):
        raise ValueError(f"bad margin list {text!r}")
    return margins


def cmd_gate_sim(args: argparse.Namespace) -> int:
    rc = load_run_config(args)
    gate = rc.gate
    if args.guard is not None:
        gate = dataclasses.replace(gate, min_n_guard=args.guard)
    spec = rc.workload
    margins = _parse_margins(args.margins)
    lines = ["n,margin_s,path,c_cpu_est,c_gpu_est,gain"]
    for margin in margins:
        cfg = dataclasses.replace(gate, margin_s=margin)
        for n in spec.n_grid:
            d = decide(cfg, OP_TOPK, n, spec.k, payload_bytes=spec.payload_bytes)
            lines.append(
                f"{n},{margin:.9f},{d.path},{d.c_cpu_est:.9f},"
                f"{d.c_gpu_est:.9f},{d.gain:.9f}"
            )
    text = "\n".join(lines) + "\n"
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "gate_sim.csv"
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run config")
    common.add_argument("--backend", choices=BACKENDS, help="device backend")
    common.add_argument("--seed", type=int, help="workload seed")
    common.add_argument("--out", metavar="PATH",
                        help="output directory (gen: output file)")
    common.add_argument("--workers", type=int,
                        help="proxy device worker threads (default: all cores)")

    parser = argparse.ArgumentParser(
        prog="golp",
        description="Gated OLAP offload: generate tables, benchmark, fit crossovers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[common],
                           help="write a deterministic binary table dump")
    p_gen.add_argument("--n", type=int, required=True, help="row count")
    p_gen.add_argument("--payload-bytes", type=int, default=188,
                       help="payload width per row (default 188)")
    p_gen.set_defaults(fn=cmd_gen)

    p_bench = sub.add_parser("bench", parents=[common],
                             help="run the benchmark suite and export figure CSVs")
    p_bench.set_defaults(fn=cmd_bench)

    p_fit = sub.add_parser("fit", parents=[common],
                           help="fit cost curves and solve the break-even size")
    p_fit.add_argument("--cpu", required=True, metavar="CSV",
                       help="(n,seconds) cpu curve, or fig3_scaling.csv")
    p_fit.add_argument("--tx", required=True, metavar="CSV",
                       help="(n,seconds) transfer curve, or fig4_payload.csv")
    p_fit.add_argument("--sweep", metavar="CSV",
                       help="(n,host_s,device_s) sweep to validate against")
    p_fit.set_defaults(fn=cmd_fit)

    p_sim = sub.add_parser("gate-sim", parents=[common],
                           help="print the dispatch decision table, no execution")
    p_sim.add_argument("--margins", default="0,0.005,0.01",
                       help="comma-separated margins in seconds")
    p_sim.add_argument("--guard", type=int,
                       help="small-n guard: sizes below this never offload")
    p_sim.set_defaults(fn=cmd_gate_sim)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StrategyMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (CalibrationError, NoCrossingError, SweepBracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (GolpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
