"""The bench_modeled workload: `golp bench --backend modeled`, as a user runs it.

Each bench is a process of its own (`python3 -m golp.cli bench`) with the
built-in defaults and the run's seed. The closed loop starts the next bench
when the previous one has exited. A bench counts as failed when it exits
non-zero, when its output files differ from the first bench's in the run, or
when summary.json holds no crossover within criterion 3's 5% of the sweep.

With --trace 1 one further bench runs in a process of its own under tracing
(`modeled.py --traced-bench`): it calls `golp.cli.main` with the same
arguments, so the harness and breakeven functions run in cmd_bench's order,
and its output files must equal the untraced ones byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import golp.cli
import numpy as np
from golp.harness import DEFAULT_GRID

import tracing

MIN_BENCHES = 3
# Interpreter starts timed before each bench: a start takes ~0.3 s, so a run
# of 4-6 benches gets 12-18 set-up samples for its median instead of 4-6.
STARTS_PER_BENCH = 3
BENCH_TIMEOUT_S = 60
EXPECTED_FILES = (
    "fig1_guard.csv", "fig2_margin.csv", "fig3_scaling.csv", "fig4_payload.csv",
    "fig5_breakeven.csv", "fig6_transfer.csv", "fig7_e2e.csv", "summary.json",
)
MAX_BREAKEVEN_ERROR = 0.05


def bench_args(seed: int, out: Path) -> list[str]:
    return ["bench", "--backend", "modeled", "--seed", str(seed), "--out", str(out)]


def read_output(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in EXPECTED_FILES if (out / name).is_file()}


def output_problem(files: dict[str, bytes], first: dict[str, bytes]) -> str:
    """Why a bench's output is wrong, or '' when it is right."""
    missing = [n for n in EXPECTED_FILES if n not in files]
    if missing:
        return f"missing {missing}"
    if first and files != first:
        return "output differs from the first bench of the run: " + ", ".join(
            n for n in EXPECTED_FILES if files[n] != first[n])
    summary = json.loads(files["summary.json"])
    err = summary.get("breakeven_error")
    if summary.get("n_star") is None or err is None or not err <= MAX_BREAKEVEN_ERROR:
        return f"crossover n_star={summary.get('n_star')} error={err}"
    return ""


def timed_process(cmd: list[str], timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=timeout)
    return time.perf_counter() - t0, proc


def run_benches(seed: int, seconds: float, scratch: Path, min_benches=MIN_BENCHES, first=None):
    """Closed loop of bench processes, each after STARTS_PER_BENCH timed
    interpreter starts that import golp.cli (the set-up a user pays before
    every bench).

    Every output must equal `first`, or the first right one of this loop.
    Returns (bench walls, set-up times, attempted, failed, first output).
    """
    walls, setup_times, first = [], [], first or {}
    attempted = failed = 0
    t_start = time.perf_counter()
    while attempted < min_benches or time.perf_counter() - t_start < seconds:
        setup_times += [timed_process([sys.executable, "-c", "import golp.cli"], BENCH_TIMEOUT_S)[0]
                        for _ in range(STARTS_PER_BENCH)]
        out = scratch / f"bench{attempted}"
        attempted += 1
        wall, proc = timed_process([sys.executable, "-m", "golp.cli", *bench_args(seed, out)],
                                   BENCH_TIMEOUT_S)
        problem = f"exit {proc.returncode}: {proc.stderr.strip()}" if proc.returncode else ""
        files = read_output(out)
        problem = problem or output_problem(files, first)
        shutil.rmtree(out, ignore_errors=True)
        if problem:
            failed += 1
            print(f"bench {attempted} failed: {problem}", file=sys.stderr)
            continue
        first = first or files
        walls.append(wall)
    return walls, setup_times, attempted, failed, first


def traced_bench(seed: int, out: Path, spans_path: Path, metrics_path: Path) -> int:
    """One bench under tracing, in this process; writes spans and per-layer metrics."""
    tracer = tracing.Tracer()
    with tracing.instrument(tracer), contextlib.redirect_stdout(io.StringIO()):
        code = golp.cli.main(bench_args(seed, out))
    tracing.write_spans(tracer.spans, spans_path)
    metrics = tracing.per_layer_metrics(tracer.spans, units=1)
    # Under the virtual clock each path's observed latency is its own
    # estimate, so regret and estimate errors are zero by construction.
    metrics.update({"gate.regret_frac": 0.0, "gate.regret_ms": 0.0,
                    "gate.host_est_error": 0.0, "gate.device_est_error": 0.0})
    errors = tracing.transfer_errors(tracer.spans)
    for e in errors:
        print(f"transfer bytes wrong: {e}", file=sys.stderr)
    metrics_path.write_text(json.dumps({
        "code": code, "byte_errors": len(errors), "spans": len(tracer.spans),
        "table": tracing.self_time_table(tracer.spans), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["bench_modeled"], default="bench_modeled")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spans", type=Path, required=True)
    ap.add_argument("--traced-bench", action="store_true",
                    help="internal: run one traced bench in this process")
    args = ap.parse_args(argv)
    scratch = args.out.with_suffix(".d")
    if args.traced_bench:
        return traced_bench(args.seed, scratch, args.spans, args.out)

    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        walls, setup_times, attempted, failed, first = run_benches(args.seed, args.seconds, scratch)
        if not walls:
            print("no bench succeeded", file=sys.stderr)
            return 1
        if args.trace:
            traced_metrics = scratch / "traced.json"
            traced_out = traced_metrics.with_suffix(".d")  # where --traced-bench writes
            cmd = [sys.executable, __file__, "--traced-bench", "--seed", str(args.seed),
                   "--out", str(traced_metrics), "--spans", str(args.spans)]
            traced_wall, proc = timed_process(cmd, BENCH_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            attempted += 1
            traced = json.loads(traced_metrics.read_text()) if proc.returncode == 0 else None
            problem = "traced bench did not finish" if traced is None or traced["code"] else (
                output_problem(read_output(traced_out), first))
            if problem:
                failed += 1
                print(f"traced bench failed: {problem}", file=sys.stderr)
            if traced is None:
                return 1
            failed += traced["byte_errors"]
            # Compare with the untraced benches just before and after it, so a
            # drift in machine speed mostly cancels out of the overhead.
            after, _, after_attempted, after_failed, _ = run_benches(
                args.seed, 0.0, scratch, min_benches=1, first=first)
            attempted += after_attempted
            failed += after_failed
            neighbours = walls[-1:] + after
            print("spans by name, traced bench:")
            print("\n".join(traced["table"]))
            metrics = traced["metrics"]
            metrics["trace_overhead_frac"] = 1.0 - statistics.mean(neighbours) / traced_wall
            notes = {"spans": f"{traced['spans']} spans in {args.spans.name}"}
        else:
            rows = sum(DEFAULT_GRID)  # table rows one bench generates
            metrics = {
                "setup_s": statistics.median(setup_times),
                "query_p50_ms": statistics.median(walls) * 1e3,
                "query_p99_ms": max(walls) * 1e3,
                "queries_per_s": len(walls) / sum(walls),
                "rows_per_s": rows * len(walls) / sum(walls),
                "wall_s": statistics.median(walls),
            }
            notes = {
                "query_p99_ms": f"{len(walls)} samples: slowest bench, too few for a p99",
                "wall_s": f"median of {len(walls)} benches",
                "setup_s": f"median of {len(setup_times)} interpreter starts importing golp.cli",
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    facts = {"numpy": np.__version__, "proxy_workers": 0}
    args.out.write_text(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics,
                                    "notes": notes, "facts": facts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
