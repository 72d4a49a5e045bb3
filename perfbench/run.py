"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload topk_gated --seed 1 --seconds 30 --trace 0

Run from the repository root. The workload runs in a process of its own, so
peak_rss_mb is that workload's alone; this process imports neither numpy nor
golp. With --trace 0 the last line of standard output is a JSON object with
every end_to_end metric of BENCHMARK.json, with --trace 1 every per_layer
metric; the lines before it give each metric by name with its unit, the run
facts, and (traced) the time per span name. Results and spans are also kept
under .perfbench_out/. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKERS = {"topk_gated": "queries.py", "join_probe": "queries.py", "bench_modeled": "modeled.py"}
OUT_DIR = ".perfbench_out"
WORKER_TIMEOUT_S = 170


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():  # an exported checkout, or inside another repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_worker(cmd: list[str], env: dict) -> int:
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"error: workload did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:  # interrupted: stop the worker and its children
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one golp benchmark workload.")
    ap.add_argument("--workload", choices=sorted(WORKERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "golp" / "__init__.py").is_file():
        print(f"error: no golp source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = out_dir / f"result-{stem}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / WORKERS[args.workload]),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(result_path), "--spans", str(out_dir / f"spans-{stem}.jsonl")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    code = run_worker(cmd, env)
    # Largest resident set of any finished child: the workload's process,
    # or for bench_modeled the largest bench it started.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if code != 0 or not result_path.is_file():
        print(f"error: workload {args.workload} exited with code {code}", file=sys.stderr)
        return code or 1

    result = json.loads(result_path.read_text(encoding="utf-8"))
    metrics = result["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"error: workload {args.workload} reported no {missing}", file=sys.stderr)
        return 1
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        **result["facts"], "commit": git_commit(root),
    }
    attempted, failed = result["attempted"], result["failed"]
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }
    result_path.write_text(json.dumps({**out, "facts": facts, "notes": result["notes"]}, indent=1),
                           encoding="utf-8")

    print("facts: " + json.dumps(facts))
    for name, unit in wanted.items():
        note = result["notes"].get(name)
        print(f"{name}: {metrics[name]:.6g} {unit}" + (f"  ({note})" if note else ""))
    for key in sorted(set(result["notes"]) - set(wanted)):
        print(f"{key}: {result['notes'][key]}")
    print(f"failed_frac: {failed / attempted:.6g} ratio  ({failed} of {attempted} attempted)")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
