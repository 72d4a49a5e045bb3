"""Record every benchmark workload, untraced and traced, in one JSON file.

    python3 tools/bench_record.py --seed 1

Run from the repository root. For each workload of BENCHMARK.json this runs
`perfbench/run.py` for BENCHMARK.json's run_seconds once at `--trace 0` and
once at `--trace 1` (the end-to-end metrics, then the per-layer ones), each
in a process of its own, one after the other, and writes
BENCH_perfbench.json: the facts every run shares (commit, python, numpy,
nproc, seed, seconds), each run's other facts (such as its proxy workers)
under "<workload>.trace<0|1>", then one flat map from
"<workload>.trace<0|1>.<metric>" to its value, with each run's failed_frac.
A run that exits non-zero stops the recording, and no file is written.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path("perfbench") / "run.py"
OUT = "BENCH_perfbench.json"
# Facts the "<workload>.trace<0|1>" prefix already names.
NAMED_BY_PREFIX = ("workload", "trace")


def flatten(stdout: str, prefix: str) -> tuple[dict, dict]:
    """(facts, {prefix.metric: value}) of one run.py output.

    The metrics come from the last line, run.py's JSON object; the facts from
    its "facts: " line. failed_frac is failed over attempted.
    """
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    result = json.loads(lines[-1])
    facts = next((json.loads(line[len("facts: "):]) for line in lines
                  if line.startswith("facts: ")), None)
    if facts is None:
        raise ValueError("run.py printed no facts line")
    values = {f"{prefix}.{name}": m["value"] for name, m in result["metrics"].items()}
    values[f"{prefix}.failed_frac"] = result["failed"] / result["attempted"]
    return facts, values


def merge_facts(runs: dict[str, dict]) -> dict:
    """The facts every run reported alike, then each run's others under its prefix."""
    first, *rest = runs.values()
    shared = {k: v for k, v in first.items()
              if k not in NAMED_BY_PREFIX and all(k in r and r[k] == v for r in rest)}
    merged = dict(shared)
    for prefix, facts in runs.items():
        own = {k: v for k, v in facts.items() if k not in shared and k not in NAMED_BY_PREFIX}
        if own:
            merged[prefix] = own
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / RUN).is_file():
        print(f"error: no {RUN} under {root}; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    run_facts, values = {}, {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            print("running: " + " ".join(cmd[1:]), file=sys.stderr, flush=True)
            proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"error: {workload} at --trace {trace} exited with code "
                      f"{proc.returncode}", file=sys.stderr)
                return proc.returncode
            prefix = f"{workload}.trace{trace}"
            run_facts[prefix], run_values = flatten(proc.stdout, prefix)
            values.update(run_values)

    out = {"facts": merge_facts(run_facts), "metrics": values}
    (root / OUT).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {OUT}: {len(values)} values from {len(run_facts)} runs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
