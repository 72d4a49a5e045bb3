"""tools/bench_record.py: turning run.py's output into one flat record."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

FACTS = {"workload": "join_probe", "seed": 7, "seconds": 30, "trace": 0, "nproc": 2,
         "python": "3.11.7", "numpy": "2.4.6", "proxy_workers": 2, "commit": "abc"}


def run_output(metrics, failed=0, attempted=40, facts=FACTS):
    """Standard output laid out as perfbench/run.py prints it."""
    last = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": "ms"} for name, v in metrics.items()}}
    return "\n".join(
        ["facts: " + json.dumps(facts)]
        + [f"{name}: {v:.6g} ms" for name, v in metrics.items()]
        + [f"failed_frac: {failed / attempted:.6g} ratio  ({failed} of {attempted} attempted)",
           json.dumps(last)]
    ) + "\n"


def test_flatten_takes_metrics_from_the_last_line_and_facts_from_the_facts_line():
    out = run_output({"wall_s": 0.0241, "query_p99_ms": 11.7}, failed=1, attempted=40)
    facts, values = bench_record.flatten(out, "join_probe.trace0")
    assert facts == FACTS
    assert values == {"join_probe.trace0.wall_s": 0.0241,
                      "join_probe.trace0.query_p99_ms": 11.7,
                      "join_probe.trace0.failed_frac": 0.025}


def test_flatten_rejects_output_without_a_result():
    with pytest.raises(ValueError):
        bench_record.flatten("", "x.trace0")
    with pytest.raises(ValueError):
        bench_record.flatten(run_output({"wall_s": 1.0}).split("\n", 1)[1], "x.trace0")


def test_merge_facts_keeps_shared_facts_once_and_the_rest_per_run():
    modeled = dict(FACTS, workload="bench_modeled", trace=1, proxy_workers=0)
    merged = bench_record.merge_facts({"join_probe.trace0": FACTS, "bench_modeled.trace1": modeled})
    assert merged == {"seed": 7, "seconds": 30, "nproc": 2, "python": "3.11.7", "numpy": "2.4.6",
                      "commit": "abc", "join_probe.trace0": {"proxy_workers": 2},
                      "bench_modeled.trace1": {"proxy_workers": 0}}
    # a fact one run lacks is not shared, even when it is falsy elsewhere
    lacking = {k: v for k, v in modeled.items() if k != "proxy_workers"}
    merged = bench_record.merge_facts({"a.trace0": dict(FACTS, proxy_workers=0), "b.trace0": lacking})
    assert merged["a.trace0"] == {"proxy_workers": 0} and "b.trace0" not in merged
