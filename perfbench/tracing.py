"""Spans recorded from outside the program, around calls into golp.

`instrument` swaps each public golp function named in `layer_targets` for a
timing wrapper in every loaded golp module that holds it, and wraps the
device classes' `topk`/`probe` methods. The program's own call sites then
record spans without a line of tracing inside `src/`. Spans live in memory
and are written out once the run ends.

Only the thread that calls into golp records spans: the proxy device's
worker threads run code that is never patched, so the span stack needs no
lock.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

# A span with one of these names, opened outside any query, starts a new
# query; every span nested inside it carries that query's id.
QUERY_ROOTS = ("gate.execute_gated", "gate.execute_path")

TABLE_BUILDERS = ("store.generate_table", "store.random_key_vector", "store.ColumnTable")

KEY_ENTRY_BYTES = 12  # 8-byte key + 4-byte row id, restated here to check it
KEY_BYTES = 8
ROW_ID_BYTES = 4


@dataclass
class Span:
    id: int
    parent: Optional[int]
    query: Optional[int]
    name: str
    start_ns: int = 0
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._queries = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        query = parent.query if parent is not None else None
        if query is None and name in QUERY_ROOTS:
            query = self._queries
            self._queries += 1
        s = Span(len(self.spans), parent.id if parent else None, query, name)
        self.spans.append(s)
        self._stack.append(s)
        s.start_ns = time.perf_counter_ns()
        try:
            yield s
        finally:
            s.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        """fn, recording a span per call; note(arguments, result) adds attributes."""
        sig = inspect.signature(fn) if note is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                s.attrs.update(note(bound.arguments, result))
            return result

        return traced


def _rows_of(arg: str):
    return lambda a, r: {"rows": len(a[arg])}


def _device_note(a, result) -> dict:
    led = result.ledger
    if "keys" in a:
        rows, returned = len(a["keys"]), len(result.payload.rows)
    else:
        rows, returned = len(a["build"]) + len(a["probe"]), result.payload.match_count
    return {
        "rows": rows,
        "returned": returned,
        "mode": a["mode"],
        "payload_bytes": a["payload_bytes"],
        **dataclasses.asdict(led),
    }


def layer_targets():
    """(function, span name, note) and (class, method, span name, note) lists."""
    from golp import breakeven, device, gate, harness, host, store

    functions = [
        (store.generate_table, "store.generate_table", None),
        (store.random_key_vector, "store.random_key_vector", None),
        (store.extract_keys, "store.extract_keys", None),
        (store.materialize, "store.materialize", lambda a, r: {"rows": len(r)}),
        (host.host_topk, "host.host_topk", _rows_of("keys")),
        (host.host_hash_build, "host.host_hash_build", _rows_of("build_keys")),
        (host.host_hash_probe, "host.host_hash_probe", _rows_of("probe_keys")),
        (gate.decide, "gate.decide", lambda a, r: {"path": r.path}),
        (gate.execute_gated, "gate.execute_gated", None),
        (gate.execute_path, "gate.execute_path", None),
        (breakeven.make_fit_result, "breakeven.make_fit_result", None),
        (breakeven.solve_break_even, "breakeven.solve_break_even", None),
        (breakeven.measured_crossover, "breakeven.measured_crossover", None),
        (harness.run_scaling_baseline, "harness.run_scaling_baseline", None),
        (harness.run_payload_comparison, "harness.run_payload_comparison", None),
        (harness.run_strategy_comparison, "harness.run_strategy_comparison", None),
        (harness.run_margin_sweep, "harness.run_margin_sweep", None),
        (harness.model_breakeven_sweep, "harness.model_breakeven_sweep", None),
        (harness.export_report, "harness.export_report", None),
    ]
    methods = [
        (cls, op, f"device.{op}", _device_note)
        for cls in (device.ModeledDevice, device.ProxyDevice)
        for op in ("topk", "probe")
    ]
    return functions, methods


@contextmanager
def instrument(tracer: Tracer):
    """Route every golp call named in layer_targets through tracer, then restore."""
    functions, methods = layer_targets()
    modules = [m for n, m in sys.modules.items() if n == "golp" or n.startswith("golp.")]
    saved = []
    try:
        for fn, name, note in functions:
            wrapper = tracer.wrap(name, fn, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for cls, attr, name, note in methods:
            fn = cls.__dict__[attr]
            saved.append((cls, attr, fn))
            setattr(cls, attr, tracer.wrap(name, fn, note))
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def self_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its children cover.

    Spans come from one thread, so children never overlap each other.
    """
    own = [s.dur_ns for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.dur_ns
    return own


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per span, with its self time."""
    with open(path, "w", encoding="utf-8") as f:
        for s, own in zip(spans, self_ns(spans)):
            row = {"id": s.id, "parent": s.parent, "query": s.query, "name": s.name,
                   "start_ns": s.start_ns, "end_ns": s.end_ns, "self_ns": own, **s.attrs}
            f.write(json.dumps(row) + "\n")


def self_time_table(spans: list[Span]) -> list[str]:
    """Lines of calls, total and self milliseconds per span name."""
    rows: dict[str, list] = {}
    for s, own in zip(spans, self_ns(spans)):
        row = rows.setdefault(s.name, [0, 0, 0])
        row[0] += 1
        row[1] += s.dur_ns
        row[2] += own
    return [f"  {name:34s} calls={c:7d} total_ms={t / 1e6:11.3f} self_ms={st / 1e6:11.3f}"
            for name, (c, t, st) in sorted(rows.items())]


def transfer_errors(spans: list[Span]) -> list[str]:
    """Device calls whose ledger bytes differ from the bytes the call shape implies."""
    errors = []
    for s in spans:
        if not s.name.startswith("device.") or not s.attrs:
            continue
        a = s.attrs
        entry = KEY_ENTRY_BYTES if a["mode"] == "key_only" else KEY_BYTES + a["payload_bytes"]
        per_returned = ROW_ID_BYTES if s.name == "device.topk" else 2 * ROW_ID_BYTES
        if a["h2d_bytes"] != entry * a["rows"] or a["d2h_bytes"] != per_returned * a["returned"]:
            errors.append(f"span {s.id} {s.name}: h2d={a['h2d_bytes']} d2h={a['d2h_bytes']} "
                          f"for {a['rows']} rows ({a['mode']}), {a['returned']} returned")
    return errors


def median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer_metrics(spans: list[Span], units: int) -> dict[str, float]:
    """Per-layer metrics that come from spans alone.

    units is the number of units of work traced (queries, or bench runs) and
    normalizes per-unit counts. A layer the workload never calls reads 0. A
    call that raised has a span but no attributes, and adds no counts.
    """
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def durs(*names):
        return [s.dur_ns for n in names for s in by.get(n, ())]

    def rate(names):
        ss = [s for n in names for s in by.get(n, ())]
        busy = sum(s.dur_ns for s in ss)
        return sum(s.attrs.get("rows", 0) for s in ss) / (busy / 1e9) if busy else 0.0

    dev = [s for n in ("device.topk", "device.probe") for s in by.get(n, ()) if s.attrs]
    t_h2d = sum(s.attrs["t_h2d"] for s in dev)
    t_kernel = sum(s.attrs["t_kernel"] for s in dev)
    decides = by.get("gate.decide", [])
    return {
        "store.table_build_s": sum(durs(*TABLE_BUILDERS)) / 1e9,
        "store.extract_keys_us": median_or_zero(durs("store.extract_keys")) / 1e3,
        "store.materialize_us": median_or_zero(durs("store.materialize")) / 1e3,
        "store.materialized_rows": sum(s.attrs.get("rows", 0) for s in by.get("store.materialize", ())) / units,
        "host.topk_ms": median_or_zero(durs("host.host_topk")) / 1e6,
        "host.topk_calls": len(by.get("host.host_topk", ())),
        "host.topk_rows_per_s": rate(["host.host_topk"]),
        "host.hash_build_ms": median_or_zero(durs("host.host_hash_build")) / 1e6,
        "host.hash_probe_ms": median_or_zero(durs("host.host_hash_probe")) / 1e6,
        "host.join_rows_per_s": rate(["host.host_hash_build", "host.host_hash_probe"]),
        "device.topk_calls": len(by.get("device.topk", ())),
        "device.probe_calls": len(by.get("device.probe", ())),
        "device.h2d_bytes": sum(s.attrs["h2d_bytes"] for s in dev),
        "device.d2h_bytes": sum(s.attrs["d2h_bytes"] for s in dev),
        "device.t_h2d_ms": median_or_zero([s.attrs["t_h2d"] for s in dev]) * 1e3,
        "device.t_kernel_ms": median_or_zero([s.attrs["t_kernel"] for s in dev]) * 1e3,
        "device.t_d2h_ms": median_or_zero([s.attrs["t_d2h"] for s in dev]) * 1e3,
        "device.t_post_ms": median_or_zero([s.attrs["t_post"] for s in dev]) * 1e3,
        "device.h2d_GBps": sum(s.attrs["h2d_bytes"] for s in dev) / t_h2d / 1e9 if t_h2d else 0.0,
        "device.kernel_rows_per_s": sum(s.attrs["rows"] for s in dev) / t_kernel if t_kernel else 0.0,
        "device.unledgered_ms": median_or_zero([s.dur_ns / 1e9 - s.attrs["total"] for s in dev]) * 1e3,
        "gate.decide_us": median_or_zero(durs("gate.decide")) / 1e3,
        "gate.offload_frac": (sum(s.attrs.get("path") == "device" for s in decides) / len(decides)
                              if decides else 0.0),
        "breakeven.fit_ms": sum(durs("breakeven.make_fit_result")) / 1e6,
        "breakeven.solve_ms": sum(durs("breakeven.solve_break_even",
                                       "breakeven.measured_crossover")) / 1e6,
        "harness.scaling_s": sum(durs("harness.run_scaling_baseline")) / 1e9,
        "harness.payload_s": sum(durs("harness.run_payload_comparison")) / 1e9,
        "harness.strategy_s": sum(durs("harness.run_strategy_comparison")) / 1e9,
        "harness.margin_s": sum(durs("harness.run_margin_sweep")) / 1e9,
        "harness.sweep_s": sum(durs("harness.model_breakeven_sweep")) / 1e9,
        "harness.export_s": sum(durs("harness.export_report")) / 1e9,
    }
