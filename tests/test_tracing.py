"""The benchmark's traced run still sees every layer it times.

perfbench/tracing.py wraps golp's functions from outside, by swapping module
attributes and device methods. A function renamed, or captured in a table
before the swap, drops its spans from the traced run without an error, so
these tests load that file as it is and check the spans it records.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from golp import breakeven, device, gate, harness, host, store
from golp.device import OP_PROBE, OP_TOPK, ModeledDevice, ProxyDevice
from golp.gate import DEVICE, HOST, CpuCostModel, GateConfig
from golp.store import generate_table

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = tracing  # dataclasses resolve their module by name
_spec.loader.exec_module(tracing)

# A host this slow sends every query to the device.
SLOW_HOST = GateConfig(cpu_model=CpuCostModel(
    alpha_sort=1.0, beta_sort=1.0, alpha_match=1.0, beta_match=1.0))


def test_layer_targets_resolve_against_the_package():
    functions, methods = tracing.layer_targets()
    layers = {"store": store, "host": host, "gate": gate,
              "breakeven": breakeven, "harness": harness}
    for fn, name, _ in functions:
        layer, attr = name.split(".")
        assert getattr(layers[layer], attr) is fn, name
    assert {(cls, attr) for cls, attr, _, _ in methods} == {
        (cls, attr) for cls in (device.ModeledDevice, device.ProxyDevice)
        for attr in ("topk", "probe")
    }


def traced_query(tables, op, config, dev):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        # through the module attribute, as the benchmark calls it
        _, decision, _ = gate.execute_gated(tables, op, 10, config, dev)
    return decision.path, tracer.spans


def query_span_names(spans):
    assert spans and all(s.query == 0 for s in spans)
    assert spans[0].name == "gate.execute_gated"
    return {s.name for s in spans}


def test_gated_topk_on_the_host_path_records_host_spans():
    path, spans = traced_query(generate_table(2_000, 8, seed=1), OP_TOPK,
                               GateConfig(), ModeledDevice())
    assert path == HOST
    names = query_span_names(spans)
    assert {"gate.decide", "gate.execute_path", "store.extract_keys",
            "host.host_topk", "store.materialize"} <= names
    assert not any(n.startswith("device.") for n in names)


@pytest.mark.parametrize("backend", [ModeledDevice, lambda: ProxyDevice(workers=1)],
                         ids=["modeled", "proxy"])
def test_gated_topk_on_the_device_path_records_device_spans(backend):
    with backend() as dev:
        path, spans = traced_query(generate_table(2_000, 8, seed=2), OP_TOPK, SLOW_HOST, dev)
    assert path == DEVICE
    names = query_span_names(spans)
    assert {"gate.decide", "gate.execute_path", "device.topk", "store.materialize"} <= names
    (call,) = [s for s in spans if s.name == "device.topk"]
    assert call.attrs["rows"] == 2_000 and call.attrs["returned"] == 10
    assert tracing.transfer_errors(spans) == []


@pytest.mark.parametrize("config,expect,probe_width", [
    (GateConfig(), {"host.host_hash_build", "host.host_hash_probe"}, 8),
    (SLOW_HOST, {"device.probe"}, 8),
    # the gate ships 12 bytes per row on both sides, whatever each table's width
    (SLOW_HOST, {"device.probe"}, 188),
], ids=["host", "device", "device-188-byte-probe"])
def test_gated_probe_records_its_layer_spans(config, expect, probe_width):
    tables = (generate_table(300, 8, seed=3), generate_table(200, probe_width, seed=4))
    with ProxyDevice(workers=1) as dev:
        _, spans = traced_query(tables, OP_PROBE, config, dev)
    names = query_span_names(spans)
    assert {"gate.decide", "gate.execute_path"} | expect <= names
    assert tracing.transfer_errors(spans) == []


def test_proxy_probe_builds_once_on_the_calling_thread():
    # host.hash_build_ms times the device's build as well; the device's probe
    # scan runs on the pool and must not show up as a host probe
    tables = (generate_table(3_000, 8, seed=5), generate_table(9_000, 8, seed=6))
    with ProxyDevice(workers=2) as dev:
        assert len(dev._chunk_bounds(9_000, floor=4096)) == 2
        path, spans = traced_query(tables, OP_PROBE, SLOW_HOST, dev)
    assert path == DEVICE
    (build,) = [s for s in spans if s.name == "host.host_hash_build"]
    assert spans[build.parent].name == "device.probe"
    assert not [s for s in spans if s.name == "host.host_hash_probe"]


def test_proxy_topk_selects_on_the_pool_without_a_host_topk():
    # host.topk_calls counts host-path queries only: the device shares the
    # host's selection helpers, never the traced host_topk
    table = generate_table(9_000, 8, seed=7)
    with ProxyDevice(workers=2) as dev:
        assert len(dev._chunk_bounds(9_000, floor=4096)) == 2
        path, spans = traced_query(table, OP_TOPK, SLOW_HOST, dev)
    assert path == DEVICE
    assert len([s for s in spans if s.name == "device.topk"]) == 1
    assert not [s for s in spans if s.name == "host.host_topk"]
