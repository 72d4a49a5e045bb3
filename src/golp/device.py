"""Coprocessor abstraction: transfer phases, device kernels, per-call ledgers.

``OPS`` holds what each op costs and returns. Two interchangeable backends,
each of which owns the clock that times a query:

* ``ModeledDevice`` runs on a virtual clock. Phase times are pure arithmetic
  over a ``DeviceProfile``; results come from the host primitives, so a
  modeled call can never change an answer. Repeated calls are bit-identical.
* ``ProxyDevice`` stands in for real hardware: transfers are real memcpys of
  exactly the accounted bytes, the kernel is a parallel per-chunk selection
  (or join probe) on worker threads, and every phase is wall-clock timed.

Byte counts are always computed from the call shape, never measured, so both
backends report identical ``h2d_bytes``/``d2h_bytes`` for identical calls. A
key-only call ships 12 bytes per entry; a full-row call ships
(8 + payload_bytes) per row, each side of a join at its own table's width.
Post-processing time is attributed to the device-call ledger even though it
runs on the host: the offload path's end-to-end cost includes turning
returned row ids back into rows.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .breakeven import fit_nonneg
from .errors import CalibrationError
from .host import (
    ProbeResult,
    TopKResult,
    host_hash_build,
    host_hash_probe,
    host_topk,
    key_bits,
    merge_topk,
    topk_candidates,
)
from .store import KEY_BYTES, KEY_ENTRY_BYTES, ROW_ID_BYTES, KeyVector

KEY_ONLY = "key_only"
FULL_ROW = "full_row"
MODES = (KEY_ONLY, FULL_ROW)

OP_TOPK = "topk"
OP_FULL_SORT = "full_sort"
OP_PROBE = "probe"

_TINY_RATE = 1e-12


def _log2_n(n: int, k: int) -> float:
    return math.log2(max(n, 2))


def _k(n: int, k: int) -> float:
    return k


@dataclass(frozen=True)
class OpSpec:
    """Everything the cost models, the gate and the backends know about one op.

    The host cost is alpha * n * row_factor(n, k) + beta, with alpha and beta
    the CpuCostModel pair alpha_<cpu_family>, beta_<cpu_family>. An op whose
    kernel_rate (a DeviceProfile field) is None runs on the host only.
    """

    name: str
    cpu_family: str
    row_factor: Callable[[int, int], float]
    kernel_rate: Optional[str]
    returned_row_bytes: Optional[int]
    joins: bool  # the query's tables are (build, probe) and it returns matches

    def shape(self, tables) -> tuple[int, int, int, Optional[int]]:
        """(n, build_n, payload_bytes, build_payload_bytes) of a query's tables.

        A join's tables are (build, probe): n and payload_bytes are the probe
        side's, build_n and build_payload_bytes the build side's. A
        single-table op has no build side: (n, 0, payload_bytes, None).
        """
        if self.joins:
            build, probe = tables
            return probe.row_count, build.row_count, probe.payload_bytes, build.payload_bytes
        return tables.row_count, 0, tables.payload_bytes, None

    def returned(self, n: int, k: int) -> int:
        """Rows a device call returns: min(k, n) for a Top-K, k matches for a join."""
        return k if self.joins else min(k, n)


OPS = {spec.name: spec for spec in (
    OpSpec(OP_TOPK, "sort", _log2_n, "kernel_rate_topk", ROW_ID_BYTES, joins=False),
    OpSpec(OP_FULL_SORT, "sort", _log2_n, None, None, joins=False),
    OpSpec(OP_PROBE, "match", _k, "kernel_rate_probe", 2 * ROW_ID_BYTES, joins=True),
)}


def op_spec(op: str, on_device: bool = False) -> OpSpec:
    """The table entry for op; on_device also requires a device kernel."""
    spec = OPS.get(op)
    if spec is None:
        raise ValueError(f"unknown op {op!r}")
    if on_device and spec.kernel_rate is None:
        raise ValueError(f"op {op!r} has no device kernel")
    return spec


@dataclass(frozen=True)
class DeviceProfile:
    """Cost constants for one device. Bandwidths in bytes/s, times in seconds."""

    h2d_bandwidth: float
    d2h_bandwidth: float
    launch_overhead: float
    kernel_rate_topk: float
    kernel_rate_probe: float
    post_rate: float

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if not value > 0.0:
                raise ValueError(f"profile field {name} must be strictly positive")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DeviceProfile":
        return cls(**{f.name: float(obj[f.name]) for f in fields(cls)})


# Chosen so the default configuration tells a coherent story: break-even
# against the default cpu model sits between 1e5 and 1e6 rows, dispatch
# margins of 0/5/10 ms move the switch point across the default grid, and a
# key-only Top-K at N=3e6 beats the full-row transfer end to end by >= 10x.
DEFAULT_MODELED_PROFILE = DeviceProfile(
    h2d_bandwidth=25e9,
    d2h_bandwidth=25e9,
    launch_overhead=200e-6,
    kernel_rate_topk=0.1e-9,
    kernel_rate_probe=0.2e-9,
    post_rate=20e-9,
)


@dataclass(frozen=True)
class TransferLedger:
    h2d_bytes: int
    d2h_bytes: int
    t_h2d: float
    t_kernel: float
    t_d2h: float
    t_post: float
    total: float

    @classmethod
    def build(
        cls,
        h2d_bytes: int,
        d2h_bytes: int,
        t_h2d: float,
        t_kernel: float,
        t_d2h: float,
        t_post: float,
    ) -> "TransferLedger":
        return cls(
            h2d_bytes=int(h2d_bytes),
            d2h_bytes=int(d2h_bytes),
            t_h2d=t_h2d,
            t_kernel=t_kernel,
            t_d2h=t_d2h,
            t_post=t_post,
            total=t_h2d + t_kernel + t_d2h + t_post,
        )


@dataclass
class DeviceCallResult:
    payload: object
    ledger: TransferLedger


def transfer_entry_bytes(mode: str, payload_bytes: Optional[int]) -> int:
    if mode == KEY_ONLY:
        return KEY_ENTRY_BYTES
    if mode == FULL_ROW:
        if payload_bytes is None or payload_bytes < 1:
            raise ValueError("full_row transfers need a positive payload_bytes")
        return KEY_BYTES + int(payload_bytes)
    raise ValueError(f"unknown transfer mode {mode!r}")


def _h2d_bytes(
    mode: str, n: int, payload_bytes: Optional[int], build_n: int, build_payload_bytes: Optional[int]
) -> int:
    """Bytes a call ships to the device: n rows, then build_n build rows, each at its own width."""
    h2d_bytes = transfer_entry_bytes(mode, payload_bytes) * n
    if build_n:
        h2d_bytes += transfer_entry_bytes(mode, build_payload_bytes) * build_n
    return h2d_bytes


def estimate_device_cost(
    op: str,
    n: int,
    k: int,
    mode: str = KEY_ONLY,
    payload_bytes: Optional[int] = None,
    profile: DeviceProfile = DEFAULT_MODELED_PROFILE,
    build_n: int = 0,
    build_payload_bytes: Optional[int] = None,
) -> TransferLedger:
    """Predicted ledger of a device call over n rows; exact for the modeled backend.

    For a Top-K, k is the requested count. For a probe, n and payload_bytes
    are the probe side's, build_n and build_payload_bytes the build side's;
    the kernel sees both sides. k is the match count: the gate's expected
    count, or the true one in a modeled call.
    """
    spec = op_spec(op, on_device=True)
    returned = spec.returned(n, k)
    h2d_bytes = _h2d_bytes(mode, n, payload_bytes, build_n, build_payload_bytes)
    d2h_bytes = spec.returned_row_bytes * returned
    return TransferLedger.build(
        h2d_bytes=h2d_bytes,
        d2h_bytes=d2h_bytes,
        t_h2d=h2d_bytes / profile.h2d_bandwidth,
        t_kernel=profile.launch_overhead + getattr(profile, spec.kernel_rate) * (n + build_n),
        t_d2h=d2h_bytes / profile.d2h_bandwidth,
        t_post=profile.post_rate * returned,
    )


class _Device:
    """A backend is a context manager; leaving the block closes it."""

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ModeledDevice(_Device):
    """Virtual device: real results, arithmetic ledger, no wall clock."""

    name = "modeled"
    # Every repeat of a call reports the same time, and no time is measured,
    # so there is nothing to calibrate from.
    virtual_clock = True

    def __init__(self, profile: DeviceProfile = DEFAULT_MODELED_PROFILE):
        self.profile = profile

    def timed(self, run, host_s: float):
        """(result, virtual seconds) of run(), which returns (result, ledger).

        A device-path run costs its ledger total; a host-path run has no
        ledger and costs host_s, the host cost model's figure.
        """
        result, ledger = run()
        return result, host_s if ledger is None else ledger.total

    def topk(
        self,
        keys: KeyVector,
        k: int,
        mode: str = KEY_ONLY,
        payload_bytes: Optional[int] = None,
    ) -> DeviceCallResult:
        payload = host_topk(keys, k)
        ledger = estimate_device_cost(
            OP_TOPK, len(keys), len(payload), mode, payload_bytes, self.profile
        )
        return DeviceCallResult(payload=payload, ledger=ledger)

    def probe(
        self,
        build: KeyVector,
        probe: KeyVector,
        mode: str = KEY_ONLY,
        payload_bytes: Optional[int] = None,
        build_payload_bytes: Optional[int] = None,
    ) -> DeviceCallResult:
        """Join probe; payload_bytes is the probe table's width, build_payload_bytes the build's."""
        payload = host_hash_probe(host_hash_build(build), probe)
        ledger = estimate_device_cost(
            OP_PROBE, len(probe), payload.match_count, mode, payload_bytes, self.profile,
            build_n=len(build), build_payload_bytes=build_payload_bytes,
        )
        return DeviceCallResult(payload=payload, ledger=ledger)


def wall_clock() -> float:
    return time.perf_counter_ns() / 1e9


class ProxyDevice(_Device):
    """In-process stand-in for real hardware, wall-clock timed.

    The kernel phase runs the selection/probe chunk-parallel on a thread
    pool; h2d/d2h phases are real copies of exactly the accounted bytes.
    """

    name = "proxy"
    virtual_clock = False

    def __init__(self, workers: Optional[int] = None):
        self.workers = max(1, workers if workers is not None else (os.cpu_count() or 1))
        self._pool = ThreadPoolExecutor(max_workers=self.workers) if self.workers > 1 else None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def timed(self, run, host_s: float):
        """(result, wall seconds) of run(), late materialization included.

        run returns (result, ledger); host_s is a virtual-clock input and is
        not used here.
        """
        t0 = wall_clock()
        result, _ = run()
        return result, wall_clock() - t0

    def _chunk_bounds(self, n: int, floor: int) -> list[tuple[int, int]]:
        chunks = min(self.workers, max(1, n // max(floor, 1)))
        if chunks <= 1:
            return [(0, n)]
        step = (n + chunks - 1) // chunks
        return [(lo, min(lo + step, n)) for lo in range(0, n, step)]

    def _scan(self, n: int, floor: int, fn) -> tuple[np.ndarray, ...]:
        """fn(lo, hi) over the chunks of n rows, on the pool; each output column joined."""
        spans = self._chunk_bounds(n, floor)
        if self._pool is None or len(spans) == 1:
            parts = [fn(lo, hi) for lo, hi in spans]
        else:
            parts = list(self._pool.map(lambda span: fn(*span), spans))
        return tuple(np.concatenate(column) for column in zip(*parts))

    def _offload(self, op: str, vectors: Sequence[KeyVector], mode: str, h2d_bytes: int,
                 kernel, result) -> DeviceCallResult:
        """One wall-timed device call: h2d copy, kernel, d2h copy, result build, ledger.

        kernel(keys, rows) runs on the device copies of each vector's keys and
        row ids and returns the output arrays; result(*returned) builds the
        payload from their d2h copies. Only the h2d_bytes accounted are copied
        inside the h2d window: in full-row mode row ids ride along as
        unaccounted plumbing, and the payload bytes are what the keys leave of
        h2d_bytes.
        """
        if mode == FULL_ROW:
            rows = [v.rows.copy() for v in vectors]
            t0 = wall_clock()
            keys = [v.keys.copy() for v in vectors]
            np.empty(h2d_bytes - KEY_BYTES * sum(map(len, vectors)), dtype=np.uint8).copy()
        else:
            t0 = wall_clock()
            keys = [v.keys.copy() for v in vectors]
            rows = [v.rows.copy() for v in vectors]
        t1 = wall_clock()
        out = kernel(keys, rows)
        t2 = wall_clock()
        returned = [column.copy() for column in out]
        t3 = wall_clock()
        payload = result(*returned)
        t4 = wall_clock()
        ledger = TransferLedger.build(
            h2d_bytes=h2d_bytes,
            d2h_bytes=OPS[op].returned_row_bytes * len(returned[0]),
            t_h2d=t1 - t0,
            t_kernel=t2 - t1,
            t_d2h=t3 - t2,
            t_post=t4 - t3,
        )
        return DeviceCallResult(payload=payload, ledger=ledger)

    def topk(
        self,
        keys: KeyVector,
        k: int,
        mode: str = KEY_ONLY,
        payload_bytes: Optional[int] = None,
    ) -> DeviceCallResult:
        if k < 1:
            raise ValueError("k must be at least 1")
        n = len(keys)

        def kernel(dev_keys, dev_rows):
            candidates = self._scan(
                n, max(4 * k, 4096),
                lambda lo, hi: topk_candidates(dev_keys[0][lo:hi], dev_rows[0][lo:hi], k),
            )
            return (merge_topk(*candidates, k),)

        return self._offload(OP_TOPK, [keys], mode, transfer_entry_bytes(mode, payload_bytes) * n,
                             kernel, TopKResult)

    def probe(
        self,
        build: KeyVector,
        probe: KeyVector,
        mode: str = KEY_ONLY,
        payload_bytes: Optional[int] = None,
        build_payload_bytes: Optional[int] = None,
    ) -> DeviceCallResult:
        """Join probe; payload_bytes is the probe table's width, build_payload_bytes the build's."""

        def kernel(dev_keys, dev_rows):
            # the build runs on the calling thread; the pool threads only scan it
            index = host_hash_build(KeyVector(keys=dev_keys[0], rows=dev_rows[0]))
            bits = key_bits(dev_keys[1])
            return self._scan(
                len(probe), 4096, lambda lo, hi: index.match(bits[lo:hi], dev_rows[1][lo:hi])
            )

        return self._offload(
            OP_PROBE, [build, probe], mode,
            _h2d_bytes(mode, len(probe), payload_bytes, len(build), build_payload_bytes),
            kernel,
            lambda probe_rows, build_rows: ProbeResult(
                probe_rows=probe_rows, build_rows=build_rows, probe_count=len(probe)
            ),
        )


def make_device(backend: str, profile: DeviceProfile = DEFAULT_MODELED_PROFILE,
                workers: Optional[int] = None):
    if backend == "modeled":
        return ModeledDevice(profile)
    if backend == "proxy":
        return ProxyDevice(workers=workers)
    raise ValueError(f"unknown backend {backend!r}")


def calibrate_profile(
    samples: Sequence[tuple[int, TransferLedger]],
    op: str = OP_TOPK,
    probe_samples: Sequence[tuple[int, TransferLedger]] = (),
) -> DeviceProfile:
    """Fit a DeviceProfile from measured ledgers of one op family.

    samples: (n, ledger) pairs where n is the element count the kernel saw
    (both sides combined for probes). Needs >= 3 distinct n. Bandwidths come
    from through-origin fits of bytes against time, launch and kernel rate
    from a line fit of t_kernel against n, post rate from returned rows
    against t_post. Every fit is breakeven.fit_nonneg with relative=True,
    the rule calibrate_cpu_model uses too: residuals are weighed relative to
    the measured time, so the smallest size is predicted as well as the
    largest. The d2h bandwidth falls back to the h2d one when no sample
    returned bytes. kernel_rate_probe falls back to kernel_rate_topk when no
    probe samples are given (and vice versa).
    """
    spec = op_spec(op, on_device=True)
    if len({int(n) for n, _ in samples}) < 3:
        raise CalibrationError("calibration needs at least 3 distinct n values")

    ledgers = [led for _, led in samples]

    h2d_slope, _, _, _ = fit_nonneg([led.h2d_bytes for led in ledgers],
                                    [led.t_h2d for led in ledgers],
                                    relative=True, through_origin=True)
    if h2d_slope <= 0.0:
        raise CalibrationError("cannot fit h2d bandwidth: no usable transfer samples")
    h2d_bw = 1.0 / h2d_slope

    d2h_slope, _, _, _ = fit_nonneg([led.d2h_bytes for led in ledgers],
                                    [led.t_d2h for led in ledgers],
                                    relative=True, through_origin=True)
    d2h_bw = (1.0 / d2h_slope) if d2h_slope > 0.0 else h2d_bw

    rate, launch, _, _ = fit_nonneg([n for n, _ in samples], [led.t_kernel for led in ledgers],
                                    relative=True)
    rate = max(rate, _TINY_RATE)
    launch = max(launch, _TINY_RATE)

    post_slope, _, _, _ = fit_nonneg([led.d2h_bytes / spec.returned_row_bytes for led in ledgers],
                                     [led.t_post for led in ledgers],
                                     relative=True, through_origin=True)
    post_rate = max(post_slope, _TINY_RATE)

    if probe_samples:
        probe_rate, _, _, _ = fit_nonneg([n for n, _ in probe_samples],
                                         [led.t_kernel for _, led in probe_samples], relative=True)
        other_rate = max(probe_rate, _TINY_RATE)
    else:
        other_rate = rate
    kernel_rates = {s.kernel_rate: other_rate for s in OPS.values() if s.kernel_rate}
    kernel_rates[spec.kernel_rate] = rate

    return DeviceProfile(
        h2d_bandwidth=h2d_bw,
        d2h_bandwidth=d2h_bw,
        launch_overhead=launch,
        post_rate=post_rate,
        **kernel_rates,
    )
