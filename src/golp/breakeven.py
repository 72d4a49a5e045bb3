"""Curve fitting and crossover solving for host-vs-device cost curves.

The fits describe the measured curves: the host's a*n*log2(n)+b (sort family)
and the key-only transfer's c*n+d, each with its residual and R^2. The
break-even size n_star is the root of a gain function, host cost minus device
cost, that the caller supplies; golp.gate.break_even_n hands it the gate's own
estimates, so n_star is where the gate flips at margin 0. A measured sweep
validates the solved value.

Fits use closed-form two-parameter least squares (no linear-algebra library),
so results are bit-reproducible across platforms. The same non-negative line
fit calibrates the gate's cpu model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import CalibrationError, NoCrossingError, SweepBracketError

_N_LO = 2.0
_N_HI = float(2**40)


@dataclass(frozen=True)
class FitResult:
    a: float
    b: float
    c: float
    d: float
    rss_cpu: float
    rss_tx: float
    r2_cpu: float
    r2_tx: float

    def to_json_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "d": self.d,
            "rss_cpu": self.rss_cpu,
            "rss_tx": self.rss_tx,
            "r2_cpu": self.r2_cpu,
            "r2_tx": self.r2_tx,
        }


@dataclass(frozen=True)
class BreakEven:
    n_star: float
    measured_n_star: Optional[float] = None
    relative_error: Optional[float] = None


def fit_nonneg_line(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float, float]:
    """Least squares (slope, intercept, rss, r2) of ys on {xs, 1}.

    Neither coefficient goes below zero, since both are physical costs: a
    negative slope gives the best non-negative constant, a negative intercept
    the best line through the origin.
    """
    m = len(xs)
    xbar = math.fsum(xs) / m
    ybar = math.fsum(ys) / m
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    if sxx == 0.0:
        raise CalibrationError("degenerate fit: basis values all equal")
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    if slope < 0.0:
        slope = 0.0
        intercept = max(0.0, ybar)
    elif intercept < 0.0:
        intercept = 0.0
        sxy0 = math.fsum(x * y for x, y in zip(xs, ys))
        slope = max(0.0, sxy0 / math.fsum(x * x for x in xs))
    rss = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    tss = math.fsum((y - ybar) ** 2 for y in ys)
    if tss == 0.0:
        r2 = 1.0 if rss <= 1e-300 else -math.inf
    else:
        r2 = 1.0 - rss / tss
    return slope, intercept, rss, r2


def _fit_on_basis(points: Sequence[tuple[float, float]], basis) -> tuple[float, float, float, float]:
    if len(points) < 2:
        raise CalibrationError("fit needs at least 2 points")
    ns = [float(n) for n, _ in points]
    if len(set(ns)) < 2:
        raise CalibrationError("degenerate fit: all n equal")
    return fit_nonneg_line([basis(n) for n in ns], [float(s) for _, s in points])


def fit_nlogn(points: Sequence[tuple[float, float]]) -> tuple[float, float, float, float]:
    """Non-negative least squares of seconds on {n*log2(n), 1}. Returns (a, b, rss, r2)."""
    for n, _ in points:
        if n < 2:
            raise CalibrationError("fit_nlogn needs all n >= 2")
    return _fit_on_basis(points, lambda n: n * math.log2(n))


def fit_linear(points: Sequence[tuple[float, float]]) -> tuple[float, float, float, float]:
    """Non-negative least squares of seconds on {n, 1}. Returns (c, d, rss, r2)."""
    return _fit_on_basis(points, lambda n: n)


def make_fit_result(
    cpu_points: Sequence[tuple[float, float]],
    tx_points: Sequence[tuple[float, float]],
) -> FitResult:
    a, b, rss_cpu, r2_cpu = fit_nlogn(cpu_points)
    c, d, rss_tx, r2_tx = fit_linear(tx_points)
    return FitResult(a=a, b=b, c=c, d=d, rss_cpu=rss_cpu, rss_tx=rss_tx,
                     r2_cpu=r2_cpu, r2_tx=r2_tx)


def solve_break_even(gain: Callable[[float], float]) -> float:
    """Smallest n in [2, 2**40] where gain(n), host cost minus device cost, turns positive.

    Doubling from n = 2 brackets the crossing, then bisection narrows it to a
    relative width of 1e-12 and returns the midpoint.
    """
    if gain(_N_LO) > 0.0:
        raise NoCrossingError("the device is already cheaper at n = 2")
    lo, hi = _N_LO, 2.0 * _N_LO
    while not gain(hi) > 0.0:
        if hi >= _N_HI:
            raise NoCrossingError(
                "cost curves do not cross on [2, 2**40]: the device never becomes cheaper"
            )
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12 * lo:
        mid = 0.5 * (lo + hi)
        if gain(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def measured_crossover(sweep: Sequence[tuple[float, float, float]]) -> float:
    """Crossover n in a measured (n, host_s, device_s) sweep.

    The first n where the device becomes cheaper, linearly interpolated
    between the straddling sweep points.
    """
    rows = sorted((float(n), float(h), float(d)) for n, h, d in sweep)
    if len(rows) < 2:
        raise SweepBracketError("sweep needs at least 2 points")
    for i, (n, host_s, device_s) in enumerate(rows):
        if device_s < host_s:
            if i == 0:
                raise SweepBracketError(
                    "sweep starts device-cheaper; no host-cheaper point precedes the crossover"
                )
            n0, h0, d0 = rows[i - 1]
            diff0 = d0 - h0  # >= 0: host was cheaper (or tied) at the previous point
            diff1 = device_s - host_s  # < 0 here
            return n0 + diff0 * (n - n0) / (diff0 - diff1)
    raise SweepBracketError("sweep never becomes device-cheaper")


def validate_break_even(
    n_star: float, sweep: Sequence[tuple[float, float, float]]
) -> BreakEven:
    """n_star with the sweep's crossover and its relative error against it."""
    cross = measured_crossover(sweep)
    return BreakEven(n_star, measured_n_star=cross, relative_error=abs(n_star - cross) / cross)
