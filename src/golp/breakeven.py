"""Curve fitting and crossover solving for host-vs-device cost curves.

The fits describe the measured curves: the host's a*n*log2(n)+b (sort family)
and the key-only transfer's c*n+d, each with its residual and R^2. The
break-even size n_star is the root of a gain function, host cost minus device
cost, that the caller supplies; golp.gate.break_even_n hands it the gate's own
estimates, so n_star is where the gate flips at margin 0. A measured sweep
validates the solved value.

One closed-form non-negative least-squares fitter, fit_nonneg, serves every
fit in golp (no linear-algebra library, so results are bit-reproducible
across platforms). The figure fits weigh residuals absolutely; the gate's
calibrations (golp.gate.calibrate_cpu_model, golp.device.calibrate_profile)
weigh them relative to the measured time.
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


@dataclass(frozen=True)
class BreakEven:
    n_star: float
    measured_n_star: Optional[float] = None
    relative_error: Optional[float] = None


def fit_nonneg(
    xs: Sequence[float],
    ys: Sequence[float],
    *,
    relative: bool = False,
    through_origin: bool = False,
) -> tuple[float, float, float, float]:
    """Non-negative least squares (slope, intercept, rss, r2) of ys on {xs, 1}.

    Absolute fits minimise sum((fit - y) ** 2). Relative fits minimise
    sum(((fit - y) / y) ** 2), a 1/y**2 weight per sample, so the smallest
    size is predicted as well as the largest; samples with y <= 0 carry no
    relative error and are dropped. rss and r2 use the same weights.

    Neither coefficient goes below zero, since both are physical costs: a
    negative slope gives the best non-negative constant, a negative intercept
    the best line through the origin. For non-negative xs that is the exact
    constrained optimum. Equal ys fit a slope of exactly 0. through_origin
    fits {xs} alone; with no usable sample its slope is 0.
    """
    pts = [(float(x), float(y)) for x, y in zip(xs, ys) if not relative or y > 0.0]
    if not through_origin and len({x for x, _ in pts}) < 2:
        raise CalibrationError("degenerate fit: basis values all equal")
    if not pts:
        return 0.0, 0.0, 0.0, 1.0
    wxy = [(1.0 / (y * y) if relative else 1.0, x, y) for x, y in pts]
    sw = math.fsum(w for w, _, _ in wxy)
    if len({y for _, y in pts}) == 1:
        ybar = pts[0][1]  # exact, so no rounding residue becomes a slope
    else:
        ybar = math.fsum(w * y for w, _, y in wxy) / sw

    def origin_slope() -> float:
        sxx0 = math.fsum(w * x * x for w, x, _ in wxy)
        return max(0.0, math.fsum(w * x * y for w, x, y in wxy) / sxx0) if sxx0 else 0.0

    if through_origin:
        slope, intercept = origin_slope(), 0.0
    else:
        xbar = math.fsum(w * x for w, x, _ in wxy) / sw
        sxx = math.fsum(w * (x - xbar) ** 2 for w, x, _ in wxy)
        sxy = math.fsum(w * (x - xbar) * (y - ybar) for w, x, y in wxy)
        slope = sxy / sxx
        intercept = ybar - slope * xbar
        if slope < 0.0:
            slope = 0.0
            intercept = max(0.0, ybar)
        elif intercept < 0.0:
            slope, intercept = origin_slope(), 0.0
    rss = math.fsum(w * (y - (slope * x + intercept)) ** 2 for w, x, y in wxy)
    tss = math.fsum(w * (y - ybar) ** 2 for w, _, y in wxy)
    if tss == 0.0:
        r2 = 1.0 if rss <= 1e-300 else -math.inf
    else:
        r2 = 1.0 - rss / tss
    return slope, intercept, rss, r2


def make_fit_result(
    cpu_points: Sequence[tuple[float, float]],
    tx_points: Sequence[tuple[float, float]],
) -> FitResult:
    """Absolute fits of seconds on {n*log2(n), 1} (host) and {n, 1} (transfer).

    Each curve needs at least 2 distinct n, and the host basis needs n >= 2.
    """
    for points in (cpu_points, tx_points):
        if len({float(n) for n, _ in points}) < 2:
            raise CalibrationError("fit needs at least 2 distinct n")
    if any(n < 2 for n, _ in cpu_points):
        raise CalibrationError("the n*log2(n) basis needs all n >= 2")
    a, b, rss_cpu, r2_cpu = fit_nonneg([n * math.log2(n) for n, _ in cpu_points],
                                       [s for _, s in cpu_points])
    c, d, rss_tx, r2_tx = fit_nonneg([n for n, _ in tx_points], [s for _, s in tx_points])
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
