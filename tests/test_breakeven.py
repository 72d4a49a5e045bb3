"""Curve fits and crossover solving."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from golp.breakeven import (
    BreakEven,
    fit_nonneg,
    make_fit_result,
    measured_crossover,
    solve_break_even,
    validate_break_even,
)
from golp.device import OP_TOPK
from golp.errors import CalibrationError, NoCrossingError, SweepBracketError
from golp.gate import DEVICE, HOST, GateConfig, break_even_n, decide, estimate_costs

from .oracles import oracle_nnls


def nlogn(a, b):
    return lambda n: a * n * math.log2(n) + b


def linear(c, d):
    return lambda n: c * n + d


def nlogn_points(a, b, ns):
    return [(n, nlogn(a, b)(n)) for n in ns]


def linear_points(c, d, ns):
    return [(n, linear(c, d)(n)) for n in ns]


def gain_of(cpu, device):
    return lambda n: cpu(n) - device(n)


def on_nlogn_basis(points):
    """(xs, ys) of (n, seconds) points on the n*log2(n) basis."""
    return [n * math.log2(n) for n, _ in points], [s for _, s in points]


def on_linear_basis(points):
    return [n for n, _ in points], [s for _, s in points]


# --- fitting ----------------------------------------------------------------


def test_fit_nonneg_recovers_exact_nlogn_constants():
    a, b, rss, r2 = fit_nonneg(*on_nlogn_basis(
        nlogn_points(2e-9, 1e-4, [1_000, 10_000, 100_000, 1_000_000])))
    assert a == pytest.approx(2e-9, rel=1e-12)
    assert b == pytest.approx(1e-4, rel=1e-12)
    assert rss < 1e-18
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_through_two_points_is_exact():
    _, _, rss, r2 = fit_nonneg(*on_nlogn_basis(nlogn_points(5e-10, 2e-6, [100, 200])))
    assert rss < 1e-20
    assert r2 == pytest.approx(1.0, abs=1e-9)


def test_fit_nonneg_tolerates_multiplicative_noise():
    rng = np.random.default_rng(17)
    ns = np.logspace(3, 6, 20)
    pts = [(float(n), (1e-9 * n * math.log2(n) + 1e-5) * float(f))
           for n, f in zip(ns, rng.uniform(0.95, 1.05, size=20))]
    a, _, _, r2 = fit_nonneg(*on_nlogn_basis(pts))
    assert a == pytest.approx(1e-9, rel=0.10)
    assert r2 > 0.99


def test_fit_nonneg_recovers_exact_linear_constants():
    c, d, rss, r2 = fit_nonneg(*on_linear_basis(
        linear_points(5e-9, 2e-5, [1_000, 5_000, 20_000, 100_000])))
    assert c == pytest.approx(5e-9, rel=1e-12)
    assert d == pytest.approx(2e-5, rel=1e-12)
    assert rss < 1e-18
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_of_constant_data_is_a_flat_line():
    c, d, rss, r2 = fit_nonneg([10, 100, 1000], [7e-4, 7e-4, 7e-4])
    assert c == 0.0
    assert d == 7e-4
    assert rss == 0.0
    assert r2 == 1.0  # flat data, flat fit: a perfect degenerate fit


def test_negative_slope_clamps_to_zero():
    c, d, _, _ = fit_nonneg([10, 100, 1000], [3e-3, 2e-3, 1e-3])
    assert c == 0.0
    assert d == pytest.approx(2e-3, rel=1e-12)  # best constant fit: the mean


def test_fit_input_validation():
    tx = linear_points(4e-10, 2e-6, [1_000, 10_000])
    with pytest.raises(CalibrationError):
        make_fit_result([(1_000, 1e-3)], tx)  # one point
    with pytest.raises(CalibrationError):
        make_fit_result([(1_000, 1e-3), (1_000, 2e-3)], tx)  # duplicated n
    with pytest.raises(CalibrationError):
        make_fit_result([(1, 1e-3), (1_000, 2e-3)], tx)  # n*log2(n) basis needs n >= 2
    with pytest.raises(CalibrationError):
        make_fit_result(nlogn_points(2e-9, 1e-5, [1_000, 10_000]), [])


_SAMPLE_Y = st.one_of(
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=-1.0, max_value=-1e-6),
    st.just(0.0),
)


@settings(max_examples=300, deadline=None)
@given(
    xs=st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=8, unique=True),
    ys=st.lists(_SAMPLE_Y, min_size=8, max_size=8),
    relative=st.booleans(),
    through_origin=st.booleans(),
)
@example(xs=[10, 100, 1000], ys=[3e-3, 2e-3, 1e-3] + [0.0] * 5,  # decreasing
         relative=False, through_origin=False)
@example(xs=[10, 100, 1000], ys=[3e-3, 2e-3, 1e-3] + [0.0] * 5,
         relative=True, through_origin=False)
@example(xs=[1, 2, 3], ys=[0.1, 2.0, 3.0] + [0.0] * 5,  # negative free intercept
         relative=False, through_origin=False)
@example(xs=[1, 2, 3, 4, 5], ys=[3.0, 0.0, 7.0, -1.0, 11.0] + [0.0] * 3,  # y <= 0 samples
         relative=True, through_origin=False)
@example(xs=[0, 5, 9], ys=[-0.5, -0.25, -0.75] + [0.0] * 5,
         relative=True, through_origin=True)
def test_fit_nonneg_matches_brute_force_nnls(xs, ys, relative, through_origin):
    ys = ys[:len(xs)]
    usable = [x for x, y in zip(xs, ys) if not relative or y > 0.0]
    if not through_origin and len(usable) < 2:
        with pytest.raises(CalibrationError):
            fit_nonneg(xs, ys, relative=relative, through_origin=through_origin)
        return
    slope, intercept, rss, _ = fit_nonneg(xs, ys, relative=relative,
                                          through_origin=through_origin)
    o_slope, o_intercept, o_loss = oracle_nnls(xs, ys, relative, through_origin)
    assert slope >= 0.0 and intercept >= 0.0
    if through_origin:
        assert intercept == 0.0
    assert rss == pytest.approx(o_loss, rel=1e-9, abs=1e-12)
    assert slope == pytest.approx(o_slope, rel=1e-6, abs=1e-12)
    assert intercept == pytest.approx(o_intercept, rel=1e-6, abs=1e-12)


def test_make_fit_result_bundles_both_fits():
    fit = make_fit_result(
        nlogn_points(2e-9, 1e-5, [1_000, 10_000, 100_000]),
        linear_points(4e-10, 2e-6, [1_000, 10_000, 100_000]),
    )
    assert fit.a == pytest.approx(2e-9, rel=1e-12)
    assert fit.b == pytest.approx(1e-5, rel=1e-12)
    assert fit.c == pytest.approx(4e-10, rel=1e-12)
    assert fit.d == pytest.approx(2e-6, rel=1e-12)
    keys = set(fit.to_json_dict())
    assert keys == {"a", "b", "c", "d", "rss_cpu", "rss_tx", "r2_cpu", "r2_tx"}


def test_refit_on_predictions_is_idempotent():
    fit = make_fit_result(
        nlogn_points(1.3e-9, 4e-6, [2_000, 8_000, 64_000]),
        linear_points(6e-10, 1e-6, [2_000, 8_000, 64_000]),
    )
    ns = [2_000, 8_000, 64_000]
    refit = make_fit_result(
        nlogn_points(fit.a, fit.b, ns),
        linear_points(fit.c, fit.d, ns),
    )
    for field in ("a", "b", "c", "d"):
        assert getattr(refit, field) == pytest.approx(getattr(fit, field), rel=1e-12)


# --- solving ----------------------------------------------------------------


def test_analytic_crossover_lands_on_two_to_the_twenty():
    # a*n*log2(n) meets c*n where log2(n) = c/a = 4e-8/2e-9 = 20, i.e. n = 2^20
    n_star = solve_break_even(gain_of(nlogn(2e-9, 0.0), linear(4e-8, 0.0)))
    assert n_star == pytest.approx(1_048_576.0, rel=1e-9)


def test_solver_residual_is_tiny_at_the_returned_crossing():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = float(10 ** rng.uniform(-11, -9))
        n_target = float(10 ** rng.uniform(4, 7))
        cpu, dev = nlogn(a, 0.0), linear(a * math.log2(n_target), 0.0)
        n_star = solve_break_even(gain_of(cpu, dev))
        assert n_star == pytest.approx(n_target, rel=1e-6)
        assert abs(cpu(n_star) - dev(n_star)) / cpu(n_star) <= 1e-9


def test_solver_accounts_for_launch_and_kernel_terms():
    config = GateConfig()
    profile = config.profile
    n_star = break_even_n(config, 100)
    # every device term of the modeled Top-K, d2h of the k row ids included
    cpu = nlogn(config.cpu_model.alpha_sort, config.cpu_model.beta_sort)

    def device(n):
        return (12 * n / profile.h2d_bandwidth + profile.launch_overhead
                + profile.kernel_rate_topk * n + 4 * 100 / profile.d2h_bandwidth
                + profile.post_rate * 100)

    assert n_star == pytest.approx(134_527.38081520796, rel=1e-9)
    assert abs(cpu(n_star) - device(n_star)) / cpu(n_star) <= 1e-9
    assert estimate_costs(config, OP_TOPK, n_star, 100) == pytest.approx(
        (cpu(n_star), device(n_star)), rel=1e-12)
    assert decide(config, OP_TOPK, math.floor(n_star), 100).path == HOST
    assert decide(config, OP_TOPK, math.ceil(n_star), 100).path == DEVICE


def test_no_growth_raises():
    # a flat host curve against a growing device curve
    with pytest.raises(NoCrossingError):
        solve_break_even(gain_of(nlogn(0.0, 1e-3), linear(1e-9, 0.0)))


def test_curves_that_never_cross_raise():
    # device cheaper from the very start and forever after
    with pytest.raises(NoCrossingError, match="already cheaper at n = 2"):
        solve_break_even(gain_of(nlogn(1e-9, 1e-3), linear(1e-15, 0.0)))
    # host cheaper across the entire search range
    with pytest.raises(NoCrossingError, match="do not cross"):
        solve_break_even(gain_of(nlogn(1e-15, 0.0), linear(0.0, 1.0)))


# --- measured sweeps --------------------------------------------------------


def test_measured_crossover_interpolates_between_sweep_points():
    sweep = [(1_000, 1e-3, 2e-3), (2_000, 3e-3, 2.5e-3)]
    assert measured_crossover(sweep) == pytest.approx(5_000 / 3, rel=1e-12)


def test_measured_crossover_on_an_exact_tie_returns_the_tie_point():
    assert measured_crossover([(10, 1.0, 1.0), (20, 2.0, 1.0)]) == 10.0


def test_measured_crossover_sorts_its_input():
    sweep = [(2_000, 3e-3, 2.5e-3), (1_000, 1e-3, 2e-3)]
    assert measured_crossover(sweep) == pytest.approx(5_000 / 3, rel=1e-12)


def test_measured_crossover_bracket_errors():
    with pytest.raises(SweepBracketError):
        measured_crossover([(10, 2e-3, 1e-3), (20, 3e-3, 1e-3)])  # device-cheaper at start
    with pytest.raises(SweepBracketError):
        measured_crossover([(10, 1e-3, 2e-3), (20, 1e-3, 2e-3)])  # never crosses
    with pytest.raises(SweepBracketError):
        measured_crossover([(10, 1e-3, 2e-3)])  # single point


def test_validate_break_even_relative_error():
    # host n*1e-5 meets a flat 1e-3 device at exactly n = 100
    sweep = [(50, 5e-4, 1e-3), (150, 1.5e-3, 1e-3)]
    assert measured_crossover(sweep) == pytest.approx(100.0, rel=1e-12)
    assert validate_break_even(100.0, sweep).relative_error == pytest.approx(0.0, abs=1e-12)
    be = validate_break_even(50.0, sweep)
    assert isinstance(be, BreakEven)
    assert be.n_star == 50.0
    assert be.measured_n_star == pytest.approx(100.0, rel=1e-12)
    assert be.relative_error == pytest.approx(0.5, rel=1e-12)
