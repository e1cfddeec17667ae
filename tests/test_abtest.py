"""Short-run and long-run depth responses to a quality shift."""

import numpy as np
import pytest

from standout.abtest import (ab_report, expected_depth, lr_curve, sr_curve,
                             sr_derivative_at_zero)
from standout.depthlaw import simulate_sessions
from standout.environment import EnvironmentParams
from standout.policy import optimal_table


def make_env(**kw):
    defaults = dict(N=2, sigma_x2=1.0, sigma_e2=1.0, v0=1.0, c=0.1, x_b=0.0)
    defaults.update(kw)
    return EnvironmentParams(**defaults)


def test_curves_agree_at_zero():
    env = make_env()
    table = optimal_table(env)
    delta = np.array([0.0])
    sr = sr_curve(env, table, delta)
    lr, corner = lr_curve(env, table, delta)
    base = expected_depth(env, table, env.m0)
    assert sr[0] == pytest.approx(base, rel=1e-12)
    assert lr[0] == pytest.approx(base, rel=1e-12)
    assert not corner[0]


def test_long_run_is_translation():
    # absorbing delta into the outside option reproduces the same session
    # distribution: LR(delta) equals the baseline of the shifted world
    env = make_env(x_b=0.1)
    delta = np.array([-0.3, 0.2])
    lr, _ = lr_curve(env, optimal_table(env), delta)
    for d, val in zip(delta, lr):
        shifted = make_env(x_b=env.x_b - d)
        assert val == pytest.approx(
            expected_depth(shifted, optimal_table(shifted), shifted.m0),
            rel=1e-10)


def test_closed_form_matches_monte_carlo():
    env = make_env()
    table = optimal_table(env)
    for mu in (-0.4, 0.0, 0.5):
        cf = expected_depth(env, table, mu)
        mc = expected_depth(env, table, mu, method="monte_carlo",
                            n=400_000, seed=3)
        assert abs(cf - mc) < 0.004


def test_sr_derivative_matches_difference_quotient():
    env = make_env()
    table = optimal_table(env)
    h = 1e-6
    sr = sr_curve(env, table, np.array([-h, h]))
    fd = (sr[1] - sr[0]) / (2 * h)
    closed = sr_derivative_at_zero(env, table)
    assert closed == pytest.approx(fd, abs=1e-6)


def test_sr_derivative_score_estimator():
    env = make_env()
    table = optimal_table(env)
    closed = sr_derivative_at_zero(env, table)
    score = sr_derivative_at_zero(env, table, method="score_mc",
                                  n=2_000_000, seed=7)
    assert abs(score - closed) < 0.01


def test_short_run_policy_is_stale():
    # SR holds the reservation levels of the unshifted prior fixed, so a
    # true improvement is discovered only through the draws
    env = make_env()
    table = optimal_table(env)
    sr = sr_curve(env, table, np.array([1.5]))
    lr, _ = lr_curve(env, table, np.array([1.5]))
    assert sr[0] != pytest.approx(lr[0], abs=1e-6)


def test_pathwise_monotonicity_in_outside_option():
    # raising the outside option only raises the running max, so every
    # coupled session stops weakly earlier
    env_lo = make_env(N=5, c=0.08, x_b=-0.6)
    env_hi = make_env(N=5, c=0.08, x_b=-0.1)
    table = optimal_table(env_lo)  # thresholds invariant to x_b
    a = simulate_sessions(env_lo, table, n=50_000, seed=17)
    b = simulate_sessions(env_hi, table, n=50_000, seed=17)
    assert np.all(b.depth <= a.depth)


def test_report_sign_disagreement_at_baseline():
    env = make_env()
    report = ab_report(env, np.linspace(-0.05, 0.05, 3))
    assert report.sr_prime_0 < 0.0
    # short-run shrinks, long-run grows at delta = +0.05
    assert report.sr[-1] < report.baseline < report.lr[-1]
    assert not report.lr_corner.any()


def test_corner_flagging():
    # a large enough outside-option shift kills the interior condition
    env = make_env(c=0.1, x_b=0.0)
    lr, corner = lr_curve(env, optimal_table(env), np.array([0.0, -30.0]))
    assert not corner[0]
    assert corner[1]
    assert lr[1] == 0.0


@pytest.mark.parametrize("N, method", [(2, "closed_form_n2"), (3, "monte_carlo")])
def test_lr_curve_solves_one_table(monkeypatch, N, method):
    from dataclasses import replace

    from standout import policy
    from standout.environment import interior_condition_slack

    env = make_env(N=N, c=0.05, x_b=-0.5)
    grid = np.linspace(-3.0, 1.0, 9)  # corners first, then interior points
    ref, ref_corner = [], []
    for d in grid:  # one table per shift
        env_d = replace(env, x_b=env.x_b - float(d))
        ref_corner.append(interior_condition_slack(env_d) <= 0.0)
        ref.append(0.0 if ref_corner[-1] else expected_depth(
            env_d, optimal_table(env_d), env.m0, method, n=4000, seed=3))
    assert ref_corner[0] and not all(ref_corner)

    calls = []

    def counted(env_d, *args, **kw):
        calls.append(env_d)
        return optimal_table(env_d, *args, **kw)
    monkeypatch.setattr(policy, "optimal_table", counted)
    lr, corner = lr_curve(env, policy.policy_table(env, "optimal"), grid, method,
                          n=4000, seed=3)
    assert len(calls) == 1
    assert np.array_equal(corner, ref_corner)
    assert np.array_equal(lr, ref) and lr.tobytes() == np.array(ref).tobytes()
    calls.clear()
    report = ab_report(env, grid, method, n=4000, seed=3)
    assert len(calls) == 1
    assert report.lr.tobytes() == lr.tobytes()


def test_closed_form_refuses_a_table_that_stops_before_rank_one():
    # N = 2, interior by 4.4e-11 with r_0 3.7e-10 below x_b - m0
    env = EnvironmentParams(N=2, sigma_x2=1.0, sigma_e2=1.0, v0=1.0, x_b=0.0,
                            c=0.6559183071)
    table = optimal_table(env)
    assert env.x_b - env.m0 >= table.reservation[0]
    for method in ("closed_form_n2", "monte_carlo"):
        with pytest.raises(ArithmeticError, match="the table stops before rank 1"):
            expected_depth(env, table, env.m0, method, n=100)


def test_closed_forms_require_two_ranks():
    env = make_env(N=3)
    table = optimal_table(env)
    with pytest.raises(ValueError, match="^closed form requires N = 2$"):
        expected_depth(env, table, env.m0)
    with pytest.raises(ValueError, match="^closed form requires N = 2$"):
        sr_derivative_at_zero(env, table)


@pytest.mark.parametrize("func, args", [(expected_depth, (0.0,)),
                                        (sr_derivative_at_zero, ())])
def test_unknown_method_is_refused(func, args):
    env = make_env()
    with pytest.raises(ValueError, match="^unknown method 'bogus'$"):
        func(env, optimal_table(env), *args, method="bogus")
