"""Threshold tables: closed-form myopic rule and the lead-space program."""

import json
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from standout import policy
from standout.belief import initial_state, posterior_variance, update
from standout.depthlaw import simulate_sessions
from standout.environment import (EnvironmentParams, derive,
                                  env_from_shift_scale,
                                  interior_condition_slack)
from standout.policy import (GRID_POINTS, ROOT_TOL, _continuation,
                             myopic_kappas, myopic_table, optimal_table,
                             predictive_sds, should_stop)

mp.mp.dps = 30

# frozen from an independent dynamic program (scipy.integrate.quad value
# functions, brentq root for the reservation lead), xtol 1e-11
OPTIMAL_REFERENCE = [
    # (sigma_x2, sigma_e2, v0, c, kappa0*, kappa1*)
    (1.0, 1.0, 1.0, 0.10, 1.2377084371, 0.7779163063),
    (1.0, 0.6, 1.5, 0.07, 1.7047431977, 0.8119055666),
    (0.8, 1.2, 0.7, 0.12, 0.9206085769, 0.6329124617),
]


def make_env(N=2, sigma_x2=1.0, sigma_e2=1.0, v0=1.0, c=0.1, **kw):
    return EnvironmentParams(N=N, sigma_x2=sigma_x2, sigma_e2=sigma_e2,
                             v0=v0, c=c, **kw)


def _myopic_oracle(c, sd):
    d = mp.findroot(lambda d: mp.npdf(d) - d * mp.ncdf(-d) - mp.mpf(c) / sd,
                    mp.mpf(0.5))
    return float(sd * d)


def test_myopic_against_mpmath_roots():
    env = make_env(N=4, v0=1.3, c=0.09)
    table = myopic_table(env)
    for t, sd in enumerate(predictive_sds(env)):
        assert table.kappa[t] == pytest.approx(_myopic_oracle(env.c, sd),
                                               abs=1e-10)
    assert table.kappa_inf == pytest.approx(
        _myopic_oracle(env.c, env.sigma_eta), abs=1e-10)


def test_myopic_strictly_decreasing_to_limit():
    env = make_env(N=30, v0=2.0, c=0.05)
    table = myopic_table(env)
    assert np.all(np.diff(table.kappa) < 0)
    assert table.kappa[-1] > table.kappa_inf
    # the variance schedule drives kappa_t down to the known-mean level;
    # the residual gap scales with sqrt(sigma_eta2) / t, so a low-noise
    # environment gets within 1e-6 by t = 1e4
    tail = make_env(N=3, sigma_x2=2e-4, sigma_e2=2e-4, c=0.0035)
    sd_deep = np.sqrt(1.0 / (1.0 / tail.v0 + 1e4 / tail.sigma_eta2)
                      + tail.sigma_eta2)
    deep = myopic_kappas(tail.c, sd_deep)[0]
    assert abs(deep - myopic_table(tail).kappa_inf) < 1e-6


def test_optimal_against_independent_dp():
    for sx2, se2, v0, c, k0, k1 in OPTIMAL_REFERENCE:
        env = make_env(sigma_x2=sx2, sigma_e2=se2, v0=v0, c=c)
        table = optimal_table(env)
        assert table.kappa[0] == pytest.approx(k0, abs=5e-8)
        assert table.kappa[1] == pytest.approx(k1, abs=5e-8)


def test_last_epoch_matches_myopic():
    for N in (2, 3, 5):
        env = make_env(N=N, c=0.08)
        opt = optimal_table(env)
        myo = myopic_table(env)
        assert opt.kappa[N - 1] == pytest.approx(myo.kappa[N - 1], abs=1e-8)


def test_optimal_at_least_myopic():
    # extra learning epochs can only raise the value of continuing
    env = make_env(N=5, v0=1.2, c=0.06, x_b=-0.5)
    opt = optimal_table(env)
    myo = myopic_table(env)
    assert np.all(opt.kappa >= myo.kappa - 1e-8)


def test_invariance_to_outside_option_and_prior_mean():
    env = make_env(N=3, c=0.09)
    ref = optimal_table(env)
    for m0, x_b in [(0.7, 0.0), (0.0, -1.1), (-0.4, 0.6)]:
        other = optimal_table(make_env(N=3, c=0.09, m0=m0, x_b=x_b))
        assert np.max(np.abs(other.kappa - ref.kappa)) < 1e-9
        assert np.max(np.abs(other.reservation - ref.reservation)) < 1e-9


def test_should_stop_semantics():
    env = make_env(N=3, c=0.09, x_b=0.0)
    table = optimal_table(env)
    state = initial_state(env)
    # a huge first draw puts the lead far above the reservation level
    assert should_stop(update(state, 8.0, env), table)
    # a terrible draw also stops: the outside option dominates the page
    assert should_stop(update(state, -8.0, env), table)
    # a middling draw keeps the lead below the threshold
    assert not should_stop(update(state, 0.5, env), table)
    deep = state
    for x in (-1.0, 0.5, 0.2):
        deep = update(deep, x, env)
    assert should_stop(deep, table)  # horizon always stops


def test_optimal_policy_beats_myopic_in_payoff():
    env = make_env(N=6, v0=1.5, c=0.15, x_b=-0.3)
    opt = optimal_table(env)
    myo = myopic_table(env)
    a = simulate_sessions(env, opt, n=300_000, seed=11)
    b = simulate_sessions(env, myo, n=300_000, seed=11)
    diff = a.payoff - b.payoff  # coupled draws
    se = diff.std() / np.sqrt(len(diff))
    assert diff.mean() >= -3 * se


def test_bracket_failure_raises():
    # an absurd cost passes no interior check here, the DP must refuse
    env = make_env(N=2, c=45.0, v0=0.5)
    with pytest.raises((ValueError, ArithmeticError)):
        optimal_table(env)


def optimal_table_all_rows(env, grid_points=GRID_POINTS):
    """Backward induction that evaluates the continuation on every grid
    row: the reference for the row-selecting ``optimal_table``.  Each
    epoch's value function must also equal the one ``_value_rows`` builds
    from the same inputs."""
    alpha = derive(env).alpha
    sds = predictive_sds(env)
    kappa_myo = myopic_kappas(env.c, sds)
    lo = float(np.min(alpha)) - 10.0 * sds[0]
    hi = float(np.max(alpha + kappa_myo)) + 10.0 * sds[0]
    grid = np.linspace(lo, hi, grid_points)
    v_next = grid.copy()
    slope_lo = 1.0
    kappa = np.empty(env.N)
    reservation = np.empty(env.N)
    for t in range(env.N - 1, -1, -1):
        v_t = posterior_variance(t, env.v0, env.sigma_eta2)
        omega = v_t / (v_t + env.sigma_eta2)
        args = (alpha[t], omega, sds[t], grid, v_next, slope_lo, env.c)

        def gap(l):
            return _continuation(l, *args) - l

        assert float(gap(grid[0])[0]) > 0.0 > float(gap(grid[-1])[0])
        a, b = grid[0], grid[-1]
        while b - a > ROOT_TOL:
            mid = 0.5 * (a + b)
            if float(gap(mid)[0]) > 0.0:
                a = mid
            else:
                b = mid
        reservation[t] = 0.5 * (a + b)
        kappa[t] = reservation[t] - alpha[t]
        v_rows = policy._value_rows(grid, reservation[t], *args[:3], v_next,
                                    slope_lo, env.c)
        v_next = np.maximum(grid, _continuation(grid, *args))
        assert np.array_equal(v_rows, v_next), f"V_{t} differs"
        slope_lo = (v_next[1] - v_next[0]) / (grid[1] - grid[0])
    return kappa, reservation


def _calibrated_like_env(rng):
    """A random interior environment shaped like fit's centered one: small
    v0 against sigma_eta^2, and c anywhere from 0.01 to near the corner."""
    while True:
        base = dict(N=int(rng.integers(2, 21)),
                    sigma_eta2=rng.uniform(1.0, 3.0),
                    alpha_scale=rng.uniform(0.4, 1.0),
                    v0=rng.uniform(0.02, 0.3), m0=rng.uniform(-0.3, 0.3),
                    x_b=0.0)
        corner = interior_condition_slack(env_from_shift_scale(c=1.0, **base)) + 1.0
        if corner > 0.02:
            c = rng.uniform(0.01, 0.98 * corner)
            return env_from_shift_scale(c=c, **base)


def _oracle_envs():
    rng = np.random.default_rng(2024)
    envs = [_calibrated_like_env(rng) for _ in range(20)]
    ref = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
    with open(ref) as fh:
        envs += [EnvironmentParams.from_dict(e["env"])
                 for e in json.load(fh)["environments"]]
    return envs


@pytest.mark.parametrize("env", _oracle_envs(), ids=lambda e: f"N{e.N}-c{e.c:.3f}")
def test_row_selection_matches_all_rows_oracle(env):
    kappa, reservation = optimal_table_all_rows(env)
    table = optimal_table(env)
    assert np.array_equal(table.kappa, kappa)
    assert np.array_equal(table.reservation, reservation)


def test_stop_region_check_falls_back_to_every_row(monkeypatch):
    # with no margin the last evaluated row lies below r_t, where the gap
    # is still positive, so every remaining row must be evaluated
    env = make_env(N=4, v0=0.3, c=0.05)
    kappa, reservation = optimal_table_all_rows(env)
    monkeypatch.setattr(policy, "STOP_MARGIN", 0)
    table = optimal_table(env)
    assert np.array_equal(table.kappa, kappa)
    assert np.array_equal(table.reservation, reservation)
