"""First-stop regimes, endpoints, and the reliability scan."""

import numpy as np
import pytest

from standout.belief import initial_state, schedule, stop_tails, update
from standout.depthlaw import simulate_sessions
from standout.environment import (EnvironmentParams, interior_condition_slack,
                                  reliability_path_env)
from standout.firststop import (classify_first_stop, diffuse_first_stop,
                                winners_curse_scan)
from standout.gaussmath import std_normal_cdf
from standout.policy import POLICIES, myopic_table, optimal_table, policy_table


def make_env(**kw):
    defaults = dict(N=2, sigma_x2=1.0, sigma_e2=1.0, v0=1.0, c=0.1, x_b=0.0)
    defaults.update(kw)
    return EnvironmentParams(**defaults)


def test_endpoints_are_indifference_points():
    env = make_env()
    table = optimal_table(env)
    report = classify_first_stop(env, table)
    assert report.regime == "explore"
    state = initial_state(env)
    # at either endpoint the updated lead hits the reservation level
    for endpoint in (report.s1_minus, report.s1_plus):
        after = update(state, endpoint, env)
        assert abs(after.lead - table.reservation[1]) < 1e-9
    assert report.s1_minus < env.x_b < report.s1_plus


def test_probabilities_are_consistent():
    env = make_env(x_b=0.2, c=0.12)
    table = optimal_table(env)
    report = classify_first_stop(env, table)
    assert report.p_tau1 == pytest.approx(
        report.p_cut_losses + report.p_commit, abs=1e-12)
    sd = np.sqrt(env.v0 + env.sigma_eta2)
    from standout.environment import derive
    a1 = derive(env).alpha[0]
    lo = std_normal_cdf((report.s1_minus - env.m0 - a1) / sd)
    hi = std_normal_cdf((env.m0 + a1 - report.s1_plus) / sd)
    assert report.p_tau1 == pytest.approx(lo + hi, abs=1e-12)


def test_p_tau1_against_simulation():
    env = make_env(x_b=-0.3, c=0.08)
    table = optimal_table(env)
    report = classify_first_stop(env, table)
    batch = simulate_sessions(env, table, n=400_000, seed=5)
    emp = np.mean(batch.depth == 1)
    se = np.sqrt(emp * (1 - emp) / len(batch))
    assert abs(emp - report.p_tau1) < 4 * se


def test_single_item_list_always_trusts():
    env = make_env(N=1)
    report = classify_first_stop(env, myopic_table(env))
    assert report.regime == "trust"
    assert report.p_tau1 == 1.0


def test_trust_regime_under_near_perfect_ranking():
    base = make_env(N=5, c=0.05, x_b=-1.0)
    env = reliability_path_env(base, 0.999)
    table = optimal_table(env)
    report = classify_first_stop(env, table)
    assert report.regime == "trust"
    assert report.p_tau1 == 1.0


def test_endpoints_move_out_with_smaller_cost():
    env_hi = make_env(c=0.15)
    env_lo = make_env(c=0.05)
    r_hi = classify_first_stop(env_hi, optimal_table(env_hi))
    r_lo = classify_first_stop(env_lo, optimal_table(env_lo))
    # cheaper inspection widens the continuation interval
    assert r_lo.s1_minus < r_hi.s1_minus
    assert r_lo.s1_plus > r_hi.s1_plus
    assert r_lo.p_tau1 < r_hi.p_tau1


def test_diffuse_first_stop_decreasing_in_mu():
    env = make_env(N=5, v0=1.0, c=0.07, x_b=-0.4)
    table = optimal_table(env)
    vals = [diffuse_first_stop(env, table, mu) for mu in (-2.0, -0.5, 1.0)]
    assert vals[0] >= vals[1] >= vals[2]


def test_diffuse_first_stop_is_certain_at_one_rank_and_under_trust():
    env = make_env(N=1)
    assert diffuse_first_stop(env, optimal_table(env), 5.0) == 1.0
    env = make_env(sigma_e2=0.1)  # alpha_1 - alpha_2 = 0.82 >= kappa*_1 = 0.16
    table = optimal_table(env)
    alpha = schedule(env).alpha
    assert alpha[0] - alpha[1] >= table.kappa[1]
    assert diffuse_first_stop(env, table, 5.0) == 1.0


def test_winners_curse_scan_shape():
    base = make_env(N=5, c=0.05, x_b=-1.0)
    grid = np.linspace(0.1, 0.999, 12)
    results, first_trust = winners_curse_scan(base, grid)
    assert len(results) == len(grid)
    assert first_trust is not None and first_trust < 1.0
    trusts = [r["trust_holds"] for r in results if r["interior"]]
    # once trust holds along the path it keeps holding
    seen = False
    for flag in trusts:
        if seen:
            assert flag
        seen = seen or flag


def test_first_stop_endpoints_ordering():
    env = make_env()
    reservation = optimal_table(env).reservation
    lo, hi = stop_tails(schedule(env), reservation, 1, env.m0, env.x_b)
    assert lo < hi


def random_interior_envs(seed, count):
    rng = np.random.default_rng(seed)
    envs = []
    while len(envs) < count:
        env = EnvironmentParams(
            N=int(rng.integers(1, 9)), sigma_x2=rng.uniform(0.2, 3.0),
            sigma_e2=rng.uniform(0.01, 3.0), v0=rng.uniform(0.02, 3.0),
            m0=rng.uniform(-1.0, 1.0), x_b=rng.uniform(-1.5, 0.5),
            c=rng.uniform(0.005, 0.2),
            quantile_rule=("midpoint", "blom")[int(rng.integers(2))])
        if interior_condition_slack(env) > 0.0:
            envs.append(env)
    return envs


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("env", random_interior_envs(91, 40))
def test_endpoints_are_the_first_stop_tails(env, policy):
    # the report reads the t = 1 stopping tails, bit for bit, and is in
    # the trust regime exactly when no first draw lies between them
    table = policy_table(env, policy)
    lower, upper = stop_tails(schedule(env), table.reservation, 1, env.m0, env.x_b)
    report = classify_first_stop(env, table)
    assert (report.regime == "trust") == (not lower < upper)
    if report.regime == "explore":
        assert (report.s1_minus, report.s1_plus) == (float(lower), float(upper))
    else:
        assert (report.s1_minus, report.s1_plus) == (-np.inf, np.inf)
        assert report.p_tau1 == 1.0


@pytest.mark.parametrize("policy", ["optimum", "Myopic", ""])
def test_unknown_policy_is_rejected(policy):
    env = make_env(N=3)
    with pytest.raises(ValueError, match="policy must be 'optimal' or 'myopic'"):
        policy_table(env, policy)
    with pytest.raises(ValueError, match="policy must be 'optimal' or 'myopic'"):
        winners_curse_scan(env, np.linspace(0.1, 0.9, 3), policy=policy)


# interior by about 1e-11, yet its solved r_0 lies 3.4e-10 below x_b - m0
NEAR_CORNER = dict(N=3, sigma_x2=1.0, sigma_e2=1.0, v0=1.0, x_b=0.3,
                   c=0.582160603083601)


def test_first_stop_refuses_a_table_that_stops_before_rank_one():
    env = EnvironmentParams(**NEAR_CORNER)
    table = optimal_table(env)
    assert 0.0 < interior_condition_slack(env) < 1e-10
    assert env.x_b - env.m0 >= table.reservation[0]
    with pytest.raises(ArithmeticError, match="the table stops before rank 1"):
        classify_first_stop(env, table)


def test_curse_scan_flags_a_table_that_stops_before_rank_one():
    # rho = 0.5 rebuilds the near-corner environment itself (sigma_e2 = 1)
    base = EnvironmentParams(**NEAR_CORNER)
    assert reliability_path_env(base, 0.5) == base
    results, first_trust = winners_curse_scan(base, [0.5, 0.999])
    assert results[0] == {"rho": 0.5, "interior": False, "trust_holds": None,
                          "p_tau1": None}
    assert results[1]["interior"]
