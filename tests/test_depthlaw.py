"""Lead kernel, exact depth law, and the session simulator."""

import importlib
import inspect
import pkgutil
import re
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

import standout
from standout.belief import (bayes_weight, posterior_variance, schedule,
                             stop_tails, survival)
from standout.depthlaw import (conditional_depth_pmf_n2, depth_distribution,
                               lead_kernel_cdf, lead_kernel_density,
                               position_propensity, simulate_sessions)
from standout.environment import (EnvironmentParams, derive,
                                  interior_condition_slack)
from standout.policy import myopic_table, optimal_table


def make_env(**kw):
    defaults = dict(N=4, sigma_x2=1.0, sigma_e2=1.0, v0=1.0, c=0.08, x_b=-0.3)
    defaults.update(kw)
    return EnvironmentParams(**defaults)


def dense_recursion(env, table, cells):
    """The depth recursion with the full sources x (cells + 1) kernel-CDF
    matrix per epoch: the O(cells^2) oracle for the fast push."""
    r = table.reservation
    pmf = np.zeros(env.N + 1)
    grids, masses = [], []
    centers, weights = np.array([env.x_b - env.m0]), np.array([1.0])
    for t in range(1, env.N):
        omega = bayes_weight(t, env)
        alpha_t = derive(env).alpha[t - 1]
        lo = min((1.0 - omega) * centers.min() + omega * alpha_t, r[t]) - 1e-12
        edges = np.linspace(lo, r[t], cells + 1)
        cdf = lead_kernel_cdf(centers[:, None], edges[None, :], t, env)
        pmf[t] = weights.sum() - weights @ cdf[:, -1]
        centers = 0.5 * (edges[:-1] + edges[1:])
        weights = weights @ np.diff(cdf, axis=1)
        grids.append(centers)
        masses.append(weights)
        if weights.sum() <= 0.0:
            return pmf, grids, masses
    pmf[env.N] = weights.sum()
    return pmf, grids, masses


def random_interior_env(rng, N):
    while True:
        env = EnvironmentParams(
            N=N, sigma_x2=rng.uniform(0.5, 1.5), sigma_e2=rng.uniform(0.5, 1.5),
            v0=rng.uniform(0.5, 1.5), c=rng.uniform(0.05, 0.15),
            x_b=rng.uniform(-0.8, 0.2))
        if interior_condition_slack(env) > 0.02:
            return env


def test_kernel_density_normalizes():
    env = make_env()
    for t, l_prev in [(1, -0.4), (2, 0.3), (3, 1.1)]:
        total, _ = integrate.quad(
            lambda y: lead_kernel_density(l_prev, y, t, env),
            -30.0, 30.0, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_kernel_cdf_matches_density_integral():
    env = make_env()
    l_prev, t = 0.2, 2
    for y in (-1.0, 0.1, 0.8, 2.5):
        num, _ = integrate.quad(
            lambda s: lead_kernel_density(l_prev, s, t, env),
            -30.0, y, limit=300)
        assert lead_kernel_cdf(l_prev, y, t, env) == pytest.approx(num, abs=1e-8)
    assert lead_kernel_cdf(l_prev, 30.0, t, env) == pytest.approx(1.0, abs=1e-10)


def test_kernel_support_lower_bound():
    env = make_env()
    l_prev, t = 0.5, 3
    omega = bayes_weight(t, env)
    alpha_t = derive(env).alpha[t - 1]
    l_min = (1.0 - omega) * l_prev + omega * alpha_t
    assert lead_kernel_cdf(l_prev, l_min - 1e-9, t, env) == 0.0
    assert lead_kernel_density(l_prev, l_min - 1e-9, t, env) == 0.0
    assert lead_kernel_cdf(l_prev, l_min + 0.2, t, env) > 0.0


def test_pmf_sums_to_one():
    for env in (make_env(), make_env(N=7, c=0.12, x_b=0.1),
                make_env(N=3, v0=2.0)):
        dist = depth_distribution(env, optimal_table(env))
        assert abs(dist.pmf.sum() - 1.0) < 1e-9
        assert dist.pmf[0] == 0.0
        assert np.all(dist.pmf >= 0.0)


def test_pmf_matches_monte_carlo():
    env = make_env(N=5, c=0.1, x_b=-0.2)
    table = optimal_table(env)
    dist = depth_distribution(env, table)
    batch = simulate_sessions(env, table, n=500_000, seed=9)
    emp = batch.depth_pmf(env.N)
    tv = 0.5 * np.abs(emp - dist.pmf).sum()
    assert tv < 0.005


def test_expected_depth_definition():
    env = make_env(N=3)
    dist = depth_distribution(env, optimal_table(env))
    assert dist.expected_depth() == pytest.approx(
        float(np.dot(np.arange(4), dist.pmf)), rel=1e-14)


def test_conditional_n2_closed_form():
    env = make_env(N=2, c=0.1, x_b=0.0)
    table = optimal_table(env)
    for mu in (-0.8, 0.0, 0.6):
        pmf = conditional_depth_pmf_n2(env, table, mu)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        batch = simulate_sessions(env, table, mu_mode=mu, n=400_000, seed=21)
        emp = batch.depth_pmf(2)
        assert np.max(np.abs(emp - pmf)) < 0.004


def test_simulator_determinism_and_fields():
    env = make_env(N=3)
    table = optimal_table(env)
    a = simulate_sessions(env, table, n=500, seed=4)
    b = simulate_sessions(env, table, n=500, seed=4)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.depth, b.depth)
    assert np.all((a.depth >= 1) & (a.depth <= 3))
    # payoff is the stopped maximum against the outside option, net of cost
    i = 7
    tau = a.depth[i]
    best = max(env.x_b, a.x[i, :tau].max())
    assert a.payoff[i] == pytest.approx(best - env.c * tau, rel=1e-12)
    # conversion labels match the stopped argmax
    if a.J[i] == 0:
        assert a.x[i, :tau].max() <= env.x_b
    else:
        assert a.J[i] == int(np.argmax(a.x[i, :tau])) + 1


def test_random_order_is_dominated():
    env = make_env(N=5, c=0.12)
    table = optimal_table(env)
    ranked = simulate_sessions(env, table, n=200_000, seed=13, order="rank")
    scrambled = simulate_sessions(env, table, n=200_000, seed=13, order="random")
    se = np.sqrt(ranked.payoff.var() / len(ranked)
                 + scrambled.payoff.var() / len(scrambled))
    assert ranked.payoff.mean() > scrambled.payoff.mean() - 3 * se


def test_position_propensity_decreasing():
    env = make_env(N=6, c=0.1)
    dist = depth_distribution(env, optimal_table(env))
    prop = position_propensity(dist)
    assert prop[0] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(prop) <= 1e-12)


def test_myopic_vs_optimal_depth_ordering():
    # the optimal rule continues at least as often, so depth is larger
    env = make_env(N=5, c=0.15, v0=2.0)
    d_opt = depth_distribution(env, optimal_table(env)).expected_depth()
    d_myo = depth_distribution(env, myopic_table(env)).expected_depth()
    assert d_opt >= d_myo - 1e-9


def test_fast_push_matches_dense_oracle():
    rng = np.random.default_rng(2024)
    for k in range(10):
        env = random_interior_env(rng, int(rng.integers(2, 21)))
        cells = (201, 1001)[k % 2]
        table = optimal_table(env)
        dist = depth_distribution(env, table, cells=cells)
        pmf, grids, masses = dense_recursion(env, table, cells)
        assert 0.5 * np.abs(dist.pmf - pmf).sum() <= 1e-13
        assert np.all(dist.pmf >= 0.0)
        assert len(dist.survival_grids) == len(grids)
        for fast_grid, grid in zip(dist.survival_grids, grids):
            assert np.array_equal(fast_grid, grid)
        for fast_mass, mass in zip(dist.survival_masses, masses):
            np.testing.assert_allclose(fast_mass, mass, rtol=0.0, atol=1e-14)


def test_discretization_error_estimate():
    env = make_env(N=8, c=0.1, x_b=-0.2)
    table = optimal_table(env)
    dist = depth_distribution(env, table, cells=1001)
    fine = depth_distribution(env, table, cells=2002).pmf
    tv_fine = 0.5 * np.abs(dist.pmf - fine).sum()
    assert tv_fine / 3.0 <= dist.discretization_error <= 3.0 * tv_fine


def test_cells_must_be_an_integer_at_least_two():
    env = make_env(N=3)
    table = optimal_table(env)
    for bad in (1, 0, -5, 2.0, 100.5, True, "4001"):
        with pytest.raises(ValueError, match="cells"):
            depth_distribution(env, table, cells=bad)
    assert depth_distribution(env, table, cells=np.int64(2)).pmf.sum() == \
        pytest.approx(1.0, abs=1e-12)


# interior by about 1e-11, yet its solved r_0 lies 3.4e-10 below x_b - m0
NEAR_CORNER = dict(N=3, sigma_x2=1.0, sigma_e2=1.0, v0=1.0, x_b=0.3,
                   c=0.582160603083601)


def test_table_that_stops_before_rank_one_is_refused():
    env = EnvironmentParams(**NEAR_CORNER)
    assert 0.0 < interior_condition_slack(env) < 1e-10
    table = optimal_table(env)
    assert env.x_b - env.m0 >= table.reservation[0]
    with pytest.raises(ArithmeticError, match="the table stops before rank 1"):
        depth_distribution(env, table)
    for order in ("rank", "random"):
        with pytest.raises(ArithmeticError, match="the table stops before rank 1"):
            simulate_sessions(env, table, n=10, order=order)


def test_every_table_consumer_refuses_a_table_that_stops_before_rank_one():
    # every public function of the package that takes a table, found by
    # inspection, so that a new consumer fails here until it is gated;
    # should_stop sees no environment, and the gate and its test are exempt
    env = EnvironmentParams(**NEAR_CORNER)
    table = optimal_table(env)
    given = {"env": env, "table": table, "t": 1, "j": 0, "history": [],
             "mu": 0.0, "delta_grid": [0.0]}
    consumers = []
    for info in pkgutil.iter_modules(standout.__path__):
        module = importlib.import_module(f"standout.{info.name}")
        for name, func in inspect.getmembers(module, inspect.isfunction):
            params = inspect.signature(func).parameters
            if (func.__module__ != module.__name__ or name.startswith("_")
                    or "table" not in params
                    or name in ("should_stop", "require_first_inspection",
                                "inspects_rank_one")):
                continue
            consumers.append(name)
            required = {p: given[p] for p, v in params.items()
                        if v.default is inspect.Parameter.empty}
            with pytest.raises(ArithmeticError,
                               match="the table stops before rank 1"):
                func(**required)
    assert {"depth_distribution", "stopping_set", "diffuse_first_stop",
            "build_survival_region", "expected_depth", "lr_curve"} <= set(consumers)


def test_rank_order_draws_follow_the_stream():
    env = make_env(N=5)
    table = optimal_table(env)
    batch = simulate_sessions(env, table, n=1000, seed=8)
    z = np.random.default_rng(np.random.Philox(key=8)).standard_normal((1000, 6))
    mu = env.m0 + np.sqrt(env.v0) * z[:, 0]
    assert np.array_equal(batch.mu, mu)
    assert np.array_equal(batch.x, mu[:, None] + derive(env).alpha
                          + env.sigma_eta * z[:, 1:])


def recursive_simulate(env, table, mu_mode, n, seed, order):
    """The simulator on the recursive posterior update, step by step with
    ``np.where`` masks, from the same Philox stream: the oracle for the
    shared survival kernel."""
    N, alpha = env.N, derive(env).alpha
    rng = np.random.default_rng(np.random.Philox(key=seed))
    z = rng.standard_normal((n, N + 1))
    if mu_mode == "draw_from_prior":
        mu = env.m0 + np.sqrt(env.v0) * z[:, 0]
    else:
        mu = np.full(n, float(mu_mode))
    eta = env.sigma_eta * z[:, 1:]
    rank_at = (np.tile(np.arange(N), (n, 1)) if order == "rank"
               else np.argsort(rng.random((n, N)), axis=1))
    bias_seq = alpha[rank_at]
    x_seq = mu[:, None] + bias_seq + eta
    v = np.array([posterior_variance(t, env.v0, env.sigma_eta2)
                  for t in range(N + 1)])
    m, M = np.full(n, env.m0), np.full(n, env.x_b)
    depth = np.full(n, N, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    for t in range(1, N + 1):
        x_t = x_seq[:, t - 1]
        m_new = (v[t] / v[t - 1]) * m + (v[t] / env.sigma_eta2) * (x_t - bias_seq[:, t - 1])
        m = np.where(active, m_new, m)
        M = np.where(active, np.maximum(M, x_t), M)
        stop_now = active & (M - m >= table.reservation[t]) if t < N else active
        depth[stop_now] = t
        active &= ~stop_now
    x_rank = np.empty((n, N))
    x_rank[np.arange(n)[:, None], rank_at] = x_seq
    steps = np.arange(1, N + 1)[None, :]
    cand = np.where(steps <= depth[:, None], x_seq, -np.inf)
    best_step = np.argmax(cand, axis=1)
    best_val = cand[np.arange(n), best_step]
    J = np.where(best_val > env.x_b, rank_at[np.arange(n), best_step] + 1, 0)
    payoff = np.maximum(env.x_b, best_val) - env.c * depth
    return mu, x_rank, depth, J, payoff


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 13])
@pytest.mark.parametrize("order", ["rank", "random"])
def test_simulator_matches_recursive_update_oracle(N, order):
    env = random_interior_env(np.random.default_rng(300 + N), N)
    table = optimal_table(env)
    for seed, mu_mode in ((N, "draw_from_prior"), (N + 50, env.m0 + 0.3)):
        batch = simulate_sessions(env, table, mu_mode=mu_mode, n=40_000,
                                  seed=seed, order=order)
        ref = recursive_simulate(env, table, mu_mode, 40_000, seed, order)
        for got, want in zip((batch.mu, batch.x, batch.depth, batch.J,
                              batch.payoff), ref):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def fresh_simulate(env, table, mu_mode, n, seed, order):
    """The simulator with a fresh array for every intermediate: eta, the
    shifted means, the relevances and the masked candidates of the
    terminal choice.  The reference for the in-buffer simulator."""
    N, alpha = env.N, derive(env).alpha
    sched = schedule(env)
    rng = np.random.default_rng(np.random.Philox(key=seed))
    z = rng.standard_normal((n, N + 1))
    if mu_mode == "draw_from_prior":
        mu = env.m0 + np.sqrt(env.v0) * z[:, 0]
    else:
        mu = np.full(n, float(mu_mode))
    eta = env.sigma_eta * z[:, 1:]
    if order == "rank":
        rank_at, bias_seq, offsets = np.tile(np.arange(N), (n, 1)), alpha, None
    else:
        rank_at = np.argsort(rng.random((n, N)), axis=1)
        bias_seq = alpha[rank_at]
        offsets = (sched.v / env.v0) * env.m0 - sched.gamma * np.cumsum(
            np.column_stack((np.zeros(n), bias_seq)), axis=1)
    x_seq = mu[:, None] + bias_seq + eta
    depth = survival(sched, table.reservation, env.x_b, x_seq[:, :N - 1],
                     offsets)[0].astype(np.int64)
    x_rank = np.empty((n, N))
    x_rank[np.arange(n)[:, None], rank_at] = x_seq
    cand = np.where(np.arange(1, N + 1) <= depth[:, None], x_seq, -np.inf)
    best_step = np.argmax(cand, axis=1)
    best_val = cand[np.arange(n), best_step]
    J = np.where(best_val > env.x_b, rank_at[np.arange(n), best_step] + 1, 0)
    payoff = np.maximum(env.x_b, best_val) - env.c * depth
    return mu, x_rank, depth, J, payoff


@pytest.mark.parametrize("N", [1, 2, 3, 8, 20])
@pytest.mark.parametrize("order", ["rank", "random"])
def test_simulator_matches_fresh_array_reference(N, order):
    env = random_interior_env(np.random.default_rng(700 + N), N)
    table = optimal_table(env)
    for seed, mu_mode in ((N, "draw_from_prior"), (N + 90, env.m0 - 0.2)):
        # 10_000 rows: two full blocks of the in-buffer addition and a short one
        batch = simulate_sessions(env, table, mu_mode=mu_mode, n=10_000,
                                  seed=seed, order=order)
        ref = fresh_simulate(env, table, mu_mode, 10_000, seed, order)
        for got, want in zip((batch.mu, batch.x, batch.depth, batch.J,
                              batch.payoff), ref):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def simulation_peak(N, n, order):
    """tracemalloc peak of one ``simulate_sessions`` call of ``n`` sessions."""
    env = random_interior_env(np.random.default_rng(800 + N), N)
    table = optimal_table(env)
    simulate_sessions(env, table, n=10, seed=1, order=order)  # cache the schedule
    tracemalloc.start()
    try:
        batch = simulate_sessions(env, table, n=n, seed=2, order=order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(batch) == n
    return peak


@pytest.mark.parametrize("N", [3, 20])
def test_simulator_allocates_little_beyond_its_draw_buffer(N):
    n = 50_000
    # the (n, N + 1) draws plus twelve (n,) float arrays
    assert simulation_peak(N, n, "rank") <= 8 * n * (N + 1 + 12)


@pytest.mark.parametrize("N", [3, 20])
def test_random_order_simulator_allocates_four_draw_buffers(N):
    n = 50_000
    # the draws, the ranks in inspection order, their shifts and the
    # offsets, each about (n, N), plus ten (n,) float arrays
    assert simulation_peak(N, n, "random") <= 8 * n * (4 * N + 10)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.0, True])
def test_simulator_refuses_a_seed_outside_the_rule(seed):
    env = make_env()
    with pytest.raises(ValueError, match=re.escape("seed must lie in [0, 2**64)")):
        simulate_sessions(env, optimal_table(env), n=10, seed=seed)


def test_simulator_takes_the_largest_seed():
    env = make_env()
    batch = simulate_sessions(env, optimal_table(env), n=10, seed=2**64 - 1)
    assert len(batch) == 10


@pytest.mark.parametrize("call, message", [
    (lambda env, table: lead_kernel_density(0.0, 0.5, 0, env),
     "draw index must be an integer in 1..4, got 0"),
    (lambda env, table: simulate_sessions(env, table, n=100_000, order="spiral"),
     "order must be 'rank' or 'random'"),
    (lambda env, table: lead_kernel_cdf(0.0, 0.5, 0, env),
     "draw index must be an integer in 1..4, got 0"),
    (lambda env, table: lead_kernel_cdf(0.0, 0.5, 5, env),
     "draw index must be an integer in 1..4, got 5"),
    (lambda env, table: lead_kernel_density(0.0, 0.5, 5, env),
     "draw index must be an integer in 1..4, got 5"),
    (lambda env, table: stop_tails(schedule(env), table.reservation, 0, 0.0, 0.0),
     "draw index must be an integer in 1..4, got 0"),
    (lambda env, table: stop_tails(schedule(env), table.reservation, 5, 0.0, 0.0),
     "draw index must be an integer in 1..4, got 5"),
], ids=["kernel_at_t_0", "order_spiral", "cdf_at_t_0", "cdf_past_N",
        "kernel_past_N", "tails_at_t_0", "tails_past_N"])
def test_bad_epoch_or_order_is_refused_before_any_draw(call, message):
    env = make_env()
    table = optimal_table(env)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(env, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the (n, N + 1) draw buffer would be 4 MB
