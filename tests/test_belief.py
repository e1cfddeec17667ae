"""Posterior recursion: variance schedule, martingale mean, equivariance."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from standout.belief import (Schedule, bayes_weight, diffuse_posterior_mean,
                             initial_state, posterior_variance, predictive,
                             schedule, survival, update)
from standout.environment import (EnvironmentParams, derive,
                                  interior_condition_slack)


def make_env(**kw):
    defaults = dict(N=5, sigma_x2=1.0, sigma_e2=1.0, v0=1.5, m0=0.3, x_b=-0.2,
                    c=0.08)
    defaults.update(kw)
    return EnvironmentParams(**defaults)


def test_variance_schedule():
    env = make_env()
    state = initial_state(env)
    for t in range(1, env.N + 1):
        state = update(state, 0.1 * t, env)
        assert state.v == pytest.approx(
            1.0 / (1.0 / env.v0 + t / env.sigma_eta2), rel=1e-14)
    with pytest.raises(ValueError):
        update(state, 0.0, env)


def test_bayes_weight_definition():
    env = make_env()
    for t in range(1, env.N + 1):
        v_prev = posterior_variance(t - 1, env.v0, env.sigma_eta2)
        assert bayes_weight(t, env) == pytest.approx(
            v_prev / (v_prev + env.sigma_eta2), rel=1e-14)
    with pytest.raises(ValueError):
        bayes_weight(0, env)


def test_posterior_mean_is_martingale():
    # updating at the predictive mean leaves the posterior mean unchanged,
    # and simulated one-step means average back to the prior mean
    env = make_env()
    state = initial_state(env)
    mean, var = predictive(state, env)
    assert update(state, mean, env).m == pytest.approx(state.m, abs=1e-14)

    rng = np.random.default_rng(3)
    draws = mean + np.sqrt(var) * rng.standard_normal(400_000)
    ms = np.array([update(state, x, env).m for x in draws[:2000]])
    omega = bayes_weight(1, env)
    # affine in x, so use the closed form on the full sample
    ms_all = state.m + omega * (draws - mean)
    se = ms_all.std() / np.sqrt(len(draws))
    assert abs(ms_all.mean() - state.m) < 4 * se
    assert np.allclose(ms, ms_all[:2000], atol=1e-12)


def test_update_matches_convex_combination():
    env = make_env()
    state = initial_state(env)
    alpha = derive(env).alpha
    x = 0.77
    new = update(state, x, env)
    omega = bayes_weight(1, env)
    assert new.m == pytest.approx(
        (1 - omega) * state.m + omega * (x - alpha[0]), rel=1e-13)
    assert new.M == max(state.M, x)


@given(st.floats(min_value=-5, max_value=5),
       st.lists(st.floats(min_value=-4, max_value=4), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_translation_equivariance(delta, xs):
    env = make_env()
    env_shift = make_env(m0=env.m0 + delta, x_b=env.x_b + delta)
    a, b = initial_state(env), initial_state(env_shift)
    for x in xs:
        a = update(a, x, env)
        b = update(b, x + delta, env_shift)
        assert b.m == pytest.approx(a.m + delta, abs=1e-9)
        assert b.M == pytest.approx(a.M + delta, abs=1e-9)
        assert b.v == pytest.approx(a.v, abs=1e-12)


def test_predictive_moments():
    env = make_env()
    state = update(initial_state(env), 0.4, env)
    mean, var = predictive(state, env)
    assert mean == pytest.approx(state.m + derive(env).alpha[1], rel=1e-13)
    assert var == pytest.approx(state.v + env.sigma_eta2, rel=1e-13)


def test_diffuse_limit():
    env_tight = make_env()
    env_diffuse = make_env(v0=1e12)
    xs = [0.3, -0.8, 1.2]
    state = initial_state(env_diffuse)
    for x in xs:
        state = update(state, x, env_diffuse)
    pairs = [(r + 1, x) for r, x in enumerate(xs)]
    assert state.m == pytest.approx(
        diffuse_posterior_mean(pairs, env_tight), abs=1e-8)
    with pytest.raises(ValueError):
        diffuse_posterior_mean([], env_tight)


@pytest.mark.parametrize("rank", [0, 6, 2.0, True])
def test_diffuse_posterior_mean_refuses_a_rank_outside_the_list(rank):
    message = f"rank must be an integer in 1..5, got {rank!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        diffuse_posterior_mean([(1, 0.3), (rank, 1.0)], make_env())


def random_interior_envs(seed, count):
    rng = np.random.default_rng(seed)
    envs = []
    while len(envs) < count:
        env = EnvironmentParams(
            N=int(rng.integers(1, 21)), sigma_x2=rng.uniform(0.2, 3.0),
            sigma_e2=rng.uniform(0.2, 3.0), v0=rng.uniform(0.02, 3.0),
            m0=rng.uniform(-1.0, 1.0), x_b=rng.uniform(-1.5, 0.5),
            c=rng.uniform(0.005, 0.2),
            quantile_rule=("midpoint", "blom")[int(rng.integers(2))])
        if interior_condition_slack(env) > 0.0:
            envs.append(env)
    return envs


@pytest.mark.parametrize("env", random_interior_envs(31, 40))
def test_schedule_matches_scalar_formulas_bit_for_bit(env):
    sched = schedule(env)
    s2 = env.sigma_eta2
    alpha = derive(env).alpha
    assert np.array_equal(sched.alpha, alpha)
    for t in range(env.N + 1):
        v_t = posterior_variance(t, env.v0, s2)
        assert sched.v[t] == v_t
        assert sched.gamma[t] == v_t / s2
        assert sched.a[t] == ((v_t / env.v0) * env.m0
                              - (v_t / s2) * float(np.sum(alpha[:t])))
    for k in range(env.N):
        v_k = posterior_variance(k, env.v0, s2)
        assert sched.omega[k] == bayes_weight(k + 1, env)
        assert sched.sd[k] == math.sqrt(v_k + s2)
        assert sched.step(k + 1) == (sched.omega[k], sched.sd[k], alpha[k])


def test_schedule_is_cached_and_read_only():
    env = make_env()
    sched = schedule(env)
    assert schedule(make_env()) is sched
    for name in ("v", "gamma", "a", "alpha", "omega", "sd"):
        with pytest.raises(ValueError):
            getattr(sched, name)[0] = 0.0


def test_survival_kernel_stops_on_ties():
    # a = gamma = 0 makes the epoch-s threshold exactly r_s
    zero = np.zeros(4)
    sched = Schedule(v=zero, gamma=zero, a=zero, alpha=zero, omega=zero, sd=zero)
    r = np.array([9.0, 0.5, 0.25, 9.0])
    X = np.array([[0.5, -1.0, -1.0],                      # ties r_1
                  [np.nextafter(0.5, 0.0), -1.0, -1.0],   # then above r_2
                  [-1.0, 0.25, -1.0],                     # ties r_2
                  [-1.0, np.nextafter(0.25, 0.0), -1.0]])
    depth, csum, runmax = survival(sched, r, 0.0, X)
    assert depth.tolist() == [1, 2, 2, 4]
    assert np.array_equal(csum, X.sum(axis=1))
    assert np.array_equal(runmax, X.max(axis=1))
    per_session = survival(sched, r, 0.0, X, a=np.zeros((4, 4)))[0]
    assert np.array_equal(per_session, depth)
    # the outside option ties r_2 as well
    low = np.full((1, 3), -1.0)
    assert survival(sched, r, 0.25, low)[0].tolist() == [2]
    assert survival(sched, r, np.nextafter(0.25, 0.0), low)[0].tolist() == [4]


def fresh_survival(sched, reservation, x_b, X, a=None):
    """The survival walk with a fresh array for every intermediate: the
    reference for the in-place kernel."""
    if a is None:
        a = sched.a
    T = X.shape[-1]
    alive = np.ones(X.shape[:-1], dtype=bool)
    depth = np.ones(X.shape[:-1], dtype=np.min_scalar_type(T + 1))
    csum = runmax = None
    for s in range(1, T + 1):
        x_s = X[..., s - 1]
        csum = x_s if s == 1 else csum + x_s
        runmax = x_s if s == 1 else np.maximum(runmax, x_s)
        thr = a[..., s] + sched.gamma[s] * csum + float(reservation[s])
        alive &= np.maximum(runmax, x_b) < thr
        depth += alive
    return depth, csum, runmax


@pytest.mark.parametrize("T", [1, 2, 4])
@pytest.mark.parametrize("per_session", [False, True])
def test_survival_reads_X_only_and_matches_fresh_walk(T, per_session):
    env = make_env()
    sched = schedule(env)
    r = np.linspace(0.9, 0.2, env.N + 1)
    rng = np.random.default_rng(40 + T)
    X = rng.normal(0.2, 0.8, size=(300, 7, T))
    a = rng.normal(0.0, 0.1, size=(300, 7, T + 1)) if per_session else None
    kept = X.copy()
    X.flags.writeable = False
    got = survival(sched, r, env.x_b, X, a)
    want = fresh_survival(sched, r, env.x_b, kept, a)
    assert np.array_equal(X, kept)
    assert got[0].dtype == want[0].dtype
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    # every depth 1..T+1 occurs, so every epoch's comparison is exercised
    assert set(np.unique(got[0])) == set(range(1, T + 2))


def test_best_inspected_masks_depth_and_takes_first_tie():
    from standout.belief import best_inspected

    X = np.array([[0.5, 0.5, 2.0, -1.0],   # tie at steps 0, 1; 2.0 not seen
                  [-3.0, -1.0, -1.0, 9.0],  # tie at steps 1, 2
                  [1.0, 4.0, 4.0, 4.0],     # all seen; first of three 4.0
                  [-2.0, 7.0, 8.0, 9.0]])   # depth 1: only the first draw
    depth = np.array([2, 3, 4, 1], dtype=np.uint8)
    step, value = best_inspected(X, depth)
    assert step.tolist() == [0, 1, 1, 0]
    assert value.tolist() == [0.5, -1.0, 4.0, -2.0]


@pytest.mark.parametrize("T", [1, 2, 5, 20])
def test_best_inspected_matches_masked_argmax(T):
    from standout.belief import best_inspected

    rng = np.random.default_rng(60 + T)
    for _ in range(20):
        # quantized draws, zeros of both signs: ties are common
        X = rng.integers(-3, 4, size=(500, T)) * rng.choice([-0.5, 0.5], (500, T))
        depth = rng.integers(1, T + 1, size=500).astype(np.uint8)
        cand = np.where(np.arange(1, T + 1) <= depth[:, None], X, -np.inf)
        want_step = np.argmax(cand, axis=1)
        want_value = cand[np.arange(500), want_step]
        step, value = best_inspected(X, depth)
        assert step.dtype == np.intp and np.array_equal(step, want_step)
        assert value.dtype == X.dtype
        assert np.array_equal(value.view(np.int64), want_value.view(np.int64))


@pytest.mark.parametrize("step, message", [
    (predictive, "no next rank beyond the horizon"),
    (lambda state, env: update(state, 0.0, env), "cannot update past the horizon"),
], ids=["predictive", "update"])
def test_no_step_past_the_horizon(step, message):
    env = make_env(N=2)
    state = update(update(initial_state(env), 0.1, env), -0.4, env)
    with pytest.raises(ValueError, match=f"^{message}$"):
        step(state, env)
