"""Survival polyhedra against the simulator, and conversion tails."""

import math

import numpy as np
import pytest

from standout.depthlaw import simulate_sessions
from standout.environment import EnvironmentParams
from standout.gaussmath import std_normal_cdf
from standout.policy import myopic_table, optimal_table
from standout.survival import (build_survival_region, conversion_region,
                               conversion_set, membership, membership_batch,
                               stopping_set)


def make_env(**kw):
    defaults = dict(N=5, sigma_x2=1.0, sigma_e2=1.0, v0=1.0, c=0.08, x_b=-0.3)
    defaults.update(kw)
    return EnvironmentParams(**defaults)


def pentagon_env():
    # three-item list, unit posterior pieces, explicit shifts
    return EnvironmentParams(N=3, sigma_x2=2.0, sigma_e2=2.0, v0=1.0, m0=0.0,
                             x_b=-0.5, c=0.15, alpha_override=(0.3, 0.1, 0.0))


def test_row_counts():
    env = make_env()
    table = optimal_table(env)
    for t in range(1, env.N + 1):
        region = build_survival_region(t, env, table)
        assert len(region.rows) == t * (t + 1) // 2 - 1


def test_membership_matches_simulator():
    env = make_env()
    table = optimal_table(env)
    batch = simulate_sessions(env, table, n=20_000, seed=2)
    for t in range(2, env.N + 1):
        region = build_survival_region(t, env, table)
        inside = membership_batch(region, batch.x[:, :t - 1])
        assert np.array_equal(inside, batch.depth >= t)


def test_membership_scalar_agrees_with_batch():
    env = make_env(N=3)
    table = optimal_table(env)
    region = build_survival_region(3, env, table)
    rng = np.random.default_rng(0)
    paths = rng.normal(size=(200, 2))
    flags = membership_batch(region, paths)
    for path, flag in zip(paths, flags):
        assert membership(region, path) == flag
    with pytest.raises(ValueError):
        membership(region, [0.0])


def test_pentagon_bounded_and_nonempty():
    env = pentagon_env()
    region = build_survival_region(3, env, myopic_table(env))
    assert len(region.rows) == 5
    rng = np.random.default_rng(1)
    pts = rng.uniform(-20, 20, size=(400_000, 2))
    inside = membership_batch(region, pts)
    assert inside.sum() > 0
    hull = pts[inside]
    assert np.abs(hull).max() < 10.0  # bounded well inside the sampling box


def test_stopping_set_partitions_the_line():
    env = make_env(N=4, c=0.03)
    table = optimal_table(env)
    history = [-0.4, 0.0]
    region = build_survival_region(3, env, table)
    assert membership(region, history)
    sset = stopping_set(history, env, table)
    assert sset.kind == "two_tails"
    # the next draw stops iff it leaves the open middle interval
    for x in (sset.lower - 0.2, sset.upper + 0.2):
        assert sset.contains(x)
    mid = 0.5 * (sset.lower + sset.upper)
    assert not sset.contains(mid)


def test_stopping_set_horizon_is_everything():
    env = make_env(N=3)
    table = optimal_table(env)
    history = [-0.1, 0.0]
    sset = stopping_set(history, env, table)
    assert sset.kind == "all_reals"
    assert sset.contains(-50.0) and sset.contains(50.0)


def test_stopping_set_rejects_dead_history():
    env = make_env(N=4)
    table = optimal_table(env)
    with pytest.raises(ValueError):
        stopping_set([9.0, 0.0], env, table)  # a huge first draw stops


def test_stopping_set_matches_simulator_condition():
    env = make_env(N=4)
    table = optimal_table(env)
    batch = simulate_sessions(env, table, n=20_000, seed=6)
    surviving = batch.x[batch.depth >= 3]
    for x in surviving[:300]:
        sset = stopping_set(list(x[:2]), env, table)
        stopped_here = bool(np.any(batch.depth == 3))  # sanity only
        # the third draw stops exactly when it falls in the stopping set
        region4 = build_survival_region(4, env, table)
        continues = membership(region4, x[:3])
        assert sset.contains(float(x[2])) == (not continues)
    assert stopped_here


def test_conversion_region_row_counts():
    env = make_env(N=5)
    table = optimal_table(env)
    base = build_survival_region(4, env, table)
    assert len(conversion_region(4, 4, env, table).rows) == len(base.rows)
    assert len(conversion_region(4, 0, env, table).rows) == len(base.rows) + 3
    assert len(conversion_region(4, 2, env, table).rows) == len(base.rows) + 3
    with pytest.raises(ValueError):
        conversion_region(4, 5, env, table)


def test_conversion_sets_partition_the_stopping_mass():
    env = make_env(N=4)
    table = optimal_table(env)
    history = [0.2, -0.1]  # strict max 0.2 beats x_b = -0.3
    sset = stopping_set(history, env, table)
    take_new = conversion_set(history, 3, env, table)
    keep_old = conversion_set(history, 1, env, table)

    def gauss_mass(intervals, mean=0.1, sd=1.3):
        total = 0.0
        for lo, hi in intervals:
            total += (std_normal_cdf((hi - mean) / sd)
                      - std_normal_cdf((lo - mean) / sd))
        return total

    whole = gauss_mass(sset.intervals)
    split = gauss_mass(take_new.intervals) + gauss_mass(keep_old.intervals)
    assert split == pytest.approx(whole, abs=1e-12)
    # the cut point between the two labels is the running best candidate
    assert take_new.intervals[0][0] >= max(env.x_b, max(history))


def test_conversion_set_rejects_inconsistent_label():
    env = make_env(N=4)
    table = optimal_table(env)
    history = [0.2, -0.5]
    with pytest.raises(ValueError):
        conversion_set(history, 2, env, table)  # rank 2 is not the max
    with pytest.raises(ValueError):
        conversion_set(history, 0, env, table)  # rank 1 beats x_b
    env = make_env(N=4, x_b=0.5)
    table = optimal_table(env)
    history = [0.4, 0.45]  # survives, but rank 1 does not beat x_b
    stopping_set(history, env, table)
    with pytest.raises(ValueError, match="^history is inconsistent with the "
                                         "requested conversion index$"):
        conversion_set(history, 1, env, table)


def test_membership_batch_at_depth_one_keeps_every_path():
    env = make_env()
    region = build_survival_region(1, env, optimal_table(env))
    assert region.rows == []
    kept = membership_batch(region, np.empty((4, 0)))
    assert kept.dtype == bool and kept.tolist() == [True] * 4


def test_outside_conversion_when_everything_misses():
    env = make_env(N=4, x_b=0.5)
    table = optimal_table(env)
    history = [0.4, 0.45]  # both below x_b
    sset = stopping_set(history, env, table)
    below = conversion_set(history, 0, env, table)
    for lo, hi in below.intervals:
        assert hi <= env.x_b + 1e-12
    assert below.intervals  # nonempty tail below the outside option
    assert sset.kind in ("two_tails", "all_reals")


@pytest.mark.parametrize("call, message", [
    (lambda env, table: build_survival_region(0, env, table),
     r"t must be an integer in 1\.\.3, got 0"),
    (lambda env, table: build_survival_region(env.N + 1, env, table),
     r"t must be an integer in 1\.\.3, got 4"),
    (lambda env, table: stopping_set([0.0] * env.N, env, table),
     r"t must be an integer in 1\.\.3, got 4"),
    (lambda env, table: conversion_set([0.2], 3, env, table),
     r"j must be an integer in 0\.\.2, got 3"),
    (lambda env, table: conversion_region(2, 1.5, env, table),
     r"j must be an integer in 0\.\.2, got 1\.5"),
    (lambda env, table: conversion_region(2, "1", env, table),
     r"j must be an integer in 0\.\.2, got '1'"),
    (lambda env, table: conversion_region(2, True, env, table),
     r"j must be an integer in 0\.\.2, got True"),
], ids=["region_at_t_0", "region_at_t_N+1", "stopping_set_past_N", "conversion_past_t",
        "label_1.5", "label_str", "label_bool"])
def test_rank_outside_the_list_is_refused(call, message):
    env = make_env(N=3)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(env, optimal_table(env))
