"""Short-run versus long-run depth analysis of a uniform relevance shift.

SR(delta) holds the user's policy at the old prior while the true page
mean moves; LR(delta) is computed through the translation identity by
shifting the outside option instead.  For N = 2 everything is closed
form through the first-stop continuation interval; general N falls back
to Monte Carlo with common random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import policy as _policy
from .belief import schedule
from .depthlaw import conditional_depth_pmf_n2, continuation_n2, simulate_sessions
from .environment import EnvironmentParams, require_count
from .gaussmath import std_normal_pdf
from .policy import (PolicyTable, inspects_rank_one, policy_table,
                     require_first_inspection)
optimal_table = _policy.optimal_table  # bench/tracer.py wraps the name here


@dataclass(frozen=True)
class ABReport:
    delta_grid: np.ndarray
    sr: np.ndarray
    lr: np.ndarray
    lr_corner: np.ndarray   # True where the shifted environment hits the corner
    sr_prime_0: float
    baseline: float


def expected_depth(env: EnvironmentParams, table: PolicyTable, mu: float,
                   method: str = "closed_form_n2", n: int = 1_000_000,
                   seed: int = 0) -> float:
    """Conditional-on-mu expected depth under the policy built from env."""
    require_first_inspection(env, table)
    if method == "closed_form_n2":
        pmf = conditional_depth_pmf_n2(env, table, mu)
        return float(pmf[1] + 2.0 * pmf[2])
    if method == "monte_carlo":
        batch = simulate_sessions(env, table, mu_mode=mu, n=n, seed=seed)
        return float(batch.depth.mean())
    raise ValueError(f"unknown method {method!r}")


def sr_curve(env: EnvironmentParams, table: PolicyTable, delta_grid,
             method: str = "closed_form_n2", n: int = 1_000_000,
             seed: int = 0) -> np.ndarray:
    """SR(delta): true mean m0 + delta, policy fixed at the prior m0."""
    return np.array([
        expected_depth(env, table, env.m0 + float(d), method, n=n, seed=seed)
        for d in delta_grid])


def lr_curve(env: EnvironmentParams, table: PolicyTable, delta_grid,
             method: str = "closed_form_n2", n: int = 1_000_000, seed: int = 0):
    """LR(delta) via the translation identity: outside option x_b - delta.

    Grid points where the shifted environment violates the interior
    condition, or where the table stops before rank 1 there, are the
    no-inspection corner; they are flagged and reported as depth 0 rather
    than rejected.  Tables read neither x_b nor m0, so ``table``, built
    from env, serves every shift; a table that stops before rank 1 at env
    itself is refused with ArithmeticError.
    """
    require_first_inspection(env, table)
    out = np.empty(len(delta_grid))
    corner = np.zeros(len(delta_grid), dtype=bool)
    for k, d in enumerate(delta_grid):
        env_d = replace(env, x_b=env.x_b - float(d))
        corner[k] = not inspects_rank_one(env_d, table)
        out[k] = 0.0 if corner[k] else expected_depth(
            env_d, table, env.m0, method, n=n, seed=seed)
    return out, corner


def sr_derivative_at_zero(env: EnvironmentParams, table: PolicyTable,
                          method: str = "closed_form_n2", n: int = 1_000_000,
                          seed: int = 0) -> float:
    """SR'(0), the score-function derivative at the baseline.

    General N: average of sum_{i < tau} (tau - i) * eta_i / sigma_eta^2
    over sessions at mu = m0.  For N = 2 only the tau = 2 event
    contributes, giving the closed form
    [phi(d-) - phi(d+)] / sigma_eta with d+- the standardized
    continuation endpoints.
    """
    require_first_inspection(env, table)
    if method == "closed_form_n2":
        ends = continuation_n2(env, table, env.m0)
        return 0.0 if ends is None else float(
            (std_normal_pdf(ends[0]) - std_normal_pdf(ends[1])) / env.sigma_eta)
    if method == "score_mc":
        batch = simulate_sessions(env, table, mu_mode=env.m0, n=n, seed=seed)
        alpha = schedule(env).alpha
        eta = batch.x - env.m0 - alpha[None, :]
        i = np.arange(1, env.N + 1)[None, :]
        tau = batch.depth[:, None]
        w = np.where(i < tau, tau - i, 0.0)
        return float(np.mean(np.sum(w * eta, axis=1)) / env.sigma_eta2)
    raise ValueError(f"unknown method {method!r}")


def ab_report(env: EnvironmentParams, delta_grid, method: str = "closed_form_n2",
              n: int = 1_000_000, seed: int = 0, policy: str = "optimal") -> ABReport:
    require_count("n", n)  # under every method, though the closed form draws none
    table = policy_table(env, policy)
    delta_grid = np.asarray(delta_grid, dtype=np.float64)
    sr = sr_curve(env, table, delta_grid, method, n=n, seed=seed)
    lr, corner = lr_curve(env, table, delta_grid, method, n=n, seed=seed)
    sp0 = sr_derivative_at_zero(
        env, table, "closed_form_n2" if env.N == 2 else "score_mc", n=n, seed=seed)
    baseline = expected_depth(env, table, env.m0, method, n=n, seed=seed)
    return ABReport(delta_grid=delta_grid, sr=sr, lr=lr, lr_corner=corner,
                    sr_prime_0=sp0, baseline=baseline)
