"""Closed-form analysis of the first inspection.

Classifies an environment into the trust regime (the user stops at rank 1
for every realization) or the explore regime (a continuation interval
(s1-, s1+) of mediocre first draws), with the exact one-inspection
probability, its diffuse-prior limit, and the reliability scan behind the
winner's-curse starvation result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import policy as _policy
from .belief import schedule, stop_tails
from .environment import (EnvironmentParams, interior_condition_slack,
                          reliability_path_env)
from .gaussmath import std_normal_cdf
from .policy import (PolicyTable, inspects_rank_one, policy_table,
                     require_first_inspection, require_policy)
optimal_table = _policy.optimal_table  # bench/tracer.py wraps the name here


@dataclass(frozen=True)
class FirstStopReport:
    regime: str               # "trust" | "explore"
    s1_minus: float           # -inf in the trust regime
    s1_plus: float            # +inf in the trust regime
    p_tau1: float
    p_cut_losses: float
    p_commit: float


def classify_first_stop(env: EnvironmentParams, table: PolicyTable) -> FirstStopReport:
    """Trust/explore classification with the exact P(tau = 1).

    (s1-, s1+) are the t = 1 tails of ``stop_tails``; trust when no draw
    lies strictly between them (at N = 1 the horizon stops every draw).
    In the explore regime the probability splits into the cut-losses mass
    below s1- and the commit mass above s1+, both under the predictive law
    N(m0 + alpha_1, v0 + sigma_eta^2) of the first draw.  A table that
    stops before rank 1 is refused with ArithmeticError.
    """
    require_first_inspection(env, table)
    sched = schedule(env)
    s_minus, s_plus = map(float, stop_tails(sched, table.reservation, 1,
                                            env.m0, env.x_b))
    if not s_minus < s_plus:
        return FirstStopReport("trust", -math.inf, math.inf, 1.0, 0.0, 0.0)
    sd = math.sqrt(env.v0 + env.sigma_eta2)
    mean1 = env.m0 + sched.alpha[0]
    p_cut = float(std_normal_cdf((s_minus - mean1) / sd))
    p_commit = float(std_normal_cdf((mean1 - s_plus) / sd))
    return FirstStopReport("explore", s_minus, s_plus,
                           p_cut + p_commit, p_cut, p_commit)


def diffuse_first_stop(env: EnvironmentParams, table: PolicyTable, mu: float) -> float:
    """P(tau = 1 | mu) in the diffuse-prior limit v0 -> inf.

    The commit branch dies (s1+ -> inf); only the cut-losses branch
    survives, unless the trust condition alpha_1 - alpha_2 >= kappa*_1
    already forces a stop.  A table that stops before rank 1 is refused
    with ArithmeticError.
    """
    require_first_inspection(env, table)
    if env.N < 2:
        return 1.0
    a = schedule(env).alpha
    kappa1 = float(table.kappa[1])
    if a[0] - a[1] >= kappa1:
        return 1.0
    return float(std_normal_cdf((env.x_b - mu - a[1] - kappa1) / env.sigma_eta))


def winners_curse_scan(base: EnvironmentParams, rho_grid, policy: str = "optimal"):
    """Rebuild the environment along the reliability path and classify.

    Returns a list of dicts (rho, interior, trust_holds, p_tau1) plus the
    smallest grid rho at which the trust condition holds; rho values where
    the interior condition fails, or whose table stops before rank 1, are
    flagged and skipped.
    """
    require_policy(policy)
    results = []
    first_trust = None
    for rho in rho_grid:
        env = reliability_path_env(base, float(rho))
        table = policy_table(env, policy) if interior_condition_slack(env) > 0.0 else None
        if table is None or not inspects_rank_one(env, table):
            results.append({"rho": float(rho), "interior": False,
                            "trust_holds": None, "p_tau1": None})
            continue
        report = classify_first_stop(env, table)
        trust = report.regime == "trust"
        if trust and first_trust is None:
            first_trust = float(rho)
        results.append({"rho": float(rho), "interior": True,
                        "trust_holds": trust, "p_tau1": report.p_tau1})
    return results, first_trust
