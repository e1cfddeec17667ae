"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the program is drawn here from the workload
seed with numpy.  Synthetic session logs come from a short simulator of
the stopping rule that only borrows the program's policy table, so a
rewrite of the program's own session kernels cannot change an input.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from standout.environment import EnvironmentParams, interior_condition_slack
from standout.likelihood import (AffineFeatureModel, LikelihoodContext,
                                 RankerProfile, SessionRecord, UserPrimitives,
                                 calibrate)

# Generating model of the synthetic logs (the recovery test's truth).
BETA_TRUE = (0.3, 0.6, -0.4)
C_TRUE = 0.1
XB_TRUE = 0.1

# Stream tags, so each input of a run has its own generator.
TAG_LOG_FEATURES, TAG_LOG_NOISE, TAG_CLI_ENV = 1, 2, 3


def random_env(rng, N: int) -> EnvironmentParams:
    """An interior environment with primitives drawn around unit scale.

    The interior slack is kept above 0.02, away from the no-inspection
    corner.  Values are rounded to four decimals so that configs and the
    committed reference read back exactly.
    """
    while True:
        env = EnvironmentParams(
            N=N,
            sigma_x2=round(float(rng.uniform(0.5, 1.5)), 4),
            sigma_e2=round(float(rng.uniform(0.5, 1.5)), 4),
            v0=round(float(rng.uniform(0.5, 1.5)), 4),
            c=round(float(rng.uniform(0.05, 0.15)), 4),
            x_b=round(float(rng.uniform(-0.8, 0.2)), 4))
        if interior_condition_slack(env) > 0.02:
            return env


class SyntheticLog:
    """Sessions drawn from the likelihood's data model.

    Features are standard normal, ``(n, N, 2)``; relevances are the
    affine feature means under BETA_TRUE plus unit noise; the user (cost
    C_TRUE, outside option XB_TRUE, unit-variance ranker) walks the list
    under the program's optimal policy, and converts on the best
    inspected item when it beats the outside option.
    """

    def __init__(self, N: int, n: int, seed: int):
        self.profile = RankerProfile.from_env(
            EnvironmentParams(N=N, sigma_x2=1.0, sigma_e2=1.0, v0=1.0))
        self.prims = UserPrimitives(c=C_TRUE, x_b=XB_TRUE)
        self.W = np.random.default_rng([seed, TAG_LOG_FEATURES]).normal(size=(n, N, 2))
        model = AffineFeatureModel(BETA_TRUE)
        self.v0, self.sigma_eta2 = calibrate(
            [SessionRecord(w, 1) for w in self.W], model, self.profile)
        ctx = LikelihoodContext(self.prims, self.v0, self.sigma_eta2, self.profile,
                                n_samples=1)
        U = model.predict(self.W) - XB_TRUE
        X = U + np.random.default_rng([seed, TAG_LOG_NOISE]).standard_normal((n, N))
        self.depth, self.conversion = _walk(X, ctx.env, ctx.alpha,
                                            ctx.table.reservation)

    def records(self):
        return [SessionRecord(features=w, depth=int(t), conversion=int(j))
                for w, t, j in zip(self.W, self.depth, self.conversion)]

    def makeup(self) -> dict:
        """Session counts per (depth, conversion) group."""
        counts = Counter(zip(self.depth.tolist(), self.conversion.tolist()))
        return {f"{t},{j}": counts[(t, j)] for t, j in sorted(counts)}

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for w, t, j in zip(self.W, self.depth, self.conversion):
                fh.write(json.dumps({"features": w.tolist(), "depth": int(t),
                                     "J": int(j)}) + "\n")


def _walk(X, env, alpha, reservation):
    """Stopping depths and conversions for centered relevances ``X``.

    Posterior mean and running max are updated rank by rank; a session
    stops once the lead reaches the reservation level, or at the end of
    the list.
    """
    n, N = X.shape
    m = np.full(n, env.m0)
    prec = 1.0 / env.v0
    M = np.zeros(n)  # the outside option sits at 0 in centered units
    depth = np.full(n, N)
    active = np.ones(n, dtype=bool)
    for t in range(1, N):
        prec_new = prec + 1.0 / env.sigma_eta2
        m_new = (prec * m + (X[:, t - 1] - alpha[t - 1]) / env.sigma_eta2) / prec_new
        prec = prec_new
        m = np.where(active, m_new, m)
        M = np.where(active, np.maximum(M, X[:, t - 1]), M)
        stop = active & (M - m >= reservation[t])
        depth[stop] = t
        active &= ~stop
    inspected = np.arange(N)[None, :] < depth[:, None]
    prefix = np.where(inspected, X, -np.inf)
    best = np.argmax(prefix, axis=1)
    conversion = np.where(prefix[np.arange(n), best] > 0.0, best + 1, 0)
    return depth, conversion
