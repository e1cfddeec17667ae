"""Survival polyhedra, stopping sets, and conversion sets.

Reaching depth t certifies that the inspected path satisfies
t(t+1)/2 - 1 strict linear inequalities: at every earlier epoch s, no
candidate (outside option or inspected item) exceeded the posterior-mean
baseline lifted by the reservation gap.  The rank-t stopping set and the
conversion-consistent tails are unions of at most two intervals in the
rank-t relevance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .belief import schedule, stop_tails
from .environment import EnvironmentParams, require_count
from .policy import PolicyTable, require_first_inspection


@dataclass(frozen=True)
class LinearInequality:
    """coeffs . x < rhs over the inspected vector (x_1 .. x_{t-1})."""

    coeffs: np.ndarray
    rhs: float
    epoch: int
    candidate: str  # "outside" or "rank_j"


@dataclass(frozen=True)
class SurvivalRegion:
    t: int
    inequalities: list
    extra: list = field(default_factory=list)  # conversion restrictions

    @property
    def rows(self):
        return list(self.inequalities) + list(self.extra)


@dataclass(frozen=True)
class StoppingSet:
    """Rank-t stopping realizations as a union of at most two tails.

    ``kind`` is "all_reals" or "two_tails" with endpoints lower < upper
    (stop iff x <= lower or x >= upper).  ``intervals`` lists the set as
    closed/heuristically-open (lo, hi) pairs after any conversion cut.
    """

    kind: str
    lower: float = -math.inf
    upper: float = math.inf
    intervals: tuple = ()

    def contains(self, x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in self.intervals)


def build_survival_region(t: int, env: EnvironmentParams,
                          table: PolicyTable) -> SurvivalRegion:
    """Inequality system for the event {tau >= t} over (x_1 .. x_{t-1}).

    Epoch s contributes s+1 rows, one per candidate of the running max:
    the candidate must stay strictly below m_s + r_s, with m_s affine in
    the inspected draws.  A table that stops before rank 1 is refused
    with ArithmeticError.
    """
    require_first_inspection(env, table)
    require_count("t", t, 1, env.N)
    rows = []
    dim = t - 1
    sched = schedule(env)
    for s in range(1, t):
        gamma, a = float(sched.gamma[s]), float(sched.a[s])
        r_s = float(table.reservation[s])
        base = np.zeros(dim)
        base[:s] = -gamma
        # outside option: x_b - gamma*sum(x) < a_s + r_s
        rows.append(LinearInequality(coeffs=base.copy(),
                                     rhs=a + r_s - env.x_b,
                                     epoch=s, candidate="outside"))
        for j in range(1, s + 1):
            coeffs = base.copy()
            coeffs[j - 1] += 1.0
            rows.append(LinearInequality(coeffs=coeffs, rhs=a + r_s,
                                         epoch=s, candidate=f"rank_{j}"))
    return SurvivalRegion(t=t, inequalities=rows)


def membership(region: SurvivalRegion, x) -> bool:
    """Strict satisfaction of every row (the stop-on-tie convention)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (region.t - 1,):
        raise ValueError(f"x must have length {region.t - 1}")
    return all(float(row.coeffs @ x) < row.rhs for row in region.rows)


def membership_batch(region: SurvivalRegion, paths: np.ndarray) -> np.ndarray:
    """Vectorized membership over an (n, t-1) array of paths."""
    paths = np.asarray(paths, dtype=np.float64)
    rows = region.rows
    if not rows:
        return np.ones(len(paths), dtype=bool)
    A = np.stack([r.coeffs for r in rows])
    b = np.array([r.rhs for r in rows])
    return np.all(paths @ A.T < b[None, :], axis=1)


def stopping_set(history, env: EnvironmentParams, table: PolicyTable) -> StoppingSet:
    """Set of rank-t realizations that terminate, t = len(history) + 1.

    All of R at the horizon or in the dynamic trust regime; otherwise two
    tails with the closed-form continuation endpoints.  A table that
    stops before rank 1 is refused with ArithmeticError.
    """
    t = len(history) + 1
    if not membership(build_survival_region(t, env, table), history):
        raise ValueError("history does not survive to the requested rank")
    # belief after the history: m = a + gamma * sum(x), M = max(x_b, x)
    sched = schedule(env)
    m = sched.a[t - 1] + sched.gamma[t - 1] * sum(map(float, history))
    M = max([env.x_b, *map(float, history)])
    lower, upper = map(float, stop_tails(sched, table.reservation, t, m, M))
    if lower == math.inf:
        return StoppingSet("all_reals", intervals=((-math.inf, math.inf),))
    return StoppingSet("two_tails", lower=lower, upper=upper,
                       intervals=((-math.inf, lower), (upper, math.inf)))


def _intersect(intervals, lo, hi):
    out = []
    for a, b in intervals:
        a2, b2 = max(a, lo), min(b, hi)
        if a2 < b2:
            out.append((a2, b2))
    return tuple(out)


def conversion_region(t: int, j: int, env: EnvironmentParams,
                      table: PolicyTable) -> SurvivalRegion:
    """Restricted survival region over the history for conversion j.

    j = t leaves the region unchanged; j = 0 forces every inspected item
    below x_b; 1 <= j <= t-1 forces rank j to beat x_b and every other
    inspected item.
    """
    region = build_survival_region(t, env, table)
    require_count("j", j, 0, t)
    dim = t - 1
    extra = []
    if j == 0:
        for r in range(1, t):
            coeffs = np.zeros(dim)
            coeffs[r - 1] = 1.0
            extra.append(LinearInequality(coeffs=coeffs, rhs=env.x_b,
                                          epoch=r, candidate="conv_below_xb"))
    elif j <= t - 1:
        coeffs = np.zeros(dim)
        coeffs[j - 1] = -1.0
        extra.append(LinearInequality(coeffs=coeffs, rhs=-env.x_b,
                                      epoch=j, candidate="conv_beats_xb"))
        for r in range(1, t):
            if r == j:
                continue
            coeffs = np.zeros(dim)
            coeffs[r - 1] = 1.0
            coeffs[j - 1] -= 1.0
            extra.append(LinearInequality(coeffs=coeffs, rhs=0.0,
                                          epoch=r, candidate=f"conv_below_rank_{j}"))
    return SurvivalRegion(t=t, inequalities=region.inequalities, extra=extra)


def conversion_set(history, j: int, env: EnvironmentParams,
                   table: PolicyTable) -> StoppingSet:
    """Stopping set intersected with the conversion-consistent tail."""
    t = len(history) + 1
    base = stopping_set(history, env, table)
    if not membership(conversion_region(t, j, env, table), history):
        raise ValueError("history is inconsistent with the requested conversion index")
    lo, hi = ((max([env.x_b, *history]), math.inf) if j == t
              else (-math.inf, env.x_b) if j == 0
              else (-math.inf, float(history[j - 1])))
    return StoppingSet(base.kind, lower=base.lower, upper=base.upper,
                       intervals=_intersect(base.intervals, lo, hi))
