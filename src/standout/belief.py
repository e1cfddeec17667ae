"""Conjugate posterior dynamics over the page mean and the lead.

The posterior after t inspections is Gaussian with a deterministic
variance schedule (precisions add) and mean m_t = a_t + gamma_t * (x_1 +
... + x_t).  ``schedule`` holds those constants per environment,
``stop_tails`` is the next draw's two-tail stopping set (``tail_lines``
before the trust mask), ``survival`` walks batches of draws through the
standout rule and ``best_inspected`` is the terminal choice; the other
modules read the dynamics from here.  ``update`` folds one draw into an
immutable ``BeliefState``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .environment import EnvironmentParams, derive, require_count


@dataclass(frozen=True)
class BeliefState:
    """Posterior (m, v) on the page mean plus the running max and lead."""

    t: int
    m: float
    v: float
    M: float

    @property
    def lead(self) -> float:
        return self.M - self.m


def posterior_variance(t, v0: float, sigma_eta2: float):
    """v_t = 1/(1/v0 + t/sigma_eta^2); ``t`` may be an integer array."""
    return 1.0 / (1.0 / v0 + t / sigma_eta2)


def bayes_weight(t: int, env: EnvironmentParams) -> float:
    """Weight omega_t = v_{t-1}/(v_{t-1} + sigma_eta^2) on observation t."""
    if t < 1:
        raise ValueError("bayes_weight is defined for t >= 1")
    v_prev = posterior_variance(t - 1, env.v0, env.sigma_eta2)
    return v_prev / (v_prev + env.sigma_eta2)


@dataclass(frozen=True)
class Schedule:
    """Read-only per-epoch constants of the belief dynamics.

    By epoch t = 0..N: posterior variance ``v``, ``gamma`` = v_t /
    sigma_eta^2 and offset ``a`` (m_t = a_t + gamma_t * sum(x)).  By draw
    k = 0..N-1 (rank k + 1): shift ``alpha``, Bayes weight ``omega`` =
    v_k/(v_k + sigma_eta^2) and predictive SD ``sd`` = sqrt(v_k +
    sigma_eta^2).
    """

    v: np.ndarray
    gamma: np.ndarray
    a: np.ndarray
    alpha: np.ndarray
    omega: np.ndarray
    sd: np.ndarray

    def step(self, t: int):
        """(omega_t, sigma*_{t-1}, alpha_t): the constants of draw t in 1..N."""
        require_count("draw index", t, 1, len(self.alpha))
        return self.omega[t - 1], self.sd[t - 1], self.alpha[t - 1]


@lru_cache(maxsize=16)
def schedule(env: EnvironmentParams) -> Schedule:
    """The environment's ``Schedule``, built once and cached."""
    s2 = env.sigma_eta2
    alpha = derive(env).alpha
    v = posterior_variance(np.arange(env.N + 1), env.v0, s2)
    gamma = v / s2
    # per-epoch np.sum, not cumsum: pairwise summation rounds differently
    a = np.array([(v[s] / env.v0) * env.m0 - gamma[s] * float(np.sum(alpha[:s]))
                  for s in range(env.N + 1)])
    out = Schedule(v=v, gamma=gamma, a=a, alpha=alpha,
                   omega=v[:-1] / (v[:-1] + s2), sd=np.sqrt(v[:-1] + s2))
    for arr in vars(out).values():
        arr.flags.writeable = False
    return out


def initial_state(env: EnvironmentParams) -> BeliefState:
    return BeliefState(t=0, m=env.m0, v=env.v0, M=env.x_b)


def update(state: BeliefState, x_next: float, env: EnvironmentParams) -> BeliefState:
    """Fold the relevance revealed at rank ``state.t + 1`` into the belief."""
    if state.t >= env.N:
        raise ValueError("cannot update past the horizon")
    a_next = schedule(env).alpha[state.t]  # rank t+1, 0-indexed
    v_new = 1.0 / (1.0 / state.v + 1.0 / env.sigma_eta2)
    m_new = (v_new / state.v) * state.m + (v_new / env.sigma_eta2) * (x_next - a_next)
    return BeliefState(t=state.t + 1, m=m_new, v=v_new, M=max(state.M, x_next))


def predictive(state: BeliefState, env: EnvironmentParams):
    """Mean and variance of the next rank's relevance before inspection."""
    if state.t >= env.N:
        raise ValueError("no next rank beyond the horizon")
    return state.m + schedule(env).alpha[state.t], state.v + env.sigma_eta2


def diffuse_posterior_mean(inspected, env: EnvironmentParams) -> float:
    """Bias-corrected sample mean over (rank, x) pairs: the v0 -> inf limit."""
    if not inspected:
        raise ValueError("diffuse_posterior_mean needs at least one observation")
    alpha = schedule(env).alpha
    total = 0.0
    for rank, x in inspected:
        total += x - alpha[require_count("rank", rank, 1, env.N) - 1]
    return total / len(inspected)


def tail_lines(sched: Schedule, reservation, t: int, m, M):
    """``stop_tails`` at t < N before its trust mask: (lower, upper, trust)
    with lower = (m + alpha_t) + (M - m - r_t) / omega_t, upper = (m +
    alpha_t) + (r_t - alpha_t) / (1 - omega_t), and trust where r_t <=
    (1 - omega_t) * (M - m) + omega_t * alpha_t, in two buffers."""
    omega, _, alpha_t = sched.step(t)
    r_t = float(reservation[t])
    lead = np.subtract(M, m, out=np.empty(np.broadcast(m, M).shape))
    lower = np.multiply(lead, 1.0 - omega, out=np.empty_like(lead))
    lower += omega * alpha_t
    trust = np.less_equal(r_t, lower)
    np.subtract(lead, r_t, out=lower)
    lower /= omega
    upper = np.add(m, alpha_t, out=lead)
    lower += upper
    upper += (r_t - alpha_t) / (1.0 - omega)
    return lower, upper, trust


def stop_tails(sched: Schedule, reservation, t: int, m, M):
    """Rank-t draws that stop, given the epoch-(t-1) belief (m, M).

    Returns (lower, upper), broadcast over m and M: the draw stops iff x
    <= lower or x >= upper.  Both are +inf where every draw stops: at the
    horizon t = N (plain floats) and in the trust regime.
    """
    if t == len(sched.alpha):
        return np.inf, np.inf
    lower, upper, trust = tail_lines(sched, reservation, t, m, M)
    np.copyto(lower, np.inf, where=trust)
    np.copyto(upper, np.inf, where=trust)
    return lower, upper


def survival(sched: Schedule, reservation, x_b: float, X, a=None):
    """Walk T < N draws per session, in inspection order on the last axis
    of ``X``, through the standout rule.

    A session survives epoch s = 1..T while x_b and every draw so far
    stay below a_s + gamma_s * csum_s + r_s.  ``a`` (epoch s on its last
    axis) replaces the schedule's offsets, e.g. per session for ranks
    inspected out of order.  Returns (depth, csum, runmax): the stopping
    depth in 1..T+1 (T+1: survived every epoch) and the sum and maximum
    of the draws (None when T = 0).  ``X`` is only read: the running sum
    and maximum start as copies of the first draw and are updated in
    place.
    """
    if a is None:
        a = sched.a
    T = X.shape[-1]
    shape = X.shape[:-1]
    alive = np.ones(shape, dtype=bool)
    depth = np.ones(shape, dtype=np.min_scalar_type(T + 1))
    if T == 0:
        return depth, None, None
    thr = np.empty(shape)
    top = np.empty(shape)
    below = np.empty(shape, dtype=bool)
    csum, runmax = X[..., 0].copy(), X[..., 0].copy()
    for s in range(1, T + 1):
        if s > 1:
            np.add(csum, X[..., s - 1], out=csum)
            np.maximum(runmax, X[..., s - 1], out=runmax)
        # thr = a_s + gamma_s * csum + r_s, in that order
        np.multiply(csum, sched.gamma[s], out=thr)
        np.add(a[..., s], thr, out=thr)
        np.add(thr, float(reservation[s]), out=thr)
        # x_b < thr and runmax < thr, in one comparison
        np.maximum(runmax, x_b, out=top)
        np.less(top, thr, out=below)
        alive &= below
        depth += alive
    return depth, csum, runmax


def best_inspected(X, depth):
    """(step, value) of the best of each session's first ``depth`` draws.

    ``X`` is (n, T), finite draws in inspection order, and ``depth`` (n,)
    in 1..T.  ``step`` is the 0-based position of the best draw, the first
    on ties, and ``value`` that draw, found in one pass per column.
    """
    step, value = np.zeros(len(depth), dtype=np.intp), X[:, 0].copy()
    for k in range(1, X.shape[1]):
        better = (X[:, k] > value) & (depth > k)
        np.copyto(step, k, where=better)
        np.copyto(value, X[:, k], where=better)
    return step, value
