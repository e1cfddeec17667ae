"""Inspection-depth distribution and the session simulator.

Under the predictive measure the lead is a Markov chain with a closed-form
transition density, so the depth pmf follows from propagating the
surviving lead law one epoch at a time on a grid of cells.  Each epoch
pushes the cell masses through the kernel CDF in near-linear time: the
kernel's support cut L_min(l) increases in the source lead, so the
sources that reach below an edge form a prefix of the sorted grid; the
discovery branch is then one Phi per edge times a prefix sum of weights,
and the disappointment branch is a prefix sum of Phi at deg + 1
Chebyshev points, interpolated at every edge.  The degree follows from
the edge range over the disappointment scale, deg = ceil(14 + 4 R), which
holds the interpolation error near 1e-15 (Trefethen, Approximation
Theory and Approximation Practice, 2013).  The law costs
O(N * cells * deg) instead of O(N * cells^2), and reports a Richardson
estimate of its discretization error from a second grid of half the
cells.  The simulator draws full sessions (conditional on a page mean or
marginalized over the prior), stops them with the survival kernel of
``standout.belief``, and serves as the brute-force oracle for the
recursion, the survival regions and the A/B analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .belief import best_inspected, schedule, survival
from .environment import EnvironmentParams, require_count, require_real, require_seed
from .firststop import classify_first_stop
from .gaussmath import std_normal_cdf, std_normal_pdf
from .policy import PolicyTable, require_first_inspection

DEFAULT_CELLS = 4001


def lead_kernel_density(l_prev, y, t: int, env: EnvironmentParams):
    """Transition density of the lead chain at epoch t >= 1.

    Supported on [L_min(l), inf) with L_min(l) = (1-omega_t)*l +
    omega_t*alpha_t; the two terms are the discovery branch (scale
    (1-omega_t)*sigma*) and the disappointment branch (scale
    omega_t*sigma*).
    """
    omega, sd, alpha_t = schedule(env).step(t)
    l_prev = np.asarray(l_prev, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    l_min = (1.0 - omega) * l_prev + omega * alpha_t
    s_disc = (1.0 - omega) * sd
    s_dis = omega * sd
    dens = (std_normal_pdf((y - alpha_t) / s_disc) / s_disc
            + std_normal_pdf((l_prev - y) / s_dis) / s_dis)
    out = np.where(y >= l_min, dens, 0.0)
    return out if np.ndim(out) else float(out)


def lead_kernel_cdf(l_prev, y, t: int, env: EnvironmentParams):
    """P(L_t <= y | L_{t-1} = l); closed form from the two-branch density."""
    omega, sd, alpha_t = schedule(env).step(t)
    l_prev = np.asarray(l_prev, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    l_min = (1.0 - omega) * l_prev + omega * alpha_t
    s_disc = (1.0 - omega) * sd
    s_dis = omega * sd
    cdf = (std_normal_cdf((y - alpha_t) / s_disc)
           - std_normal_cdf((l_prev - y) / s_dis))
    out = np.where(y <= l_min, 0.0, cdf)
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class DepthDistribution:
    """pmf over tau = 0..N plus the per-epoch surviving lead measures.

    ``discretization_error`` is the Richardson estimate of the pmf's TV
    error from the cell grid, TV(pmf, pmf on (cells+1)//2 cells) / 3, which
    assumes an O(h^2) error in the cell width.  The grids are not nested
    and the error is not always that clean, so read it as an order of
    magnitude: on random interior environments (N = 3..14) it lay between
    0.16 and 6.3 times the TV against 16001 cells at 4001 cells, and
    between 0.24 and 13 times at 1001 cells.
    """

    pmf: np.ndarray
    survival_grids: list
    survival_masses: list
    measure: str  # "predictive", the only law built here; the CLI echoes it
    discretization_error: float

    @property
    def N(self) -> int:
        return len(self.pmf) - 1

    def expected_depth(self) -> float:
        return float(np.dot(np.arange(len(self.pmf)), self.pmf))


def _chebyshev_interpolant(a: float, b: float, deg: int, x: np.ndarray):
    """Chebyshev points of the second kind on [a, b] and the matrix that
    maps values at those points to the degree-``deg`` interpolant at ``x``
    (barycentric formula; a row is a unit vector where x hits a node)."""
    j = np.arange(deg + 1)
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * j / deg)
    w = np.where(j % 2 == 0, 1.0, -1.0)
    w[[0, -1]] *= 0.5
    d = x[:, None] - nodes[None, :]
    hit = d == 0.0
    basis = w / np.where(hit, 1.0, d)
    basis /= basis.sum(axis=1, keepdims=True)
    exact = hit.any(axis=1)
    basis[exact] = hit[exact]
    return nodes, basis


def _lead_cdf_mixture(centers, weights, edges, t: int, env: EnvironmentParams):
    """G[k] = sum_i weights[i] * lead_kernel_cdf(centers[i], edges[k], t, env)
    for ascending ``centers`` and ``edges``, in O((sources + edges) * deg)
    (see ``depth_distribution``)."""
    omega, sd, alpha_t = schedule(env).step(t)
    s_disc = (1.0 - omega) * sd
    s_dis = omega * sd
    # sources with L_min < edge, the only ones with mass below it
    prefix = np.searchsorted((1.0 - omega) * centers + omega * alpha_t, edges,
                             side="left")
    weight_below = np.concatenate(([0.0], np.cumsum(weights)))[prefix]
    # degree for an interpolation error near 1e-15 of the prefix weight
    spread = (edges[-1] - edges[0]) / s_dis
    deg = min(math.ceil(14.0 + 4.0 * spread), len(edges) - 1)
    nodes, basis = _chebyshev_interpolant(edges[0], edges[-1], deg, edges)
    # disappointment branch of every prefix at the nodes, row p for prefix p
    disappoint = np.cumsum(weights[:, None] * std_normal_cdf(
        (centers[:, None] - nodes[None, :]) / s_dis), axis=0)
    disappoint = np.vstack((np.zeros(deg + 1), disappoint))[prefix]
    return (std_normal_cdf((edges - alpha_t) / s_disc) * weight_below
            - np.einsum("kj,kj->k", disappoint, basis))


def _lead_recursion(env: EnvironmentParams, table: PolicyTable, cells: int):
    """Depth pmf, survival grids and survival masses on ``cells`` cells."""
    N = env.N
    pmf = np.zeros(N + 1)
    grids, masses = [], []

    r = table.reservation
    # surviving measure as point masses at cell centers
    centers = np.array([env.x_b - env.m0])
    weights = np.array([1.0])

    for t in range(1, N + 1):
        omega, sd, alpha_t = schedule(env).step(t)
        survive_mass = weights.sum()
        if t == N:
            pmf[N] = survive_mass
            break
        # grid over the continuation region (-inf mass is bounded below by
        # the chain's support: L_min is increasing in l)
        l_min = (1.0 - omega) * centers.min() + omega * alpha_t
        lo = min(l_min, r[t]) - 1e-12
        edges = np.linspace(lo, r[t], cells + 1)
        # mass below each edge, summed over sources; cells by differences
        below = _lead_cdf_mixture(centers, weights, edges, t, env)
        pmf[t] = survive_mass - below[-1]
        centers = 0.5 * (edges[:-1] + edges[1:])
        weights = np.diff(below)
        grids.append(centers)
        masses.append(weights)
        if weights.sum() <= 0.0:
            break

    leak = abs(pmf.sum() - 1.0)
    if leak > 1e-6:
        raise ArithmeticError(
            f"depth recursion leaked probability mass ({leak:.3g}); "
            f"cells={cells}, N={N}")
    return pmf, grids, masses


def depth_distribution(env: EnvironmentParams, table: PolicyTable,
                       cells: int = DEFAULT_CELLS) -> DepthDistribution:
    """Exact depth pmf under the predictive measure via the lead recursion.

    The surviving lead law starts as an atom at x_b - m0; each epoch the
    stopping mass is the law's weight on [r_t, inf) and the rest is pushed
    through the lead kernel onto ``cells`` equal cells below r_t.  Cell
    masses are differences of the kernel-CDF mixture between cell edges,
    so total mass is conserved to rounding.  The mixture is evaluated in
    O((sources + cells) * deg) per epoch rather than O(sources * cells):
    the support cut is a prefix of the sorted sources, the discovery
    branch is one Phi per edge times a prefix sum, and the disappointment
    branch is a prefix sum of Phi at deg + 1 Chebyshev points,
    interpolated at every edge (deg = ceil(14 + 4 R), R the edge range
    over the disappointment scale; R <= 5.3 and deg <= 36 on the
    benchmark's N = 3, 8, 20 environments).
    The whole law costs O(N * cells * deg), plus the same recursion on
    (cells + 1) // 2 cells for ``discretization_error``.
    """
    require_count("cells", cells, least=2)
    require_first_inspection(env, table)
    pmf, grids, masses = _lead_recursion(env, table, cells)
    coarse = _lead_recursion(env, table, (cells + 1) // 2)[0]
    error = 0.5 * float(np.abs(pmf - coarse).sum()) / 3.0
    return DepthDistribution(pmf, grids, masses, "predictive", error)


@dataclass(frozen=True)
class SessionBatch:
    """Column-wise batch of simulated sessions."""

    mu: np.ndarray       # (n,) page means
    x: np.ndarray        # (n, N) relevances in rank order
    depth: np.ndarray    # (n,) stopping epochs tau
    J: np.ndarray        # (n,) terminal choice, 0 = outside option
    payoff: np.ndarray   # (n,) M_tau - c*tau

    def __len__(self):
        return len(self.depth)

    def depth_pmf(self, N: int) -> np.ndarray:
        return np.bincount(self.depth, minlength=N + 1) / len(self.depth)


def simulate_sessions(env: EnvironmentParams, table: PolicyTable,
                      mu_mode="draw_from_prior", n: int = 1000, seed: int = 0,
                      order: str = "rank") -> SessionBatch:
    """Simulate full sessions under the standout rule.

    ``mu_mode`` is either ``"draw_from_prior"`` or a fixed finite float;
    ``order`` is ``"rank"`` for the optimal top-down traversal or
    ``"random"`` for a diagnostic policy inspecting a uniformly random
    uninspected rank with the same thresholds (dominated in expectation).
    In rank order ``x`` is a view into the (n, N + 1) buffer of normal draws.
    """
    require_first_inspection(env, table)
    require_count("n", n)
    fixed = None if mu_mode == "draw_from_prior" else require_real("mu_mode", mu_mode)
    if order not in ("rank", "random"):
        raise ValueError("order must be 'rank' or 'random'")
    N = env.N
    sched = schedule(env)
    rng = np.random.default_rng(np.random.Philox(key=require_seed(seed)))
    z = rng.standard_normal((n, N + 1))

    mu = env.m0 + np.sqrt(env.v0) * z[:, 0] if fixed is None else np.full(n, fixed)
    x_seq = np.multiply(env.sigma_eta, z[:, 1:], out=z[:, 1:])  # eta

    # relevance revealed at inspection step k: rank rank_at[:, k], which
    # is k itself in rank order (rank_at None: no gathers or scatters)
    if order == "rank":
        rank_at, bias_seq, offsets = None, np.broadcast_to(sched.alpha, (n, N)), None
    else:
        rank_at = np.argsort(rng.random((n, N)), axis=1)
        bias_seq = sched.alpha[rank_at]
        # posterior-mean offsets a_s = (v_s/v0) m0 - gamma_s (shift sum
        # before s) for the shifts in inspection order, in one buffer
        offsets = np.zeros((n, N + 1))
        np.cumsum(bias_seq, axis=1, out=offsets[:, 1:])
        offsets *= -sched.gamma
        offsets += (sched.v / env.v0) * env.m0
    # x = eta + (mu + shift), the bits of (mu + shift) + eta, in row blocks
    for i in range(0, n, 4096):
        x_seq[i:i + 4096] += mu[i:i + 4096, None] + bias_seq[i:i + 4096]
    del bias_seq

    depth = survival(sched, table.reservation, env.x_b, x_seq[:, :N - 1],
                     offsets)[0].astype(np.int64)
    del offsets

    x_rank = x_seq  # relevances in rank order
    if rank_at is not None:
        x_rank = np.empty((n, N))
        x_rank[np.arange(n)[:, None], rank_at] = x_seq

    # J is the best inspected item either way; its step maps to a rank
    best_step, best_val = best_inspected(x_seq, depth)
    best_rank = best_step if rank_at is None else rank_at[np.arange(n), best_step]
    J = np.where(best_val > env.x_b, best_rank + 1, 0)
    payoff = np.maximum(env.x_b, best_val) - env.c * depth  # M_tau - c tau

    return SessionBatch(mu=mu, x=x_rank, depth=depth, J=J, payoff=payoff)


def continuation_n2(env: EnvironmentParams, table: PolicyTable, mu: float):
    """(s1- - mu - alpha_1, s1+ - mu - alpha_1) / sigma_eta: the N = 2 first-stop
    continuation interval standardized at page mean mu; None under trust."""
    report = classify_first_stop(env, table)
    if env.N != 2:
        raise ValueError("closed form requires N = 2")
    if report.regime == "trust":
        return None
    a1 = schedule(env).alpha[0]
    se = env.sigma_eta
    return (report.s1_minus - mu - a1) / se, (report.s1_plus - mu - a1) / se


def conditional_depth_pmf_n2(env: EnvironmentParams, table: PolicyTable,
                             mu: float) -> np.ndarray:
    """Closed-form depth pmf for N = 2 conditional on the true page mean.

    The session continues past rank 1 iff x_1 lands in the first-stop
    continuation interval, and x_1 | mu ~ N(mu + alpha_1, sigma_eta^2).
    """
    ends = continuation_n2(env, table, mu)
    p_continue = 0.0 if ends is None else float(
        std_normal_cdf(ends[1]) - std_normal_cdf(ends[0]))
    return np.array([0.0, 1.0 - p_continue, p_continue])


def position_propensity(dist: DepthDistribution) -> np.ndarray:
    """Examination propensities p_i = P(tau >= i) for i = 1..N."""
    tail = np.cumsum(dist.pmf[::-1])[::-1]
    return tail[1:]
