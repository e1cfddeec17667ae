"""Stopping thresholds: myopic closed form and optimal backward induction.

Both policies are standout rules: stop at epoch t as soon as the lead
L_t = M_t - m_t reaches the reservation level r_t = alpha_{t+1} + kappa_t.
The myopic kappa_t has a closed form through the option-value function g;
the optimal kappa*_t comes from a one-dimensional dynamic program on the
lead, which is a Markov chain by translation equivariance of the value
function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief import BeliefState, schedule
from .environment import (EnvironmentParams, interior_condition_slack,
                          require_interior)
from .gaussmath import g_inverse, std_normal_pdf

GRID_POINTS = 4001
QUAD_NODES = 64
QUAD_HALF_WIDTH = 8.0  # integration range in predictive SDs
ROOT_TOL = 1e-8
STOP_MARGIN = 4  # grid rows past r_t that confirm the stop region
POLICIES = ("optimal", "myopic")


@dataclass(frozen=True)
class PolicyTable:
    """Per-epoch thresholds kappa_t and reservation levels r_t.

    ``kappa[t]`` applies at epoch t = 0..N-1 (t inspections already done);
    the horizon epoch t = N is a forced stop (reservation -inf sentinel).
    """

    kind: str  # "myopic" | "optimal"
    kappa: np.ndarray
    reservation: np.ndarray
    kappa_inf: float

    @property
    def N(self) -> int:
        return len(self.kappa)


def predictive_sds(env: EnvironmentParams) -> np.ndarray:
    """One-step predictive SDs sigma*_t = sqrt(v_t + sigma_eta^2), t = 0..N-1."""
    return schedule(env).sd.copy()


def myopic_kappas(c: float, sds) -> np.ndarray:
    sds = np.atleast_1d(np.asarray(sds, dtype=np.float64))
    return np.array([s * g_inverse(c / s) for s in sds])


def myopic_table(env: EnvironmentParams) -> PolicyTable:
    require_interior(env)
    sched = schedule(env)
    kappa = myopic_kappas(env.c, sched.sd)
    kappa_inf = env.sigma_eta * g_inverse(env.c / env.sigma_eta)
    return PolicyTable(kind="myopic", kappa=kappa, reservation=sched.alpha + kappa,
                       kappa_inf=kappa_inf)


_GL_U, _GL_W = np.polynomial.legendre.leggauss(QUAD_NODES)
_GL_U, _GL_W = 0.5 * (_GL_U + 1.0), 0.5 * _GL_W  # mapped to [0, 1]


def _interp_value(l, grid, values):
    """The gridded value function, V = l above the grid (stop region).
    No lead falls below the grid: on either side of the kink the next
    lead is at least min(l, alpha_next), and grid[0] lies below l and
    below every alpha."""
    out = np.interp(l, grid, values)
    hi = l > grid[-1]
    return np.where(hi, l, out) if np.any(hi) else out


def _continuation(l, alpha_next, omega, sd, grid, v_next, c):
    """-c + E[V_{t+1}(Psi(l, xi))], xi ~ N(0, sd^2).

    Psi has a kink at xi* = l - alpha_next (draw ties the running max);
    below it the lead drifts by -omega*xi, above it the new draw
    overwrites the lead.  Both sides, clamped to +-8 sd, are integrated
    by one Gauss-Legendre evaluation on (rows, 2, QUAD_NODES).
    """
    l = np.atleast_1d(np.asarray(l, dtype=np.float64))
    lo, hi = -QUAD_HALF_WIDTH * sd, QUAD_HALF_WIDTH * sd
    ends = np.empty((len(l), 3))
    ends[:, 0], ends[:, 1], ends[:, 2] = lo, np.clip(l - alpha_next, lo, hi), hi
    width = ends[:, 1:] - ends[:, :-1]
    xi = ends[:, :-1, None] + width[:, :, None] * _GL_U
    lead_next = np.stack((l[:, None] - omega * xi[:, 0],
                          alpha_next + (1.0 - omega) * xi[:, 1]), axis=1)
    vals = _interp_value(lead_next, grid, v_next)
    dens = std_normal_pdf(xi / sd) / sd
    halves = width * np.sum(_GL_W * dens * vals, axis=2)
    return halves[:, 0] + halves[:, 1] - c


def _value_rows(grid, r_t, alpha_next, omega, sd, v_next, c):
    """V_t = max(l, continuation) on the grid, evaluating few rows.

    Where the kink clips to the lower quadrature end (``l - alpha_next <=
    lo``), the discovery half has zero width and the other half does not
    depend on l, so one evaluation serves all those rows.  Above the
    reservation level r_t the gap is negative and V_t(l) = l; the
    continuation is evaluated only up to STOP_MARGIN rows past r_t, and
    on every remaining row if the gap there is not yet negative.
    """
    args = (alpha_next, omega, sd, grid, v_next, c)
    flat = int(np.count_nonzero(grid - alpha_next <= -QUAD_HALF_WIDTH * sd))
    top = min(len(grid), max(flat, int(np.searchsorted(grid, r_t))) + STOP_MARGIN)
    cont = _continuation(grid[flat:top], *args)
    if top < len(grid) and not cont[-1] < grid[top - 1]:
        cont = np.concatenate([cont, _continuation(grid[top:], *args)])
        top = len(grid)
    out = grid.copy()
    if flat:
        out[:flat] = np.maximum(grid[:flat], _continuation(grid[flat - 1], *args))
    out[flat:top] = np.maximum(grid[flat:top], cont)
    return out


def optimal_table(env: EnvironmentParams, grid_points: int = GRID_POINTS) -> PolicyTable:
    """Backward induction on the lead; kappa*_t by bisection on the gap.

    The reduced value V_t(l) satisfies V_N(l) = l and
    V_t(l) = max(l, -c + E[V_{t+1}(Psi_{t+1}(l, xi))]).  The stop-continue
    gap is strictly decreasing in l, so the reservation level is its
    unique root.
    """
    require_interior(env)
    sched = schedule(env)
    alpha, sds = sched.alpha, sched.sd
    kappa_myo = myopic_kappas(env.c, sds)

    lo = float(np.min(alpha)) - 10.0 * sds[0]
    hi = float(np.max(alpha + kappa_myo)) + 10.0 * sds[0]
    grid = np.linspace(lo, hi, grid_points)

    N = env.N
    v_next = grid.copy()  # V_N(l) = l
    reservation = np.empty(N)
    for t in range(N - 1, -1, -1):
        omega, sd, a_next = sched.step(t + 1)  # draw t+1

        def gap(l):
            return _continuation(l, a_next, omega, sd, grid, v_next, env.c) - l

        g_lo, g_hi = float(gap(grid[0])[0]), float(gap(grid[-1])[0])
        if not (g_lo > 0.0 > g_hi):
            raise ArithmeticError(
                f"failed to bracket the reservation level at epoch {t}: "
                f"gap({grid[0]:.3g}) = {g_lo:.3g}, gap({grid[-1]:.3g}) = {g_hi:.3g}"
            )
        a, b = grid[0], grid[-1]
        while b - a > ROOT_TOL:
            mid = 0.5 * (a + b)
            if float(gap(mid)[0]) > 0.0:
                a = mid
            else:
                b = mid
        r_t = 0.5 * (a + b)
        reservation[t] = r_t
        if t:  # V_0 is never read
            v_next = _value_rows(grid, r_t, a_next, omega, sd, v_next, env.c)

    kappa_inf = env.sigma_eta * g_inverse(env.c / env.sigma_eta)
    return PolicyTable(kind="optimal", kappa=reservation - alpha,
                       reservation=reservation, kappa_inf=kappa_inf)


def require_policy(policy) -> None:
    """Reject a policy name outside POLICIES."""
    if policy not in POLICIES:
        raise ValueError(f"policy must be 'optimal' or 'myopic', got {policy!r}")


def policy_table(env: EnvironmentParams, policy: str) -> PolicyTable:
    """The table of ``policy``, one of POLICIES."""
    require_policy(policy)
    return optimal_table(env) if policy == "optimal" else myopic_table(env)


def inspects_rank_one(env: EnvironmentParams, table: PolicyTable) -> bool:
    """Whether ``env`` is interior and its ``table`` does not stop before
    rank 1, the test ``require_first_inspection`` enforces."""
    return (interior_condition_slack(env) > 0.0
            and env.x_b - env.m0 < table.reservation[0])


def require_first_inspection(env: EnvironmentParams, table: PolicyTable) -> None:
    """Reject an environment that is not interior, or whose table stops
    before rank 1: near the no-inspection corner the solved r_0 can lie
    at or below the starting lead x_b - m0 by rounding."""
    if not inspects_rank_one(env, table):
        require_interior(env)
        l0, r0 = env.x_b - env.m0, table.reservation[0]
        raise ArithmeticError(
            f"the table stops before rank 1: x_b - m0 = {l0:.12g} >= r_0 = "
            f"{r0:.12g}; the environment is within rounding of the corner")


def should_stop(state: BeliefState, table: PolicyTable) -> bool:
    """Stop iff the lead has reached the reservation level (ties stop)."""
    if state.t >= table.N:
        return True
    return state.lead >= table.reservation[state.t]
