"""Stopping thresholds: myopic closed form and optimal backward induction.

Both policies are standout rules: stop at epoch t as soon as the lead
L_t = M_t - m_t reaches the reservation level r_t = alpha_{t+1} + kappa_t.
The myopic kappa_t has a closed form through the option-value function g;
the optimal kappa*_t comes from a one-dimensional dynamic program on the
lead, which is a Markov chain by translation equivariance of the value
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .belief import BeliefState, posterior_variance
from .environment import EnvironmentParams, derive, require_interior
from .gaussmath import g_inverse, std_normal_pdf

GRID_POINTS = 4001
QUAD_NODES = 64
QUAD_HALF_WIDTH = 8.0  # integration range in predictive SDs
ROOT_TOL = 1e-8
STOP_MARGIN = 4  # grid rows past r_t that confirm the stop region


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
    t = np.arange(env.N)
    v_t = 1.0 / (1.0 / env.v0 + t / env.sigma_eta2)
    return np.sqrt(v_t + env.sigma_eta2)


def myopic_kappas(c: float, sds) -> np.ndarray:
    sds = np.atleast_1d(np.asarray(sds, dtype=np.float64))
    return np.array([s * g_inverse(c / s) for s in sds])


def myopic_table(env: EnvironmentParams) -> PolicyTable:
    require_interior(env)
    alpha = derive(env).alpha
    sds = predictive_sds(env)
    kappa = myopic_kappas(env.c, sds)
    kappa_inf = env.sigma_eta * g_inverse(env.c / env.sigma_eta)
    return PolicyTable(kind="myopic", kappa=kappa, reservation=alpha + kappa,
                       kappa_inf=kappa_inf)


def _gauss_legendre_unit():
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_NODES)
    # mapped to [0, 1]
    return 0.5 * (nodes + 1.0), 0.5 * weights


_GL_U, _GL_W = _gauss_legendre_unit()


def _interp_value(l, grid, values, slope_lo):
    """Evaluate the gridded value function with the policy's tail rules.

    Above the grid the stop region is exact (V = l); below it we
    extrapolate linearly with the slope of the two lowest cells.
    """
    out = np.interp(l, grid, values)
    hi = l > grid[-1]
    if np.any(hi):
        out = np.where(hi, l, out)
    lo = l < grid[0]
    if np.any(lo):
        out = np.where(lo, values[0] + slope_lo * (l - grid[0]), out)
    return out


def _continuation(l, alpha_next, omega, sd, grid, v_next, slope_lo, c):
    """-c + E[V_{t+1}(Psi(l, xi))], xi ~ N(0, sd^2).

    Psi has a kink at xi* = l - alpha_next (draw ties the running max);
    below it the lead drifts by -omega*xi, above it the new draw
    overwrites the lead.  Each side is integrated by Gauss-Legendre after
    clamping to +-8 sd.
    """
    l = np.atleast_1d(np.asarray(l, dtype=np.float64))
    lo, hi = -QUAD_HALF_WIDTH * sd, QUAD_HALF_WIDTH * sd
    kink = np.clip(l - alpha_next, lo, hi)

    def half(a, b, branch):
        # a, b arrays of interval ends per grid point; branch in {"dis", "disc"}
        width = b - a
        xi = a[:, None] + width[:, None] * _GL_U[None, :]
        if branch == "dis":
            lead_next = l[:, None] - omega * xi
        else:
            lead_next = alpha_next + (1.0 - omega) * xi
        vals = _interp_value(lead_next.ravel(), grid, v_next, slope_lo)
        vals = vals.reshape(xi.shape)
        dens = std_normal_pdf(xi / sd) / sd
        return width * np.sum(_GL_W[None, :] * dens * vals, axis=1)

    lo_arr = np.full_like(l, lo)
    hi_arr = np.full_like(l, hi)
    total = half(lo_arr, kink, "dis") + half(kink, hi_arr, "disc")
    return total - c


def _value_rows(grid, r_t, alpha_next, omega, sd, v_next, slope_lo, c):
    """V_t = max(l, continuation) on the grid, evaluating few rows.

    Where the kink clips to the lower quadrature end (``l - alpha_next <=
    lo``), the discovery half has zero width and the other half does not
    depend on l, so one evaluation serves all those rows.  Above the
    reservation level r_t the gap is negative and V_t(l) = l; the
    continuation is evaluated only up to STOP_MARGIN rows past r_t, and
    on every remaining row if the gap there is not yet negative.
    """
    args = (alpha_next, omega, sd, grid, v_next, slope_lo, c)
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
    alpha = derive(env).alpha
    sds = predictive_sds(env)
    kappa_myo = myopic_kappas(env.c, sds)

    lo = float(np.min(alpha)) - 10.0 * sds[0]
    hi = float(np.max(alpha + kappa_myo)) + 10.0 * sds[0]
    grid = np.linspace(lo, hi, grid_points)

    N = env.N
    v_next = grid.copy()  # V_N(l) = l
    slope_lo = 1.0
    kappa = np.empty(N)
    reservation = np.empty(N)
    for t in range(N - 1, -1, -1):
        v_t = posterior_variance(t, env.v0, env.sigma_eta2)
        omega = v_t / (v_t + env.sigma_eta2)  # weight on observation t+1
        sd = sds[t]
        a_next = alpha[t]

        def gap(l):
            return _continuation(l, a_next, omega, sd, grid, v_next, slope_lo, env.c) - l

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
        kappa[t] = r_t - a_next

        v_next = _value_rows(grid, r_t, a_next, omega, sd, v_next, slope_lo, env.c)
        slope_lo = (v_next[1] - v_next[0]) / (grid[1] - grid[0])

    kappa_inf = env.sigma_eta * g_inverse(env.c / env.sigma_eta)
    return PolicyTable(kind="optimal", kappa=kappa, reservation=reservation,
                       kappa_inf=kappa_inf)


def should_stop(state: BeliefState, table: PolicyTable) -> bool:
    """Stop iff the lead has reached the reservation level (ties stop)."""
    if state.t >= table.N:
        return True
    return state.lead >= table.reservation[state.t]
