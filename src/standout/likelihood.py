"""Session likelihood for observed inspection depths and conversions.

A logged session reveals the depth t at which the user stopped and,
optionally, which item (or the outside option) they took.  Under the
model the probability of that outcome is an integral of Gaussian mass
over a survival polyhedron, with the final-rank coordinate integrable in
closed form (``_final_mass``).  Depth 1 is that closed form, depth 2 a
Gauss-Legendre integral over the interval of surviving first draws (to
about 1e-14 at every list length), and depth >= 3 Monte Carlo.  This
module evaluates that probability, its gradient in the feature means,
and fits an affine feature model together with the user primitives
(c, x_b) by gradient descent.

All internal computation happens in centered coordinates y = (x - x_b) /
sigma_F with the outside option at zero.  Besides simplifying the
stopping geometry, this makes the estimator exactly invariant (bitwise,
for dyadic inputs) under common translations of (features, x_b) and
power-of-two rescalings of (features, x_b, c, sqrt(v0), sigma_eta).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, replace

import numpy as np

from . import policy as _policy
from .belief import (best_inspected, schedule, stop_tails, survival,
                     tail_lines)
from .environment import (EnvironmentParams, env_from_shift_scale,
                          is_finite_real, rank_quantiles, require_count,
                          require_interior, require_real, require_seed)
from .gaussmath import std_normal_cdf, std_normal_pdf
from .policy import policy_table, require_first_inspection, require_policy
optimal_table = _policy.optimal_table  # bench/tracer.py wraps the name here

VALUE_FLOOR = 1e-300
_NO_CONV = 255  # RNG stream tag for sessions without conversion data
# Monte Carlo draws generated at a time.  A session's values depend only
# on its own draws, so the size changes no bit; at 2**16 a chunk's float
# arrays (512 KiB each) stay in a core's L2 cache through every pass.
_MC_CHUNK = 1 << 16

# Gauss-Legendre rule on [0, 1] for each panel of the depth-2 strip; on
# a panel _PANEL_SPAN wide in the integrand's own scale it integrates a
# unit Gaussian to about 3e-15
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_GL_X, _GL_W = 0.5 * (_GL_X + 1.0), 0.5 * _GL_W
_PANEL_SPAN = 6.0


@dataclass(frozen=True)
class AffineFeatureModel:
    """Feature means F_i = beta[0] + w_i . beta[1:]."""

    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=np.float64))

    @property
    def dim(self) -> int:
        return len(self.beta) - 1

    def predict(self, W: np.ndarray) -> np.ndarray:
        W = np.asarray(W, dtype=np.float64)
        return self.beta[0] + W @ self.beta[1:]

    def jacobian(self, W: np.ndarray) -> np.ndarray:
        """dF_i/dbeta, shape W.shape[:-1] + (1 + dim,)."""
        W = np.asarray(W, dtype=np.float64)
        ones = np.ones(W.shape[:-1] + (1,))
        return np.concatenate([ones, W], axis=-1)


@dataclass(frozen=True)
class SessionRecord:
    """One logged session: full-list features, stop depth, conversion.

    ``depth`` is an int in 1..N for the N ranks of ``features``, and
    ``conversion`` the taken rank in 1..depth, 0 for the outside option
    (an int), or None when conversions were not logged.
    """

    features: np.ndarray
    depth: int
    conversion: object = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        depth = require_count("depth", self.depth, 1, len(features))
        conv = None if self.conversion is None else require_count(
            "conversion", self.conversion, 0, depth)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "conversion", conv)


@dataclass(frozen=True)
class UserPrimitives:
    """Searcher side of the model: inspection cost, outside option, units.

    ``m0`` is the prior-mean anchor on the feature scale.  Fitting keeps
    it pinned at zero, since only differences against it are observed;
    it is exposed so that a joint shift of (features, x_b, m0) leaves
    every likelihood value bit-identical.
    """

    c: float
    x_b: float
    sigma_F: float = 1.0
    m0: float = 0.0


@dataclass(frozen=True)
class RankerProfile:
    """Fixed properties of the deployed ranker: list length and rank shifts."""

    N: int
    alpha_scale: float
    quantile_rule: str = "midpoint"

    @classmethod
    def from_env(cls, env: EnvironmentParams) -> "RankerProfile":
        return cls(N=env.N, alpha_scale=env.sigma_x2 / env.sigma_z,
                   quantile_rule=env.quantile_rule)


def calibrate(records, model, profile: RankerProfile):
    """(v0, sigma_eta2) matched to the feature spread of the log.

    Treats the de-shifted feature means F_i - alpha_i as draws of the
    page mean: their across-session variance pins v0 and their mean
    within-session variance, plus the unit feature noise, pins
    sigma_eta2.  Sample variances use ddof=1.
    """
    if len(records) < 2:  # before the ddof=1 variances turn NaN
        raise ValueError("calibrate needs at least two sessions; the log holds "
                         + ("one" if records else "no sessions"))
    if profile.N < 2:
        raise ValueError(f"calibrate needs at least two ranks per session, "
                         f"got N = {profile.N}")
    alpha = profile.alpha_scale * rank_quantiles(profile.N, profile.quantile_rule)
    stacked = np.stack([rec.features for rec in records])
    resid = model.predict(stacked) - alpha
    mus = resid.mean(axis=1)
    within = resid.var(axis=1, ddof=1)
    v0 = float(np.var(mus, ddof=1))
    sigma_eta2 = float(np.mean(within)) + 1.0
    if not v0 > 0.0:
        raise ValueError("calibrated v0 is not positive; sessions are degenerate")
    return v0, sigma_eta2


def _centered_env(prims: UserPrimitives, v0: float, sigma_eta2: float,
                  profile: RankerProfile) -> EnvironmentParams:
    """The environment in centered units: outside option at 0, unit
    feature noise."""
    sF = require_real("sigma_F", prims.sigma_F, least=0)
    return env_from_shift_scale(
        N=profile.N,
        sigma_eta2=sigma_eta2 / (sF * sF),
        alpha_scale=profile.alpha_scale / sF,
        v0=v0 / (sF * sF),
        m0=(prims.m0 - prims.x_b) / sF,
        x_b=0.0,
        c=prims.c / sF,
        quantile_rule=profile.quantile_rule,
    )


def _is_scalar(e, value):
    """Whether ``e`` is the scalar ``value``."""
    return np.ndim(e) == 0 and e == value


def _interval_mass(lo, hi, u, grad):
    """(P(lo < x < hi), its derivative in u) for x ~ N(u, 1), both zero
    where hi <= lo; the derivative is 0.0 when ``grad`` is false.  An
    infinite scalar end gives the exact constants Phi = 0 or 1, phi = 0
    without touching u."""
    ends = []
    for e in (lo, hi):
        if np.ndim(e) == 0 and np.isinf(e):
            ends.append(((1.0 if e > 0.0 else 0.0), 0.0))
        else:
            d = e - u
            ends.append((std_normal_cdf(d), (std_normal_pdf(d) if grad else 0.0)))
    (cdf_lo, pdf_lo), (cdf_hi, pdf_hi) = ends
    open_ = hi > lo
    mass = np.where(open_, cdf_hi - cdf_lo, 0.0)
    return mass, (np.where(open_, pdf_lo - pdf_hi, 0.0) if grad else 0.0)


class LikelihoodContext:
    """Policy table and belief schedule shared across session evaluations.

    Built once per parameter vector; all member arrays live in the
    centered coordinate system (outside option at 0, unit feature noise).
    A table that stops before rank 1 is refused with ArithmeticError.
    """

    def __init__(self, prims: UserPrimitives, v0: float, sigma_eta2: float,
                 profile: RankerProfile, policy: str = "optimal",
                 n_samples: int = 4096, seed: int = 0):
        self.n_samples = require_count("n_samples", n_samples)
        require_policy(policy)
        self.profile, self.v0, self.sigma_eta2 = profile, v0, sigma_eta2
        self._set_prims(prims)
        self.table = policy_table(self.env, policy)
        require_first_inspection(self.env, self.table)
        self.policy, self.seed = policy, require_seed(seed)

    def _set_prims(self, prims):
        """Set the primitives and their centred environment and schedule."""
        self.prims = prims
        self.env = _centered_env(prims, self.v0, self.sigma_eta2, self.profile)
        self.sched = schedule(self.env)
        self.alpha = self.sched.alpha

    def _rng(self, t: int, j):
        code = _NO_CONV if j is None else j
        key = np.array([self.seed, (t << 16) | code], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    # -- group evaluation ------------------------------------------------

    def evaluate(self, U: np.ndarray, j, base: np.ndarray = None,
                 grad: bool = True):
        """Likelihood values and mean-gradients for a depth-t group.

        U is (S, t): centered feature means of the inspected prefix for S
        sessions sharing depth t and conversion label j.  Returns
        (values (S,), grads (S, t)), with grads None when ``grad`` is
        false.  ``base`` switches the Monte Carlo draws (depth t >= 3) to
        importance sampling around other means, which keeps the estimate
        smooth in U under common random numbers; at t <= 2 the value is
        exact and ``base`` is ignored.
        """
        U = np.atleast_2d(np.asarray(U, dtype=np.float64))
        return self._evaluate(U, j, base, grad, ())

    def _evaluate(self, U, j, base, grad, riders):
        """``evaluate``, plus values written into ``out`` for each (context,
        U, out) of ``riders``, which run on this context's draws."""
        t = require_count("depth", U.shape[1], 1, self.env.N)
        if j is not None:
            j = require_count("j", j, 0, t)
        if t >= 3:
            return self._eval_mc(U, j, base, grad, riders)
        for ctx, U_r, out in riders:
            out[:] = ctx._evaluate(U_r, j, None, False, ())[0]
        return (self._eval_t1 if t == 1 else self._eval_t2)(U, j, grad)

    def _final_mass(self, t, m_prev, M_prev, j, x_j, u, grad):
        """(mass, dmass/du) at mean ``u`` of the rank-t draws that stop,
        given the epoch-(t-1) belief (m_prev, M_prev) and cut by the
        conversion label ``j`` (``x_j``: the rank-j draw, for 1 <= j < t),
        summed over both tails by ``_interval_mass``; a mass that does not
        depend on u may be a scalar."""
        lower, upper = stop_tails(self.sched, self.table.reservation, t,
                                  m_prev, M_prev)
        # the label cuts the tails: j = t above the running max, j = 0
        # below zero, 1 <= j < t below x_j; no label leaves them whole
        cut_lo = M_prev if j == t else -np.inf
        cut_hi = 0.0 if j == 0 else (np.inf if x_j is None else x_j)
        mass = 0.0
        dmass = 0.0
        for lo, hi in ((-np.inf, lower), (upper, np.inf)):
            if _is_scalar(lo, np.inf):
                continue  # empty tail: adds an exact zero
            # an infinite scalar cut leaves its end as it is
            a = lo if _is_scalar(cut_lo, -np.inf) else np.maximum(lo, cut_lo)
            b = hi if _is_scalar(cut_hi, np.inf) else np.minimum(hi, cut_hi)
            m, dm = _interval_mass(a, b, u, grad)
            mass = mass + m
            dmass = dmass + dm
        return mass, dmass

    def _eval_t1(self, U, j, grad):
        u1 = U[:, 0]
        mass, dmass = self._final_mass(1, self.env.m0, 0.0, j, None, u1, grad)
        vals = np.broadcast_to(mass, u1.shape).astype(np.float64)
        if not grad:
            return vals, None
        grads = np.zeros_like(U)
        grads[:, 0] = dmass
        return vals, grads

    def _strip_rule(self, j):
        """Nodes and weights over the first draws x_1 that survive epoch 1
        and fit label ``j`` (j = 0 keeps x_1 < 0, j = 1 keeps x_1 > 0).

        The strip is split at 0 and at the depth-2 integrand's kinks,
        where the rank-2 tails meet (the trust boundary) or a tail meets
        the label's cut.  On each side of 0 these are affine in x_1, so a
        kink is one linear solve.  A piece gets Gauss-Legendre panels at
        most ``_PANEL_SPAN`` wide over the side's steepest slope (>= 1).
        """
        sched, res = self.sched, self.table.reservation
        lo, hi = map(float, stop_tails(sched, res, 1, self.env.m0, 0.0))
        edges = []
        for side, a, b in ((0.0, lo, min(hi, 0.0)), (1.0, max(lo, 0.0), hi)):
            if j == 1 - side or not a < b:
                continue
            ends, scale = [a, b], 1.0
            if self.env.N > 2:  # the unmasked tails, and the cut, at x_1 = 0, 1
                x = np.array([0.0, 1.0])
                m, M = sched.a[1] + sched.gamma[1] * x, side * x
                lower, upper, _ = tail_lines(sched, res, 2, m, M)
                scale = max(1.0, abs(lower[1] - lower[0]), abs(upper[1] - upper[0]))
                meets = [(lower, upper)]
                if j is not None:
                    cut = (0.0 * x, x, M)[j]  # the label's cut: 0, x_1 or M_1
                    meets += [(lower, cut), (upper, cut)]
                for f, g in meets:
                    g0, g1 = f - g
                    if g1 != g0 and a < g0 / (g0 - g1) < b:
                        ends.append(g0 / (g0 - g1))
            ends.sort()
            for p, q in zip(ends[:-1], ends[1:]):
                panels = int(np.ceil((q - p) * scale / _PANEL_SPAN))
                edges.append(np.linspace(p, q, panels + 1))
        if not edges:  # an empty strip, e.g. in the trust regime
            return np.empty(0), np.empty(0)
        left = np.concatenate([e[:-1] for e in edges])[:, None]
        width = np.concatenate([np.diff(e) for e in edges])[:, None]
        return (left + width * _GL_X).ravel(), (width * _GL_W).ravel()

    def _eval_t2(self, U, j, grad):
        """Exact depth-2 likelihood at any list length: ``_final_mass``
        integrated against the first draw's density over ``_strip_rule``,
        in blocks of at most ``_MC_CHUNK`` (session, node) pairs."""
        x, w = self._strip_rule(j)
        m1, M1 = self.sched.a[1] + self.sched.gamma[1] * x, np.maximum(x, 0.0)
        vals, grads = np.empty(len(U)), (np.empty(U.shape) if grad else None)
        step = max(1, _MC_CHUNK // max(1, len(x)))
        for i0 in range(0, len(U), step):
            blk = slice(i0, i0 + step)
            d = x - U[blk, :1]
            dens = w * std_normal_pdf(d)
            mass, dmass = self._final_mass(2, m1, M1, j, x if j == 1 else None,
                                           U[blk, 1:], grad)
            part = dens * mass
            vals[blk] = np.sum(part, axis=1)
            if grad:
                grads[blk, 0] = np.sum(part * d, axis=1)
                grads[blk, 1] = np.sum(dens * dmass, axis=1)
        return vals, grads

    def _eval_mc(self, U, j, base, grad=True, riders=()):
        S, t = U.shape
        n = self.n_samples
        vals = np.empty(S)
        grads = np.empty((S, t)) if grad else None
        passes = [(self, U, base, vals, grads),
                  *((ctx, U_r, None, out, None) for ctx, U_r, out in riders)]
        rng = self._rng(t, j)
        step = max(1, _MC_CHUNK // (n * (t - 1)))
        for i0 in range(0, S, step):
            i1 = min(S, i0 + step)
            Z = rng.standard_normal((i1 - i0, n, t - 1))
            for ctx, U_p, base_p, vals_p, grads_p in passes:
                ctx._eval_mc_chunk(U_p[i0:i1], j, Z,
                                   None if base_p is None else base_p[i0:i1],
                                   vals_p[i0:i1],
                                   None if grads_p is None else grads_p[i0:i1])
        return vals, grads

    def _eval_mc_chunk(self, U, j, Z, base, out_vals, out_grads):
        """Monte Carlo values (and, unless ``out_grads`` is None, gradients)
        for one chunk of sessions; Z holds the (S, n, t-1) unit draws and
        is only read."""
        S, t = U.shape
        sched = self.sched
        center = U if base is None else base
        X = center[:, None, :t - 1] + Z

        # a draw reaches depth t if it survives epochs 1..t-1
        depth, csum, runmax = survival(sched, self.table.reservation, 0.0, X)
        ind = depth == t
        xj = X[..., j - 1] if j is not None and 1 <= j <= t - 1 else None
        if j == 0:
            ind &= runmax < 0.0
        elif xj is not None:
            ind &= (xj > 0.0) & (xj >= runmax)

        # final-rank mass of the surviving draws (flat indices into the
        # (S, n) grid); the others weigh zero
        live = np.flatnonzero(ind)
        m_prev = sched.a[t - 1] + sched.gamma[t - 1] * csum.take(live)
        M_prev = np.maximum(runmax.take(live), 0.0)
        u_t = np.repeat(U[:, t - 1], np.count_nonzero(ind, axis=1))
        grad = out_grads is not None
        x_j = None if xj is None else xj.take(live)
        mass, dmass = self._final_mass(t, m_prev, M_prev, j, x_j, u_t, grad)

        contrib = np.zeros(ind.shape)
        contrib.ravel()[live] = mass
        if base is not None:
            shift = U[:, None, :t - 1] - base[:, None, :t - 1]
            logw = np.sum(shift * (X - 0.5 * (U + base)[:, None, :t - 1]), axis=2)
            weight = ind.astype(np.float64) * np.exp(logw)
            contrib = weight * contrib
        out_vals[:] = contrib.mean(axis=1)
        if not grad:
            return
        score = np.empty(ind.shape)
        for i in range(t - 1):
            np.subtract(X[..., i], U[:, i, None], out=score)
            score *= contrib
            out_grads[:, i] = score.mean(axis=1)
        dmass_all = np.zeros(ind.shape)
        dmass_all.ravel()[live] = dmass
        if base is not None:
            dmass_all = weight * dmass_all
        out_grads[:, t - 1] = np.mean(dmass_all, axis=1)


def session_likelihood(record: SessionRecord, model, context: LikelihoodContext,
                       base_means=None):
    """(probability, gradient in the rank feature means) for one session.

    The gradient covers the inspected prefix F_1..F_t in the original
    feature scale.  ``base_means`` recenters the Monte Carlo draws for
    smooth finite differencing under common random numbers; it is ignored
    at depth <= 2, where the value is exact.
    """
    t = record.depth
    prims = context.prims
    F = model.predict(record.features)
    U = ((F[:t] - prims.x_b) / prims.sigma_F)[None, :]
    base = None
    if base_means is not None:
        base = ((np.asarray(base_means, dtype=np.float64)[:t] - prims.x_b)
                / prims.sigma_F)[None, :]
    vals, grads = context.evaluate(U, record.conversion, base=base)
    return float(vals[0]), grads[0] / prims.sigma_F


def nll_objective(records, model, context: LikelihoodContext,
                  grad: bool = True):
    """Total negative log likelihood and its gradient in beta.

    Sessions are grouped by (depth, conversion) and evaluated in batches.
    Sessions whose probability underflows are clamped at a tiny floor
    with zero gradient.  The info dict holds their count ("underflow"),
    the log's length ("sessions") and the probabilities in log order
    ("values").  With ``grad`` false the gradient comes back as None.
    """
    return _nll_passes(records, model, context, (), grad)[0]


class _GroupedLog(list):
    """Session records with their (depth, conversion) groups, in the order
    the passes score them: by depth, then the unlabelled group and labels
    0, 1, ....  ``groups`` holds (t, j, idx, W): the members' positions in
    the log and their features up to depth t, sliced from one stack of
    the whole log."""

    def __init__(self, records):
        super().__init__(records)
        members = {}
        for idx, rec in enumerate(self):
            members.setdefault((rec.depth, rec.conversion), []).append(idx)
        stack = np.stack([rec.features for rec in self]) if self else None
        order = sorted(members, key=lambda tj: (tj[0], -1 if tj[1] is None else tj[1]))
        self.groups = [(t, j, members[t, j], stack[members[t, j], :t])
                       for t, j in order]


def _nll_passes(records, model, context, riders, grad):
    """``nll_objective`` at ``context``, and the NLL at each of ``riders``
    (contexts with its seed and sample count, or None for no pass) from
    the same grouping and Monte Carlo draws, one chunk at a time."""
    if not isinstance(records, _GroupedLog):
        records = _GroupedLog(records)
    live = [ctx for ctx in riders if ctx is not None]
    p = len(model.beta)
    grad_beta = np.zeros(p)
    nlls = [0.0] * (1 + len(live))
    underflow = 0
    values = np.empty(len(records))
    for t, j, idx, W in records.groups:
        F = model.predict(W)
        U, *Us = [(F - ctx.prims.x_b) / ctx.prims.sigma_F for ctx in [context, *live]]
        outs = [np.empty(len(W)) for _ in live]
        if live:
            vals, grads = context._evaluate(U, j, None, grad, list(zip(live, Us, outs)))
        else:  # the public entry point, seen by callers that wrap it
            vals, grads = context.evaluate(U, j, grad=grad)
        values[idx] = vals
        for k, v in enumerate([vals, *outs]):
            ok = v > VALUE_FLOOR
            safe = np.where(ok, v, VALUE_FLOOR)
            nlls[k] -= float(np.sum(np.log(safe)))
            if k == 0:
                underflow += int(np.sum(~ok))
            if k == 0 and grad:
                J = model.jacobian(W)  # (S, t, p)
                w = np.where(ok, 1.0 / safe, 0.0)
                grad_beta -= np.einsum("s,si,sip->p", w, grads / context.prims.sigma_F, J)
    info = {"underflow": underflow, "sessions": len(records), "values": values}
    rider_nlls = iter(nlls[1:])
    return ((nlls[0], (grad_beta if grad else None), info),
            [None if ctx is None else next(rider_nlls) for ctx in riders])


@dataclass
class FitResult:
    beta: np.ndarray
    prims: UserPrimitives
    v0: float
    sigma_eta2: float
    nll_path: list
    converged: bool
    epochs: int
    underflow: int = 0


def fit(records, beta0, prims0: UserPrimitives, profile: RankerProfile,
        policy: str = "optimal", n_samples: int = 512, seed: int = 0,
        lr_beta: float = 2.0, lr_prims: float = 0.5, fd_step: float = 1e-3,
        max_beta_step: float = 0.25, max_prim_step: float = 0.05,
        max_epochs: int = 200, rel_tol: float = 1e-5, patience: int = 10,
        callback=None) -> FitResult:
    """Gradient descent on (beta, c, x_b) with per-epoch recalibration.

    beta steps use the analytic likelihood gradient; (c, x_b) steps use
    central finite differences under common random numbers, with the
    calibrated (v0, sigma_eta2) held fixed within the epoch.  An epoch
    scores each Monte Carlo chunk of draws at its primitives and at the
    probes c +- fd_step, x_b +- fd_step before drawing the next, and
    solves three tables (the x_b probes share the epoch's).  A probe
    outside the region where the table inspects rank 1 is skipped and
    its difference turns one-sided; primitives that leave it, by a step
    or the epoch's recalibration, ``_retreat``.  Each parameter's step is
    capped (the finite-difference gradients are noisy at small sample
    counts); a cap halves when its gradient flips sign and otherwise
    grows 1.2x, up to ``max_beta_step`` for beta and ``max_prim_step``
    for (c, x_b).
    """
    # before _retreat turns their errors into ArithmeticError
    require_count("n_samples", n_samples)
    require_policy(policy)
    require_seed(seed)
    require_count("max_epochs", max_epochs)
    require_count("patience", patience)
    for name, value in (("lr_beta", lr_beta), ("lr_prims", lr_prims),
                        ("fd_step", fd_step), ("max_beta_step", max_beta_step),
                        ("max_prim_step", max_prim_step), ("prims0.c", prims0.c),
                        ("prims0.sigma_F", prims0.sigma_F)):
        require_real(name, value, least=0)
    for name, value in (("prims0.x_b", prims0.x_b), ("prims0.m0", prims0.m0),
                        *((f"beta0[{k}]", b) for k, b in enumerate(beta0))):
        require_real(name, value)
    require_real("rel_tol", rel_tol, least=0, strict=False)
    records = _GroupedLog(records)
    beta = np.asarray(beta0, dtype=np.float64).copy()
    prims = prims0
    prev_prims = prims0
    n = len(records)
    nll_path = []
    converged = False
    info = {"underflow": 0}
    # step caps over (beta, c, x_b); a clipped step that keeps flipping
    # sign is orbiting the minimum
    p = len(beta)
    lr = np.r_[np.full(p, lr_beta), lr_prims, lr_prims]
    cap_max = np.r_[np.full(p, max_beta_step), max_prim_step, max_prim_step]
    cap = cap_max.copy()
    sign = np.zeros(p + 2)
    for epoch in range(max_epochs):
        model = AffineFeatureModel(beta)
        v0, se2 = calibrate(records, model, profile)
        # recalibration can move the step's primitives out of the region,
        # or leave no solvable table there
        prims, ctx = _retreat(prims, prev_prims, lambda cand: LikelihoodContext(
            cand, v0, se2, profile, policy=policy, n_samples=n_samples, seed=seed))
        nll, grad_beta, info, grad_c, grad_xb = _epoch_gradients(
            records, model, ctx, fd_step)
        nll_path.append(nll / n)

        if callback is not None:
            callback(epoch, nll / n, beta, prims)
        if len(nll_path) > patience:
            ref = nll_path[-1 - patience]
            if abs(nll_path[-1] - ref) < rel_tol * abs(ref):
                converged = True
                break

        grad = np.r_[grad_beta, grad_c, grad_xb]
        sgn = np.sign(grad)
        cap = np.where(sign * sgn < 0.0, cap * 0.5, np.minimum(cap * 1.2, cap_max))
        sign = sgn
        delta = np.clip(lr * grad / n, -cap, cap)
        beta = beta - delta[:p]
        dc, dxb = delta[p:]
        prev_prims = prims
        prims = _retreat(
            replace(prims, c=max(prims.c - dc, 1e-6), x_b=prims.x_b - dxb), prims,
            lambda cand: require_interior(_centered_env(cand, v0, se2, profile)))[0]
    model = AffineFeatureModel(beta)
    v0, se2 = calibrate(records, model, profile)
    return FitResult(beta=beta, prims=prims, v0=v0, sigma_eta2=se2,
                     nll_path=nll_path, converged=converged,
                     epochs=len(nll_path), underflow=info["underflow"])


def _retreat(prims, last, check):
    """(p, check(p)) for the first p to pass ``check``: ``prims``, then
    11 points each halfway from the one before toward ``last``, then
    ``last`` itself.  A check passes when it raises neither ValueError nor
    ArithmeticError; ArithmeticError when none passes."""
    for k in range(13):
        try:
            return prims, check(prims)
        except (ValueError, ArithmeticError):
            prims = last if k >= 11 else replace(
                prims, c=0.5 * (prims.c + last.c), x_b=0.5 * (prims.x_b + last.x_b))
    raise ArithmeticError("could not restore the interior condition")


def _epoch_gradients(records, model, ctx, h):
    """(nll, grad_beta, info) at ``ctx``, and the differences of the NLL
    in c and x_b with step ``h``, from one pass over the log."""
    probes = [_probe(ctx, name, getattr(ctx.prims, name) + sgn * h)
              for name in ("c", "x_b") for sgn in (1.0, -1.0)]
    (nll, grad_beta, info), (c_up, c_down, xb_up, xb_down) = _nll_passes(
        records, model, ctx, probes, grad=True)
    return (nll, grad_beta, info, _difference(c_up, nll, c_down, h),
            _difference(xb_up, nll, xb_down, h))


def _probe(ctx, name, value):
    """``ctx`` with primitive ``name`` moved to ``value``, or None outside
    the interior region.  An x_b probe keeps the table: x_b moves only
    the centred m0, which tables never read."""
    try:
        if name == "c":
            return LikelihoodContext(replace(ctx.prims, c=value), ctx.v0,
                                     ctx.sigma_eta2, ctx.profile, ctx.policy,
                                     ctx.n_samples, ctx.seed)
        probe = copy.copy(ctx)
        probe._set_prims(replace(ctx.prims, x_b=value))
        require_first_inspection(probe.env, probe.table)
        return probe
    except (ValueError, ArithmeticError):
        return None


def _difference(up, mid, down, h):
    """Central difference, one-sided against ``mid`` when a side is None
    (0 when both are)."""
    if up is None or down is None:
        return 0.0 if up is down else ((mid - down) if up is None else (up - mid)) / h
    return (up - down) / (2.0 * h)


def simulate_records(model, features, context: LikelihoodContext, seed: int = 0,
                     with_conversion: bool = True):
    """Synthetic sessions drawn from the likelihood's own data model.

    ``features`` is (n, N, d); relevances are the predicted means plus
    unit Gaussian noise, and the stopping rule is the context's policy in
    centered coordinates.  Returns a list of SessionRecord.
    """
    features = np.asarray(features, dtype=np.float64)
    n_sessions, N, _ = features.shape
    if N != context.env.N:
        raise ValueError("feature tensor does not match the list length")
    prims = context.prims
    U = (model.predict(features) - prims.x_b) / prims.sigma_F
    rng = np.random.Generator(np.random.Philox(key=require_seed(seed)))
    X = U + rng.standard_normal((n_sessions, N))

    depth = survival(context.sched, context.table.reservation, 0.0,
                     X[:, :N - 1])[0]
    conv = [None] * n_sessions
    if with_conversion:
        best_step, best_val = best_inspected(X, depth)
        conv = np.where(best_val > 0.0, best_step + 1, 0).tolist()
    return [SessionRecord(features=f, depth=t, conversion=j)
            for f, t, j in zip(features, depth.tolist(), conv)]


def records_to_jsonl(records, path):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps({"features": rec.features.tolist(),
                                 "depth": rec.depth, "J": rec.conversion}) + "\n")


def records_from_jsonl(path):
    """Session records from a JSONL log, one object per non-blank line.

    Every line must hold rectangular 2-D ``features`` (finite JSON
    numbers, not strings or true or false) of the same shape (N, d) as
    the first line, an integer ``depth`` in 1..N, and ``J`` null or an
    integer in 0..depth, which ``SessionRecord`` checks as its
    ``conversion``.  A violation raises ValueError naming the line.
    """
    records = []
    shape = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}, line {lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: not JSON ({exc})") from None
            except RecursionError:
                raise ValueError(f"{where}: JSON nested too deeply") from None
            if not isinstance(obj, dict) or "features" not in obj or "depth" not in obj:
                raise ValueError(f"{where}: expected an object with "
                                 f"'features' and 'depth'")
            rows = obj["features"]
            if not (isinstance(rows, list) and rows and all(
                    isinstance(row, list) and len(row) == len(rows[0]) > 0
                    and all(map(is_finite_real, row)) for row in rows)):
                raise ValueError(f"{where}: features must be a rectangular "
                                 f"2-D (N, d) array of finite numbers")
            features = np.array(rows, dtype=np.float64)
            if shape is None:
                shape = features.shape
            elif features.shape != shape:
                raise ValueError(f"{where}: features have shape "
                                 f"{features.shape}, earlier lines {shape}")
            try:
                records.append(SessionRecord(features, _as_int(obj["depth"]),
                                             _as_int(obj.get("J"))))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return records


def _as_int(value):
    """``value`` as an int when it is an integral JSON float, else as it is."""
    return int(value) if isinstance(value, float) and value.is_integer() else value
