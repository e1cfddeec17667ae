"""Session likelihood for observed inspection depths and conversions.

A logged session reveals the depth t at which the user stopped and,
optionally, which item (or the outside option) they took.  Under the
model the probability of that outcome is an integral of Gaussian mass
over a survival polyhedron, with the final-rank coordinate integrable in
closed form.  This module evaluates that probability, its gradient in
the feature means, and fits an affine feature model together with the
user primitives (c, x_b) by gradient descent.

All internal computation happens in centered coordinates y = (x - x_b) /
sigma_F with the outside option at zero.  Besides simplifying the
stopping geometry, this makes the estimator exactly invariant (bitwise,
for dyadic inputs) under common translations of (features, x_b) and
power-of-two rescalings of (features, x_b, c, sqrt(v0), sigma_eta).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .belief import bayes_weight, posterior_variance
from .environment import (EnvironmentParams, derive, env_from_shift_scale,
                          require_interior)
from .gaussmath import std_normal_cdf, std_normal_pdf
from .policy import myopic_table, optimal_table

VALUE_FLOOR = 1e-300
_NO_CONV = 255  # RNG stream tag for sessions without conversion data

_PANEL_CACHE = {}


def _panel_rule(panels: int = 6, order: int = 16):
    """Composite Gauss-Legendre nodes and weights on the unit interval."""
    key = (panels, order)
    if key not in _PANEL_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        starts = np.arange(panels) / panels
        nodes = (starts[:, None] + (x[None, :] + 1.0) / (2.0 * panels)).ravel()
        weights = np.broadcast_to(w / (2.0 * panels), (panels, order)).ravel()
        _PANEL_CACHE[key] = (nodes, weights)
    return _PANEL_CACHE[key]


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

    ``conversion`` is the taken rank in 1..depth, 0 for the outside
    option, or None when conversions were not logged.
    """

    features: np.ndarray
    depth: int
    conversion: object = None

    def __post_init__(self):
        object.__setattr__(self, "features",
                           np.asarray(self.features, dtype=np.float64))


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
    alpha = profile.alpha_scale * _rank_quantiles(profile)
    stacked = np.stack([rec.features for rec in records])
    resid = model.predict(stacked) - alpha
    mus = resid.mean(axis=1)
    within = resid.var(axis=1, ddof=1)
    v0 = float(np.var(mus, ddof=1))
    sigma_eta2 = float(np.mean(within)) + 1.0
    if not v0 > 0.0:
        raise ValueError("calibrated v0 is not positive; sessions are degenerate")
    return v0, sigma_eta2


def _rank_quantiles(profile: RankerProfile) -> np.ndarray:
    from .environment import rank_quantiles
    return rank_quantiles(profile.N, profile.quantile_rule)


def _centered_env(prims: UserPrimitives, v0: float, sigma_eta2: float,
                  profile: RankerProfile) -> EnvironmentParams:
    """The environment in centered units: outside option at 0, unit
    feature noise."""
    sF = prims.sigma_F
    if not sF > 0.0:
        raise ValueError("sigma_F must be positive")
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


def _phi_ends(e, u, grad):
    """(Phi(e - u), phi(e - u)); an infinite scalar end e gives the exact
    constants Phi = 0 or 1, phi = 0 without touching u."""
    if np.ndim(e) == 0 and np.isinf(e):
        return (1.0 if e > 0.0 else 0.0), 0.0
    d = e - u
    return std_normal_cdf(d), (std_normal_pdf(d) if grad else 0.0)


class LikelihoodContext:
    """Policy table and epoch constants shared across session evaluations.

    Built once per parameter vector; all member arrays live in the
    centered coordinate system (outside option at 0, unit feature noise).
    """

    def __init__(self, prims: UserPrimitives, v0: float, sigma_eta2: float,
                 profile: RankerProfile, policy: str = "optimal",
                 n_samples: int = 4096, seed: int = 0):
        env = _centered_env(prims, v0, sigma_eta2, profile)
        self.prims = prims
        self.profile = profile
        self.v0 = v0
        self.sigma_eta2 = sigma_eta2
        self.env = env
        self.alpha = derive(env).alpha
        self.table = optimal_table(env) if policy == "optimal" else myopic_table(env)
        self.policy = policy
        self.n_samples = int(n_samples)
        self.seed = int(seed)
        self._epoch_cache = {}

    # -- epoch constants -------------------------------------------------

    def _epochs(self, t: int):
        """Affine posterior-mean coefficients and reservations up to t-1."""
        if t not in self._epoch_cache:
            env = self.env
            gammas = np.empty(t - 1)
            offs = np.empty(t - 1)
            for s in range(1, t):
                v_s = posterior_variance(s, env.v0, env.sigma_eta2)
                gam = v_s / env.sigma_eta2
                gammas[s - 1] = gam
                offs[s - 1] = (v_s / env.v0) * env.m0 - gam * float(np.sum(self.alpha[:s]))
            self._epoch_cache[t] = (gammas, offs)
        return self._epoch_cache[t]

    def _rng(self, t: int, j):
        code = _NO_CONV if j is None else int(j)
        key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF,
                        (t << 16) | code], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    # -- group evaluation ------------------------------------------------

    def evaluate(self, U: np.ndarray, j, base: np.ndarray = None,
                 grad: bool = True):
        """Likelihood values and mean-gradients for a depth-t group.

        U is (S, t): centered feature means of the inspected prefix for S
        sessions sharing depth t and conversion label j.  Returns
        (values (S,), grads (S, t)), with grads None when ``grad`` is
        false.  ``base`` switches the Monte Carlo draws to importance
        sampling around other means, which keeps the estimate smooth in U
        under common random numbers.
        """
        U = np.atleast_2d(np.asarray(U, dtype=np.float64))
        S, t = U.shape
        N = self.env.N
        if not 1 <= t <= N:
            raise ValueError("depth out of range")
        if j is not None and not 0 <= j <= t:
            raise ValueError("conversion label out of range")
        if t == 1:
            return self._eval_t1(U, j, grad)
        if t == 2 and t == N:
            if j is None:
                vals, grads = self._eval_strip_horizon(U)
            else:
                vals, grads = self._eval_strip_conversion(U, j)
            return vals, grads if grad else None
        return self._eval_mc(U, j, base, grad)

    def _final_set(self, m_prev, M_prev, t):
        """Stopping tails for the rank-t draw given the epoch-(t-1) belief.

        Returns (lo1, hi1, lo2, hi2) broadcastable arrays.  The ends that
        are infinite for every draw are plain floats: lo1 = -inf, hi2 =
        +inf, and at the horizon the whole line (-inf, +inf) with an empty
        second tail (+inf, +inf).
        """
        env = self.env
        inf = np.inf
        if t == env.N:
            return -inf, inf, inf, inf
        omega = bayes_weight(t, env)
        alpha_t = self.alpha[t - 1]
        r_t = float(self.table.reservation[t])
        lead = M_prev - m_prev
        trust = r_t <= (1.0 - omega) * lead + omega * alpha_t
        lower = m_prev + alpha_t + (lead - r_t) / omega
        upper = m_prev + alpha_t + (r_t - alpha_t) / (1.0 - omega)
        return -inf, np.where(trust, inf, lower), np.where(trust, inf, upper), inf

    @staticmethod
    def _masses(tails, cut_lo, cut_hi, u, grad=True):
        """Gaussian mass of (two tails) intersected with [cut_lo, cut_hi].

        Returns (mass, dmass/du) for a unit-variance Gaussian at mean u,
        with dmass 0.0 when ``grad`` is false.  Phi and phi are evaluated
        only at the ends that can be finite; a result that does not depend
        on u may come back as a scalar.
        """
        lo1, hi1, lo2, hi2 = tails
        mass = 0.0
        dmass = 0.0
        for lo, hi in ((lo1, hi1), (lo2, hi2)):
            if np.ndim(lo) == 0 and lo == np.inf:
                continue  # empty tail: adds an exact zero
            a = np.maximum(lo, cut_lo)
            b = np.minimum(hi, cut_hi)
            open_ = b > a
            cdf_a, pdf_a = _phi_ends(a, u, grad)
            cdf_b, pdf_b = _phi_ends(b, u, grad)
            mass = mass + np.where(open_, cdf_b - cdf_a, 0.0)
            if grad:
                dmass = dmass + np.where(open_, pdf_a - pdf_b, 0.0)
        return mass, dmass

    def _eval_t1(self, U, j, grad):
        env = self.env
        u1 = U[:, 0]
        tails = self._final_set(env.m0, 0.0, 1)
        if j is None:
            cut_lo, cut_hi = -np.inf, np.inf
        elif j == 1:
            cut_lo, cut_hi = 0.0, np.inf
        else:  # j == 0
            cut_lo, cut_hi = -np.inf, 0.0
        mass, dmass = self._masses(tails, cut_lo, cut_hi, u1, grad)
        vals = np.broadcast_to(mass, u1.shape).astype(np.float64)
        if not grad:
            return vals, None
        grads = np.zeros_like(U)
        grads[:, 0] = dmass
        return vals, grads

    def _strip(self):
        """Depth-2 survival strip (s_lo, s_hi) for the first draw."""
        gammas, offs = self._epochs(2)
        r1 = float(self.table.reservation[1])
        s_lo = -(offs[0] + r1) / gammas[0]
        s_hi = (offs[0] + r1) / (1.0 - gammas[0])
        return s_lo, s_hi

    def _eval_strip_horizon(self, U):
        # depth 2 of a 2-item list with no conversion label: the final
        # rank is unconstrained, so the likelihood is the strip mass.
        s_lo, s_hi = self._strip()
        u1 = U[:, 0]
        vals = np.clip(std_normal_cdf(s_hi - u1) - std_normal_cdf(s_lo - u1),
                       0.0, None)
        grads = np.zeros_like(U)
        grads[:, 0] = std_normal_pdf(s_lo - u1) - std_normal_pdf(s_hi - u1)
        return vals, grads

    def _eval_strip_conversion(self, U, j):
        """Exact depth-2 likelihood of a 2-item list with a logged choice.

        Integrates the rank-2 choice mass over the surviving first draw
        with composite Gauss-Legendre panels; the j = 2 integrand kinks
        at zero, so the strip is split there.
        """
        s_lo, s_hi = self._strip()
        u1 = U[:, 0][:, None]
        u2 = U[:, 1][:, None]
        vals = np.zeros(U.shape[0])
        grads = np.zeros_like(U)
        if not s_lo < s_hi:
            return vals, grads
        if j == 0:
            # first draw below zero, choice mass below zero is a constant
            b = min(s_hi, 0.0)
            if b > s_lo:
                strip = (std_normal_cdf(b - u1[:, 0])
                         - std_normal_cdf(s_lo - u1[:, 0]))
                tail = std_normal_cdf(-u2[:, 0])
                vals[:] = strip * tail
                grads[:, 0] = (std_normal_pdf(s_lo - u1[:, 0])
                               - std_normal_pdf(b - u1[:, 0])) * tail
                grads[:, 1] = -strip * std_normal_pdf(-u2[:, 0])
            return vals, grads
        if j == 1:
            pieces = [(max(s_lo, 0.0), s_hi)]
        else:
            pieces = [(s_lo, min(s_hi, 0.0)), (max(s_lo, 0.0), s_hi)]
        nodes, weights = _panel_rule()
        for a, b in pieces:
            if not a < b:
                continue
            x = a + (b - a) * nodes
            w = (b - a) * weights
            phi1 = std_normal_pdf(x - u1)
            if j == 1:
                mass = std_normal_cdf(x - u2)
                dmass = -std_normal_pdf(x - u2)
            else:
                best = np.maximum(x, 0.0)
                mass = std_normal_cdf(u2 - best)
                dmass = std_normal_pdf(u2 - best)
            vals += np.sum(w * phi1 * mass, axis=1)
            grads[:, 0] += np.sum(w * phi1 * (x - u1) * mass, axis=1)
            grads[:, 1] += np.sum(w * phi1 * dmass, axis=1)
        return vals, grads

    def _eval_mc(self, U, j, base, grad=True, chunk: int = 1 << 22):
        S, t = U.shape
        n = self.n_samples
        vals = np.empty(S)
        grads = np.empty((S, t)) if grad else None
        rng = self._rng(t, j)
        step = max(1, chunk // (n * (t - 1)))
        for i0 in range(0, S, step):
            i1 = min(S, i0 + step)
            Z = rng.standard_normal((i1 - i0, n, t - 1))
            self._eval_mc_chunk(U[i0:i1], j, Z,
                                None if base is None else base[i0:i1],
                                vals[i0:i1], None if grads is None else grads[i0:i1])
        return vals, grads

    def _eval_mc_chunk(self, U, j, Z, base, out_vals, out_grads):
        """Monte Carlo values (and, unless ``out_grads`` is None, gradients)
        for one chunk of sessions; Z holds the (S, n, t-1) unit draws."""
        S, t = U.shape
        gammas, offs = self._epochs(t)
        res = self.table.reservation
        center = U if base is None else base
        X = center[:, None, :t - 1] + Z

        # running sum and maximum, epoch by epoch: a draw survives epoch s
        # while the lead stays below r_s
        ind = np.ones(X.shape[:2], dtype=bool)
        for s in range(1, t):
            x_s = X[..., s - 1]
            csum = x_s if s == 1 else csum + x_s
            runmax = x_s if s == 1 else np.maximum(runmax, x_s)
            thr = offs[s - 1] + gammas[s - 1] * csum + float(res[s])
            ind &= (0.0 < thr) & (runmax < thr)
        if j == 0:
            ind &= runmax < 0.0
        elif j is not None and 1 <= j <= t - 1:
            xj = X[..., j - 1]
            ind &= (xj > 0.0) & (xj >= runmax)

        # final-rank mass of the surviving draws; the others weigh zero
        m_prev = offs[t - 2] + gammas[t - 2] * csum[ind]
        M_prev = np.maximum(runmax[ind], 0.0)
        tails = self._final_set(m_prev, M_prev, t)
        if j is None:
            cut_lo, cut_hi = -np.inf, np.inf
        elif j == t:
            cut_lo, cut_hi = M_prev, np.inf
        elif j == 0:
            cut_lo, cut_hi = -np.inf, 0.0
        else:
            cut_lo, cut_hi = -np.inf, X[..., j - 1][ind]
        u_t = np.broadcast_to(U[:, t - 1, None], ind.shape)[ind]
        grad = out_grads is not None
        mass, dmass = self._masses(tails, cut_lo, cut_hi, u_t, grad)

        contrib = np.zeros(ind.shape)
        contrib[ind] = mass
        if base is not None:
            shift = U[:, None, :t - 1] - base[:, None, :t - 1]
            logw = np.sum(shift * (X - 0.5 * (U + base)[:, None, :t - 1]), axis=2)
            weight = ind.astype(np.float64) * np.exp(logw)
            contrib = weight * contrib
        out_vals[:] = contrib.mean(axis=1)
        if not grad:
            return
        for i in range(t - 1):
            out_grads[:, i] = np.mean(contrib * (X[..., i] - U[:, i, None]), axis=1)
        dmass_all = np.zeros(ind.shape)
        dmass_all[ind] = dmass
        if base is not None:
            dmass_all = weight * dmass_all
        out_grads[:, t - 1] = np.mean(dmass_all, axis=1)


def session_likelihood(record: SessionRecord, model, context: LikelihoodContext,
                       base_means=None):
    """(probability, gradient in the rank feature means) for one session.

    The gradient covers the inspected prefix F_1..F_t in the original
    feature scale.  ``base_means`` recenters the Monte Carlo draws for
    smooth finite differencing under common random numbers.
    """
    t = int(record.depth)
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
    with zero gradient; their count is reported in the info dict.  With
    ``grad`` false the gradient is not computed and comes back as None.
    """
    prims = context.prims
    groups = {}
    for idx, rec in enumerate(records):
        groups.setdefault((int(rec.depth), rec.conversion), []).append(idx)

    p = len(model.beta)
    grad_beta = np.zeros(p)
    nll = 0.0
    underflow = 0
    for (t, j), idxs in sorted(groups.items(),
                               key=lambda kv: (kv[0][0],
                                               -1 if kv[0][1] is None else kv[0][1])):
        W = np.stack([records[i].features[:t] for i in idxs])
        F = model.predict(W)
        U = (F - prims.x_b) / prims.sigma_F
        vals, grads = context.evaluate(U, j, grad=grad)
        ok = vals > VALUE_FLOOR
        underflow += int(np.sum(~ok))
        safe = np.where(ok, vals, VALUE_FLOOR)
        nll -= float(np.sum(np.log(safe)))
        if grad:
            J = model.jacobian(W)  # (S, t, p)
            w = np.where(ok, 1.0 / safe, 0.0)
            grad_beta -= np.einsum("s,si,sip->p", w, grads / prims.sigma_F, J)
    info = {"underflow": underflow, "sessions": len(records)}
    return nll, (grad_beta if grad else None), info


def _nll_value(records, model, prims, v0, sigma_eta2, profile, policy,
               n_samples, seed):
    ctx = LikelihoodContext(prims, v0, sigma_eta2, profile, policy=policy,
                            n_samples=n_samples, seed=seed)
    nll, _, info = nll_objective(records, model, ctx, grad=False)
    return nll, info


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
    calibrated (v0, sigma_eta2) held fixed within the epoch.  Per-epoch
    step sizes are capped (the finite-difference gradients are noisy at
    small sample counts), and steps that leave the interior region
    (where inspecting rank 1 is worthwhile) are backtracked.
    """
    beta = np.asarray(beta0, dtype=np.float64).copy()
    prims = prims0
    prev_prims = prims0
    n = len(records)
    nll_path = []
    converged = False
    info = {"underflow": 0}
    # per-parameter step caps, halved whenever the gradient flips sign
    # (a clipped step that keeps flipping is orbiting the minimum)
    cap_beta = np.full_like(beta, max_beta_step)
    cap_c = cap_xb = max_prim_step
    sign_beta = np.zeros_like(beta)
    sign_c = sign_xb = 0.0

    def _adapt(cap, prev_sign, grad, cap_max):
        sgn = np.sign(grad)
        if isinstance(cap, np.ndarray):
            flip = (prev_sign * sgn) < 0.0
            cap = np.where(flip, cap * 0.5, np.minimum(cap * 1.2, cap_max))
        else:
            cap = cap * 0.5 if prev_sign * sgn < 0.0 else min(cap * 1.2, cap_max)
        return cap, sgn
    for epoch in range(max_epochs):
        model = AffineFeatureModel(beta)
        v0, se2 = calibrate(records, model, profile)
        ctx = None
        for _ in range(12):
            try:
                ctx = LikelihoodContext(prims, v0, se2, profile, policy=policy,
                                        n_samples=n_samples, seed=seed)
                break
            except (ValueError, ArithmeticError):
                # recalibration flipped the interior condition, or the
                # last step (checked for interiority only) left no
                # solvable table; retreat toward the last accepted primitives
                prims = replace(prims,
                                c=0.5 * (prims.c + prev_prims.c),
                                x_b=0.5 * (prims.x_b + prev_prims.x_b))
        if ctx is None:
            raise ArithmeticError("could not restore the interior condition")
        nll, grad_beta, info = nll_objective(records, model, ctx)
        nll_path.append(nll / n)

        grad_c = _fd_prim(records, model, prims, "c", fd_step, v0, se2,
                          profile, policy, n_samples, seed)
        grad_xb = _fd_prim(records, model, prims, "x_b", fd_step, v0, se2,
                           profile, policy, n_samples, seed)

        if callback is not None:
            callback(epoch, nll / n, beta, prims)
        if len(nll_path) > patience:
            ref = nll_path[-1 - patience]
            if abs(nll_path[-1] - ref) < rel_tol * abs(ref):
                converged = True
                break

        cap_beta, sign_beta = _adapt(cap_beta, sign_beta, grad_beta, max_beta_step)
        cap_c, sign_c = _adapt(cap_c, sign_c, grad_c, max_prim_step)
        cap_xb, sign_xb = _adapt(cap_xb, sign_xb, grad_xb, max_prim_step)
        db = np.clip(lr_beta * grad_beta / n, -cap_beta, cap_beta)
        beta = beta - db
        dc = np.clip(lr_prims * grad_c / n, -cap_c, cap_c)
        dxb = np.clip(lr_prims * grad_xb / n, -cap_xb, cap_xb)
        prev_prims = prims
        step = 1.0
        for _ in range(12):
            cand = replace(prims, c=max(prims.c - step * dc, 1e-6),
                           x_b=prims.x_b - step * dxb)
            try:
                require_interior(_centered_env(cand, v0, se2, profile))
            except ValueError:
                step *= 0.5
                continue
            prims = cand
            break
    model = AffineFeatureModel(beta)
    v0, se2 = calibrate(records, model, profile)
    return FitResult(beta=beta, prims=prims, v0=v0, sigma_eta2=se2,
                     nll_path=nll_path, converged=converged,
                     epochs=len(nll_path), underflow=info["underflow"])


def _fd_prim(records, model, prims, name, h, v0, se2, profile, policy,
             n_samples, seed):
    """Central difference of the NLL in one primitive, skipping sides
    that violate the interior condition."""
    vals = []
    for sgn in (1.0, -1.0):
        cand = replace(prims, **{name: getattr(prims, name) + sgn * h})
        try:
            nll, _ = _nll_value(records, model, cand, v0, se2, profile,
                                policy, n_samples, seed)
        except (ValueError, ArithmeticError):
            nll = None
        vals.append(nll)
    if vals[0] is not None and vals[1] is not None:
        return (vals[0] - vals[1]) / (2.0 * h)
    base, _ = _nll_value(records, model, prims, v0, se2, profile, policy,
                         n_samples, seed)
    if vals[0] is not None:
        return (vals[0] - base) / h
    if vals[1] is not None:
        return (base - vals[1]) / h
    return 0.0


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
    F = model.predict(features)
    U = (F - prims.x_b) / prims.sigma_F
    rng = np.random.Generator(np.random.Philox(key=seed))
    X = U + rng.standard_normal((n_sessions, N))

    env = context.env
    res = context.table.reservation
    alpha = context.alpha
    m = np.full(n_sessions, env.m0)
    v = np.full(n_sessions, env.v0)
    M = np.zeros(n_sessions)
    depth = np.full(n_sessions, N, dtype=np.int64)
    active = np.ones(n_sessions, dtype=bool)
    for t in range(1, N + 1):
        x_t = X[:, t - 1]
        v_new = 1.0 / (1.0 / v + 1.0 / env.sigma_eta2)
        m = np.where(active,
                     (v_new / v) * m + (v_new / env.sigma_eta2) * (x_t - alpha[t - 1]),
                     m)
        v = np.where(active, v_new, v)
        M = np.where(active, np.maximum(M, x_t), M)
        if t < N:
            stop = active & (M - m >= res[t])
        else:
            stop = active
        depth[stop] = t
        active &= ~stop

    records = []
    for i in range(n_sessions):
        t = int(depth[i])
        conv = None
        if with_conversion:
            pre = X[i, :t]
            best = int(np.argmax(pre)) + 1
            conv = best if pre[best - 1] > 0.0 else 0
        records.append(SessionRecord(features=features[i], depth=t,
                                     conversion=conv))
    return records


def records_to_jsonl(records, path):
    with open(path, "w") as fh:
        for rec in records:
            conv = None if rec.conversion is None else int(rec.conversion)
            fh.write(json.dumps({"features": rec.features.tolist(),
                                 "depth": int(rec.depth),
                                 "J": conv}) + "\n")


def records_from_jsonl(path):
    """Session records from a JSONL log, one object per non-blank line.

    Every line must hold rectangular 2-D ``features`` of the same shape
    (N, d) as the first line, an integer ``depth`` in 1..N, and ``J``
    null or an integer in 0..depth.  A violation raises ValueError
    naming the line.
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
            if not isinstance(obj, dict) or "features" not in obj or "depth" not in obj:
                raise ValueError(f"{where}: expected an object with "
                                 f"'features' and 'depth'")
            try:
                features = np.asarray(obj["features"], dtype=np.float64)
            except (ValueError, TypeError):
                features = None
            if features is None or features.ndim != 2 or 0 in features.shape:
                raise ValueError(f"{where}: features must be a rectangular "
                                 f"2-D (N, d) array of numbers")
            if shape is None:
                shape = features.shape
            elif features.shape != shape:
                raise ValueError(f"{where}: features have shape "
                                 f"{features.shape}, earlier lines {shape}")
            depth, conv = _as_int(obj["depth"]), obj.get("J")
            if depth is None or not 1 <= depth <= shape[0]:
                raise ValueError(f"{where}: depth must be an integer in "
                                 f"1..{shape[0]}, got {obj['depth']!r}")
            if conv is not None:
                conv = _as_int(conv)
                if conv is None or not 0 <= conv <= depth:
                    raise ValueError(f"{where}: J must be null or an integer "
                                     f"in 0..{depth}, got {obj['J']!r}")
            records.append(SessionRecord(features=features, depth=depth,
                                         conversion=conv))
    return records


def _as_int(value):
    """``value`` as an int when it is an integral JSON number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return int(value) if float(value).is_integer() else None
