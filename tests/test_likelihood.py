"""Session likelihood: closed forms, estimator, gradients, calibration."""

import numpy as np
import pytest

from standout.belief import bayes_weight
from standout.environment import EnvironmentParams, derive
from standout.gaussmath import std_normal_cdf, std_normal_pdf
from standout.likelihood import (AffineFeatureModel, LikelihoodContext,
                                 RankerProfile, SessionRecord, UserPrimitives,
                                 calibrate, fit, nll_objective,
                                 records_from_jsonl, records_to_jsonl,
                                 session_likelihood, simulate_records)


def setup_context(N=3, n_samples=4096, seed=0, c=0.08, x_b=-0.4, **kw):
    env = EnvironmentParams(N=N, sigma_x2=1.0, sigma_e2=1.0, v0=1.0,
                            c=c, x_b=x_b)
    profile = RankerProfile.from_env(env)
    model = AffineFeatureModel([0.2, 0.5, -0.3])
    rng = np.random.default_rng(12)
    W = rng.normal(size=(1500, N, 2))
    records = [SessionRecord(w, 1) for w in W]
    v0, se2 = calibrate(records, model, profile)
    prims = UserPrimitives(c=c, x_b=x_b, **kw)
    ctx = LikelihoodContext(prims, v0, se2, profile, n_samples=n_samples,
                            seed=seed)
    return ctx, model, W


def test_calibration_hand_computed():
    env = EnvironmentParams(N=2, sigma_x2=1.0, sigma_e2=1.0, v0=1.0, c=0.1)
    profile = RankerProfile.from_env(env)
    alpha = profile.alpha_scale * derive(env).q
    model = AffineFeatureModel([0.0, 1.0])
    # two sessions with scalar features chosen for easy arithmetic
    W = np.array([[[1.0], [0.0]], [[0.0], [-1.0]]])
    records = [SessionRecord(w, 1) for w in W]
    mus = [np.mean(W[i, :, 0] - alpha) for i in range(2)]
    v0_ref = np.var(mus, ddof=1)
    within_ref = np.mean([np.var(W[i, :, 0] - alpha, ddof=1)
                          for i in range(2)]) + 1.0
    v0, se2 = calibrate(records, model, profile)
    assert v0 == pytest.approx(v0_ref, rel=1e-12)
    assert se2 == pytest.approx(within_ref, rel=1e-12)


def test_calibration_rejects_degenerate_log():
    env = EnvironmentParams(N=2, sigma_x2=1.0, sigma_e2=1.0, v0=1.0, c=0.1)
    profile = RankerProfile.from_env(env)
    model = AffineFeatureModel([0.0, 1.0])
    W = np.zeros((3, 2, 1))
    with pytest.raises(ValueError):
        calibrate([SessionRecord(w, 1) for w in W], model, profile)


def test_depth_one_closed_form():
    # independent reference: P(tau = 1) for x1 ~ N(F1, 1) via the explore
    # interval endpoints of the centered environment
    ctx, model, W = setup_context()
    feats = W[3]
    F = model.predict(feats)
    u1 = F[0] - ctx.prims.x_b
    from standout.firststop import classify_first_stop
    report = classify_first_stop(ctx.env, ctx.table)
    # endpoints are prior-predictive; rescale to the unit feature noise
    lo = std_normal_cdf(report.s1_minus - u1)
    hi = 1.0 - std_normal_cdf(report.s1_plus - u1)
    val, grad = session_likelihood(SessionRecord(feats, 1), model, ctx)
    assert val == pytest.approx(lo + hi, abs=1e-12)


def test_depth_one_against_direct_simulation():
    ctx, model, W = setup_context()
    feats = W[5]
    u = model.predict(feats) - ctx.prims.x_b
    rng = np.random.default_rng(77)
    n = 400_000
    x1 = u[0] + rng.standard_normal(n)
    # stop after one inspection iff the lead reaches the reservation level
    env = ctx.env
    omega = env.v0 / (env.v0 + env.sigma_eta2)
    m1 = (1 - omega) * env.m0 + omega * (x1 - ctx.alpha[0])
    lead = np.maximum(0.0, x1) - m1
    emp = np.mean(lead >= ctx.table.reservation[1])
    val, _ = session_likelihood(SessionRecord(feats, 1), model, ctx)
    se = np.sqrt(emp * (1 - emp) / n)
    assert abs(val - emp) < 3 * se


def test_conversion_masses_partition_depth_mass():
    ctx, model, W = setup_context(n_samples=30_000)
    feats = W[8]
    for t in (2, 3):
        whole, _ = session_likelihood(SessionRecord(feats, t), model, ctx)
        parts = [session_likelihood(SessionRecord(feats, t, j), model, ctx)[0]
                 for j in range(t + 1)]
        se = 3.0 / np.sqrt(ctx.n_samples)  # generous bound on combined noise
        assert abs(sum(parts) - whole) < 3 * se


def test_gradient_matches_crn_finite_differences():
    ctx, model, W = setup_context(n_samples=60_000)
    feats = W[2]
    F = model.predict(feats)

    class Stub:
        def __init__(self, Fv):
            self.F = np.asarray(Fv)

        def predict(self, W):
            return self.F

    h = 1e-5
    for t, j in [(1, None), (2, None), (3, None), (3, 1), (3, 3), (2, 0)]:
        rec = SessionRecord(feats, t, j)
        try:
            val, grad = session_likelihood(rec, model, ctx)
        except ValueError:
            continue
        if val < 1e-12:
            continue
        fd = np.zeros(t)
        for i in range(t):
            Fp, Fm = F.copy(), F.copy()
            Fp[i] += h
            Fm[i] -= h
            vp, _ = session_likelihood(rec, Stub(Fp), ctx, base_means=F)
            vm, _ = session_likelihood(rec, Stub(Fm), ctx, base_means=F)
            fd[i] = (vp - vm) / (2 * h)
        scale = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(grad - fd)) / scale <= 1e-2


def test_translation_invariance_bit_exact():
    # shifting the value scale (intercept, outside option, prior anchor)
    # by the same dyadic amount leaves every likelihood bit unchanged;
    # inputs are quantized so all intermediate sums are exact
    env = EnvironmentParams(N=3, sigma_x2=1.0, sigma_e2=1.0, v0=1.0,
                            c=0.08, x_b=-0.375)
    profile = RankerProfile.from_env(env)
    model = AffineFeatureModel([0.25, 0.5, -0.3125])
    rng = np.random.default_rng(12)
    W = np.rint(rng.normal(size=(20, 3, 2)) * 2.0 ** 20) / 2.0 ** 20
    delta = 0.8125
    prims = UserPrimitives(c=0.08, x_b=-0.375)
    prims2 = UserPrimitives(c=0.08, x_b=-0.375 + delta, m0=delta)
    ctx = LikelihoodContext(prims, 1.1, 1.9, profile, n_samples=2048, seed=0)
    ctx2 = LikelihoodContext(prims2, 1.1, 1.9, profile, n_samples=2048, seed=0)
    shifted = AffineFeatureModel([model.beta[0] + delta, *model.beta[1:]])
    for t, j in [(1, None), (2, 2), (3, None), (3, 0)]:
        rec = SessionRecord(W[4], t, j)
        a, ga = session_likelihood(rec, model, ctx)
        b, gb = session_likelihood(rec, shifted, ctx2)
        assert a == b
        assert np.array_equal(ga, gb)


def test_scale_invariance_bit_exact():
    # power-of-two rescaling of the relevance scale is exactly neutral
    ctx, model, W = setup_context(n_samples=2048)
    lam = 4.0
    profile2 = RankerProfile(N=ctx.profile.N,
                             alpha_scale=ctx.profile.alpha_scale * lam,
                             quantile_rule=ctx.profile.quantile_rule)
    prims2 = UserPrimitives(c=ctx.prims.c * lam, x_b=ctx.prims.x_b * lam,
                            sigma_F=lam)
    ctx2 = LikelihoodContext(prims2, ctx.v0 * lam * lam,
                             ctx.sigma_eta2 * lam * lam, profile2,
                             n_samples=2048, seed=ctx.seed)
    scaled = AffineFeatureModel(lam * model.beta)
    for t, j in [(1, None), (2, None), (3, 3)]:
        rec = SessionRecord(W[6], t, j)
        a, ga = session_likelihood(rec, model, ctx)
        b, gb = session_likelihood(rec, scaled, ctx2)
        assert a == b
        assert np.array_equal(ga * 1.0, gb * lam)


def test_two_item_conversion_closed_form():
    # the quadrature path for depth 2 of a 2-item list must agree with
    # the Monte Carlo estimator and partition the no-label strip mass
    env = EnvironmentParams(N=2, sigma_x2=1.0, sigma_e2=1.0, v0=1.0,
                            c=0.1, x_b=-0.3)
    profile = RankerProfile.from_env(env)
    model = AffineFeatureModel([0.3, 0.6, -0.4])
    W = np.random.default_rng(0).normal(size=(400, 2, 2))
    v0, se2 = calibrate([SessionRecord(w, 1) for w in W], model, profile)
    ctx = LikelihoodContext(UserPrimitives(0.1, -0.3), v0, se2, profile,
                            n_samples=200_000, seed=5)
    F = model.predict(W[7])
    U = ((F - ctx.prims.x_b) / ctx.prims.sigma_F)[None, :]
    total = 0.0
    for j in (0, 1, 2):
        v_exact, g_exact = ctx._eval_strip_conversion(U, j)
        v_mc, g_mc = ctx._eval_mc(U, j, None)
        se = 3.0 / np.sqrt(ctx.n_samples)
        assert abs(v_exact[0] - v_mc[0]) < se
        assert np.max(np.abs(g_exact - g_mc)) < 2.0 * se
        total += v_exact[0]
    v_none, _ = ctx.evaluate(U, None)
    assert total == pytest.approx(v_none[0], abs=1e-12)


def test_nll_objective_grouping_matches_loop():
    ctx, model, W = setup_context(n_samples=512, seed=9)
    records = simulate_records(model, W[:200], ctx, seed=33)
    nll, grad_beta, info = nll_objective(records, model, ctx)
    assert info["sessions"] == 200
    assert info["underflow"] == 0
    assert np.isfinite(nll) and np.all(np.isfinite(grad_beta))
    # same records in a different order give the same total (group CRN)
    manual = 0.0
    by_group = {}
    for rec in records:
        by_group.setdefault((rec.depth, rec.conversion), []).append(rec)
    for group in by_group.values():
        n2, _, _ = nll_objective(group, model, ctx)
        manual += n2
    assert manual == pytest.approx(nll, rel=1e-12)


def test_underflow_is_flagged():
    ctx, model, W = setup_context(n_samples=256)
    absurd = W[0].copy()
    absurd[:, :] = 80.0  # a first draw this large always stops
    records = [SessionRecord(absurd, ctx.profile.N)]
    nll, _, info = nll_objective(records, model, ctx)
    assert info["underflow"] == 1
    assert np.isfinite(nll)


def test_simulated_depth_frequencies_match_likelihood():
    ctx, model, W = setup_context(N=2, n_samples=4096)
    feats = np.broadcast_to(W[1], (30_000, 2, 2)).copy()
    records = simulate_records(model, feats, ctx, seed=44,
                               with_conversion=False)
    depths = np.array([r.depth for r in records])
    for t in (1, 2):
        val, _ = session_likelihood(SessionRecord(W[1], t), model, ctx)
        emp = np.mean(depths == t)
        se = np.sqrt(emp * (1 - emp) / len(records))
        assert abs(val - emp) < 4 * se


def test_jsonl_roundtrip(tmp_path):
    ctx, model, W = setup_context(n_samples=128)
    records = simulate_records(model, W[:20], ctx, seed=1)
    path = tmp_path / "log.jsonl"
    records_to_jsonl(records, path)
    back = records_from_jsonl(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.depth == b.depth and a.conversion == b.conversion
        assert np.allclose(a.features, b.features)


def test_fit_improves_and_converges_on_small_log():
    ctx, model, W = setup_context(N=2, n_samples=512, seed=5)
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(3000, 2, 2))
    records = simulate_records(model, feats, ctx, seed=21)
    res = fit(records, [0.0, 0.3, -0.1],
              UserPrimitives(ctx.prims.c, ctx.prims.x_b), ctx.profile,
              n_samples=256, max_epochs=40, seed=2)
    assert res.nll_path[-1] < res.nll_path[0]
    assert np.all(np.isfinite(res.beta))
    assert res.prims.c > 0


def test_conversions_sharpen_the_fit():
    # with conversion labels each session's outcome is a finer event, and
    # the per-session NLL at the truth is necessarily larger; the useful
    # comparison is that conversion data still evaluates finitely and
    # partitions correctly, while depth-only logs drop the labels
    ctx, model, W = setup_context(n_samples=2048, seed=6)
    records = simulate_records(model, W[:300], ctx, seed=9)
    depth_only = [SessionRecord(r.features, r.depth) for r in records]
    nll_conv, _, info_c = nll_objective(records, model, ctx)
    nll_depth, _, info_d = nll_objective(depth_only, model, ctx)
    assert info_c["underflow"] == 0 and info_d["underflow"] == 0
    assert nll_conv > nll_depth  # finer events, smaller probabilities


class AllDrawsContext(LikelihoodContext):
    """The Monte Carlo kernel that computes the final-rank mass and its
    gradient on every draw, with full arrays for the infinite ends: the
    reference for the survivor-only, value-only kernel."""

    def _final_set(self, m_prev, M_prev, t):
        env = self.env
        inf = np.inf
        if t == env.N:
            z = np.zeros(np.broadcast(np.asarray(m_prev), np.asarray(M_prev)).shape)
            return z - inf, z + inf, z + inf, z + inf
        omega = bayes_weight(t, env)
        alpha_t = self.alpha[t - 1]
        r_t = float(self.table.reservation[t])
        lead = M_prev - m_prev
        trust = r_t <= (1.0 - omega) * lead + omega * alpha_t
        lower = m_prev + alpha_t + (lead - r_t) / omega
        upper = m_prev + alpha_t + (r_t - alpha_t) / (1.0 - omega)
        lo1 = np.broadcast_to(-inf, np.shape(trust)).copy() if np.ndim(trust) else -inf
        hi1 = np.where(trust, inf, lower)
        lo2 = np.where(trust, inf, upper)
        hi2 = np.broadcast_to(inf, np.shape(trust)).copy() if np.ndim(trust) else inf
        return lo1, hi1, lo2, hi2

    @staticmethod
    def _masses(tails, cut_lo, cut_hi, u, grad=True):
        lo1, hi1, lo2, hi2 = tails
        mass = 0.0
        dmass = 0.0
        for lo, hi in ((lo1, hi1), (lo2, hi2)):
            a = np.maximum(lo, cut_lo)
            b = np.minimum(hi, cut_hi)
            open_ = b > a
            mass = mass + np.where(open_,
                                   std_normal_cdf(b - u) - std_normal_cdf(a - u),
                                   0.0)
            dmass = dmass + np.where(open_,
                                     std_normal_pdf(a - u) - std_normal_pdf(b - u),
                                     0.0)
        return mass, dmass

    def _eval_mc_chunk(self, U, j, Z, base, out_vals, out_grads):
        S, t = U.shape
        gammas, offs = self._epochs(t)
        res = self.table.reservation
        center = U if base is None else base
        X = center[:, None, :t - 1] + Z
        csum = np.cumsum(X, axis=2)
        runmax = np.maximum.accumulate(X, axis=2)

        ind = np.ones(X.shape[:2], dtype=bool)
        for s in range(1, t):
            thr = offs[s - 1] + gammas[s - 1] * csum[..., s - 1] + float(res[s])
            ind &= (0.0 < thr) & (runmax[..., s - 1] < thr)
        if j == 0:
            ind &= runmax[..., t - 2] < 0.0
        elif j is not None and 1 <= j <= t - 1:
            xj = X[..., j - 1]
            ind &= (xj > 0.0) & (xj >= runmax[..., t - 2])

        m_prev = offs[t - 2] + gammas[t - 2] * csum[..., t - 2]
        M_prev = np.maximum(runmax[..., t - 2], 0.0)
        tails = self._final_set(m_prev, M_prev, t)
        if j is None:
            cut_lo, cut_hi = -np.inf, np.inf
        elif j == t:
            cut_lo, cut_hi = M_prev, np.inf
        elif j == 0:
            cut_lo, cut_hi = -np.inf, 0.0
        else:
            cut_lo, cut_hi = -np.inf, X[..., j - 1]
        u_t = U[:, t - 1][:, None]
        mass, dmass = self._masses(tails, cut_lo, cut_hi, u_t)

        weight = ind.astype(np.float64)
        if base is not None:
            shift = U[:, None, :t - 1] - base[:, None, :t - 1]
            logw = np.sum(shift * (X - 0.5 * (U + base)[:, None, :t - 1]), axis=2)
            weight = weight * np.exp(logw)
        contrib = weight * mass
        out_vals[:] = contrib.mean(axis=1)
        score = X - U[:, None, :t - 1]
        for i in range(t - 1):
            out_grads[:, i] = np.mean(contrib * score[..., i], axis=1)
        out_grads[:, t - 1] = np.mean(weight * dmass, axis=1)


@pytest.mark.parametrize("N", [3, 5])
def test_kernel_matches_all_draws_oracle(N):
    ctx, model, W = setup_context(N=N, n_samples=256, seed=3)
    oracle = AllDrawsContext(ctx.prims, ctx.v0, ctx.sigma_eta2, ctx.profile,
                             n_samples=256, seed=3)
    U_all = (model.predict(W[:60]) - ctx.prims.x_b) / ctx.prims.sigma_F
    base_all = U_all + 0.05 * np.random.default_rng(8).standard_normal(U_all.shape)
    for t in range(1, N + 1):
        for j in [None, *range(t + 1)]:
            U, base = U_all[:, :t], base_all[:, :t]
            for b in (None, base):
                v, g = ctx.evaluate(U, j, base=b)
                v_ref, g_ref = oracle.evaluate(U, j, base=b)
                v_only, none = ctx.evaluate(U, j, base=b, grad=False)
                assert np.array_equal(v, v_ref), (t, j, b is None)
                assert np.array_equal(g, g_ref), (t, j, b is None)
                assert np.array_equal(v_only, v) and none is None

    for with_conversion in (True, False):
        records = simulate_records(model, W[:400], ctx, seed=5,
                                   with_conversion=with_conversion)
        nll, grad, info = nll_objective(records, model, ctx)
        nll_ref, grad_ref, info_ref = nll_objective(records, model, oracle)
        nll_only, none, info_only = nll_objective(records, model, ctx, grad=False)
        assert nll == nll_ref and np.array_equal(grad, grad_ref)
        assert nll_only == nll and none is None
        assert info == info_ref == info_only
