"""Session likelihood: closed forms, estimator, gradients, calibration."""

import re
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from standout import likelihood
from standout.belief import bayes_weight, initial_state, stop_tails, update
from standout.environment import (EnvironmentParams, derive,
                                  interior_condition_slack)
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


def same_info(*infos):
    """Whether nll_objective info dicts agree key by key, the per-session
    ``values`` arrays bit for bit."""
    return all(a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)
               for a, b in zip(infos, infos[1:]))


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


def test_calibration_needs_two_sessions():
    env = EnvironmentParams(N=2, sigma_x2=1.0, sigma_e2=1.0, v0=1.0, c=0.1)
    profile = RankerProfile.from_env(env)
    model = AffineFeatureModel([0.0, 1.0])
    one = [SessionRecord(np.array([[1.0], [0.0]]), 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before any ddof=1 variance
        with pytest.raises(ValueError, match="at least two sessions"):
            calibrate(one, model, profile)
        with pytest.raises(ValueError, match="at least two sessions"):
            fit(one, model.beta, UserPrimitives(c=0.1, x_b=0.0), profile,
                max_epochs=1)


@pytest.mark.parametrize("n_samples", [0, -4, 2.5, True])
def test_sample_count_must_be_a_positive_integer(n_samples):
    env = EnvironmentParams(N=3, sigma_x2=1.0, sigma_e2=1.0, v0=1.0, c=0.1)
    with pytest.raises(ValueError, match="n_samples must be an integer >= 1"):
        LikelihoodContext(UserPrimitives(c=0.1, x_b=0.0), 1.0, 1.5,
                          RankerProfile.from_env(env), n_samples=n_samples)


@pytest.mark.parametrize("option, value, message", [
    ("max_epochs", 0, "max_epochs must be an integer >= 1"),
    ("max_epochs", -2, "max_epochs must be an integer >= 1"),
    ("max_epochs", 2.0, "max_epochs must be an integer >= 1"),
    ("max_epochs", True, "max_epochs must be an integer >= 1"),
    ("lr_beta", -1.0, "lr_beta must be finite and > 0"),
    ("lr_beta", 0.0, "lr_beta must be finite and > 0"),
    ("lr_beta", float("nan"), "lr_beta must be finite and > 0"),
    ("lr_prims", float("inf"), "lr_prims must be finite and > 0"),
    ("fd_step", 0.0, "fd_step must be finite and > 0"),
    ("fd_step", -1e-3, "fd_step must be finite and > 0"),
    ("max_beta_step", 0.0, "max_beta_step must be finite and > 0"),
    ("max_prim_step", float("nan"), "max_prim_step must be finite and > 0"),
    ("rel_tol", -1e-5, "rel_tol must be finite and >= 0"),
    ("rel_tol", float("inf"), "rel_tol must be finite and >= 0"),
    ("seed", -1, re.escape("seed must lie in [0, 2**64)")),
    # a bad starting primitive is named, not retreated from
    ("prims0", {"c": -0.1}, re.escape("prims0.c must be finite and > 0, got -0.1")),
    ("prims0", {"c": 0.0}, "prims0.c must be finite and > 0"),
    ("prims0", {"c": float("nan")}, "prims0.c must be finite and > 0"),
    ("prims0", {"sigma_F": 0.0}, "prims0.sigma_F must be finite and > 0"),
    ("prims0", {"x_b": float("inf")}, "prims0.x_b must be finite, got inf"),
    ("prims0", {"x_b": float("-inf")}, "prims0.x_b must be finite"),
    ("prims0", {"m0": float("nan")}, "prims0.m0 must be finite, got nan"),
])
def test_fit_loop_options_are_checked(option, value, message):
    ctx, model, W = setup_context(n_samples=16)
    records = simulate_records(model, W[:50], ctx, seed=1)
    if option == "prims0":
        prims, options = replace(ctx.prims, **value), {}
    else:
        prims, options = ctx.prims, {option: value}
    with pytest.raises(ValueError, match=message):
        fit(records, model.beta, prims, ctx.profile, n_samples=16, **options)


def test_a_step_out_of_the_region_retreats_to_the_first_interior_point():
    # c far above the interior limit, last accepted point inside it: the
    # step lands on the first point of the halving sequence that passes
    ctx, _, _ = setup_context(n_samples=16)
    last = ctx.prims
    cand = replace(last, c=40.0, x_b=last.x_b + 3.0)

    def check(p):
        tried.append(p)
        likelihood.require_interior(likelihood._centered_env(
            p, ctx.v0, ctx.sigma_eta2, ctx.profile))

    tried = []
    got, none = likelihood._retreat(cand, last, check)
    halving = [cand]
    while interior_condition_slack(likelihood._centered_env(
            halving[-1], ctx.v0, ctx.sigma_eta2, ctx.profile)) <= 0.0:
        p = halving[-1]
        halving.append(replace(p, c=0.5 * (p.c + last.c),
                               x_b=0.5 * (p.x_b + last.x_b)))
    assert 3 <= len(halving) <= 12
    assert got == halving[-1] and tried == halving and none is None

    # a check that only the last accepted point passes: 12 halving tries,
    # then that point; one that nothing passes: ArithmeticError
    tried = []
    assert likelihood._retreat(cand, last, lambda p: check(p) if p == last
                               else 1 / 0)[0] == last
    assert tried == [last]

    def never(p):
        tried.append(p)
        raise ValueError("outside")

    tried = []
    with pytest.raises(ArithmeticError, match="could not restore"):
        likelihood._retreat(cand, last, never)
    assert len(tried) == 13 and tried[-1] == last and tried[-2] != last


# interior by about 1e-11, yet its solved r_0 lies 3.4e-10 below x_b - m0
NEAR_CORNER = dict(N=3, sigma_x2=1.0, sigma_e2=1.0, v0=1.0, x_b=0.3,
                   c=0.582160603083601)


def test_context_and_fit_refuse_a_table_that_stops_before_rank_one(monkeypatch):
    # the primitives of NEAR_CORNER under a calibration to its v0 and
    # sigma_eta2 give that environment, shifted to put x_b at 0
    env = EnvironmentParams(**NEAR_CORNER)
    profile = RankerProfile.from_env(env)
    prims = UserPrimitives(c=env.c, x_b=env.x_b)
    with pytest.raises(ArithmeticError, match="the table stops before rank 1"):
        LikelihoodContext(prims, env.v0, env.sigma_eta2, profile)
    monkeypatch.setattr(likelihood, "calibrate",
                        lambda records, model, profile: (env.v0, env.sigma_eta2))

    def scored(*args):
        raise AssertionError("fit scored the log")

    monkeypatch.setattr(likelihood, "_epoch_gradients", scored)
    W = np.random.default_rng(3).normal(size=(20, 3, 1))
    records = [SessionRecord(w, 1) for w in W]
    with pytest.raises(ArithmeticError, match="could not restore"):
        fit(records, [0.0, 1.0], prims, profile, n_samples=16, max_epochs=1)


def test_evaluate_rejects_depth_and_label_out_of_range():
    ctx, _, _ = setup_context(n_samples=16)
    for t in (0, ctx.env.N + 1):
        with pytest.raises(ValueError, match=re.escape(
                f"depth must be an integer in 1..3, got {t}")):
            ctx.evaluate(np.zeros((2, t)), None)
    for label in (3, -1, 1.5, "1", True):
        message = f"j must be an integer in 0..2, got {label!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ctx.evaluate(np.zeros((2, 2)), label)


@pytest.mark.parametrize("depth, conversion, message", [
    (9, None, "depth must be an integer in 1..4, got 9"),
    (0, None, "depth must be an integer in 1..4, got 0"),
    (2.0, None, "depth must be an integer in 1..4, got 2.0"),
    (True, None, "depth must be an integer in 1..4, got True"),
    (2, 3, "conversion must be an integer in 0..2, got 3"),
    (2, -1, "conversion must be an integer in 0..2, got -1"),
    (2, 1.5, "conversion must be an integer in 0..2, got 1.5"),
    (2, "1", "conversion must be an integer in 0..2, got '1'"),
    (2, True, "conversion must be an integer in 0..2, got True"),
])
def test_session_record_refuses_a_position_outside_its_list(depth, conversion, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SessionRecord(np.zeros((4, 2)), depth, conversion)


def test_session_record_stores_plain_integers():
    rec = SessionRecord(np.zeros((4, 2)), np.int64(3), np.uint8(3))
    assert type(rec.depth) is int and type(rec.conversion) is int
    assert (rec.depth, rec.conversion) == (3, 3)
    assert SessionRecord(np.zeros((4, 2)), 4).conversion is None


def test_simulate_records_rejects_a_wrong_list_length():
    ctx, model, W = setup_context(n_samples=16)
    with pytest.raises(ValueError, match="does not match the list length"):
        simulate_records(model, W[:5, :2], ctx)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, 0.0, False])
def test_seeds_outside_the_rule_are_refused(seed):
    ctx, model, W = setup_context(n_samples=16)
    message = re.escape("seed must lie in [0, 2**64)")
    with pytest.raises(ValueError, match=message):
        LikelihoodContext(ctx.prims, ctx.v0, ctx.sigma_eta2, ctx.profile,
                          n_samples=16, seed=seed)
    with pytest.raises(ValueError, match=message):
        simulate_records(model, W[:5], ctx, seed=seed)


def test_largest_seed_draws_its_own_stream():
    ctx, model, W = setup_context(n_samples=16)
    top = LikelihoodContext(ctx.prims, ctx.v0, ctx.sigma_eta2, ctx.profile,
                            n_samples=16, seed=2**64 - 1)
    U = np.zeros((1, 3))
    assert top.evaluate(U, 3, grad=False)[0] != ctx.evaluate(U, 3, grad=False)[0]
    assert len(simulate_records(model, W[:5], ctx, seed=2**64 - 1)) == 5


@pytest.mark.parametrize("line, message", [
    ("{not json", "line 2: not JSON"),
    ("[[0.1, 0.2], 2]", "line 2: expected an object with 'features' and 'depth'"),
])
def test_log_line_that_is_not_an_object_is_named(tmp_path, line, message):
    path = tmp_path / "log.jsonl"
    good = '{"features": [[0.1, 0.2], [0.3, -0.1]], "depth": 1, "J": null}'
    path.write_text(good + "\n" + line + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}, {message}")):
        records_from_jsonl(path)


@pytest.mark.parametrize("policy", ["optimum", "Myopic", "", None])
def test_unknown_policy_is_rejected(policy):
    ctx, model, W = setup_context(n_samples=16)
    with pytest.raises(ValueError, match="policy must be 'optimal' or 'myopic'"):
        LikelihoodContext(ctx.prims, ctx.v0, ctx.sigma_eta2, ctx.profile,
                          policy=policy)
    # fit checks before its retreat loop, which would turn the ValueError
    # into "could not restore the interior condition"
    records = simulate_records(model, W[:50], ctx, seed=1)
    with pytest.raises(ValueError, match="policy must be 'optimal' or 'myopic'"):
        fit(records, model.beta, ctx.prims, ctx.profile, policy=policy,
            n_samples=16, max_epochs=1)


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
    # the exact depth-2 path of a 2-item list must agree with the Monte
    # Carlo estimator and partition the no-label strip mass
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
        v_exact, g_exact = ctx.evaluate(U, j)
        v_mc, g_mc = ctx._eval_mc(U, j, None)
        se = 3.0 / np.sqrt(ctx.n_samples)
        assert abs(v_exact[0] - v_mc[0]) < se
        assert np.max(np.abs(g_exact - g_mc)) < 2.0 * se
        total += v_exact[0]
    v_none, _ = ctx.evaluate(U, None)
    assert total == pytest.approx(v_none[0], abs=1e-12)


def test_empty_two_item_strip_has_zero_gradient():
    # a centred N = 2 environment in the trust regime: the first draw
    # always stops, so depth 2 has probability 0 and gradient exactly 0
    ctx = LikelihoodContext(UserPrimitives(c=0.37, x_b=0.48), 0.53, 1.86,
                            RankerProfile(N=2, alpha_scale=0.77), n_samples=16)
    assert interior_condition_slack(ctx.env) > 0.0
    s_lo, s_hi = stop_tails(ctx.sched, ctx.table.reservation, 1, ctx.env.m0, 0.0)
    assert s_lo >= s_hi
    U = np.array([[0.3, -0.2], [-1.0, 0.5], [1.1, 2.0]])
    for j in (None, 0, 1, 2):
        vals, grads = ctx.evaluate(U, j)
        assert np.array_equal(vals, np.zeros(3)), j
        assert np.array_equal(grads, np.zeros((3, 2))), j
    rec = SessionRecord(np.array([[0.3], [-0.2]]), 2)
    val, grad = session_likelihood(rec, AffineFeatureModel([0.0, 1.0]), ctx)
    assert val == 0.0 and np.array_equal(grad, np.zeros(2))


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
    gradient on every draw, with full arrays for the infinite ends and
    full cumulative sums and maxima: the reference for the survivor-only,
    value-only kernel and the shared stopping rule.  ``calls`` records
    which overrides ran."""

    calls = None

    def _final_mass(self, t, m_prev, M_prev, j, x_j, u, grad):
        self.calls.add("_final_mass")
        env = self.env
        inf = np.inf
        if t == env.N:
            z = np.zeros(np.broadcast(np.asarray(m_prev), np.asarray(M_prev)).shape)
            lo1, hi1, lo2, hi2 = z - inf, z + inf, z + inf, z + inf
        else:
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
        if j is None:
            cut_lo, cut_hi = -inf, inf
        elif j == t:
            cut_lo, cut_hi = M_prev, inf
        elif j == 0:
            cut_lo, cut_hi = -inf, 0.0
        else:
            cut_lo, cut_hi = -inf, x_j
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
        self.calls.add("_eval_mc_chunk")
        S, t = U.shape
        gammas, offs = self.sched.gamma[1:t], self.sched.a[1:t]
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
        x_j = X[..., j - 1] if j is not None and 1 <= j < t else None
        u_t = U[:, t - 1][:, None]
        mass, dmass = self._final_mass(t, m_prev, M_prev, j, x_j, u_t, True)

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
    oracle.calls = set()
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
        assert same_info(info, info_ref, info_only)
    assert oracle.calls == {"_final_mass", "_eval_mc_chunk"}


def random_depth_two_contexts(seed, count, N, wide=True):
    """Seeded likelihood contexts in centred units whose first draw can
    survive epoch 1; with ``wide``, every third has a small v0, so a wide
    strip."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        small = wide and len(out) % 3 == 0
        v0 = rng.uniform(0.05, 0.4) if small else rng.uniform(0.3, 2.0)
        prims = UserPrimitives(c=rng.uniform(0.01, 0.2), x_b=rng.uniform(-1.0, 0.5))
        profile = RankerProfile(N=N, alpha_scale=rng.uniform(0.3, 1.5))
        try:
            ctx = LikelihoodContext(prims, v0, rng.uniform(1.0, 4.0), profile,
                                    n_samples=16)
        except (ValueError, ArithmeticError):
            continue
        lo, hi = stop_tails(ctx.sched, ctx.table.reservation, 1, ctx.env.m0, 0.0)
        if lo < hi:
            out.append(ctx)
    return out


def strip_means(ctx, rng, S):
    """(S, 2) centred means: u_1 across the survival strip, u_2 around 0."""
    lo, hi = map(float, stop_tails(ctx.sched, ctx.table.reservation, 1,
                                   ctx.env.m0, 0.0))
    return np.column_stack([rng.uniform(lo - 1.0, hi + 1.0, S),
                            rng.normal(0.0, 1.5, S)])


def test_depth_two_closed_forms_at_two_items():
    # at N = 2 the unlabelled value is the strip's mass, and the j = 0
    # value the strip's mass below zero times P(x_2 < 0)
    rng = np.random.default_rng(5)
    for ctx in random_depth_two_contexts(50, 6, N=2):
        lo, hi = map(float, stop_tails(ctx.sched, ctx.table.reservation, 1,
                                       ctx.env.m0, 0.0))
        U = strip_means(ctx, rng, 8)
        strip = std_normal_cdf(hi - U[:, 0]) - std_normal_cdf(lo - U[:, 0])
        below = std_normal_cdf(min(hi, 0.0) - U[:, 0]) - std_normal_cdf(lo - U[:, 0])
        v_none, g_none = ctx.evaluate(U, None)
        v_zero, _ = ctx.evaluate(U, 0)
        assert np.max(np.abs(v_none - strip)) <= 1e-14
        assert np.max(np.abs(v_zero - below * std_normal_cdf(-U[:, 1]))) <= 1e-14
        dstrip = std_normal_pdf(lo - U[:, 0]) - std_normal_pdf(hi - U[:, 0])
        assert np.max(np.abs(g_none[:, 0] - dstrip)) <= 1e-13
        assert np.array_equal(g_none[:, 1], np.zeros(8))


@pytest.mark.parametrize("N", [3, 5, 8])
def test_depth_two_labels_partition_exactly(N):
    # Monte Carlo could only meet this to its standard error
    rng = np.random.default_rng(60 + N)
    for ctx in random_depth_two_contexts(60 + N, 6, N):
        U = strip_means(ctx, rng, 16)
        whole, g_whole = ctx.evaluate(U, None)
        parts = [ctx.evaluate(U, j) for j in range(3)]
        assert np.max(np.abs(sum(v for v, _ in parts) - whole)) <= 1e-12
        assert np.max(np.abs(sum(g for _, g in parts) - g_whole)) <= 1e-12


@pytest.mark.parametrize("N", [3, 5, 8])
def test_depth_two_matches_a_million_monte_carlo_draws(N):
    # 100 independent 10**4-draw estimates per session: their mean is the
    # 10**6-draw estimate, their spread its standard error.  A spread says
    # little about an event that few of the draws hit, so u_1 lies in the
    # strip and labels with P < 1e-4 (about 100 hits in 10**6 draws) are
    # left to the adaptive reference below
    reps, n = 100, 10_000
    rng = np.random.default_rng(70 + N)
    for ctx in random_depth_two_contexts(70 + N, 2, N, wide=False):
        mc = LikelihoodContext(ctx.prims, ctx.v0, ctx.sigma_eta2, ctx.profile,
                               n_samples=n, seed=N)
        lo, hi = map(float, stop_tails(ctx.sched, ctx.table.reservation, 1,
                                       ctx.env.m0, 0.0))
        for u in zip(rng.uniform(max(lo, -2.0), min(hi, 2.0), 2), rng.normal(size=2)):
            u = np.array(u)
            for j in (None, 0, 1, 2):
                v, g = ctx.evaluate(u[None, :], j)
                if v[0] < 1e-4:
                    continue
                v_mc, g_mc = mc._eval_mc(np.repeat(u[None, :], reps, axis=0), j, None)
                for got, draws in ((v[0], v_mc), *zip(g[0], g_mc.T)):
                    se = np.std(draws, ddof=1) / np.sqrt(reps)
                    assert abs(got - draws.mean()) <= 4.0 * se + 1e-12, (N, j)


def depth_two_integrand(ctx, j, u1, u2):
    """x_1 -> phi(x_1 - u_1) times the mass of the rank-2 draws that stop
    and fit label j, in scalar arithmetic from the belief update: the
    reference for ``_strip_rule`` and ``_eval_t2``."""
    from math import erfc, exp, inf, pi, sqrt

    env, r2 = ctx.env, float(ctx.table.reservation[2])
    omega, alpha2 = bayes_weight(2, env), float(ctx.alpha[1])
    def Phi(z):
        return 0.5 * erfc(-z / sqrt(2.0))

    def f(x1):
        state = update(initial_state(env), x1, env)
        m, M = state.m, state.M
        if r2 <= (1.0 - omega) * state.lead + omega * alpha2:
            tails = [(-inf, inf)]  # trust: every rank-2 draw stops
        else:
            tails = [(-inf, m + alpha2 + (state.lead - r2) / omega),
                     (m + alpha2 + (r2 - alpha2) / (1.0 - omega), inf)]
        cut_lo, cut_hi = {None: (-inf, inf), 0: (-inf, 0.0), 1: (-inf, x1),
                          2: (M, inf)}[j]
        mass = 0.0
        for lo, hi in tails:
            lo, hi = max(lo, cut_lo), min(hi, cut_hi)
            if lo < hi:
                mass += Phi(hi - u2) - Phi(lo - u2)
        return exp(-0.5 * (x1 - u1) ** 2) / sqrt(2.0 * pi) * mass
    return f


def test_depth_two_matches_an_adaptive_reference():
    # the scalar integrand integrated by adaptive Gauss-Kronrod, split at 0
    # only, so that it finds the kinks itself; about 20 environments,
    # every third with a wide strip
    from scipy import integrate

    rng = np.random.default_rng(80)
    ctxs = [ctx for N in (3, 5, 8) for ctx in random_depth_two_contexts(80 + N, 7, N)]
    for ctx in ctxs[:20]:
        lo, hi = map(float, stop_tails(ctx.sched, ctx.table.reservation, 1,
                                       ctx.env.m0, 0.0))
        for u1, u2 in strip_means(ctx, rng, 2):
            for j in (None, 0, 1, 2):
                a, b = {0: (lo, min(hi, 0.0)), 1: (max(lo, 0.0), hi)}.get(j, (lo, hi))
                ref = 0.0
                if a < b:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", integrate.IntegrationWarning)
                        ref = integrate.quad(depth_two_integrand(ctx, j, u1, u2), a, b,
                                             points=[0.0] if a < 0.0 < b else None,
                                             epsabs=1e-15, epsrel=1e-14, limit=2000)[0]
                v, _ = ctx.evaluate(np.array([[u1, u2]]), j)
                assert abs(v[0] - ref) <= 1e-12, (ctx.env, j)


@pytest.mark.parametrize("N", [3, 5])
def test_likelihood_over_the_prior_is_the_depth_law(N):
    # means drawn from the model's prior, U = mu + alpha + zeta with mu ~
    # N(m0, v0) and zeta ~ N(0, sigma_eta^2 - 1), give first draws with the
    # predictive law the depth recursion integrates
    from standout.depthlaw import depth_distribution

    ctx, _, _ = setup_context(N=N)
    env = ctx.env
    assert env.sigma_eta2 > 1.0
    n = 100_000
    rng = np.random.default_rng(90 + N)
    mu = env.m0 + np.sqrt(env.v0) * rng.standard_normal((n, 1))
    U = mu + ctx.alpha + np.sqrt(env.sigma_eta2 - 1.0) * rng.standard_normal((n, N))
    pmf = depth_distribution(env, ctx.table).pmf
    for t in (1, 2):
        vals, _ = ctx.evaluate(U[:, :t], None, grad=False)
        se = np.std(vals, ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - pmf[t]) <= 4.0 * se, t


def recursive_records(model, features, context, seed):
    """(depth, conversion) per session from the recursive posterior update
    on the same draws: the oracle for ``simulate_records``."""
    n, N, _ = features.shape
    X = (model.predict(features) - context.prims.x_b) / context.prims.sigma_F
    X = X + np.random.Generator(np.random.Philox(key=seed)).standard_normal((n, N))
    env, res, alpha = context.env, context.table.reservation, derive(context.env).alpha
    m, v, M = np.full(n, env.m0), np.full(n, env.v0), np.zeros(n)
    depth = np.full(n, N, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    for t in range(1, N + 1):
        x_t = X[:, t - 1]
        v_new = 1.0 / (1.0 / v + 1.0 / env.sigma_eta2)
        m = np.where(active, (v_new / v) * m
                     + (v_new / env.sigma_eta2) * (x_t - alpha[t - 1]), m)
        v = np.where(active, v_new, v)
        M = np.where(active, np.maximum(M, x_t), M)
        stop = active & (M - m >= res[t]) if t < N else active
        depth[stop] = t
        active &= ~stop
    out = []
    for i in range(n):
        pre = X[i, :depth[i]]
        best = int(np.argmax(pre)) + 1
        out.append((int(depth[i]), best if pre[best - 1] > 0.0 else 0))
    return out


@pytest.mark.parametrize("N", [2, 3, 5, 8])
def test_simulate_records_matches_recursive_update_oracle(N):
    ctx, model, _ = setup_context(N=N, n_samples=16)
    W = np.random.default_rng(40 + N).normal(size=(20_000, N, 2))
    records = simulate_records(model, W, ctx, seed=N)
    assert [(r.depth, r.conversion) for r in records] == \
        recursive_records(model, W, ctx, seed=N)
    assert all(r.features is not None and np.array_equal(r.features, w)
               for r, w in zip(records, W))


def _nll_value(records, model, prims, v0, sigma_eta2, profile, policy,
               n_samples, seed):
    ctx = LikelihoodContext(prims, v0, sigma_eta2, profile, policy=policy,
                            n_samples=n_samples, seed=seed)
    nll, _, info = nll_objective(records, model, ctx, grad=False)
    return nll, info


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


def five_pass_epoch(records, model, ctx, h):
    """A fit epoch as five independent passes, each with its own context,
    table and draws, and a sixth for a one-sided difference: the
    reference for the shared sweep."""
    nll, grad_beta, info = nll_objective(records, model, ctx)
    args = (ctx.v0, ctx.sigma_eta2, ctx.profile, ctx.policy, ctx.n_samples,
            ctx.seed)
    return (nll, grad_beta, info,
            _fd_prim(records, model, ctx.prims, "c", h, *args),
            _fd_prim(records, model, ctx.prims, "x_b", h, *args))


def fit_log(N, sessions, seed, with_conversion=True):
    """A log drawn from the model at beta = (0.3, 0.6, -0.4), c = x_b = 0.1."""
    ctx, model, _ = setup_context(N=N, n_samples=16, c=0.1, x_b=0.1)
    W = np.random.default_rng(seed).normal(size=(sessions, N, 2))
    return simulate_records(AffineFeatureModel([0.3, 0.6, -0.4]), W, ctx,
                            seed=seed, with_conversion=with_conversion), ctx.profile


def check_against_five_passes(monkeypatch, records, beta0, prims0, profile,
                              **kw):
    """Fit with the shared sweep, checking each epoch bit for bit against
    the five-pass epoch, then refit with the five-pass epoch and require
    the same FitResult.  Returns the epochs' one-sided c probes."""
    shared = likelihood._epoch_gradients
    one_sided = []

    def checked(records, model, ctx, h):
        got = shared(records, model, ctx, h)
        want = five_pass_epoch(records, model, ctx, h)
        assert got[0] == want[0] and same_info(got[2], want[2])
        assert np.array_equal(got[1], want[1])
        assert got[3:] == want[3:]
        one_sided.append(any(likelihood._probe(ctx, "c", ctx.prims.c + s * h)
                             is None for s in (1.0, -1.0)))
        return got

    with monkeypatch.context() as m:
        m.setattr(likelihood, "_epoch_gradients", checked)
        res = fit(records, beta0, prims0, profile, **kw)
    with monkeypatch.context() as m:
        m.setattr(likelihood, "_epoch_gradients", five_pass_epoch)
        ref = fit(records, beta0, prims0, profile, **kw)
    assert np.array_equal(res.beta, ref.beta)
    assert (res.prims, res.v0, res.sigma_eta2, res.nll_path, res.converged,
            res.epochs, res.underflow) == (ref.prims, ref.v0, ref.sigma_eta2,
                                           ref.nll_path, ref.converged,
                                           ref.epochs, ref.underflow)
    assert len(one_sided) == res.epochs
    return one_sided


def test_shared_epoch_matches_five_passes_on_a_fit_log(monkeypatch):
    records, profile = fit_log(3, 2000, seed=31)
    check_against_five_passes(monkeypatch, records, [0.3, -0.2, 0.4],
                              UserPrimitives(0.05, 0.0), profile,
                              n_samples=512, seed=11, max_epochs=3,
                              rel_tol=0.0)


def test_shared_epoch_matches_five_passes_without_labels(monkeypatch):
    # a small chunk splits every Monte Carlo group into several chunks,
    # so the probes must follow the main pass chunk by chunk
    monkeypatch.setattr(likelihood, "_MC_CHUNK", 1 << 15)
    records, profile = fit_log(5, 600, seed=32, with_conversion=False)
    check_against_five_passes(monkeypatch, records, [0.0, 0.3, -0.1],
                              UserPrimitives(0.05, 0.0), profile,
                              n_samples=128, seed=3, max_epochs=2)


def test_shared_epoch_matches_five_passes_myopic(monkeypatch):
    records, profile = fit_log(3, 800, seed=33)
    check_against_five_passes(monkeypatch, records, [0.0, 0.3, -0.1],
                              UserPrimitives(0.05, 0.0), profile,
                              policy="myopic", n_samples=128, seed=4,
                              max_epochs=2)


def test_shared_epoch_matches_five_passes_one_sided(monkeypatch):
    # start h/2 below the interior corner in c, so the c + h probe is
    # outside the interior region and the difference is one-sided
    records, profile = fit_log(3, 800, seed=34)
    beta0, h = [0.0, 0.3, -0.1], 1e-3
    v0, se2 = calibrate(records, AffineFeatureModel(beta0), profile)
    corner = UserPrimitives(c=0.05, x_b=0.0)
    c_max = corner.c + interior_condition_slack(
        likelihood._centered_env(corner, v0, se2, profile))
    one_sided = check_against_five_passes(
        monkeypatch, records, beta0, replace(corner, c=c_max - 0.5 * h),
        profile, n_samples=128, seed=5, max_epochs=2, fd_step=h)
    assert one_sided[0]


def test_epoch_solves_three_tables_and_opens_one_stream_per_group(monkeypatch):
    from standout import policy

    records, profile = fit_log(3, 600, seed=35)
    tables, streams = [], Counter()
    solve, rng = policy.optimal_table, LikelihoodContext._rng

    def counted_table(env, *args, **kw):
        tables.append(env)
        return solve(env, *args, **kw)

    def counted_rng(self, t, j):
        streams[t, j] += 1
        return rng(self, t, j)
    monkeypatch.setattr(policy, "optimal_table", counted_table)
    monkeypatch.setattr(LikelihoodContext, "_rng", counted_rng)
    epochs = 2
    res = fit(records, [0.0, 0.3, -0.1], UserPrimitives(0.05, 0.0), profile,
              n_samples=64, max_epochs=epochs, rel_tol=0.0)
    assert res.epochs == epochs
    assert len(tables) == 3 * epochs
    mc_groups = {(r.depth, r.conversion) for r in records if r.depth >= 3}
    assert streams == Counter({g: epochs for g in mc_groups})


def test_riders_match_their_own_passes(monkeypatch):
    # value-only riders on the main pass's draws give, bit for bit, the
    # values and NLL of their own passes, also when a group spans several
    # chunks; a None rider gets no pass
    monkeypatch.setattr(likelihood, "_MC_CHUNK", 1 << 12)
    ctx, model, W = setup_context(N=4, n_samples=128, seed=6)
    riders = [likelihood._probe(ctx, name, getattr(ctx.prims, name) + d)
              for name, d in (("c", 0.01), ("x_b", 0.02), ("x_b", -0.02))]
    F = model.predict(W[:40])
    for t in range(1, 5):
        for j in [None, *range(t + 1)]:
            U, *Us = [(F[:, :t] - c.prims.x_b) / c.prims.sigma_F
                      for c in [ctx, *riders]]
            outs = [np.empty(len(F)) for _ in riders]
            vals, grads = ctx._evaluate(U, j, None, True,
                                        list(zip(riders, Us, outs)))
            v_ref, g_ref = ctx.evaluate(U, j)
            assert np.array_equal(vals, v_ref) and np.array_equal(grads, g_ref)
            for rider, U_r, out in zip(riders, Us, outs):
                assert np.array_equal(out, rider.evaluate(U_r, j, grad=False)[0])

    records = simulate_records(model, W[:300], ctx, seed=2)
    main, (none, *rider_nlls) = likelihood._nll_passes(
        records, model, ctx, [None, *riders], grad=True)
    nll, grad, info = nll_objective(records, model, ctx)
    assert main[0] == nll and np.array_equal(main[1], grad) and same_info(main[2], info)
    assert none is None
    assert rider_nlls == [nll_objective(records, model, r, grad=False)[0]
                          for r in riders]


def test_sweep_reads_shared_draws_only(monkeypatch):
    # the main pass and the probes share each chunk of draws; marked
    # read-only, any write into them raises, and the sweep still gives
    # every context's own values bit for bit
    monkeypatch.setattr(likelihood, "_MC_CHUNK", 1 << 13)
    ctx, model, W = setup_context(N=4, n_samples=64, seed=7)
    records = simulate_records(model, W[:300], ctx, seed=3)
    riders = [likelihood._probe(ctx, name, getattr(ctx.prims, name) + d)
              for name, d in (("c", 1e-3), ("c", -1e-3), ("x_b", 1e-3),
                              ("x_b", -1e-3))]
    want = nll_objective(records, model, ctx)
    want_riders = [nll_objective(records, model, r, grad=False)[0]
                   for r in riders]
    rng, chunks = LikelihoodContext._rng, []

    class ReadOnlyDraws:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, *args, **kw):
            Z = self.gen.standard_normal(*args, **kw)
            Z.flags.writeable = False
            chunks.append(Z)
            return Z

    monkeypatch.setattr(LikelihoodContext, "_rng",
                        lambda self, t, j: ReadOnlyDraws(rng(self, t, j)))
    main, rider_nlls = likelihood._nll_passes(records, model, ctx, riders,
                                              grad=True)
    groups = {(r.depth, r.conversion) for r in records if r.depth >= 3}
    assert len(chunks) > len(groups)  # some groups span several chunks
    assert main[0] == want[0] and np.array_equal(main[1], want[1])
    assert same_info(main[2], want[2])
    assert rider_nlls == want_riders


def test_empty_log():
    ctx, model, _ = setup_context()
    nll, grad, info = nll_objective([], model, ctx)
    assert nll == 0.0 and same_info(
        info, {"underflow": 0, "sessions": 0, "values": np.empty(0)})
    assert np.array_equal(grad, np.zeros(len(model.beta)))
    nll, none, info_only = nll_objective([], model, ctx, grad=False)
    assert (nll, none) == (0.0, None) and same_info(info_only, info)
    with pytest.raises(ValueError, match="the log holds no sessions"):
        calibrate([], model, ctx.profile)
    with pytest.raises(ValueError, match="the log holds no sessions"):
        fit([], model.beta, ctx.prims, ctx.profile, max_epochs=1)


def test_chunk_size_changes_no_bit(monkeypatch):
    # a session's values depend only on its own draws, taken in order from
    # one stream per group, so splitting the group into chunks changes
    # nothing; 1 << 22 puts every group here in one chunk, 1 << 9 gives
    # one or two sessions per chunk
    ctx, model, W = setup_context(N=4, n_samples=128, seed=9)
    U_all = (model.predict(W[:50]) - ctx.prims.x_b) / ctx.prims.sigma_F
    base_all = U_all + 0.05 * np.random.default_rng(2).standard_normal(U_all.shape)
    cases = [(t, j, b) for t in range(2, 5) for j in [None, *range(t + 1)]
             for b in (None, base_all)]
    results = []
    for chunk in (1 << 22, 1 << 9):
        monkeypatch.setattr(likelihood, "_MC_CHUNK", chunk)
        results.append([ctx.evaluate(U_all[:, :t], j,
                                     base=None if b is None else b[:, :t])
                        for t, j, b in cases])
    for (v, g), (v_ref, g_ref) in zip(*results):
        assert np.array_equal(v, v_ref) and np.array_equal(g, g_ref)
