"""Environment construction, rank shifts, and the interior condition."""

import json
import math
import re
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from standout.depthlaw import depth_distribution, simulate_sessions
from standout.environment import (EnvironmentParams, derive,
                                  env_from_shift_scale,
                                  interior_condition_slack, rank_quantiles,
                                  reliability_path_env, require_interior,
                                  require_real)
from standout.likelihood import (LikelihoodContext, RankerProfile,
                                 UserPrimitives, fit)
from standout.policy import myopic_table

mp.mp.dps = 30


def base_env(**kw):
    defaults = dict(N=4, sigma_x2=1.0, sigma_e2=1.0, v0=1.0, c=0.1)
    defaults.update(kw)
    return EnvironmentParams(**defaults)


def test_validation():
    with pytest.raises(ValueError):
        base_env(N=0)
    with pytest.raises(ValueError):
        base_env(sigma_x2=-1.0)
    with pytest.raises(ValueError):
        base_env(c=0.0)
    with pytest.raises(ValueError):
        base_env(quantile_rule="jitter")
    with pytest.raises(ValueError):
        base_env(alpha_override=(0.1, 0.2))


@pytest.mark.parametrize("field, value, message", [
    ("N", "3", "N must be an integer"),
    ("N", 3.5, "N must be an integer"),
    ("N", 3.0, "N must be an integer"),
    ("N", True, "N must be an integer"),
    ("v0", None, "v0 must be finite"),
    ("sigma_x2", "1.0", "sigma_x2 must be finite"),
    ("c", float("nan"), "c must be finite"),
    ("m0", float("inf"), "m0 must be finite"),
    ("x_b", False, "x_b must be finite"),
])
def test_malformed_fields_are_value_errors(field, value, message):
    with pytest.raises(ValueError, match=message):
        base_env(**{field: value})


@pytest.mark.parametrize("alpha", [
    (1.0, None, 0.0), 5, (1.0, float("nan"), 0.0), (0.1, float("inf"), 0.0),
    (True, 0.5, 0.0), (0.1, 0.2), "abc", {0.1, 0.2, 0.3}, (10**401, 0.5, 0.0),
])
def test_malformed_alpha_override_is_a_value_error(alpha):
    with pytest.raises(ValueError,
                       match="alpha_override must hold N = 3 finite numbers"):
        base_env(N=3, alpha_override=alpha)


def test_alpha_override_accepts_lists_and_arrays():
    for alpha in ([1, 0, -1], np.array([1.0, 0.0, -1.0])):
        env = base_env(N=3, alpha_override=alpha)
        assert env.alpha_override == (1.0, 0.0, -1.0)
        assert all(type(a) is float for a in env.alpha_override)


def test_integer_fields_are_not_converted():
    env = base_env(N=np.int64(4), sigma_x2=1, v0=np.float64(1.0))
    assert env.sigma_x2 == 1 and type(env.sigma_x2) is int
    assert env.to_dict()["sigma_x2"] == 1


def test_derived_identities():
    env = base_env(sigma_x2=0.8, sigma_e2=1.2)
    d = derive(env)
    assert d.rho == pytest.approx(0.8 / 2.0)
    assert d.sigma_z == pytest.approx(np.sqrt(2.0))
    assert d.sigma_eta2 == pytest.approx(0.8 * (1 - 0.4))
    assert np.allclose(d.alpha, (0.8 / np.sqrt(2.0)) * d.q)


def test_midpoint_quantiles_against_mpmath():
    q = rank_quantiles(4, "midpoint")
    ref = [float(mp.sqrt(2) * mp.erfinv(2 * (1 - i / 5.0) - 1))
           for i in (1, 2, 3, 4)]
    assert np.allclose(q, ref, atol=1e-12)
    # symmetric for the midpoint rule
    assert np.allclose(q, -q[::-1], atol=1e-12)


@pytest.mark.parametrize("rule", ["midpoint", "blom"])
@pytest.mark.parametrize("N", [2, 20, 1000])
def test_rank_quantiles_are_accurate_to_a_few_ulps(N, rule):
    i = np.arange(1, N + 1, dtype=np.float64)
    p = 1.0 - i / (N + 1.0) if rule == "midpoint" else 1.0 - (i - 0.375) / (N + 0.25)
    with mp.workdps(40):  # the exact quantile of each float p
        ref = np.array([float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(pi) - 1))
                        for pi in p.tolist()])
    q = rank_quantiles(N, rule)
    assert q.shape == (N,)
    assert np.all(np.abs(q - ref) <= 1e-14 * np.abs(ref))


def test_blom_quantiles():
    q = rank_quantiles(3, "blom")
    ref = [float(mp.sqrt(2) * mp.erfinv(2 * (1 - (i - 0.375) / 3.25) - 1))
           for i in (1, 2, 3)]
    assert np.allclose(q, ref, atol=1e-12)
    assert np.all(np.diff(q) < 0)


def test_alpha_override():
    env = base_env(N=3, sigma_x2=2.0, sigma_e2=2.0,
                   alpha_override=(0.3, 0.1, 0.0))
    assert np.allclose(derive(env).alpha, [0.3, 0.1, 0.0])
    assert env.sigma_eta2 == pytest.approx(1.0)


def test_interior_slack_matches_direct_integral():
    env = base_env(x_b=0.4, c=0.12)
    d = derive(env)
    sd = mp.sqrt(env.v0 + d.sigma_eta2)
    mean = mp.mpf(env.m0) + d.alpha[0]
    upside = mp.quad(lambda x: (x - env.x_b) * mp.npdf((x - mean) / sd) / sd,
                     [env.x_b, mp.inf])
    assert interior_condition_slack(env) == pytest.approx(
        float(upside - env.c), abs=1e-12)


def test_require_interior():
    require_interior(base_env())
    with pytest.raises(ValueError):
        require_interior(base_env(c=50.0))


def test_json_roundtrip(tmp_path):
    env = base_env(m0=-0.2, x_b=0.3, quantile_rule="blom")
    path = tmp_path / "env.json"
    path.write_text(json.dumps(env.to_dict()))
    assert EnvironmentParams.from_json(str(path)) == env


def test_env_from_shift_scale_roundtrip():
    env = base_env(sigma_x2=1.3, sigma_e2=0.9, m0=0.2, x_b=-0.1, c=0.07)
    d = derive(env)
    rebuilt = env_from_shift_scale(N=env.N, sigma_eta2=env.sigma_eta2,
                                   alpha_scale=env.sigma_x2 / env.sigma_z,
                                   v0=env.v0, m0=env.m0, x_b=env.x_b, c=env.c)
    assert rebuilt.sigma_eta2 == pytest.approx(env.sigma_eta2, rel=1e-14)
    assert np.allclose(derive(rebuilt).alpha, d.alpha, atol=1e-14)


def test_reliability_path():
    env = base_env()
    for rho in (0.2, 0.5, 0.9):
        shifted = reliability_path_env(env, rho)
        assert shifted.rho == pytest.approx(rho, rel=1e-14)
        assert shifted.sigma_x2 == env.sigma_x2
    with pytest.raises(ValueError):
        reliability_path_env(env, 1.0)


def test_reliability_path_moves_sigma_e2_and_drops_an_override():
    env = base_env(N=3, m0=0.2, x_b=-0.1, c=0.05, quantile_rule="blom",
                   alpha_override=(0.5, 0.0, -0.5))
    assert reliability_path_env(env, 0.5).to_dict() == {
        **env.to_dict(), "sigma_e2": 1.0, "alpha_override": None}


def test_reliability_path_shrinks_noise():
    env = base_env()
    # perfect ranking limit: residual variance vanishes, shifts grow
    lo = reliability_path_env(env, 0.3)
    hi = reliability_path_env(env, 0.99)
    assert hi.sigma_eta2 < lo.sigma_eta2
    assert derive(hi).alpha[0] > derive(lo).alpha[0]


def count_call(name, value):
    """The call that takes count ``name`` = ``value``, all else valid."""
    env = base_env(N=3)
    profile, prims = RankerProfile.from_env(env), UserPrimitives(c=0.1, x_b=0.0)
    if name == "n":
        return simulate_sessions(env, myopic_table(env), n=value)
    if name == "cells":
        return depth_distribution(env, myopic_table(env), cells=value)
    if name == "n_samples":
        return LikelihoodContext(prims, 1.0, 1.5, profile, n_samples=value)
    return fit([], [0.0, 1.0], prims, profile, **{name: value})


@pytest.mark.parametrize("name", ["n", "cells", "n_samples", "max_epochs",
                                  "patience"])
@pytest.mark.parametrize("value", [True, 2.5, "5", 0])
def test_every_count_follows_one_rule(name, value):
    least = 2 if name == "cells" else 1
    message = f"{name} must be an integer >= {least}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        count_call(name, value)


@pytest.mark.parametrize("text, found", [
    ("[1, 2]", "an array"), ("3", "a number"), ("2.5", "a number"),
    ('"N"', "a string"), ("true", "true or false"), ("null", "null"),
])
def test_config_must_be_a_json_object(tmp_path, text, found):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    message = f"{path}: a config must be a JSON object, got {found}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EnvironmentParams.from_json(path)


def test_rank_quantiles_refuses_an_unknown_rule():
    with pytest.raises(ValueError, match="^unknown quantile rule 'bogus'$"):
        rank_quantiles(3, "bogus")


def test_from_dict_refuses_keys_it_does_not_read():
    cfg = {"N": 3, "sigma_x2": 1, "sigma_e2": 1, "v0": 1, "xb": 0.3, "c": 0.1,
           "note": "x"}
    with pytest.raises(ValueError, match="^unknown config keys: xb, note$"):
        EnvironmentParams.from_dict(cfg)
    env = base_env(N=3, alpha_override=(0.5, 0.0, -0.5))
    assert EnvironmentParams.from_dict(env.to_dict()) == env


# every real the library takes from its caller: (least, strict)
REALS = {"sigma_x2": (0, True), "sigma_e2": (0, True), "v0": (0, True),
         "c": (0, True), "m0": (None, True), "x_b": (None, True),
         "sigma_eta2": (0, True), "alpha_scale": (0, True), "sigma_F": (0, True),
         "mu_mode": (None, True), "lr_beta": (0, True), "lr_prims": (0, True),
         "fd_step": (0, True), "max_beta_step": (0, True),
         "max_prim_step": (0, True), "rel_tol": (0, False),
         "prims0.c": (0, True), "prims0.sigma_F": (0, True),
         "prims0.x_b": (None, True), "prims0.m0": (None, True),
         "beta0[1]": (None, True)}


def real_call(name, value):
    """The call that takes real ``name`` = ``value``, all else valid."""
    env_kw = dict(N=3, sigma_x2=1.0, sigma_e2=1.0, v0=1.0, m0=0.0, x_b=0.0, c=0.1)
    profile, prims = RankerProfile(N=3, alpha_scale=0.7), UserPrimitives(c=0.1, x_b=0.0)
    if name in env_kw:
        return EnvironmentParams(**{**env_kw, name: value})
    if name in ("sigma_eta2", "alpha_scale"):
        kw = dict(env_kw, sigma_eta2=0.5, alpha_scale=0.7)
        del kw["sigma_x2"], kw["sigma_e2"]
        return env_from_shift_scale(**{**kw, name: value})
    if name == "sigma_F":
        return LikelihoodContext(replace(prims, sigma_F=value), 1.0, 1.5, profile)
    if name == "mu_mode":
        env = base_env(N=3)
        return simulate_sessions(env, myopic_table(env), mu_mode=value, n=10)
    beta0, options = [0.0, 1.0], {}
    if name.startswith("prims0."):
        prims = replace(prims, **{name[len("prims0."):]: value})
    elif name == "beta0[1]":
        beta0 = [0.0, value]
    else:
        options = {name: value}
    return fit([], beta0, prims, profile, **options)


@pytest.mark.parametrize("name", list(REALS))
@pytest.mark.parametrize("kind", ["nan", "inf", "bool", "bound", "huge"])
def test_every_real_follows_one_rule(name, kind):
    least, strict = REALS[name]
    value = {"nan": math.nan, "inf": math.inf, "bool": True,
             "bound": -math.inf if least is None else least,
             "huge": 10**401}[kind]  # an int too large for a float
    if kind == "bound" and not strict:  # the bound itself is accepted
        with pytest.raises(ValueError, match="^calibrate needs at least two"):
            real_call(name, value)
        return
    bound = "" if least is None else f" and {'>' if strict else '>='} {least}"
    message = f"{name} must be finite{bound}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        real_call(name, value)


def test_real_rule_accepts_finite_reals_of_every_type():
    for value in (1, 2.5, np.float64(-3.0), np.int64(7), np.float32(0.5)):
        assert require_real("x", value) == float(value)
    assert require_real("x", 0, least=0, strict=False) == 0.0
    assert require_real("x", 1e-300, least=0) == 1e-300
    for value in (np.bool_(True), "1.0", None, 1j, np.float32("nan")):
        with pytest.raises(ValueError, match="^x must be finite, got"):
            require_real("x", value)
