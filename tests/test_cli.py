"""Command line interface: determinism, exit codes, output formats."""

import json
import os
import re
import warnings

import numpy as np
import pytest

from standout.cli import DEFAULT_FORMATS, main

BASE = ["--N", "3", "--sigma-x2", "1.0", "--sigma-e2", "1.0",
        "--v0", "1.0", "--c", "0.1", "--x-b", "-0.3"]


def run(tmp_path, argv, name="out.txt"):
    path = tmp_path / name
    rc = main(argv + ["--out", str(path)])
    return rc, path.read_bytes() if path.exists() else b""


def test_same_seed_same_bytes(tmp_path):
    for cmd, extra in [("policy", []),
                       ("simulate", ["--n", "200"]),
                       ("depth-dist", []),
                       ("abtest", ["--method", "monte_carlo", "--n", "5000"])]:
        argv = [cmd] + BASE + ["--seed", "5"] + extra
        rc1, b1 = run(tmp_path, argv, "a.txt")
        rc2, b2 = run(tmp_path, argv, "b.txt")
        assert rc1 == rc2 == 0
        assert b1 == b2
        assert len(b1) > 0


def test_thread_setting_does_not_change_bytes(tmp_path, monkeypatch):
    argv = ["simulate"] + BASE + ["--seed", "3", "--n", "500"]
    monkeypatch.setenv("STANDOUT_THREADS", "1")
    rc1, b1 = run(tmp_path, argv, "t1.txt")
    monkeypatch.setenv("STANDOUT_THREADS", "8")
    rc2, b2 = run(tmp_path, argv, "t8.txt")
    assert rc1 == rc2 == 0
    assert b1 == b2


@pytest.mark.parametrize("cmd", list(DEFAULT_FORMATS))
def test_bad_thread_setting_is_refused_before_any_work(tmp_path, capsys,
                                                       monkeypatch, cmd):
    import standout.cli as cli

    def ran(*args):
        pytest.fail("the subcommand ran")
    for name in DEFAULT_FORMATS:
        monkeypatch.setattr(cli, "_cmd_" + name.replace("-", "_"), ran)
    monkeypatch.setenv("STANDOUT_THREADS", "zero")
    log = ["--log", str(tmp_path / "absent.jsonl"), "--beta", "0.1,0.4"]
    rc, raw = run(tmp_path, [cmd] + BASE + (log if cmd in ("likelihood", "fit") else []))
    assert rc == 2 and raw == b""
    assert ("error: STANDOUT_THREADS must be an integer, got 'zero'"
            in capsys.readouterr().err)


def test_missing_config_fields_exit_2(tmp_path):
    rc, _ = run(tmp_path, ["policy", "--N", "3"])
    assert rc == 2


def test_broken_config_file_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    rc, _ = run(tmp_path, ["policy", "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: not JSON (")


def test_config_that_is_not_an_object_exit_2(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    rc, raw = run(tmp_path, ["policy", "--config", str(cfg), "--N", "3"])
    assert rc == 2 and raw == b""
    assert capsys.readouterr().err == (
        f"error: {cfg}: a config must be a JSON object, got an array\n")


@pytest.mark.parametrize("field, value", [
    ("N", "3"), ("N", 3.5), ("N", True), ("v0", None), ("c", "0.1"),
    pytest.param("sigma_x2", 10**401, id="sigma_x2-int_too_large_for_a_float"),
])
def test_malformed_config_exit_2(tmp_path, capsys, field, value):
    cfg = {"N": 3, "sigma_x2": 1.0, "sigma_e2": 1.0, "v0": 1.0, "c": 0.1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, field: value}))
    rc, raw = run(tmp_path, ["policy", "--config", str(path)])
    assert rc == 2 and raw == b""
    assert f"error: {field} must be" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", [
    [1.0, None, 0.0], 5, [1.0, float("nan"), 0.0], [True, 0.5, 0.0], [0.1, 0.2],
])
def test_malformed_alpha_override_exit_2(tmp_path, capsys, alpha):
    cfg = {"N": 3, "sigma_x2": 1.0, "sigma_e2": 1.0, "v0": 1.0, "c": 0.1,
           "alpha_override": alpha}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc, raw = run(tmp_path, ["policy", "--config", str(path)])
    assert rc == 2 and raw == b""
    assert ("error: alpha_override must hold N = 3 finite numbers"
            in capsys.readouterr().err)


def test_table_that_stops_before_rank_one_exit_3(tmp_path, capsys):
    # interior by about 1e-11; the solved r_0 lies below x_b - m0
    path = tmp_path / "corner.json"
    path.write_text(json.dumps({"N": 3, "sigma_x2": 1.0, "sigma_e2": 1.0,
                                "v0": 1.0, "x_b": 0.3, "c": 0.582160603083601}))
    errors = []
    for argv in (["depth-dist"], ["simulate", "--n", "10"],
                 ["abtest", "--method", "monte_carlo", "--n", "100", "--steps", "3"]):
        rc, raw = run(tmp_path, argv + ["--config", str(path)])
        assert rc == 3 and raw == b""
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("numerical error: the table stops before rank 1")
    assert errors == [errors[0]] * 3



def test_first_stop_at_the_corner_exit_3(tmp_path, capsys):
    # the config above: depth-dist's refusal, not a "trust" report
    path = tmp_path / "corner.json"
    path.write_text(json.dumps({"N": 3, "sigma_x2": 1.0, "sigma_e2": 1.0,
                                "v0": 1.0, "x_b": 0.3, "c": 0.582160603083601}))
    errors = []
    for argv in (["depth-dist"], ["first-stop"], ["region"]):
        rc, raw = run(tmp_path, argv + ["--config", str(path)])
        assert rc == 3 and raw == b""
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("numerical error: the table stops before rank 1")
    assert errors[1:] == [errors[0]] * 2


def test_closed_form_abtest_at_the_corner_exit_3(tmp_path, capsys):
    # N = 2, interior by 4.4e-11 with r_0 3.7e-10 below x_b - m0: both
    # methods refuse it with one message
    path = tmp_path / "corner2.json"
    path.write_text(json.dumps({"N": 2, "sigma_x2": 1.0, "sigma_e2": 1.0,
                                "v0": 1.0, "x_b": 0.0, "c": 0.6559183071}))
    errors = []
    for method in ("closed_form_n2", "monte_carlo"):
        rc, raw = run(tmp_path, ["abtest", "--config", str(path), "--method",
                                 method, "--n", "100", "--steps", "3"])
        assert rc == 3 and raw == b""
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("numerical error: the table stops before rank 1")
    assert errors[1] == errors[0]

def test_config_echo_keeps_integer_values(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 3, "sigma_x2": 1, "sigma_e2": 1.0,
                                "v0": 1, "c": 0.1}))
    rc, raw = run(tmp_path, ["policy", "--config", str(path)])
    assert rc == 0
    config = json.loads(raw)["meta"]["config"]
    assert config["sigma_x2"] == 1 and isinstance(config["sigma_x2"], int)


@pytest.mark.parametrize("cmd", ["likelihood", "fit"])
@pytest.mark.parametrize("n_samples", ["0", "-4"])
def test_bad_sample_count_exit_2(tmp_path, capsys, cmd, n_samples):
    other = {"features": [[0.4, -0.3], [0.2, 0.1], [-0.5, 0.6]], "depth": 3, "J": None}
    log = _write_log(tmp_path, [GOOD, other])
    rc, raw = run(tmp_path, [cmd] + BASE + ["--log", str(log), "--beta",
                                            "0.1,0.4,-0.2", "--n-samples", n_samples])
    assert rc == 2 and raw == b""
    assert "n_samples must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", [
    ("--epochs", "0", "max_epochs must be an integer >= 1"),
    ("--epochs", "-2", "max_epochs must be an integer >= 1"),
    ("--lr-beta", "-1", "lr_beta must be finite and > 0"),
    ("--lr-beta", "nan", "lr_beta must be finite and > 0"),
    ("--lr-prims", "0", "lr_prims must be finite and > 0"),
    ("--lr-prims", "inf", "lr_prims must be finite and > 0"),
])
def test_bad_fit_loop_option_exit_2(tmp_path, capsys, option, value, message):
    other = {"features": [[0.4, -0.3], [0.2, 0.1], [-0.5, 0.6]], "depth": 3, "J": None}
    log = _write_log(tmp_path, [GOOD, other])
    rc, raw = run(tmp_path, ["fit"] + BASE + ["--log", str(log), "--beta",
                                              "0.1,0.4,-0.2", option, value])
    assert rc == 2 and raw == b""
    assert f"error: {message}" in capsys.readouterr().err


def test_interior_violation_exit_2(tmp_path):
    rc, _ = run(tmp_path, ["policy", "--N", "2", "--sigma-x2", "1.0",
                           "--sigma-e2", "1.0", "--v0", "0.5", "--c", "45.0"])
    assert rc == 2


def test_numerical_failure_exit_3(tmp_path, monkeypatch):
    def broken(env, *a, **k):
        raise ArithmeticError("no bracket")

    monkeypatch.setattr("standout.policy.optimal_table", broken)
    rc, _ = run(tmp_path, ["policy"] + BASE)
    assert rc == 3


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 3, "sigma_x2": 1.0, "sigma_e2": 1.0,
                               "v0": 1.0, "c": 0.1, "x_b": -0.3}))
    rc1, b1 = run(tmp_path, ["policy", "--config", str(cfg)], "c1.txt")
    rc2, b2 = run(tmp_path, ["policy"] + BASE, "c2.txt")
    assert rc1 == rc2 == 0
    assert b1 == b2
    # a flag override must change the result
    rc3, b3 = run(tmp_path, ["policy", "--config", str(cfg), "--c", "0.2"],
                  "c3.txt")
    assert rc3 == 0 and b3 != b1


def test_json_output_shape(tmp_path):
    rc, raw = run(tmp_path, ["policy"] + BASE + ["--format", "json"])
    assert rc == 0
    obj = json.loads(raw)
    assert obj["meta"]["config"]["N"] == 3
    assert len(obj["reservation"]) == 3
    assert obj["kappa"] == sorted(obj["kappa"], reverse=True)


def test_csv_output_shape(tmp_path):
    rc, raw = run(tmp_path, ["policy"] + BASE + ["--format", "csv"])
    assert rc == 0
    lines = raw.decode().strip().split("\n")
    assert lines[0].startswith("# meta ")
    meta = json.loads(lines[0][len("# meta "):])
    assert meta["config"]["v0"] == 1.0
    header = lines[1].split(",")
    assert "kappa" in header
    assert len(lines) == 2 + 3  # meta, header, one row per epoch


def test_simulate_jsonl_records(tmp_path):
    rc, raw = run(tmp_path, ["simulate"] + BASE +
                  ["--n", "50", "--format", "jsonl"])
    assert rc == 0
    lines = raw.decode().strip().split("\n")
    assert "meta" in json.loads(lines[0])
    depths = [json.loads(ln)["depth"] for ln in lines[1:]]
    assert len(depths) == 50
    assert all(1 <= d <= 3 for d in depths)


def test_likelihood_on_simulated_log(tmp_path):
    from standout.environment import EnvironmentParams
    from standout.likelihood import (AffineFeatureModel, LikelihoodContext,
                                     RankerProfile, SessionRecord,
                                     UserPrimitives, calibrate,
                                     records_to_jsonl, simulate_records)

    env = EnvironmentParams(N=3, sigma_x2=1.0, sigma_e2=1.0, v0=1.0,
                            c=0.1, x_b=-0.3)
    profile = RankerProfile.from_env(env)
    model = AffineFeatureModel([0.1, 0.4])
    W = np.random.default_rng(4).normal(size=(80, 3, 1))
    v0, se2 = calibrate([SessionRecord(w, 1) for w in W], model, profile)
    ctx = LikelihoodContext(UserPrimitives(0.1, -0.3), v0, se2, profile,
                            n_samples=256, seed=0)
    log = tmp_path / "log.jsonl"
    records_to_jsonl(simulate_records(model, W, ctx, seed=2), str(log))
    out = tmp_path / "lik.jsonl"
    rc = main(["likelihood"] + BASE + ["--log", str(log),
               "--beta", "0.1,0.4", "--n-samples", "256",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    vals = [json.loads(ln) for ln in lines[1:]]
    assert len(vals) == 80
    assert all(0.0 <= v["value"] <= 1.0 for v in vals)



@pytest.mark.parametrize("N", [3, 5])
def test_likelihood_formats_read_one_pass(tmp_path, N):
    # jsonl prints the per-session values whose -log sum json prints; one
    # session with absurd features underflows
    from standout.environment import EnvironmentParams
    from standout.likelihood import (AffineFeatureModel, LikelihoodContext,
                                     RankerProfile, SessionRecord,
                                     UserPrimitives, calibrate,
                                     records_to_jsonl, simulate_records)

    env = EnvironmentParams(N=N, sigma_x2=1.0, sigma_e2=1.0, v0=1.0,
                            c=0.1, x_b=-0.3)
    profile = RankerProfile.from_env(env)
    model = AffineFeatureModel([0.1, 0.4])
    W = np.random.default_rng(N).normal(size=(300, N, 1))
    v0, se2 = calibrate([SessionRecord(w, 1) for w in W], model, profile)
    ctx = LikelihoodContext(UserPrimitives(0.1, -0.3), v0, se2, profile,
                            n_samples=64, seed=0)
    records = simulate_records(model, W, ctx, seed=3)
    records.append(SessionRecord(np.full((N, 1), 80.0), N, None))
    log = tmp_path / "log.jsonl"
    records_to_jsonl(records, str(log))
    argv = ["likelihood", "--N", str(N), "--sigma-x2", "1.0", "--sigma-e2", "1.0",
            "--v0", "1.0", "--c", "0.1", "--x-b", "-0.3", "--log", str(log),
            "--beta", "0.1,0.4", "--n-samples", "64"]
    rc, raw = run(tmp_path, argv + ["--format", "json"], "lik.json")
    assert rc == 0
    summary = json.loads(raw)
    rc, raw = run(tmp_path, argv, "lik.jsonl")
    assert rc == 0
    values = np.array([json.loads(ln)["value"] for ln in raw.decode().splitlines()[1:]])
    assert len(values) == len(records) == summary["sessions"]
    nll = -np.sum(np.log(np.maximum(values, 1e-300)))
    assert summary["nll"] == pytest.approx(nll, rel=1e-12)
    assert summary["underflow"] == int(np.sum(values <= 1e-300)) >= 1

def test_depth_dist_pmf_sums_to_one(tmp_path):
    rc, raw = run(tmp_path, ["depth-dist"] + BASE + ["--format", "json"])
    assert rc == 0
    pmf = json.loads(raw)["pmf"]
    assert abs(sum(pmf) - 1.0) < 1e-9


def test_depth_dist_bad_cells_exit_2(tmp_path, capsys):
    for bad in ("0", "1", "-3"):
        rc, raw = run(tmp_path, ["depth-dist"] + BASE + ["--cells", bad])
        assert rc == 2 and raw == b""
        assert "cells must be an integer >= 2" in capsys.readouterr().err


def test_abtest_reads_the_policy(tmp_path):
    from standout.abtest import ab_report
    from standout.environment import EnvironmentParams

    argv = ["abtest", "--N", "2", "--sigma-x2", "1.0", "--sigma-e2", "1.0",
            "--v0", "1.0", "--c", "0.1", "--x-b", "-0.3", "--steps", "5",
            "--format", "json"]
    rc, raw = run(tmp_path, argv + ["--policy", "myopic"])
    assert rc == 0
    env = EnvironmentParams(N=2, sigma_x2=1.0, sigma_e2=1.0, v0=1.0, c=0.1,
                            x_b=-0.3)
    report = ab_report(env, np.linspace(-0.5, 0.5, 5), policy="myopic")
    payload = json.loads(raw)
    del payload["meta"]
    assert payload == {
        "delta": list(report.delta_grid), "sr": list(report.sr),
        "lr": list(report.lr), "lr_corner": [bool(b) for b in report.lr_corner],
        "sr_prime_0": report.sr_prime_0, "baseline": report.baseline}
    assert run(tmp_path, argv, "optimal.txt") != (0, raw)


@pytest.mark.parametrize("mu", ["prior", "0.25"])
@pytest.mark.parametrize("order", ["rank", "random"])
def test_simulate_bytes_match_per_record_dumps(tmp_path, mu, order):
    from standout.depthlaw import simulate_sessions
    from standout.environment import EnvironmentParams
    from standout.policy import optimal_table

    argv = ["simulate"] + BASE + ["--seed", "9", "--n", "300", "--mu", mu,
                                  "--order", order]
    rc, raw = run(tmp_path, argv)
    assert rc == 0
    env = EnvironmentParams(N=3, sigma_x2=1.0, sigma_e2=1.0, v0=1.0, c=0.1,
                            x_b=-0.3)
    batch = simulate_sessions(
        env, optimal_table(env),
        mu_mode="draw_from_prior" if mu == "prior" else float(mu),
        n=300, seed=9, order=order)
    meta = {"config": env.to_dict(), "seed": 9, "subcommand": "simulate"}
    lines = [json.dumps({"meta": meta}, sort_keys=True)]
    for i in range(len(batch)):
        lines.append(json.dumps({"mu": batch.mu[i], "x": list(batch.x[i]),
                                 "depth": int(batch.depth[i]),
                                 "J": int(batch.J[i]),
                                 "payoff": batch.payoff[i]}, sort_keys=True))
    assert raw.decode() == "\n".join(lines) + "\n"


def _write_log(tmp_path, rows):
    log = tmp_path / "bad.jsonl"
    log.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return log


GOOD = {"features": [[0.1, 0.2], [0.3, -0.1], [0.0, 0.5]], "depth": 2, "J": 1}


@pytest.mark.parametrize("bad, message", [
    ({"features": [[0.1, 0.2], [0.3], [0.0, 0.5]], "depth": 2, "J": 1},
     "line 2: features must be a rectangular 2-D"),
    ({"features": [[0.1, 0.2], [0.3, -0.1]], "depth": 2, "J": 1},
     "line 2: features have shape (2, 2), earlier lines (3, 2)"),
    ({**GOOD, "depth": 4}, "line 2: depth must be an integer in 1..3"),
    ({**GOOD, "depth": 0}, "line 2: depth must be an integer in 1..3"),
    ({**GOOD, "depth": 1.5}, "line 2: depth must be an integer in 1..3"),
    ({**GOOD, "J": 3}, "line 2: conversion must be an integer in 0..2"),
    ({**GOOD, "J": -1}, "line 2: conversion must be an integer in 0..2"),
    ({**GOOD, "features": [[0.1, 0.2], [0.3, float("nan")], [0.0, 0.5]]},
     "line 2: features must be a rectangular 2-D (N, d) array of finite numbers"),
    ({**GOOD, "features": [[0.1, 0.2], [0.3, -0.1], [float("inf"), 0.5]]},
     "line 2: features must be a rectangular 2-D (N, d) array of finite numbers"),
    ({**GOOD, "features": [[0.1, 0.2], [True, -0.1], [0.0, 0.5]]},
     "line 2: features must be a rectangular 2-D (N, d) array of finite numbers"),
    ({**GOOD, "depth": "2"}, "line 2: depth must be an integer in 1..3"),
    ({**GOOD, "J": True}, "line 2: conversion must be an integer in 0..2"),
    ({**GOOD, "features": [[0.1, 0.2], ["0.1", -0.1], [0.0, 0.5]]},
     "line 2: features must be a rectangular 2-D (N, d) array of finite numbers"),
    ({**GOOD, "features": [[0.1, 0.2], [10**400, -0.1], [0.0, 0.5]]},
     "line 2: features must be a rectangular 2-D (N, d) array of finite numbers"),
    ({**GOOD, "depth": 10**400}, "line 2: depth must be an integer in 1..3"),
    ({**GOOD, "J": 10**400}, "line 2: conversion must be an integer in 0..2"),
])
def test_bad_log_line_is_named(tmp_path, capsys, bad, message):
    from standout.likelihood import records_from_jsonl

    log = _write_log(tmp_path, [GOOD, bad])
    with pytest.raises(ValueError, match=re.escape(message)):
        records_from_jsonl(log)
    for cmd in ("likelihood", "fit"):
        rc, raw = run(tmp_path, [cmd] + BASE + ["--log", str(log),
                                                "--beta", "0.1,0.4,-0.2"])
        assert rc == 2 and raw == b""
        assert message in capsys.readouterr().err


def test_region_point_cloud_only_at_t_3_exit_2(tmp_path, capsys):
    rc, raw = run(tmp_path, ["region"] + BASE + ["--N", "5", "--t", "4",
                                                 "--format", "csv"])
    assert rc == 2 and raw == b""
    assert (capsys.readouterr().err
            == "error: the boundary point cloud is only emitted for t = 3\n")


def test_region_past_the_list_names_t_and_N_exit_2(tmp_path, capsys):
    rc, raw = run(tmp_path, ["region"] + BASE + ["--N", "2", "--t", "3"])
    assert rc == 2 and raw == b""
    assert capsys.readouterr().err == "error: t must be an integer in 1..2, got 3\n"


DEEP = "[" * 100000 + "]" * 100000


def test_deeply_nested_config_exit_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    rc, raw = run(tmp_path, ["policy", "--config", str(path)])
    assert rc == 2 and raw == b""
    assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply\n"


@pytest.mark.parametrize("cmd", ["likelihood", "fit"])
def test_deeply_nested_log_line_exit_2(tmp_path, capsys, cmd):
    log = tmp_path / "deep.jsonl"
    log.write_text(json.dumps(GOOD) + "\n" + DEEP + "\n")
    rc, raw = run(tmp_path, [cmd] + BASE + ["--log", str(log),
                                            "--beta", "0.1,0.4,-0.2"])
    assert rc == 2 and raw == b""
    assert (capsys.readouterr().err
            == f"error: {log}, line 2: JSON nested too deeply\n")


def test_log_must_match_config_and_beta(tmp_path, capsys):
    log = _write_log(tmp_path, [GOOD, {**GOOD, "J": None}])
    rc, _ = run(tmp_path, ["likelihood"] + BASE + ["--N", "4", "--log", str(log),
                                                   "--beta", "0.1,0.4,-0.2"])
    assert rc == 2 and "config N = 4" in capsys.readouterr().err
    rc, _ = run(tmp_path, ["fit"] + BASE + ["--log", str(log), "--beta", "0.1,0.4"])
    assert rc == 2 and "--beta needs 1" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["likelihood", "fit"])
@pytest.mark.parametrize("text", ["", "\n\n"])
def test_empty_log_exit_2(tmp_path, capsys, cmd, text):
    log = tmp_path / "empty.jsonl"
    log.write_text(text)
    rc, raw = run(tmp_path, [cmd] + BASE + ["--log", str(log),
                                            "--beta", "0.1,0.4,-0.2"])
    assert rc == 2 and raw == b""
    assert f"{log}: the log holds no sessions" in capsys.readouterr().err


@pytest.mark.parametrize("mu", ["nan", "inf", "-inf", "abc"])
def test_simulate_non_finite_mu_exit_2(tmp_path, capsys, mu):
    rc, raw = run(tmp_path, ["simulate"] + BASE + ["--n", "10", f"--mu={mu}"])
    assert rc == 2 and raw == b""
    shown = "'abc'" if mu == "abc" else mu
    assert capsys.readouterr().err == f"error: --mu must be finite, got {shown}\n"


@pytest.mark.parametrize("method", ["closed_form_n2", "monte_carlo"])
def test_abtest_sample_count_is_checked_under_every_method(tmp_path, capsys, method):
    rc, raw = run(tmp_path, ["abtest"] + BASE + ["--N", "2", "--method", method,
                                                 "--n", "0", "--steps", "3"])
    assert rc == 2 and raw == b""
    assert capsys.readouterr().err == "error: n must be an integer >= 1, got 0\n"


@pytest.mark.parametrize("argv", [
    ["curse-scan"],
    ["abtest", "--method", "monte_carlo", "--n", "500"],
])
@pytest.mark.parametrize("steps", ["0", "-2"])
def test_steps_below_one_exit_2(tmp_path, capsys, argv, steps):
    rc, raw = run(tmp_path, [argv[0]] + BASE + argv[1:] + ["--steps", steps])
    assert rc == 2 and raw == b""
    assert f"--steps must be an integer >= 1, got {steps}" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["likelihood", "fit"])
def test_one_session_log_exit_2(tmp_path, capfd, cmd):
    log = _write_log(tmp_path, [GOOD])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        rc, raw = run(tmp_path, [cmd] + BASE + ["--log", str(log),
                                                "--beta", "0.1,0.4,-0.2"])
    assert rc == 2 and raw == b""
    err = capfd.readouterr().err
    assert err == (f"error: {log}: the log holds one session; calibration "
                   f"needs at least two\n")


@pytest.mark.parametrize("cmd", ["likelihood", "fit"])
def test_one_rank_log_exit_2(tmp_path, capfd, cmd):
    rows = [{"features": [[0.1 * k, -0.2]], "depth": 1, "J": k % 2}
            for k in range(5)]
    log = _write_log(tmp_path, rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        rc, raw = run(tmp_path, [cmd] + BASE + ["--N", "1", "--log", str(log),
                                                "--beta", "0.1,0.4,-0.2"])
    assert rc == 2 and raw == b""
    assert capfd.readouterr().err == (
        "error: calibrate needs at least two ranks per session, got N = 1\n")


def test_non_finite_feature_is_named_by_its_line(tmp_path, capfd):
    rng = np.random.default_rng(8)
    rows = [{"features": rng.standard_normal((3, 2)).tolist(), "depth": 1,
             "J": None} for _ in range(50)]
    rows[7]["features"][1][0] = float("nan")
    log = _write_log(tmp_path, rows)
    for cmd in ("likelihood", "fit"):
        rc, raw = run(tmp_path, [cmd] + BASE + ["--log", str(log),
                                                "--beta", "0.3,0.6,-0.4"])
        assert rc == 2 and raw == b""
        assert capfd.readouterr().err == (
            f"error: {log}, line 8: features must be a rectangular 2-D (N, d) "
            f"array of finite numbers\n")


@pytest.mark.parametrize("argv, flag, value", [
    (["likelihood", "--beta", "nan,0.6,-0.4"], "--beta", "nan"),
    (["fit", "--beta", "0.3,nan,-0.4"], "--beta", "nan"),
    (["likelihood", "--beta", "inf,0.6,-0.4"], "--beta", "inf"),
    (["fit", "--beta", "0.3,0.6,-inf"], "--beta", "-inf"),
    (["abtest", "--N", "2", "--delta-min", "nan"], "--delta-min", "nan"),
    (["abtest", "--method", "monte_carlo", "--n", "500", "--delta-min", "nan"],
     "--delta-min", "nan"),
    (["abtest", "--N", "2", "--delta-max", "inf"], "--delta-max", "inf"),
    (["curse-scan", "--rho-min", "nan"], "--rho-min", "nan"),
    (["curse-scan", "--rho-max", "inf"], "--rho-max", "inf"),
    (["likelihood", "--beta", "0.1,abc,0.2"], "--beta", "'abc'"),
    (["fit", "--beta", "0.1,0.4,abc"], "--beta", "'abc'"),
])
def test_non_finite_real_flag_exit_2(tmp_path, capfd, argv, flag, value):
    if argv[0] in ("likelihood", "fit"):
        argv = argv + ["--log", str(_write_log(tmp_path, [GOOD, GOOD]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        rc, raw = run(tmp_path, argv[:1] + BASE + argv[1:])
    assert rc == 2 and raw == b""
    assert capfd.readouterr().err == f"error: {flag} must be finite, got {value}\n"


def test_shift_onto_the_corner_is_flagged(tmp_path):
    # x_b - delta = 0 at delta = -0.5: interior by 4e-11, but the table
    # stops before rank 1 there, so curse-scan reports it as not interior
    env = ["--N", "2", "--sigma-x2", "1", "--sigma-e2", "1", "--v0", "1",
           "--c", "0.6559183071"]
    rc, raw = run(tmp_path, ["abtest"] + env + [
        "--x-b", "-0.5", "--delta-min", "-0.5", "--delta-max", "0.5",
        "--steps", "3", "--format", "json"])
    assert rc == 0
    out = json.loads(raw)
    assert out["lr_corner"] == [True, False, False] and out["lr"][0] == 0.0
    rc, raw = run(tmp_path, ["curse-scan"] + env + [
        "--x-b", "0", "--rho-min", "0.5", "--rho-max", "0.5", "--steps", "1",
        "--format", "json"])
    assert rc == 0 and json.loads(raw)["results"][0]["interior"] is False


def test_unknown_config_key_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"N": 3, "sigma_x2": 1, "sigma_e2": 1, "v0": 1,
                                "xb": 0.3, "c": 0.1}))
    rc, raw = run(tmp_path, ["policy", "--config", str(path)])
    assert rc == 2 and raw == b""
    assert capsys.readouterr().err == "error: unknown config keys: xb\n"


CMD_ARGS = {"curse-scan": ["--steps", "3"],
            "abtest": ["--method", "monte_carlo", "--n", "500", "--steps", "3"],
            "simulate": ["--n", "20"]}


@pytest.mark.parametrize("cmd, fmt", [
    (cmd, fmt) for cmd in ("policy", "first-stop", "depth-dist", "region",
                           "curse-scan", "abtest", "simulate", "likelihood", "fit")
    for fmt in ("json", "csv", "jsonl")])
def test_format_choices_per_subcommand(tmp_path, capsys, cmd, fmt):
    from standout.cli import DEFAULT_FORMATS

    accepted = DEFAULT_FORMATS[cmd]
    if cmd in ("likelihood", "fit"):
        # the parser decides before the log is read
        argv = [cmd] + BASE + ["--log", str(tmp_path / "absent.jsonl"),
                               "--beta", "0.1,0.4"]
    else:
        argv = [cmd] + BASE + CMD_ARGS.get(cmd, [])
    if fmt not in accepted:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", fmt])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{fmt}'" in err
        assert "(choose from " + ", ".join(f"'{f}'" for f in accepted) + ")" in err
        return
    rc, given = run(tmp_path, argv + ["--format", fmt], "given.txt")
    if cmd in ("likelihood", "fit"):
        # past the parser; the missing log is the error
        assert rc == 2 and "absent.jsonl" in capsys.readouterr().err
        return
    assert rc == 0 and given
    if fmt == accepted[0]:
        assert run(tmp_path, argv, "default.txt") == (0, given)


@pytest.mark.parametrize("cmd, extra", [
    ("simulate", ["--n", "20"]),
    ("abtest", ["--method", "monte_carlo", "--n", "200", "--steps", "2"]),
    ("likelihood", ["--beta", "0.1,0.4,-0.2"]),
])
@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 7)])
def test_seed_outside_the_rule_exit_2(tmp_path, capsys, cmd, extra, seed):
    if cmd == "likelihood":
        extra = extra + ["--log", str(_write_log(tmp_path, [GOOD]))]
    rc, raw = run(tmp_path, [cmd] + BASE + ["--seed", seed] + extra)
    assert rc == 2 and raw == b""
    assert f"error: seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err


def test_largest_seed_is_its_own_stream(tmp_path):
    argv = ["simulate"] + BASE + ["--n", "50", "--seed"]
    rc_top, top = run(tmp_path, argv + [str(2**64 - 1)], "top.txt")
    rc_zero, zero = run(tmp_path, argv + ["0"], "zero.txt")
    assert rc_top == rc_zero == 0
    assert top.splitlines()[1:] != zero.splitlines()[1:]


@pytest.mark.parametrize("cmd, fmt", [
    (cmd, fmt) for cmd, formats in DEFAULT_FORMATS.items() for fmt in formats])
def test_stdout_and_out_file_get_the_same_bytes(tmp_path, capsys, cmd, fmt):
    argv = [cmd] + BASE + CMD_ARGS.get(cmd, []) + ["--seed", "4", "--format", fmt]
    if cmd in ("likelihood", "fit"):
        other = {"features": [[0.4, -0.3], [0.2, 0.1], [-0.5, 0.6]], "depth": 3, "J": None}
        log = _write_log(tmp_path, [GOOD, other, {**GOOD, "depth": 1, "J": 0}])
        argv += ["--log", str(log), "--beta", "0.1,0.4,-0.2", "--n-samples", "16"]
        argv += ["--epochs", "2"] if cmd == "fit" else []
    rc, written = run(tmp_path, argv)
    assert rc == 0 and written
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == written
