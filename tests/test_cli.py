"""Command line interface: determinism, exit codes, output formats."""

import json
import os
import re

import numpy as np
import pytest

from standout.cli import main

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


def test_bad_thread_setting_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.setenv("STANDOUT_THREADS", "zero")
    rc, _ = run(tmp_path, ["policy"] + BASE)
    assert rc == 2


def test_missing_config_fields_exit_2(tmp_path):
    rc, _ = run(tmp_path, ["policy", "--N", "3"])
    assert rc == 2


def test_broken_config_file_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    rc, _ = run(tmp_path, ["policy", "--config", str(cfg)])
    assert rc == 2


def test_interior_violation_exit_2(tmp_path):
    rc, _ = run(tmp_path, ["policy", "--N", "2", "--sigma-x2", "1.0",
                           "--sigma-e2", "1.0", "--v0", "0.5", "--c", "45.0"])
    assert rc == 2


def test_numerical_failure_exit_3(tmp_path, monkeypatch):
    def broken(env, *a, **k):
        raise ArithmeticError("no bracket")

    monkeypatch.setattr("standout.cli.optimal_table", broken)
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
    ({**GOOD, "J": 3}, "line 2: J must be null or an integer in 0..2"),
    ({**GOOD, "J": -1}, "line 2: J must be null or an integer in 0..2"),
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


def test_log_must_match_config_and_beta(tmp_path, capsys):
    log = _write_log(tmp_path, [GOOD, {**GOOD, "J": None}])
    rc, _ = run(tmp_path, ["likelihood"] + BASE + ["--N", "4", "--log", str(log),
                                                   "--beta", "0.1,0.4,-0.2"])
    assert rc == 2 and "config N = 4" in capsys.readouterr().err
    rc, _ = run(tmp_path, ["fit"] + BASE + ["--log", str(log), "--beta", "0.1,0.4"])
    assert rc == 2 and "--beta needs 1" in capsys.readouterr().err
