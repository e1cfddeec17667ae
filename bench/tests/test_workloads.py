"""Every workload's checks at reduced size, each with an input that fails.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bench import checks
from bench.inputs import BETA_TRUE
from bench.tracer import layer_metrics, self_times
from bench.workloads import Cli, DepthLaw, FitLog, ScoreLog

ROOT = Path(__file__).resolve().parents[2]


def test_depth_law_checks():
    wl = DepthLaw(3, None, envs=[0], sessions=250_000)
    out = wl.solve(0)
    assert out["counts"].sum() == 250_000
    assert wl.check([out]) == []
    assert wl.final_check() == []
    assert 0.0 < wl.tv_ref <= checks.TV_CELLS_TOL

    moved = dict(out, pmf=out["pmf"].copy())
    moved["pmf"][1] -= 0.01
    moved["pmf"][2] += 0.01
    found = wl.check([moved])
    assert any("simulated" in p for p in found)
    assert any("TV vs reference" in p for p in found)

    leaky = dict(out, pmf=out["pmf"] * (1.0 - 1e-8))
    assert any("sums to" in p for p in wl.check([leaky]))

    kappa = out["kappa"].copy()
    kappa[-1] += 1e-6
    assert any("myopic" in p for p in wl.check([dict(out, kappa=kappa)]))
    kappa = out["kappa"].copy()
    kappa[0] -= 1e-4
    assert any("reference" in p for p in wl.check([dict(out, kappa=kappa)]))


def test_cells_check_fails_on_coarse_law():
    assert checks.cells_problems(checks.TV_CELLS_TOL / 2) == []
    # 2001 cells under the reference table, N=8 environment: TV 1.4e-8
    assert checks.cells_problems(1.4e-8) != []


def test_score_log_checks():
    wl = ScoreLog(3, None, sessions=2000)
    outputs = [wl.score(*p) for p in wl.PASSES]
    assert wl.check(outputs) == []
    assert wl.nll_se > 0.0
    swapped = [outputs[2], outputs[1], outputs[0]]
    assert any("NLL at the truth" in p for p in wl.check(swapped))

    W = wl.sampled_features()
    P = wl.label_probabilities(W)
    assert checks.label_problems(P, wl.CHECK_SAMPLES) == []
    t, j = max((k for k in P if k[1] is not None and k[0] > 1),
               key=lambda k: P[k].min())
    dropped = {k: (np.zeros_like(v) if k == (t, j) else v) for k, v in P.items()}
    assert checks.label_problems(dropped, wl.CHECK_SAMPLES) != []

    assert wl.shift_problems(W[:1]) == []
    assert wl.shift_problems(W[:1], delta=0.1) != []


def test_fit_log_checks():
    wl = FitLog(3, None, sessions=1000)
    res, path = wl.run_fit(wl.records, wl.BETA0, wl.EPOCHS)
    assert len(path) == wl.EPOCHS + 1
    assert wl.check([(res, path), None]) == []

    # a fit that walked away from the truth
    away = [np.array(wl.BETA0) - 0.1 * k for k in range(len(path))]
    found = wl.check([(replace(res, nll_path=res.nll_path[::-1]), away), None])
    assert any("not halved" in p for p in found)
    assert any("grew" in p for p in found)
    assert any("final NLL" in p for p in found)
    # one that comes close, then moves off again
    truth = np.array(BETA_TRUE)
    back = [truth + 0.3, truth + 0.05, truth - 0.2]
    assert checks.divergence_problems(back, BETA_TRUE) != []
    assert checks.fit_problems(back[:2], BETA_TRUE, [2.0, 1.0], 0.1) == []
    assert checks.fit_problems(back[:2], BETA_TRUE, [2.0, 1.0], -0.01) != []


def test_cli_checks(tmp_path):
    wl = Cli(3, tmp_path, simulate_n=5000, abtest_n=2000, log_sessions=20,
             curse_steps=3)
    outputs = [wl.invoke(k) for k in range(len(wl.calls))]
    assert wl.check(outputs) == []
    assert wl.check(outputs) == []  # a second round compares bytes

    changed = list(outputs)
    data = bytearray(changed[2])  # first-stop: one digit of p_tau1
    at = data.index(b'"p_tau1": ') + len(b'"p_tau1": ') + 2
    data[at] = ord("7") if data[at] != ord("7") else ord("3")
    changed[2] = bytes(data)
    assert any("changed between rounds" in p for p in wl.check(changed))
    assert wl.output_problems(changed) != []
    changed = list(outputs)
    changed[9] = outputs[9].replace(b"\n", b" \n", 1)
    assert any("repeated abtest" in p for p in wl.output_problems(changed))


def test_self_time_subtracts_children():
    spans = [{"id": 0, "name": "policy.optimal_table", "parent": None,
              "start": 0.0, "end": 4.0},
             {"id": 1, "name": "likelihood.context", "parent": None,
              "start": 5.0, "end": 9.0},
             {"id": 2, "name": "policy.optimal_table", "parent": 1,
              "start": 5.5, "end": 8.5}]
    assert self_times(spans) == [4.0, 1.0, 3.0]
    layers = layer_metrics(spans, rounds=2)
    assert layers["policy.optimal_table.calls"] == 1.0
    assert layers["policy.optimal_table.self_s"] == 3.5
    assert layers["likelihood.context.self_s"] == 0.5


def test_benchmark_json_matches_the_metrics_printed():
    sys.path.insert(0, str(ROOT / "bench"))
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_fails_without_program_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("bad", ["-1", "x"])
def test_rejects_bad_seed(bad):
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"),
                           "--workload", "cli", "--seed", bad, "--seconds", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
