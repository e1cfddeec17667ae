"""The benchmark workloads.

A workload is built from its seed (input generation), runs one untimed
warm-up operation, then repeats rounds: ``operations()`` lists the
round's operations as (count, callable) pairs, and ``check`` inspects
their outputs after the round's timer has stopped.  ``final_check`` runs
once, after the last round, for property checks that need extra program
calls.  ``layer_values`` returns the accuracy figures the checks measured,
for the traced run.

Calls into the program go through module attributes (``policy.optimal_table``
and so on), so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy import special

from standout import depthlaw, likelihood, policy
from standout.environment import EnvironmentParams
from standout.policy import PolicyTable

from . import checks
from .inputs import BETA_TRUE, TAG_CLI_ENV, SyntheticLog, random_env

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
CLI_CHILD = BENCH_DIR / "cli_child.py"


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


class Workload:
    tracer = None  # set for the traced run

    def final_check(self) -> list:
        return []

    def layer_values(self, rounds: int) -> dict:
        return {}

    def child_spans(self) -> list:
        return []

    def trace_problems(self, layers: dict) -> list:
        return []


class DepthLaw(Workload):
    """Optimal tables and exact depth laws for the reference environments,
    each cross-checked against ``sessions`` simulated sessions (a multiple
    of CHUNK, simulated CHUNK at a time to bound memory)."""

    CHUNK = 250_000

    def __init__(self, seed: int, workdir: Path, envs=None,
                 sessions: int = 1_000_000):
        entries = load_reference()["environments"]
        self.refs = entries if envs is None else [entries[k] for k in envs]
        self.envs = [EnvironmentParams.from_dict(e["env"]) for e in self.refs]
        self.myopic = [checks.myopic_kappas(env) for env in self.envs]
        self.seed = seed
        self.chunks = sessions // self.CHUNK
        self.tv_ref = self.kappa_err = 0.0

    def warm_up(self):
        self.solve(0)

    def operations(self):
        return [(1, lambda k=k: self.solve(k)) for k in range(len(self.envs))]

    def solve(self, k: int):
        env = self.envs[k]
        table = policy.optimal_table(env)
        dist = depthlaw.depth_distribution(env, table)
        counts = np.zeros(env.N + 1, dtype=np.int64)
        for i in range(self.chunks):
            batch = depthlaw.simulate_sessions(
                env, table, n=self.CHUNK, seed=(self.seed << 16) | (k << 8) | i)
            counts += np.bincount(batch.depth, minlength=env.N + 1)[:env.N + 1]
        return {"kappa": table.kappa, "pmf": dist.pmf, "counts": counts}

    def check(self, outputs) -> list:
        problems = []
        for k, out in enumerate(outputs):
            if out is None:
                continue
            kappa_err, tv_ref = checks.reference_errors(out["kappa"], out["pmf"],
                                                        self.refs[k])
            self.kappa_err = max(self.kappa_err, kappa_err)
            found = (checks.pmf_problems(out["pmf"], out["counts"])
                     + checks.kappa_problems(out["kappa"], self.myopic[k])
                     + checks.reference_problems(kappa_err, tv_ref))
            problems += [f"N={self.envs[k].N}: {p}" for p in found]
        return problems

    def final_check(self) -> list:
        """The depth law alone: the reference table at the default cells.

        Untimed; at N=20 this second law costs about 13 s per run.
        """
        problems = []
        for env, ref in zip(self.envs, self.refs):
            table = PolicyTable("optimal", np.array(ref["kappa"]),
                                np.array(ref["reservation"]), ref["kappa_inf"])
            tv_cells = checks.tv(depthlaw.depth_distribution(env, table).pmf,
                                 ref["pmf"])
            self.tv_ref = max(self.tv_ref, tv_cells)
            problems += [f"N={env.N}: {p}" for p in checks.cells_problems(tv_cells)]
        return problems

    def layer_values(self, rounds: int) -> dict:
        return {"policy.kappa_err": self.kappa_err, "depthlaw.tv_ref": self.tv_ref}


class ScoreLog(Workload):
    """Scoring passes of ``nll_objective`` over one N=5 log with
    conversions: the generating beta at two Monte Carlo seeds and a
    distant beta, each with a fresh context."""

    BETA_FAR = (-0.3, 1.2, 0.2)
    PASSES = ((BETA_TRUE, 1), (BETA_TRUE, 2), (BETA_FAR, 1))
    N_SAMPLES = 256
    CHECK_SAMPLES = 1 << 15
    CHECK_SESSIONS = 4

    def __init__(self, seed: int, workdir: Path, sessions: int = 20_000):
        self.seed = seed
        self.log = SyntheticLog(5, sessions, seed)
        self.records = self.log.records()
        self.nll_se = 0.0

    def warm_up(self):
        self.score(*self.PASSES[0])

    def operations(self):
        return [(1, lambda p=p: self.score(*p)) for p in self.PASSES]

    def score(self, beta, mc_seed):
        model = likelihood.AffineFeatureModel(beta)
        v0, se2 = likelihood.calibrate(self.records, model, self.log.profile)
        ctx = likelihood.LikelihoodContext(self.log.prims, v0, se2,
                                           self.log.profile,
                                           n_samples=self.N_SAMPLES, seed=mc_seed)
        nll, _, info = likelihood.nll_objective(self.records, model, ctx)
        return {"nll": nll, "sessions": info["sessions"]}

    def check(self, outputs) -> list:
        if any(out is None for out in outputs):
            return []
        problems = [f"pass scored {out['sessions']} of {len(self.records)} sessions"
                    for out in outputs if out["sessions"] != len(self.records)]
        true1, true2, far = (out["nll"] for out in outputs)
        self.nll_se = statistics.stdev([true1, true2])
        return problems + checks.nll_order_problems(true1, far, self.nll_se)

    def final_check(self) -> list:
        """Label partition and the dyadic shift invariance, on sampled sessions."""
        W = self.sampled_features()
        return (checks.label_problems(self.label_probabilities(W), self.CHECK_SAMPLES)
                + self.shift_problems(W))

    def sampled_features(self):
        rng = np.random.default_rng([self.seed, 99])
        return self.log.W[rng.choice(len(self.records), self.CHECK_SESSIONS,
                                     replace=False)]

    def label_probabilities(self, W) -> dict:
        """P(t, j) for every depth t and label j (None: unlabelled)."""
        model = likelihood.AffineFeatureModel(BETA_TRUE)
        ctx = likelihood.LikelihoodContext(
            self.log.prims, self.log.v0, self.log.sigma_eta2, self.log.profile,
            n_samples=self.CHECK_SAMPLES, seed=self.seed)
        U = model.predict(W) - self.log.prims.x_b
        return {(t, j): ctx.evaluate(U[:, :t], j)[0]
                for t in range(1, W.shape[1] + 1) for j in [None, *range(t + 1)]}

    def shift_problems(self, W, delta: float = 0.8125) -> list:
        """Shifting features and x_b by ``delta`` (dyadic) changes no bit."""
        Wq = np.rint(W * 2.0 ** 20) / 2.0 ** 20
        beta = np.array([0.3125, 0.625, -0.375])
        shifted = beta + np.array([delta, 0.0, 0.0])
        ctxs = [likelihood.LikelihoodContext(
            likelihood.UserPrimitives(c=0.1, x_b=0.125 + d, m0=d),
            self.log.v0, self.log.sigma_eta2, self.log.profile,
            n_samples=2048, seed=self.seed) for d in (0.0, delta)]
        models = [likelihood.AffineFeatureModel(b) for b in (beta, shifted)]
        problems = []
        for t in range(1, W.shape[1] + 1):
            for j in [None, *range(t + 1)]:
                for w in Wq:
                    rec = likelihood.SessionRecord(w, t, j)
                    (a, ga), (b, gb) = (likelihood.session_likelihood(rec, m, c)
                                        for m, c in zip(models, ctxs))
                    if a != b or not np.array_equal(ga, gb):
                        problems.append(f"shift changed P({t}, {j}): {a!r} -> {b!r}")
        return problems

    def layer_values(self, rounds: int) -> dict:
        return {"likelihood.nll_se": self.nll_se}

    def trace_problems(self, layers: dict) -> list:
        expected = len(self.records) * len(self.PASSES)
        if layers["likelihood.sessions_scored"] == expected:
            return []
        return [f"evaluate saw {layers['likelihood.sessions_scored']} sessions "
                f"per round, not {len(self.records)} x {len(self.PASSES)}"]


class FitLog(Workload):
    """``fit`` for a fixed number of epochs on N=3 logs.

    A round runs two fits.  The checked fit starts 0.8 off in both slopes
    on the seeded log, so its epochs take capped steps toward the truth.
    The refit starts from the recovery test's start on a log that does
    not depend on the seed.  There fit's growing step caps carry beta
    away from the truth again after the first epoch (see CHANGES.md), so
    the refit fails every time and its epochs are counted in ``failed``.
    """

    BETA0 = (0.3, -0.2, 0.4)
    REFIT_BETA0 = (0.0, 0.3, -0.1)
    REFIT_LOG_SEED = 0
    PRIMS0 = likelihood.UserPrimitives(c=0.05, x_b=0.0)
    FIT_SEED = 11
    EPOCHS = 3
    N_SAMPLES = 512

    def __init__(self, seed: int, workdir: Path, sessions: int = 2000):
        self.log = SyntheticLog(3, sessions, seed)
        self.records = self.log.records()
        self.refit_records = SyntheticLog(3, sessions, self.REFIT_LOG_SEED).records()

    def warm_up(self):
        self.run_fit(self.records, self.BETA0, 1)

    def operations(self):
        return [(self.EPOCHS, lambda: self.run_fit(self.records, self.BETA0,
                                                    self.EPOCHS)),
                (self.EPOCHS, self.refit)]

    def refit(self):
        """The fixed-input fit; raises when beta moves away from the truth."""
        _, path = self.run_fit(self.refit_records, self.REFIT_BETA0, self.EPOCHS)
        problems = checks.divergence_problems(path, BETA_TRUE)
        if problems:
            raise RuntimeError(f"fit from {self.REFIT_BETA0}: {problems[0]}")

    def run_fit(self, records, beta0, epochs: int):
        """The fit result and its beta path: the start of every epoch, then
        the returned beta."""
        path = []

        def callback(epoch, nll, beta, prims):
            path.append(beta.copy())
            if self.tracer is not None:
                self.tracer.mark("fit.epoch")
        if self.tracer is not None:
            self.tracer.mark("fit.run")
        res = likelihood.fit(records, np.array(beta0), self.PRIMS0,
                             self.log.profile, n_samples=self.N_SAMPLES,
                             seed=self.FIT_SEED, max_epochs=epochs, rel_tol=0.0,
                             callback=callback)
        return res, path + [res.beta]

    def check(self, outputs) -> list:
        if outputs[0] is None:
            return []
        res, path = outputs[0]
        profile = self.log.profile
        N = profile.N
        alpha1 = profile.alpha_scale * special.ndtri(1.0 - 1.0 / (N + 1.0))
        slack = checks.interior_slack(res.prims.c, res.prims.x_b, res.prims.m0,
                                      alpha1, res.v0, res.sigma_eta2)
        problems = checks.fit_problems(path, BETA_TRUE, res.nll_path, slack)
        if res.epochs != self.EPOCHS:
            problems.append(f"fit ran {res.epochs} epochs, not {self.EPOCHS}")
        return problems


class Cli(Workload):
    """A fixed sequence of ``standout`` subcommands, one process each."""

    LOG_BETA = ",".join(str(b) for b in BETA_TRUE)

    def __init__(self, seed: int, workdir: Path, simulate_n: int = 100_000,
                 abtest_n: int = 20_000, log_sessions: int = 200,
                 curse_steps: int = 8):
        self.workdir = workdir
        rng = np.random.default_rng([seed, TAG_CLI_ENV])
        env5, self.env3 = random_env(rng, 5), random_env(rng, 3)
        log = SyntheticLog(3, log_sessions, seed)
        paths = {name: str(workdir / f"{name}.json") for name in ("env5", "env3", "envlog")}
        for name, env in (("env5", env5), ("env3", self.env3)):
            with open(paths[name], "w") as fh:
                json.dump(env.to_dict(), fh)
        with open(paths["envlog"], "w") as fh:
            json.dump({"N": 3, "sigma_x2": 1.0, "sigma_e2": 1.0, "v0": 1.0,
                       "c": log.prims.c, "x_b": log.prims.x_b}, fh)
        log_path = str(workdir / "log.jsonl")
        log.write_jsonl(log_path)
        self.log_sessions = log_sessions
        self.curse_steps = curse_steps
        s = ["--seed", str(seed)]
        abtest = ["abtest", "--config", paths["env3"], "--method", "monte_carlo",
                  "--n", str(abtest_n), "--steps", "5", *s]
        self.calls = [
            ["policy", "--config", paths["env5"]],
            ["policy", "--config", paths["env5"], "--policy", "myopic"],
            ["first-stop", "--config", paths["env5"]],
            ["region", "--config", paths["env5"], "--t", "3"],
            ["curse-scan", "--config", paths["env5"], "--steps", str(curse_steps)],
            ["depth-dist", "--config", paths["env3"]],
            ["simulate", "--config", paths["env3"], "--n", str(simulate_n), *s],
            abtest,
            ["likelihood", "--config", paths["envlog"], "--log", log_path,
             "--beta", self.LOG_BETA, *s],
            abtest,  # repeated: same seed, same bytes
        ]
        self.first_digests = None
        self.invocations = []  # (subcommand, wall_s, out_bytes, spans file)

    def warm_up(self):
        self.invoke(0, record=False)

    def operations(self):
        return [(1, lambda k=k: self.invoke(k)) for k in range(len(self.calls))]

    def invoke(self, k: int, record: bool = True):
        argv = self.calls[k]
        out = self.workdir / f"out-{k}.txt"
        spans = self.workdir / f"spans-{k}-{len(self.invocations)}.json"
        cmd = [sys.executable, str(CLI_CHILD), str(spans) if self.tracer else "-",
               *argv, "--out", str(out)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=170)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"standout {argv[0]} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        data = out.read_bytes()
        if record:
            self.invocations.append((argv[0], wall, len(data),
                                     spans if self.tracer else None))
        return data

    def check(self, outputs) -> list:
        if any(out is None for out in outputs):
            return []
        digests = [hashlib.sha256(out).hexdigest() for out in outputs]
        if self.first_digests is not None:
            # identical bytes to the first round, whose outputs were parsed
            return [f"{self.calls[k][0]} output changed between rounds"
                    for k, (a, b) in enumerate(zip(digests, self.first_digests))
                    if a != b]
        self.first_digests = digests
        return self.output_problems(outputs)

    def output_problems(self, outputs) -> list:
        try:
            parsed = [_parse(argv[0], out) for argv, out in zip(self.calls, outputs)]
        except (ValueError, KeyError, IndexError) as exc:
            return [f"unparsable output: {exc}"]
        pol, myo, first, region, curse, dist, sim, ab, lik, _ = parsed
        problems = []
        if not abs(pol["kappa"][-1] - myo["kappa"][-1]) <= checks.KAPPA_TIE_TOL:
            problems.append(f"policy last kappa {pol['kappa'][-1]!r} != myopic "
                            f"{myo['kappa'][-1]!r}")
        if first["regime"] == "explore":
            if first["p_tau1"] != first["p_cut_losses"] + first["p_commit"]:
                problems.append("first-stop p_tau1 != p_cut_losses + p_commit")
        elif (first["p_tau1"], first["p_cut_losses"], first["p_commit"]) != (1.0, 0.0, 0.0):
            problems.append("first-stop trust regime without a sure stop")
        t = region["t"]
        if len(region["rows"]) != t * (t + 1) // 2 - 1:
            problems.append(f"region has {len(region['rows'])} rows at t={t}")
        if len(curse) != self.curse_steps:
            problems.append(f"curse-scan has {len(curse)} rows")
        if len(ab) != 5:
            problems.append(f"abtest has {len(ab)} rows")
        counts = np.bincount([rec["depth"] for rec in sim[1:]],
                             minlength=self.env3.N + 1)
        problems += [f"simulate vs depth-dist: {p}"
                     for p in checks.pmf_problems(dist["pmf"], counts)]
        values = [rec["value"] for rec in lik[1:]]
        if len(values) != self.log_sessions or not all(0.0 <= v <= 1.0 for v in values):
            problems.append("likelihood output is not one probability per session")
        if outputs[7] != outputs[9]:
            problems.append("repeated abtest with the same seed changed bytes")
        return problems

    def child_spans(self) -> list:
        """Spans written by the traced invocations, tagged by process."""
        spans, self.import_times = [], []
        for proc, (_, _, _, path) in enumerate(self.invocations):
            with open(path) as fh:
                child = json.load(fh)
            path.unlink()
            self.import_times.append(child["import_s"])
            spans += [{**span, "proc": proc} for span in child["spans"]]
        return spans

    def layer_values(self, rounds: int) -> dict:
        out = {f"cli.{argv[0]}_s": 0.0 for argv in self.calls}
        out["cli.output_bytes"] = 0.0
        for name, wall, size, _ in self.invocations:
            out[f"cli.{name}_s"] += wall / rounds
            out["cli.output_bytes"] += size / rounds
        out["cli.import_s"] = statistics.median(self.import_times)
        return out


def _parse(cmd: str, data: bytes):
    text = data.decode()
    if cmd in ("curse-scan", "abtest"):  # csv: meta comment, header, rows
        lines = text.splitlines()
        if not lines[0].startswith("# meta "):
            raise ValueError(f"{cmd}: no meta line")
        json.loads(lines[0][len("# meta "):])
        header = lines[1].split(",")
        rows = [line.split(",") for line in lines[2:]]
        if any(len(row) != len(header) for row in rows):
            raise ValueError(f"{cmd}: ragged csv")
        for row in rows:
            for cell in row:
                if cell not in ("", "true", "false"):
                    float(cell)
        return rows
    if cmd in ("simulate", "likelihood"):
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


WORKLOADS = {"depth_law": DepthLaw, "score_log": ScoreLog, "fit_log": FitLog,
             "cli": Cli}
