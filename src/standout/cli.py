"""Command line entry point.

One executable, ``standout``, dispatches to the analysis subcommands:
policy tables, first-stop classification, reliability scans, the exact
depth law, session simulation, A/B depth curves, survival regions, and
the session likelihood / fitting pipeline.  ``main`` builds the
environment and the meta (the resolved configuration and seed, embedded
in every payload so runs are self-describing) once, before the
subcommand runs; the subcommand returns its output text (JSON, CSV, or
JSONL) and ``main`` writes it once.  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress

import numpy as np

from . import policy as _policy
from .abtest import ab_report
from .depthlaw import DEFAULT_CELLS, depth_distribution, simulate_sessions
from .environment import (EnvironmentParams, read_config, require_count,
                          require_real, require_seed)
from .firststop import classify_first_stop, winners_curse_scan
from .likelihood import (AffineFeatureModel, LikelihoodContext, RankerProfile,
                         UserPrimitives, calibrate, fit, nll_objective,
                         records_from_jsonl)
from .policy import POLICIES, policy_table
from .survival import build_survival_region
optimal_table = _policy.optimal_table  # bench/tracer.py wraps the name here

# the --format choices of each subcommand, default first
DEFAULT_FORMATS = {
    "policy": ("json", "csv"), "first-stop": ("json", "csv"),
    "depth-dist": ("json", "csv"), "region": ("json", "csv"),
    "curse-scan": ("csv", "json"), "abtest": ("csv", "json"),
    "likelihood": ("jsonl", "json"), "simulate": ("jsonl",), "fit": ("json",),
}


def _fmt(x) -> str:
    return f"{float(x):.10g}"


def _env_from_args(args) -> EnvironmentParams:
    cfg = read_config(args.config) if args.config else {}
    for key in ("N", "sigma_x2", "sigma_e2", "v0", "m0", "x_b", "c",
                "quantile_rule"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    missing = [k for k in ("N", "sigma_x2", "sigma_e2", "v0") if k not in cfg]
    if missing:
        raise ValueError(f"missing config fields: {', '.join(missing)}")
    return EnvironmentParams.from_dict(cfg)


def _meta(env: EnvironmentParams, args) -> dict:
    # STANDOUT_THREADS is validated here, before the subcommand runs, and
    # kept out of the echo so output bytes do not depend on the thread setting
    raw = os.environ.get("STANDOUT_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"STANDOUT_THREADS must be an integer, got {raw!r}")
    require_count("STANDOUT_THREADS", n)
    return {"config": env.to_dict(), "seed": args.seed, "subcommand": args.cmd}


def _json(meta: dict, payload: dict) -> str:
    obj = {"meta": meta}
    obj.update(payload)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv(meta: dict, header, rows) -> str:
    lines = ["# meta " + json.dumps(meta, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _jsonl(meta: dict, records) -> str:
    encode = json.JSONEncoder(sort_keys=True).encode
    lines = [encode({"meta": meta})]
    lines.extend(map(encode, records))
    return "\n".join(lines) + "\n"


# -- subcommands: each returns its output text, under the meta it is given

def _cmd_policy(args, env, meta):
    table = policy_table(env, args.policy)
    if args.format == "csv":
        return _csv(meta, ("epoch", "kappa", "reservation"),
                    [(t, table.kappa[t], table.reservation[t])
                     for t in range(table.N)])
    return _json(meta, {"kind": table.kind, "kappa": list(table.kappa),
                        "reservation": list(table.reservation),
                        "kappa_inf": table.kappa_inf})


def _cmd_first_stop(args, env, meta):
    report = classify_first_stop(env, policy_table(env, args.policy))
    payload = {"regime": report.regime, "s1_minus": report.s1_minus,
               "s1_plus": report.s1_plus, "p_tau1": report.p_tau1,
               "p_cut_losses": report.p_cut_losses,
               "p_commit": report.p_commit}
    if args.format == "csv":
        return _csv(meta, tuple(payload), [tuple(payload.values())])
    return _json(meta, payload)


def _real_flag(flag, text):
    """``text`` as a real number, by the real rule, which refuses a non-number."""
    with suppress(ValueError):
        text = float(text)
    return require_real(flag, text)


def _grid(args, name):
    steps = require_count("--steps", args.steps)
    return np.linspace(*(require_real(f"--{name}-{end}", getattr(args, f"{name}_{end}"))
                         for end in ("min", "max")), steps)


def _cmd_curse_scan(args, env, meta):
    rho_grid = _grid(args, "rho")
    results, first_trust = winners_curse_scan(env, rho_grid, policy=args.policy)
    meta.update(first_trust_rho=first_trust)
    if args.format == "json":
        return _json(meta, {"results": results, "first_trust_rho": first_trust})
    rows = [(r["rho"], str(r["interior"]).lower(),
             "" if r["trust_holds"] is None else str(r["trust_holds"]).lower(),
             "" if r["p_tau1"] is None else _fmt(r["p_tau1"])) for r in results]
    return _csv(meta, ("rho", "interior", "trust", "p_tau1"), rows)


def _cmd_depth_dist(args, env, meta):
    dist = depth_distribution(env, policy_table(env, args.policy), cells=args.cells)
    if args.format == "csv":
        return _csv(meta, ("epoch", "lead", "mass"), (
            (t, l, m) for t, (grid, mass) in enumerate(
                zip(dist.survival_grids, dist.survival_masses), start=1)
            for l, m in zip(grid, mass)))
    return _json(meta, {"pmf": list(dist.pmf),
                        "expected_depth": dist.expected_depth(),
                        "measure": dist.measure})


def _cmd_simulate(args, env, meta):
    table = policy_table(env, args.policy)
    mu_mode = "draw_from_prior" if args.mu == "prior" else _real_flag("--mu", args.mu)
    batch = simulate_sessions(env, table, mu_mode=mu_mode, n=args.n,
                              seed=args.seed, order=args.order)
    return _jsonl(meta, _session_records(batch))


def _session_records(batch):
    """One dict per simulated session, converted to Python scalars a
    block of sessions at a time, which bounds the extra memory."""
    block = 4096
    for i0 in range(0, len(batch), block):
        rows = slice(i0, i0 + block)
        columns = (batch.mu[rows].tolist(), batch.x[rows].tolist(),
                   batch.depth[rows].tolist(), batch.J[rows].tolist(),
                   batch.payoff[rows].tolist())
        for mu, x, depth, J, payoff in zip(*columns):
            yield {"mu": mu, "x": x, "depth": depth, "J": J, "payoff": payoff}


def _cmd_abtest(args, env, meta):
    delta_grid = _grid(args, "delta")
    report = ab_report(env, delta_grid, method=args.method, n=args.n,
                       seed=args.seed, policy=args.policy)
    if args.format == "json":
        return _json(meta, {
            "delta": list(report.delta_grid), "sr": list(report.sr),
            "lr": list(report.lr),
            "lr_corner": [bool(b) for b in report.lr_corner],
            "sr_prime_0": report.sr_prime_0, "baseline": report.baseline})
    meta.update(sr_prime_0=report.sr_prime_0, baseline=report.baseline)
    return _csv(meta, ("delta", "sr", "lr"),
                zip(report.delta_grid, report.sr, report.lr))


def _region_boundary_cloud(region, n_per_edge=400, box=12.0):
    """Points on the boundary of a 2-D region, tagged by the active row."""
    rows = region.rows
    pts = []
    s = np.linspace(-box, box, n_per_edge)
    for k, row in enumerate(rows):
        a, b = row.coeffs
        # param the line a*x1 + b*x2 = rhs along its tangent direction
        norm2 = a * a + b * b
        base = np.array([a, b]) * row.rhs / norm2
        tang = np.array([-b, a]) / np.sqrt(norm2)
        cand = base[None, :] + s[:, None] * tang[None, :]
        keep = np.ones(len(cand), dtype=bool)
        for other in rows[:k] + rows[k + 1:]:
            keep &= cand @ other.coeffs <= other.rhs + 1e-9
        for x1, x2 in cand[keep]:
            pts.append((x1, x2, f"{row.candidate}@{row.epoch}"))
    return pts


def _cmd_region(args, env, meta):
    region = build_survival_region(args.t, env, policy_table(env, args.policy))
    meta.update(t=args.t)
    if args.format == "csv":
        if args.t != 3:
            raise ValueError("the boundary point cloud is only emitted for t = 3")
        return _csv(meta, ("x1", "x2", "tag"), _region_boundary_cloud(region))
    rows = [{"coeffs": list(r.coeffs), "rhs": r.rhs,
             "tag": f"{r.candidate}@{r.epoch}"} for r in region.rows]
    return _json(meta, {"t": args.t, "rows": rows})


def _read_log(args, env):
    """The session log and the coefficients, checked against each other
    and against the configured list length."""
    records = records_from_jsonl(args.log)
    beta = np.array([_real_flag("--beta", v) for v in args.beta.split(",")])
    if len(records) < 2:  # calibrate's minimum, named with the file
        raise ValueError(f"{args.log}: the log holds " + (
            "one session; calibration needs at least two" if records else "no sessions"))
    N, d = records[0].features.shape
    if N != env.N:
        raise ValueError(f"{args.log}: sessions list {N} items, "
                         f"the config N = {env.N}")
    if d != len(beta) - 1:
        raise ValueError(f"{args.log}: sessions have {d} features, "
                         f"--beta needs {len(beta) - 1}")
    return records, beta


def _cmd_likelihood(args, env, meta):
    records, beta = _read_log(args, env)
    profile = RankerProfile.from_env(env)
    model = AffineFeatureModel(beta)
    v0, se2 = calibrate(records, model, profile)
    ctx = LikelihoodContext(UserPrimitives(c=env.c, x_b=env.x_b), v0, se2,
                            profile, policy=args.policy,
                            n_samples=args.n_samples, seed=args.seed)
    meta.update(v0=v0, sigma_eta2=se2, beta=list(model.beta))
    nll, _, info = nll_objective(records, model, ctx, grad=False)
    if args.format == "json":
        return _json(meta, {"nll": nll, "sessions": info["sessions"],
                            "underflow": info["underflow"]})
    return _jsonl(meta, (
        {"index": idx, "depth": rec.depth, "J": rec.conversion,
         "value": float(value)}
        for idx, (rec, value) in enumerate(zip(records, info["values"]))))


def _cmd_fit(args, env, meta):
    records, beta0 = _read_log(args, env)
    profile = RankerProfile.from_env(env)
    result = fit(records, beta0, UserPrimitives(c=env.c, x_b=env.x_b), profile,
                 policy=args.policy, n_samples=args.n_samples, seed=args.seed,
                 lr_beta=args.lr_beta, lr_prims=args.lr_prims,
                 max_epochs=args.epochs)
    return _json(meta, {
        "beta": list(result.beta), "c": result.prims.c,
        "x_b": result.prims.x_b, "v0": result.v0,
        "sigma_eta2": result.sigma_eta2,
        "nll": result.nll_path[-1],
        "trace": result.nll_path, "converged": result.converged,
        "epochs": result.epochs})


# -- argument parsing ----------------------------------------------------

def _add_common(sub, formats):
    sub.add_argument("--config", default=None, help="JSON environment file")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--policy", choices=POLICIES, default="optimal")
    sub.add_argument("--N", type=int, default=None)
    for name in ("sigma-x2", "sigma-e2", "v0", "m0", "x-b", "c"):
        sub.add_argument(f"--{name}", dest=name.replace("-", "_"),
                         type=float, default=None)
    sub.add_argument("--quantile-rule", dest="quantile_rule",
                     choices=("midpoint", "blom"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="standout",
        description="Bayesian rational-inspection analysis of ranked-list search")
    subs = parser.add_subparsers(dest="cmd", required=True)

    def command(name, func, summary):
        sp = subs.add_parser(name, help=summary)
        _add_common(sp, DEFAULT_FORMATS[name])
        sp.set_defaults(func=func)
        return sp

    command("policy", _cmd_policy, "stopping thresholds")
    command("first-stop", _cmd_first_stop, "classify the first-stop regime")

    sp = command("curse-scan", _cmd_curse_scan,
                 "trust condition along a reliability path")
    sp.add_argument("--rho-min", type=float, default=0.05)
    sp.add_argument("--rho-max", type=float, default=0.999)
    sp.add_argument("--steps", type=int, default=40)

    sp = command("depth-dist", _cmd_depth_dist, "exact inspection-depth law")
    sp.add_argument("--cells", type=int, default=DEFAULT_CELLS)

    sp = command("simulate", _cmd_simulate, "simulate sessions")
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--mu", default="prior",
                    help='page mean: "prior" or a fixed float')
    sp.add_argument("--order", choices=("rank", "random"), default="rank")

    sp = command("abtest", _cmd_abtest, "short-run and long-run depth curves")
    sp.add_argument("--delta-min", type=float, default=-0.5)
    sp.add_argument("--delta-max", type=float, default=0.5)
    sp.add_argument("--steps", type=int, default=21)
    sp.add_argument("--method", choices=("closed_form_n2", "monte_carlo"),
                    default="closed_form_n2")
    sp.add_argument("--n", type=int, default=1_000_000)

    sp = command("region", _cmd_region, "survival polyhedron")
    sp.add_argument("--t", type=int, default=3)

    sp = command("likelihood", _cmd_likelihood, "per-session likelihoods for a log")
    sp.add_argument("--log", required=True, help="JSONL session log")
    sp.add_argument("--beta", required=True,
                    help="comma-separated affine coefficients, intercept first")
    sp.add_argument("--n-samples", dest="n_samples", type=int, default=4096)

    sp = command("fit", _cmd_fit, "fit the feature model and (c, x_b)")
    sp.add_argument("--log", required=True, help="JSONL session log")
    sp.add_argument("--beta", required=True, help="initial coefficients")
    sp.add_argument("--n-samples", dest="n_samples", type=int, default=512)
    sp.add_argument("--epochs", type=int, default=200)
    sp.add_argument("--lr-beta", dest="lr_beta", type=float, default=2.0)
    sp.add_argument("--lr-prims", dest="lr_prims", type=float, default=0.5)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        require_seed(args.seed)
        env = _env_from_args(args)
        text = args.func(args, env, _meta(env, args))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
