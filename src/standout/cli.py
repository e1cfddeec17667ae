"""Command line entry point.

One executable, ``standout``, dispatches to the analysis subcommands:
policy tables, first-stop classification, reliability scans, the exact
depth law, session simulation, A/B depth curves, survival regions, and
the session likelihood / fitting pipeline.  Output is JSON, CSV, or
JSONL; every payload embeds the resolved configuration and seed so runs
are self-describing, and all randomness flows from the --seed flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .abtest import ab_report
from .depthlaw import depth_distribution, simulate_sessions
from .environment import EnvironmentParams, require_interior
from .firststop import classify_first_stop, winners_curse_scan
from .likelihood import (AffineFeatureModel, LikelihoodContext, RankerProfile,
                         UserPrimitives, calibrate, fit, nll_objective,
                         records_from_jsonl, session_likelihood)
from .policy import myopic_table, optimal_table
from .survival import build_survival_region

DEFAULT_FORMATS = {
    "policy": "json", "first-stop": "json", "curse-scan": "csv",
    "depth-dist": "json", "simulate": "jsonl", "abtest": "csv",
    "region": "json", "likelihood": "jsonl", "fit": "json",
}


def _fmt(x) -> str:
    return f"{float(x):.10g}"


def _threads() -> int:
    raw = os.environ.get("STANDOUT_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"STANDOUT_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise ValueError("STANDOUT_THREADS must be >= 1")
    return n


def _env_from_args(args) -> EnvironmentParams:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
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
    _threads()  # validated for its side effect; kept out of the echo so
    # output bytes do not depend on the thread setting
    return {"config": env.to_dict(), "seed": args.seed, "subcommand": args.cmd}


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, meta: dict, payload: dict) -> None:
    obj = {"meta": meta}
    obj.update(payload)
    _emit(args, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _emit_csv(args, meta: dict, header, rows) -> None:
    lines = ["# meta " + json.dumps(meta, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    _emit(args, "\n".join(lines) + "\n")


def _emit_jsonl(args, meta: dict, records) -> None:
    encode = json.JSONEncoder(sort_keys=True).encode
    lines = [encode({"meta": meta})]
    lines.extend(map(encode, records))
    _emit(args, "\n".join(lines) + "\n")


def _table(env, policy: str):
    return optimal_table(env) if policy == "optimal" else myopic_table(env)


# -- subcommands ---------------------------------------------------------

def _cmd_policy(args):
    env = _env_from_args(args)
    require_interior(env)
    table = _table(env, args.policy)
    payload = {"kind": table.kind, "kappa": list(table.kappa),
               "reservation": list(table.reservation),
               "kappa_inf": table.kappa_inf}
    fmt = args.format or "json"
    if fmt == "csv":
        rows = [(t, table.kappa[t], table.reservation[t])
                for t in range(table.N)]
        _emit_csv(args, _meta(env, args), ("epoch", "kappa", "reservation"), rows)
    else:
        _emit_json(args, _meta(env, args), payload)


def _cmd_first_stop(args):
    env = _env_from_args(args)
    require_interior(env)
    report = classify_first_stop(env, _table(env, args.policy))
    payload = {"regime": report.regime, "s1_minus": report.s1_minus,
               "s1_plus": report.s1_plus, "p_tau1": report.p_tau1,
               "p_cut_losses": report.p_cut_losses,
               "p_commit": report.p_commit}
    fmt = args.format or "json"
    if fmt == "csv":
        _emit_csv(args, _meta(env, args), tuple(payload),
                  [tuple(payload.values())])
    else:
        _emit_json(args, _meta(env, args), payload)


def _cmd_curse_scan(args):
    env = _env_from_args(args)
    rho_grid = np.linspace(args.rho_min, args.rho_max, args.steps)
    results, first_trust = winners_curse_scan(env, rho_grid, policy=args.policy)
    meta = _meta(env, args)
    meta["first_trust_rho"] = first_trust
    fmt = args.format or "csv"
    if fmt == "json":
        _emit_json(args, meta, {"results": results,
                                "first_trust_rho": first_trust})
        return
    rows = []
    for r in results:
        rows.append((r["rho"], str(r["interior"]).lower(),
                     "" if r["trust_holds"] is None else str(r["trust_holds"]).lower(),
                     "" if r["p_tau1"] is None else _fmt(r["p_tau1"])))
    _emit_csv(args, meta, ("rho", "interior", "trust", "p_tau1"), rows)


def _cmd_depth_dist(args):
    env = _env_from_args(args)
    table = _table(env, args.policy)
    dist = depth_distribution(env, table, cells=args.cells)
    fmt = args.format or "json"
    if fmt == "csv":
        rows = []
        for t, (grid, mass) in enumerate(zip(dist.survival_grids,
                                             dist.survival_masses), start=1):
            for l, m in zip(grid, mass):
                rows.append((t, l, m))
        _emit_csv(args, _meta(env, args), ("epoch", "lead", "mass"), rows)
    else:
        _emit_json(args, _meta(env, args),
                   {"pmf": list(dist.pmf),
                    "expected_depth": dist.expected_depth(),
                    "measure": dist.measure})


def _cmd_simulate(args):
    env = _env_from_args(args)
    table = _table(env, args.policy)
    mu_mode = "draw_from_prior" if args.mu == "prior" else float(args.mu)
    batch = simulate_sessions(env, table, mu_mode=mu_mode, n=args.n,
                              seed=args.seed, order=args.order)
    _emit_jsonl(args, _meta(env, args), _session_records(batch))


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


def _cmd_abtest(args):
    env = _env_from_args(args)
    delta_grid = np.linspace(args.delta_min, args.delta_max, args.steps)
    report = ab_report(env, delta_grid, method=args.method, n=args.n,
                       seed=args.seed)
    meta = _meta(env, args)
    fmt = args.format or "csv"
    if fmt == "json":
        _emit_json(args, meta, {
            "delta": list(report.delta_grid), "sr": list(report.sr),
            "lr": list(report.lr),
            "lr_corner": [bool(b) for b in report.lr_corner],
            "sr_prime_0": report.sr_prime_0, "baseline": report.baseline})
        return
    meta["sr_prime_0"] = report.sr_prime_0
    meta["baseline"] = report.baseline
    rows = list(zip(report.delta_grid, report.sr, report.lr))
    _emit_csv(args, meta, ("delta", "sr", "lr"), rows)


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
        for k2, other in enumerate(rows):
            if k2 == k:
                continue
            keep &= cand @ other.coeffs <= other.rhs + 1e-9
        for x1, x2 in cand[keep]:
            pts.append((x1, x2, f"{row.candidate}@{row.epoch}"))
    return pts


def _cmd_region(args):
    env = _env_from_args(args)
    table = _table(env, args.policy)
    region = build_survival_region(args.t, env, table)
    meta = _meta(env, args)
    meta["t"] = args.t
    fmt = args.format or "json"
    if fmt == "csv":
        if args.t != 3:
            raise ValueError("the boundary point cloud is only emitted for t = 3")
        pts = _region_boundary_cloud(region)
        _emit_csv(args, meta, ("x1", "x2", "tag"),
                  [(x1, x2, tag) for x1, x2, tag in pts])
        return
    rows = [{"coeffs": list(r.coeffs), "rhs": r.rhs,
             "tag": f"{r.candidate}@{r.epoch}"} for r in region.rows]
    _emit_json(args, meta, {"t": args.t, "rows": rows})


def _read_log(args, env):
    """The session log and the coefficients, checked against each other
    and against the configured list length."""
    records = records_from_jsonl(args.log)
    beta = np.array([float(v) for v in args.beta.split(",")])
    if records:
        N, d = records[0].features.shape
        if N != env.N:
            raise ValueError(f"{args.log}: sessions list {N} items, "
                             f"the config N = {env.N}")
        if d != len(beta) - 1:
            raise ValueError(f"{args.log}: sessions have {d} features, "
                             f"--beta needs {len(beta) - 1}")
    return records, beta


def _likelihood_setup(args, env):
    records, beta = _read_log(args, env)
    profile = RankerProfile.from_env(env)
    model = AffineFeatureModel(beta)
    prims = UserPrimitives(c=env.c, x_b=env.x_b)
    v0, se2 = calibrate(records, model, profile)
    return records, profile, model, prims, v0, se2


def _cmd_likelihood(args):
    env = _env_from_args(args)
    records, profile, model, prims, v0, se2 = _likelihood_setup(args, env)
    ctx = LikelihoodContext(prims, v0, se2, profile, policy=args.policy,
                            n_samples=args.n_samples, seed=args.seed)
    meta = _meta(env, args)
    meta.update({"v0": v0, "sigma_eta2": se2, "beta": list(model.beta)})
    fmt = args.format or "jsonl"
    if fmt == "json":
        nll, _, info = nll_objective(records, model, ctx)
        _emit_json(args, meta, {"nll": nll, "sessions": info["sessions"],
                                "underflow": info["underflow"]})
        return
    out = []
    for idx, rec in enumerate(records):
        val, _ = session_likelihood(rec, model, ctx)
        out.append({"index": idx, "depth": int(rec.depth),
                    "J": None if rec.conversion is None else int(rec.conversion),
                    "value": val})
    _emit_jsonl(args, meta, out)


def _cmd_fit(args):
    env = _env_from_args(args)
    records, beta0 = _read_log(args, env)
    profile = RankerProfile.from_env(env)
    prims0 = UserPrimitives(c=env.c, x_b=env.x_b)
    result = fit(records, beta0, prims0, profile, policy=args.policy,
                 n_samples=args.n_samples, seed=args.seed,
                 lr_beta=args.lr_beta, lr_prims=args.lr_prims,
                 max_epochs=args.epochs)
    _emit_json(args, _meta(env, args), {
        "beta": list(result.beta), "c": result.prims.c,
        "x_b": result.prims.x_b, "v0": result.v0,
        "sigma_eta2": result.sigma_eta2,
        "nll": result.nll_path[-1] if result.nll_path else None,
        "trace": result.nll_path, "converged": result.converged,
        "epochs": result.epochs})


# -- argument parsing ----------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", default=None, help="JSON environment file")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("json", "csv", "jsonl"), default=None)
    sub.add_argument("--policy", choices=("optimal", "myopic"), default="optimal")
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

    sp = subs.add_parser("policy", help="stopping thresholds")
    _add_common(sp)
    sp.set_defaults(func=_cmd_policy)

    sp = subs.add_parser("first-stop", help="classify the first-stop regime")
    _add_common(sp)
    sp.set_defaults(func=_cmd_first_stop)

    sp = subs.add_parser("curse-scan", help="trust condition along a reliability path")
    _add_common(sp)
    sp.add_argument("--rho-min", type=float, default=0.05)
    sp.add_argument("--rho-max", type=float, default=0.999)
    sp.add_argument("--steps", type=int, default=40)
    sp.set_defaults(func=_cmd_curse_scan)

    sp = subs.add_parser("depth-dist", help="exact inspection-depth law")
    _add_common(sp)
    sp.add_argument("--cells", type=int, default=4001)
    sp.set_defaults(func=_cmd_depth_dist)

    sp = subs.add_parser("simulate", help="simulate sessions")
    _add_common(sp)
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--mu", default="prior",
                    help='page mean: "prior" or a fixed float')
    sp.add_argument("--order", choices=("rank", "random"), default="rank")
    sp.set_defaults(func=_cmd_simulate)

    sp = subs.add_parser("abtest", help="short-run and long-run depth curves")
    _add_common(sp)
    sp.add_argument("--delta-min", type=float, default=-0.5)
    sp.add_argument("--delta-max", type=float, default=0.5)
    sp.add_argument("--steps", type=int, default=21)
    sp.add_argument("--method", choices=("closed_form_n2", "monte_carlo"),
                    default="closed_form_n2")
    sp.add_argument("--n", type=int, default=1_000_000)
    sp.set_defaults(func=_cmd_abtest)

    sp = subs.add_parser("region", help="survival polyhedron")
    _add_common(sp)
    sp.add_argument("--t", type=int, default=3)
    sp.set_defaults(func=_cmd_region)

    sp = subs.add_parser("likelihood", help="per-session likelihoods for a log")
    _add_common(sp)
    sp.add_argument("--log", required=True, help="JSONL session log")
    sp.add_argument("--beta", required=True,
                    help="comma-separated affine coefficients, intercept first")
    sp.add_argument("--n-samples", dest="n_samples", type=int, default=4096)
    sp.set_defaults(func=_cmd_likelihood)

    sp = subs.add_parser("fit", help="fit the feature model and (c, x_b)")
    _add_common(sp)
    sp.add_argument("--log", required=True, help="JSONL session log")
    sp.add_argument("--beta", required=True, help="initial coefficients")
    sp.add_argument("--n-samples", dest="n_samples", type=int, default=512)
    sp.add_argument("--epochs", type=int, default=200)
    sp.add_argument("--lr-beta", dest="lr_beta", type=float, default=2.0)
    sp.add_argument("--lr-prims", dest="lr_prims", type=float, default=0.5)
    sp.set_defaults(func=_cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
