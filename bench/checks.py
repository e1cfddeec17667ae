"""Output checks of the benchmark workloads.

Each check returns a list of problems, empty when the output passes.
Checks compare against computations made here, apart from the program
(closed-form myopic thresholds, multinomial and Monte Carlo error bounds,
the committed refined-grid reference), or against properties the method
must have.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special

PMF_SUM_TOL = 1e-9
KAPPA_TIE_TOL = 1e-8
# Accuracy held against the refined-grid reference (see README): the
# default table's kappa, its depth law, and the default cell count alone.
KAPPA_REF_TOL = 5e-5
TV_REF_TOL = 5e-5
TV_CELLS_TOL = 1e-8
MC_SIGMAS = 5.0


def tv(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def multinomial_tv_bound(pmf, n: int) -> float:
    """TV between ``pmf`` and an n-draw empirical law, exceeded with
    negligible probability: 1.5 times the summed per-cell standard errors
    (about four times the mean TV), plus one draw per cell for rounding.
    """
    pmf = np.clip(np.asarray(pmf, dtype=np.float64), 0.0, 1.0)
    return 1.5 * float(np.sum(np.sqrt(pmf * (1.0 - pmf) / n))) + len(pmf) / n


def pmf_problems(pmf, counts) -> list:
    """Σ pmf = 1, and the simulated depth histogram ``counts`` (sessions
    per depth 0..N) agrees with the pmf."""
    pmf = np.asarray(pmf, dtype=np.float64)
    counts = np.asarray(counts)
    problems = []
    if abs(pmf.sum() - 1.0) > PMF_SUM_TOL:
        problems.append(f"pmf sums to {pmf.sum():.17g}")
    if len(counts) != len(pmf):
        return problems + ["simulated depth beyond the list length"]
    n = int(counts.sum())
    emp = counts / n
    dist, bound = tv(pmf, emp), multinomial_tv_bound(pmf, n)
    if not dist <= bound:
        problems.append(f"TV to {n} simulated sessions {dist:.3g} > {bound:.3g}")
    return problems


def _g(d: float) -> float:
    """Option value g(d) = phi(d) - d * Phi(-d)."""
    return math.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi) - d * special.ndtr(-d)


def myopic_kappas(env) -> np.ndarray:
    """Closed-form myopic thresholds sigma*_t g^{-1}(c / sigma*_t), t = 0..N-1."""
    se2 = env.sigma_x2 * env.sigma_e2 / (env.sigma_x2 + env.sigma_e2)
    out = []
    for t in range(env.N):
        sd = math.sqrt(1.0 / (1.0 / env.v0 + t / se2) + se2)
        y = env.c / sd
        d = optimize.brentq(lambda x: _g(x) - y, -y - 1.0, 40.0,
                            xtol=1e-15, rtol=4 * np.finfo(float).eps)
        out.append(sd * d)
    return np.array(out)


def kappa_problems(kappa, myopic) -> list:
    """kappa*_{N-1} equals the myopic closed form; kappa*_t never below it."""
    kappa, myopic = np.asarray(kappa), np.asarray(myopic)
    problems = []
    if not abs(kappa[-1] - myopic[-1]) <= KAPPA_TIE_TOL:
        problems.append(f"last kappa {kappa[-1]!r} != myopic {myopic[-1]!r}")
    low = np.flatnonzero(kappa < myopic - KAPPA_TIE_TOL)
    if low.size:
        problems.append(f"kappa below the myopic threshold at epochs {low.tolist()}")
    return problems


def reference_errors(kappa, pmf, ref: dict):
    """(largest |dkappa|, TV) against a refined-grid reference entry."""
    return (float(np.max(np.abs(np.asarray(kappa) - np.asarray(ref["kappa"])))),
            tv(pmf, ref["pmf"]))


def reference_problems(kappa_err: float, tv_ref: float) -> list:
    problems = []
    if not kappa_err <= KAPPA_REF_TOL:
        problems.append(f"|dkappa| vs reference {kappa_err:.3g} > {KAPPA_REF_TOL:g}")
    if not tv_ref <= TV_REF_TOL:
        problems.append(f"TV vs reference {tv_ref:.3g} > {TV_REF_TOL:g}")
    return problems


def cells_problems(tv_cells: float) -> list:
    """The depth law under the reference table, at the default cell count."""
    if tv_cells <= TV_CELLS_TOL:
        return []
    return [f"TV of the default cells vs reference {tv_cells:.3g} > {TV_CELLS_TOL:g}"]


def label_problems(P: dict, n_samples: int) -> list:
    """Conversion labels partition each depth event, depths partition 1.

    ``P`` maps (t, j) to per-session probability arrays, with j = None
    for the unlabelled depth event.  Each estimate averages n_samples
    values in [0, 1], so its variance is at most p(1-p)/n_samples, and
    distinct (t, j) groups use independent draws.
    """
    def var(p):
        p = np.clip(p, 0.0, 1.0)
        return p * (1.0 - p) / n_samples

    depths = sorted({t for t, _ in P})
    problems = []
    total = sum(P[(t, j)] for t in depths for j in range(t + 1))
    sd = np.sqrt(sum(var(P[(t, j)]) for t in depths for j in range(t + 1)))
    bad = np.abs(total - 1.0) > MC_SIGMAS * sd + 1e-12
    if bad.any():
        problems.append(f"sum over (t, j) of P is {total[bad].tolist()}, not 1")
    for t in depths:
        labelled = sum(P[(t, j)] for j in range(t + 1))
        sd = np.sqrt(var(P[(t, None)]) + sum(var(P[(t, j)]) for j in range(t + 1)))
        bad = np.abs(labelled - P[(t, None)]) > MC_SIGMAS * sd + 1e-12
        if bad.any():
            problems.append(f"depth {t}: labelled sum {labelled[bad].tolist()} "
                            f"!= unlabelled {P[(t, None)][bad].tolist()}")
    return problems


def nll_order_problems(nll_true: float, nll_far: float, nll_se: float) -> list:
    """The generating beta must beat a distant beta by 3 seed spreads."""
    if nll_far - nll_true > 3.0 * nll_se:
        return []
    return [f"NLL at the truth {nll_true:.6g} not below the distant beta's "
            f"{nll_far:.6g} by 3 x {nll_se:.3g}"]


def beta_errors(beta_path, beta_true) -> list:
    return [float(np.max(np.abs(np.asarray(b) - beta_true))) for b in beta_path]


def divergence_problems(beta_path, beta_true) -> list:
    """max |beta - beta_true| never grows from one epoch to the next."""
    err = beta_errors(beta_path, beta_true)
    return [f"max |beta - beta_true| grew {a:.3g} -> {b:.3g} in epoch {k + 1}"
            for k, (a, b) in enumerate(zip(err, err[1:])) if b > a]


def fit_problems(beta_path, beta_true, nll_path, slack: float) -> list:
    """Along ``beta_path`` (the start, each epoch, the result) the error
    never grows and at least halves; the NLL falls; the fitted (c, x_b)
    stay interior."""
    err = beta_errors(beta_path, beta_true)
    problems = divergence_problems(beta_path, beta_true)
    if not err[-1] <= 0.5 * err[0]:
        problems.append(f"max |beta - beta_true| went {err[0]:.3g} -> {err[-1]:.3g}, "
                        f"not halved")
    if not nll_path[-1] < nll_path[0]:
        problems.append(f"final NLL {nll_path[-1]:.6g} not below first {nll_path[0]:.6g}")
    if not slack > 0.0:
        problems.append(f"fitted (c, x_b) violate the interior condition "
                        f"(slack {slack:.3g})")
    return problems


def interior_slack(c, x_b, m0, alpha1, v0, sigma_eta2) -> float:
    """E[(X - x_b)^+] - c for the first draw X ~ N(m0 + alpha1, v0 + sigma_eta2)."""
    sd = math.sqrt(v0 + sigma_eta2)
    d = (x_b - m0 - alpha1) / sd
    return sd * _g(d) - c
