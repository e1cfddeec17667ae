"""Model primitives and the deterministic constants derived from them.

An :class:`EnvironmentParams` holds everything the user-side model needs:
list length, relevance/noise variances, the Gaussian prior on the page
mean, the outside option and the per-inspection cost.  ``derive`` turns
those into reliability ratio, residual variance, rank quantiles and the
rank-specific shifts; ``interior_condition_slack`` checks that inspecting
the top item is worth its cost, ``read_config`` reads a config file,
and ``is_finite_real`` and ``require_*`` hold the input rules.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .gaussmath import gaussian_upside, std_normal_quantile

QUANTILE_RULES = ("midpoint", "blom")


@dataclass(frozen=True)
class DerivedConstants:
    rho: float
    sigma_z: float
    sigma_eta2: float
    q: np.ndarray      # rank quantiles q_1..q_N
    alpha: np.ndarray  # rank shifts alpha_1..alpha_N


def is_finite_real(value) -> bool:
    """A finite real number that is not a bool; an int too large for a
    float is not finite."""
    try:
        return (not isinstance(value, bool) and isinstance(value, numbers.Real)
                and math.isfinite(value))
    except OverflowError:
        return False


@dataclass(frozen=True)
class EnvironmentParams:
    """Primitives of the inspection environment.

    ``sigma_x2`` and ``sigma_e2`` are the relevance and ranker-noise
    variances, ``(m0, v0)`` the prior on the page mean, ``x_b`` the
    outside option and ``c`` the cost per inspection.
    """

    N: int
    sigma_x2: float
    sigma_e2: float
    v0: float
    m0: float = 0.0
    x_b: float = 0.0
    c: float = 0.1
    quantile_rule: str = "midpoint"
    alpha_override: tuple = None  # explicit rank shifts, bypassing the rule

    def __post_init__(self):
        # type checks only: converting would change the echoed config
        require_count("N", self.N)
        for name in ("sigma_x2", "sigma_e2", "v0", "m0", "x_b", "c"):
            require_real(name, getattr(self, name),
                         least=None if name in ("m0", "x_b") else 0)
        if self.quantile_rule not in QUANTILE_RULES:
            raise ValueError(f"quantile_rule must be one of {QUANTILE_RULES}")
        if self.alpha_override is not None:
            alpha = self.alpha_override
            if (not isinstance(alpha, (list, tuple, np.ndarray)) or len(alpha) != self.N
                    or not all(map(is_finite_real, alpha))):
                raise ValueError(f"alpha_override must hold N = {self.N} finite "
                                 f"numbers, got {alpha!r}")
            object.__setattr__(self, "alpha_override", tuple(map(float, alpha)))

    @property
    def rho(self) -> float:
        return self.sigma_x2 / (self.sigma_x2 + self.sigma_e2)

    @property
    def sigma_z(self) -> float:
        return math.sqrt(self.sigma_x2 + self.sigma_e2)

    @property
    def sigma_eta2(self) -> float:
        return self.sigma_x2 * (1.0 - self.rho)

    @property
    def sigma_eta(self) -> float:
        return math.sqrt(self.sigma_eta2)

    @classmethod
    def from_dict(cls, d: dict) -> "EnvironmentParams":
        """The environment of config ``d``; a key that is not a field is
        refused by name."""
        names = {f.name for f in fields(cls)}
        unknown = [k for k in d if k not in names]
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(map(str, unknown))}")
        return cls(**d)

    @classmethod
    def from_json(cls, path: str) -> "EnvironmentParams":
        return cls.from_dict(read_config(path))

    def to_dict(self) -> dict:
        return asdict(self)


def read_config(path) -> dict:
    """The JSON object in file ``path``; any other JSON value is refused."""
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(cfg, dict):
        found = {list: "an array", str: "a string", bool: "true or false",
                 type(None): "null"}.get(type(cfg), "a number")
        raise ValueError(f"{path}: a config must be a JSON object, got {found}")
    return cfg


def rank_quantiles(N: int, rule: str = "midpoint") -> np.ndarray:
    """Quantiles of the signal distribution assigned to ranks 1..N."""
    i = np.arange(1, N + 1, dtype=np.float64)
    if rule == "midpoint":
        p = 1.0 - i / (N + 1.0)
    elif rule == "blom":
        p = 1.0 - (i - 0.375) / (N + 0.25)
    else:
        raise ValueError(f"unknown quantile rule {rule!r}")
    return np.asarray(std_normal_quantile(p), dtype=np.float64).reshape(N)


def derive(params: EnvironmentParams) -> DerivedConstants:
    """Deterministic constants: rho, sigma_z, sigma_eta^2, q_i, alpha_i."""
    q = rank_quantiles(params.N, params.quantile_rule)
    if params.alpha_override is not None:
        alpha = np.asarray(params.alpha_override, dtype=np.float64)
    else:
        alpha = (params.sigma_x2 / params.sigma_z) * q
    return DerivedConstants(
        rho=params.rho,
        sigma_z=params.sigma_z,
        sigma_eta2=params.sigma_eta2,
        q=q,
        alpha=alpha,
    )


def interior_condition_slack(params: EnvironmentParams) -> float:
    """Expected first-inspection gain minus the cost.

    Positive slack means the user always inspects at least once; negative
    slack admits the no-inspection corner, which the policy and depth
    modules refuse.
    """
    d = derive(params)
    sd = math.sqrt(params.v0 + d.sigma_eta2)
    upside = gaussian_upside(params.m0 + d.alpha[0], sd, params.x_b)
    return float(upside - params.c)


def require_interior(params: EnvironmentParams) -> None:
    slack = interior_condition_slack(params)
    if not slack > 0.0:
        raise ValueError(
            f"environment violates the interior-inspection condition "
            f"(slack = {slack:.6g}); no-inspection corner is not supported"
        )


def require_seed(seed) -> int:
    """The one seed rule of every random stream: an integer in [0, 2**64)."""
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or not 0 <= seed < 2**64):
        raise ValueError(f"seed must lie in [0, 2**64), got {seed!r}")
    return int(seed)


def require_count(name: str, value, least: int = 1, most: int = None) -> int:
    """The one count and position rule: an integer, not a bool, in
    ``least``..``most`` (at least ``least`` when ``most`` is None)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least or most is not None and value > most):
        span = f">= {least}" if most is None else f"in {least}..{most}"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def require_real(name: str, value, least=None, strict: bool = True) -> float:
    """The one real rule: finite, not a bool, > ``least`` (>= if not ``strict``)."""
    if not is_finite_real(value) or least is not None and not (
            value > least if strict else value >= least):
        bound = "" if least is None else f" and {'>' if strict else '>='} {least:g}"
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")
    return float(value)


def env_from_shift_scale(N: int, sigma_eta2: float, alpha_scale: float,
                         v0: float, m0: float, x_b: float, c: float,
                         quantile_rule: str = "midpoint") -> EnvironmentParams:
    """Environment with given residual variance and rank-shift scale.

    Inverts (sigma_eta^2, sigma_x^2/sigma_z) back to (sigma_x^2,
    sigma_e^2); the rank shifts then come out as alpha_i =
    alpha_scale * q_i.  Used by the likelihood module, where calibration
    pins sigma_eta directly while alpha is a fixed property of the
    deployed ranker.
    """
    require_real("sigma_eta2", sigma_eta2, least=0)
    require_real("alpha_scale", alpha_scale, least=0)
    s2 = alpha_scale * alpha_scale
    rho = s2 / (sigma_eta2 + s2)
    sigma_x2 = s2 / rho
    sigma_e2 = s2 * (1.0 - rho) / (rho * rho)
    return EnvironmentParams(N=N, sigma_x2=sigma_x2, sigma_e2=sigma_e2,
                             v0=v0, m0=m0, x_b=x_b, c=c,
                             quantile_rule=quantile_rule)


def reliability_path_env(base: EnvironmentParams, rho: float) -> EnvironmentParams:
    """Rebuild the environment along the fixed-sigma_x reliability path.

    Holds sigma_x^2 fixed and sets sigma_e^2 = sigma_x^2*(1 - rho)/rho so
    the reliability ratio equals ``rho``; an ``alpha_override`` is dropped.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie strictly in (0, 1)")
    return replace(base, sigma_e2=base.sigma_x2 * (1.0 - rho) / rho,
                   alpha_override=None)
