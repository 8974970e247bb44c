"""Numerical solution of the sup-inf variational problem over discrete paths.

The inner problem searches (lambda, path) with Nelder-Mead multistart; the
path is parametrized so the endpoint constraint gamma_r = diag(d) is exact,
with infeasible decodes (non-PSD derived final increment) penalized rather
than clipped.  The outer problem takes the best of the sorted types on a
simplex grid over d.
"""

import functools
import itertools
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .core import PSD_TOL, MonotonePath, StateDistribution
from .functional import eval_parisi
from .util import ValidationError, stream


def _logit(x):
    return float(np.log(x / (1.0 - x)))


@dataclass(frozen=True)
class PathParametrization:
    """Unconstrained coordinates for (lambda, x, gamma) at fixed d and r.

    Layout: kappa-1 multipliers, r logits whose sorted sigmoids give the
    x-levels, then r-1 lower-triangular factors A_p; increments are A_p A_p^T
    and the final increment is derived as diag(d) minus their sum.
    """

    d: StateDistribution
    r: int

    def __post_init__(self):
        if self.r < 1:
            raise ValidationError("r must be at least 1")

    @property
    def kappa(self):
        return self.d.kappa

    @property
    def n_tri(self):
        return self.kappa * (self.kappa + 1) // 2

    @property
    def dim(self):
        return (self.kappa - 1) + self.r + (self.r - 1) * self.n_tri

    @functools.cached_property
    def _tri(self):
        """Positions of the n_tri free entries of each factor A_p."""
        return np.tril_indices(self.kappa)

    def default_start(self):
        theta = np.zeros(self.dim)
        levels = (np.arange(1, self.r + 1)) / (self.r + 1.0)
        theta[self.kappa - 1 : self.kappa - 1 + self.r] = [_logit(v) for v in levels]
        return theta

    def random_start(self, rng):
        theta = self.default_start()
        theta += 0.8 * rng.standard_normal(self.dim)
        return theta

    def decode(self, theta):
        """Return (lam, path, penalty); path is None when infeasible and the
        penalty is the magnitude of the most negative final-increment
        eigenvalue."""
        theta = np.asarray(theta, dtype=float)
        if theta.size != self.dim:
            raise ValidationError(f"expected {self.dim} coordinates, got {theta.size}")
        kappa = self.kappa
        lam = theta[: kappa - 1]
        x = np.sort(expit(theta[kappa - 1 : kappa - 1 + self.r]))
        increments = []
        pos = kappa - 1 + self.r
        for _ in range(self.r - 1):
            a = np.zeros((kappa, kappa))
            a[self._tri] = theta[pos : pos + self.n_tri]
            pos += self.n_tri
            increments.append(a @ a.T)
        final = np.diag(self.d.d) - sum(increments, np.zeros((kappa, kappa)))
        lam_min = float(np.linalg.eigvalsh(0.5 * (final + final.T))[0])
        if lam_min < -PSD_TOL:
            return lam, None, -lam_min
        path = MonotonePath.from_increments(self.d, x, increments)
        return lam, path, 0.0


@dataclass(frozen=True)
class OptimizerReport:
    value: float
    lam: np.ndarray
    path: MonotonePath
    d: StateDistribution
    beta: float
    r: int
    rejections: int
    starts: tuple
    theta: np.ndarray
    extra: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "value": float(self.value),
            "lambda": [float(v) for v in self.lam],
            "path": self.path.to_json_dict(),
            "d": self.d.to_json_dict(),
            "beta": float(self.beta),
            "r": int(self.r),
            "rejections": int(self.rejections),
            "starts": list(self.starts),
            "extra": self.extra,
        }


def _objective(param, beta, counter):
    base = np.log(max(param.kappa, 2)) + beta**2 + 1.0

    def fn(theta):
        lam, path, neg = param.decode(theta)
        if path is None:
            counter["rejections"] += 1
            return base + neg + neg**2
        return eval_parisi(lam, param.d, path, beta).value

    return fn


def _embed_theta(theta, d, r):
    """Lift an (r-1)-level solution into the r-level coordinates by
    duplicating the top x-level with a zero increment; the objective value is
    unchanged, so deeper searches start no worse than shallower ones."""
    sub = PathParametrization(d, r - 1)
    kappa = d.kappa
    lam = theta[: kappa - 1]
    v = theta[kappa - 1 : kappa - 1 + sub.r]
    tri = theta[kappa - 1 + sub.r :]
    v_new = np.concatenate([v, [np.max(v)]])
    tri_new = np.concatenate([tri, np.zeros(sub.n_tri)])
    return np.concatenate([lam, v_new, tri_new])


def inner_minimize(d, r, beta, config=None, seed=0):
    """Minimize the variational objective over (lambda, path) at fixed d, r.

    Starts run serially: the objective is small-array numpy that holds the
    GIL, so a thread pool over starts or types only adds overhead."""
    config = dict(config or {})
    starts = int(config.get("starts", 8))
    maxiter = int(config.get("maxiter", 200))
    if starts < 1:
        raise ValidationError("need at least one start")
    param = PathParametrization(d, r)
    counter = {"rejections": 0}
    fn = _objective(param, beta, counter)
    nested_theta = None
    if r > 1:
        sub_config = dict(config)
        sub_config["starts"] = max(2, starts // 2)
        nested_theta = _embed_theta(
            inner_minimize(d, r - 1, beta, sub_config, seed).theta, d, r
        )
    results = []
    for s in range(starts):
        if s == 0:
            theta0 = param.default_start()
        elif s == 1 and nested_theta is not None:
            theta0 = nested_theta
        else:
            theta0 = param.random_start(stream(seed, 0x0B7, s))
        res = minimize(
            fn,
            theta0,
            method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": 1e-5, "fatol": 1e-10},
        )
        results.append((float(res.fun), tuple(float(v) for v in res.x), int(res.nit)))
    best = min(results, key=lambda t: (t[0], t[1]))
    theta = np.asarray(best[1])
    lam, path, _ = param.decode(theta)
    if path is None:
        raise ValidationError("no feasible point found by any start")
    clean = eval_parisi(lam, d, path, beta).value
    start_stats = tuple(
        {"start": s, "value": v, "iterations": nit} for s, (v, _, nit) in enumerate(results)
    )
    return OptimizerReport(
        clean, np.asarray(lam), path, d, float(beta), r, counter["rejections"], start_stats, theta
    )


def simplex_grid(kappa, mesh=8):
    """All distributions with denominators mesh on the kappa-simplex."""
    if mesh < 1:
        raise ValidationError("mesh must be at least 1")
    out = []
    for combo in itertools.combinations(range(mesh + kappa - 1), kappa - 1):
        cuts = (-1,) + combo + (mesh + kappa - 1,)
        counts = [b - a - 1 for a, b in zip(cuts, cuts[1:])]
        out.append(StateDistribution(np.asarray(counts) / mesh))
    return out


def outer_maximize(kappa, beta, r, config=None, seed=0):
    """Maximize the inner value over the types with denominator grid_mesh.

    The value does not change when the states are relabelled, so only the
    types with nonincreasing entries are evaluated; ties go to the first.
    """
    config = dict(config or {})
    mesh = int(config.get("grid_mesh", 8))
    types = [d for d in simplex_grid(kappa, mesh) if np.all(np.diff(d.d) <= 0.0)]
    reports = [inner_minimize(d, r, beta, config, seed) for d in types]
    values = [report.value for report in reports]
    extra = {
        "grid_mesh": mesh,
        "types": [[float(v) for v in d.d] for d in types],
        "type_values": values,
    }
    return replace(reports[int(np.argmax(values))], extra=extra)
