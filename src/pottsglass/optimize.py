"""Numerical solution of the sup-inf variational problem over discrete paths.

The inner problem searches (lambda, path) with Nelder-Mead multistart; the
path is parametrized so the endpoint constraint gamma_r = diag(d) is exact,
with infeasible decodes (non-PSD derived final increment) penalized rather
than clipped.  The outer problem takes the best of the sorted types on a
simplex grid over d.  All starts of all types advance in lockstep, so each
round evaluates every pending point in one batched objective call.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import PSD_TOL, MonotonePath, StateDistribution, check_paths, path_arrays
from .functional import eval_parisi_rows
from .util import ValidationError, stream

XATOL = 1e-5
FATOL = 1e-10
# no (lambda, path) has a value below the entropy H(d), the beta = 0 value;
# a lower returned value means the objective is broken
ENTROPY_TOL = 1e-9


def _logit(x):
    return float(np.log(x / (1.0 - x)))


def _expit(v):
    """1 / (1 + exp(-v)) for a float, in scipy.special.expit's floating-point
    steps; below v = -709.78 exp(-v) overflows and the value rounds to 0."""
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


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
        lam, xs, gammas, penalty = _decode_rows(self.d.d[None], self.r, theta.reshape(1, -1))
        if penalty[0] > 0.0:
            return lam[0], None, float(penalty[0])
        return lam[0], MonotonePath(self.d, xs[0], gammas[0]), 0.0


@functools.lru_cache(maxsize=8)  # a run decodes at one or a few kappa
def _tril_indices(kappa):
    """np.tril_indices(kappa), read-only: built once, not once per round."""
    rows, cols = np.tril_indices(kappa)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _decode_rows(d, r, thetas):
    """decode for a stack of coordinates: row b of thetas (B, dim) at the
    distribution d[b] of d (B, kappa).  Returns lam (B, kappa-1), the path
    arrays xs and gammas, and the penalty, 0 where the row is feasible."""
    kappa = d.shape[1]
    n_rows = thetas.shape[0]
    lam = thetas[:, : kappa - 1]
    logits = thetas[:, kappa - 1 : kappa - 1 + r].tolist()
    x = np.sort(np.array([[_expit(v) for v in row] for row in logits]).reshape(n_rows, r), axis=1)
    rows, cols = _tril_indices(kappa)
    a = np.zeros((n_rows, r - 1, kappa, kappa))
    a[:, :, rows, cols] = thetas[:, kappa - 1 + r :].reshape(n_rows, r - 1, rows.size)
    xs, gammas = path_arrays(d, x, a @ np.swapaxes(a, -1, -2))
    final = gammas[:, r] - gammas[:, r - 1]
    lam_min = np.linalg.eigvalsh(0.5 * (final + np.swapaxes(final, -1, -2)))[:, 0]
    penalty = np.where(lam_min < -PSD_TOL, -lam_min, 0.0)
    return lam, xs, gammas, penalty


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


def _objective_rows(d, r, beta, thetas):
    """The objective at each row of thetas (B, dim), row b at distribution
    d[b]: the variational value where the row decodes to a feasible path, a
    penalty above every feasible value where it does not.  Returns the values
    and the infeasible rows."""
    lam, xs, gammas, penalty = _decode_rows(d, r, thetas)
    infeasible = penalty > 0.0
    values = np.log(max(d.shape[1], 2)) + beta**2 + 1.0 + penalty + penalty**2
    ok = ~infeasible
    if ok.any():
        check_paths(d[ok], xs[ok], gammas[ok])
        values[ok] = eval_parisi_rows(lam[ok], d[ok], xs[ok], gammas[ok], beta)[0]
    return values, infeasible


def nelder_mead(x0, maxiter):
    """Nelder-Mead from x0 as a generator: it yields each batch of points it
    needs, a (k, n) array, and is sent their k values; it returns
    (x, fun, nit, nfev, converged).

    The steps are those of scipy 1.17.1's minimize(method="Nelder-Mead")
    with adaptive=False, no bounds and maxfev unbounded, so x, fun, nit and
    nfev are bitwise scipy's.  The initial simplex and a shrink are one batch
    each.  converged says the XATOL/FATOL test was met before maxiter.
    """
    x0 = np.asarray(x0, dtype=float).flatten()
    n = len(x0)
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + 0.05) * y[k]
        else:
            y[k] = 0.00025
        sim[k + 1] = y
    fsim = np.array((yield sim.copy()), dtype=float)
    nfev = n + 1
    # scipy sorts twice here; argsort need not be stable, so both are kept
    ind = fsim.argsort()
    sim = sim.take(ind, 0)
    fsim = fsim.take(ind, 0)
    ind = fsim.argsort()
    fsim = fsim.take(ind, 0)
    sim = sim.take(ind, 0)

    iterations = 1
    converged = False
    while iterations < maxiter:
        if (
            np.abs(sim[1:] - sim[0]).max() <= XATOL
            and np.abs(fsim[0] - fsim[1:]).max() <= FATOL
        ):
            converged = True
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = (yield xr[None])[0]
        nfev += 1
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = (yield xe[None])[0]
            nfev += 1
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = (yield xc[None])[0]
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
            else:  # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = (yield xcc[None])[0]
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xcc, fxcc
            nfev += 1
            if shrink:
                sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                fsim[1:] = yield sim[1:].copy()
                nfev += n
        iterations += 1
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)
    return sim[0], np.min(fsim), iterations, nfev, converged


def run_lockstep(runs, evaluate):
    """Advance generators such as nelder_mead together and return what each
    returns.  Every round evaluates the points all live runs asked for in one
    call evaluate(owners, points), where owners[i] is the index of the run
    that asked for points[i], and sends each run its values."""
    requests = {i: next(run) for i, run in enumerate(runs)}
    results = [None] * len(runs)
    while requests:
        owners = np.repeat(list(requests), [len(p) for p in requests.values()])
        values = evaluate(owners, np.concatenate(list(requests.values())))
        pending, start = {}, 0
        for i, points in requests.items():
            try:
                pending[i] = runs[i].send(values[start : start + len(points)])
            except StopIteration as stop:
                results[i] = stop.value
            start += len(points)
        requests = pending
    return results


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


def _entropy(d):
    p = d.d[d.d > 0.0]
    return float(-np.sum(p * np.log(p)))


def _depth_report(param, beta, results, rejections):
    """The report of one type at one depth from its starts' Nelder-Mead
    results; the best start wins, ties going to the smaller coordinates."""
    ranked = [(float(fun), tuple(float(v) for v in x)) for x, fun, *_ in results]
    value, best = min(ranked)
    theta = np.asarray(best)
    lam, path, _ = param.decode(theta)
    if path is None:
        raise ValidationError("no feasible point found by any start")
    floor = _entropy(param.d)
    if value < floor - ENTROPY_TOL:
        raise RuntimeError(
            f"objective value {value!r} at d = {param.d.d.tolist()} is below the entropy {floor!r}"
        )
    start_stats = tuple(
        {"start": s, "value": v, "iterations": int(nit), "nfev": int(nfev), "converged": bool(ok)}
        for s, ((v, _), (_, _, nit, nfev, ok)) in enumerate(zip(ranked, results))
    )
    return OptimizerReport(
        value, np.asarray(lam), path, param.d, float(beta), param.r, int(rejections),
        start_stats, theta,
    )


def minimize_types(types, r, beta, config=None, seed=0):
    """inner_minimize of each distribution in types, with the Nelder-Mead
    starts of every type advancing in lockstep.

    Depth r runs config["starts"] starts; each shallower depth j runs
    max(2, s_{j+1} // 2), depths run from 1 up, and start 1 of depth j > 1
    begins at the depth j-1 best.  Start 0 is the default start and every
    other start s is random from stream(seed, 0x0B7, s).  The report's
    rejections count the infeasible evaluations at depth r.  The objective
    holds the GIL, so the batch runs on one thread.
    """
    config = dict(config or {})
    starts = int(config.get("starts", 8))
    maxiter = int(config.get("maxiter", 200))
    if starts < 1:
        raise ValidationError("need at least one start")
    if r < 1:
        raise ValidationError("r must be at least 1")
    counts = [starts]
    for _ in range(1, r):
        counts.insert(0, max(2, counts[0] // 2))
    d_rows = np.array([d.d for d in types])
    reports = None
    for depth, n_starts in enumerate(counts, start=1):
        params = [PathParametrization(d, depth) for d in types]
        runs = []
        for t, param in enumerate(params):
            for s in range(n_starts):
                if s == 0:
                    theta0 = param.default_start()
                elif s == 1 and reports is not None:
                    theta0 = _embed_theta(reports[t].theta, param.d, depth)
                else:
                    theta0 = param.random_start(stream(seed, 0x0B7, s))
                runs.append(nelder_mead(theta0, maxiter))
        type_of_run = np.repeat(np.arange(len(types)), n_starts)
        rejections = np.zeros(len(types), dtype=int)

        def evaluate(owners, points):
            rows = type_of_run[owners]
            values, infeasible = _objective_rows(d_rows[rows], depth, beta, points)
            np.add.at(rejections, rows[infeasible], 1)
            return values

        results = run_lockstep(runs, evaluate)
        reports = [
            _depth_report(param, beta, results[t * n_starts : (t + 1) * n_starts], rejections[t])
            for t, param in enumerate(params)
        ]
    return reports


def inner_minimize(d, r, beta, config=None, seed=0):
    """Minimize the variational objective over (lambda, path) at fixed d, r:
    minimize_types on the one type."""
    return minimize_types([d], r, beta, config, seed)[0]


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
    reports = minimize_types(types, r, beta, config, seed)
    values = [report.value for report in reports]
    extra = {
        "grid_mesh": mesh,
        "types": [[float(v) for v in d.d] for d in types],
        "type_values": values,
    }
    return replace(reports[int(np.argmax(values))], extra=extra)
