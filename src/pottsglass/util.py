"""Shared helpers: counter-based random streams, replicate mapping, jackknife,
log-sum-exp."""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


class ValidationError(ValueError):
    """Malformed or inconsistent input."""


class BudgetError(RuntimeError):
    """A computation would exceed its configured node/evaluation budget."""


def stream(master_seed, *key):
    """Independent random generator keyed by (master seed, task path).

    Philox is counter-based, so results are independent of scheduling:
    the same key always yields the same stream.
    """
    entropy = (int(master_seed),) + tuple(int(k) for k in key)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def map_indexed(fn, n, threads=1):
    """Apply fn(i) for i in range(n), results in index order.

    With threads > 1 tasks run on a thread pool of at most one worker per
    task and per core; callers key their RNG by the index, so the output is
    identical for any thread count.
    """
    workers = min(threads, n, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, range(n)))


def jackknife_se(values):
    """Leave-one-out jackknife standard error of the mean."""
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 2:
        raise ValidationError("jackknife needs at least 2 replicates")
    total = v.sum()
    loo = (total - v) / (n - 1)
    return float(np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over axis (every entry if None), in float64.

    The max-shifted algorithm of Blanchard, Higham & Higham (2021) in the
    floating-point steps scipy.special.logsumexp takes on real input, so the
    results are bitwise equal, without scipy's per-call array-API dispatch
    (its sign steps change nothing on real input): the m tied maxima are
    taken out of the shifted sum and added back as log(m), and where that
    is not finite (all -inf, an inf or a nan) the result is the direct
    log(sum(exp(a))).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axes = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=axes, keepdims=True)
        ties = a == a_max
        m = ties.sum(axis=axes, keepdims=True, dtype=float)
        s = np.exp(np.where(ties, -np.inf, a) - a_max).sum(axis=axes, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=axes, keepdims=True)))
    out = out.squeeze(axis=axes)
    return out[()] if out.ndim == 0 else out
