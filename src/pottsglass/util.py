"""Shared helpers: counter-based random streams, replicate groups and their
reused buffers, jackknife, log-sum-exp over any axes or a short last one."""

import math
import os
import threading
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


def stack_streams(indices, master_seed, *key):
    """The list of streams stream(master_seed, *key, i) of a stack of
    replicate indices."""
    return [stream(master_seed, *key, i) for i in indices]


def map_indexed(fn, n, threads=1):
    """Apply fn(i) for i in range(n), results in index order.

    With threads > 1 tasks run on a thread pool of at most one worker per
    task and per core.  The replicate averages hand it one task per
    replicate group (see map_groups), not one per replicate; they key their
    RNG by the replicate index, so the output is identical for any thread
    count.
    """
    workers = min(threads, n, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, range(n)))


class Workspace:
    """Scratch arrays that a replicate group allocates once and reuses through
    out=: take(key, shape) views the key's buffer, which is reallocated only
    when it must grow, so a view is valid until the key is taken again.  The
    key "scratch" holds temporaries that are dead when the taking call
    returns; sharing one buffer keeps a group's working set small."""

    def __init__(self):
        self._buffers = {}
        self._views = {}  # (key, shape) -> the view take returns, until key grows

    def take(self, key, shape):
        view = self._views.get((key, shape))
        if view is not None:
            return view
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size)
            self._views = {k: v for k, v in self._views.items() if k[0] != key}
        view = self._views[key, shape] = buf[:size].reshape(shape)
        return view


def map_groups(fn, n, threads=1, stack=1):
    """Values of replicates 0..n-1 in index order, from fn(indices, ws) over
    stacks of at most `stack` consecutive indices.

    The groups depend on n, stack and the core count, never on threads,
    which only sizes the pool.  Replicates that run one at a time (stack 1)
    are cut into contiguous groups, one per pool task, four per core, so a
    worker that finishes early takes another group.  Replicates small enough
    to stack (stack > 1) run in one group on the calling thread: their numpy
    calls are too short to release the GIL for long, and two threads ran
    them slower than one.  A group cuts itself into stacks of equal size,
    and each worker thread runs its stacks with one Workspace ws.  fn
    returns one value per index, each as it would be in any stack, so the
    output does not depend on the groups or the thread count.
    """
    n_groups = max(1, min(n, 4 * (os.cpu_count() or 1))) if stack == 1 else 1
    edges = [n * g // n_groups for g in range(n_groups + 1)]
    local = threading.local()

    def group(g):
        if not hasattr(local, "ws"):
            local.ws = Workspace()
        lo, hi = edges[g], edges[g + 1]
        n_stacks = -(-(hi - lo) // stack)
        cuts = [lo + (hi - lo) * s // max(n_stacks, 1) for s in range(n_stacks + 1)]
        return [v for a, b in zip(cuts, cuts[1:]) for v in fn(range(a, b), local.ws)]

    return [v for part in map_indexed(group, n_groups, threads) for v in part]


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


# numpy sums a last axis shorter than 8 left to right (longer ones pairwise,
# eight lanes at a time), so passes over its columns repeat the sum's bits
SHORT_AXIS = 7


def logsumexp_last(a):
    """logsumexp(a, axis=-1), bit for bit, for a float64 array a.  With at
    least two dimensions and a last axis of length 2..SHORT_AXIS it makes
    elementwise passes over the columns: a running maximum, the tie count,
    the masked exponentials summed left to right and the same non-finite
    fallback.  A reduction over a few strided entries per row costs more
    than the entries; other shapes go to logsumexp."""
    if a.ndim < 2 or not 2 <= a.shape[-1] <= SHORT_AXIS:
        return logsumexp(a, axis=-1)
    cols = [a[..., k] for k in range(a.shape[-1])]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.maximum(cols[0], cols[1])
        for col in cols[2:]:
            np.maximum(a_max, col, out=a_max)
        for k, col in enumerate(cols):
            ties = col == a_max
            shifted = np.where(ties, -np.inf, col)
            shifted -= a_max
            np.exp(shifted, out=shifted)
            if k == 0:
                s, m = shifted, ties.astype(float)
            else:
                s += shifted
                m += ties
        out = np.log1p(s / m)
        out += np.log(m)
        out += a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.exp(cols[0])
            for col in cols[1:]:
                direct += np.exp(col)
            out = np.where(finite, out, np.log(direct))
    return out
