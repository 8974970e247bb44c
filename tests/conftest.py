"""Shared helpers for the test suite."""

import numpy as np

from pottsglass import cascade, util
from pottsglass.core import MonotonePath, StateDistribution
from pottsglass.util import stream


def random_distribution(rng, kappa, floor=0.05):
    w = rng.uniform(floor, 1.0, size=kappa)
    return StateDistribution(w / w.sum())


def random_path(rng, d, r, x_low=0.1, x_high=0.9):
    """A random validated path: PSD increments, strict interior x-levels."""
    kappa = d.kappa
    while True:
        incs = []
        for _ in range(r - 1):
            a = rng.standard_normal((kappa, kappa)) * 0.3
            incs.append(a @ a.T)
        total = sum(incs, np.zeros((kappa, kappa)))
        if np.linalg.eigvalsh(np.diag(d.d) - total)[0] < -1e-12:
            continue
        x = np.sort(rng.uniform(x_low, x_high, size=r))
        if r > 1 and np.min(np.diff(x)) < 1e-3:
            continue
        return MonotonePath.from_increments(d, x, incs)


def seeded(master, *key):
    return stream(master, *key)


def lone_replicate_streams(monkeypatch):
    """Make cascade.cascade_values run each replicate as a stack of one, as
    a replicate alone, and return the list that gains the stream of every
    replicate it runs, in index order."""
    made = []

    def streams(indices, *key):
        rngs = util.stack_streams(indices, *key)
        made.extend(rngs)
        return rngs

    monkeypatch.setattr(cascade, "stack_streams", streams)
    monkeypatch.setattr(cascade, "map_groups", lambda fn, n, threads, stack: util.map_groups(fn, n, threads))
    return made


def rng_state(rng):
    """A comparable copy of a Generator's bit-generator state (Philox keeps
    its counter, key and buffer as arrays)."""

    def freeze(value):
        if isinstance(value, dict):
            return tuple(sorted((key, freeze(v)) for key, v in value.items()))
        if isinstance(value, np.ndarray):
            return tuple(value.tolist())
        return value

    return freeze(rng.bit_generator.state)
