import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from pottsglass import util
from pottsglass.util import SHORT_AXIS, logsumexp, logsumexp_last, map_indexed


def assert_bitwise(x, y):
    assert type(x) is type(y)
    assert np.shape(x) == np.shape(y)
    assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


class TestLogSumExp:
    """scipy.special.logsumexp is the oracle: the local one runs the same
    algorithm, so every result must match it bit for bit."""

    def test_random_shapes_and_axes(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            shape = tuple(rng.integers(1, 9, size=rng.integers(1, 4)))
            a = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 40.0, 800.0])
            for axis in [None] + list(range(min(a.ndim, 2))):
                assert_bitwise(logsumexp(a, axis=axis), scipy_logsumexp(a, axis=axis))

    def test_tied_maxima(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = np.round(rng.standard_normal((rng.integers(2, 12), 5)))
            a[:, 2] = a.max(axis=1)  # every row has at least two maxima
            for axis in (None, 0, 1):
                assert_bitwise(logsumexp(a, axis=axis), scipy_logsumexp(a, axis=axis))

    def test_minus_inf_entries_and_rows(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 7))
        a[rng.random(a.shape) < 0.3] = -np.inf
        a[3] = -np.inf
        for axis in (None, 0, 1):
            assert_bitwise(logsumexp(a, axis=axis), scipy_logsumexp(a, axis=axis))
        assert logsumexp(a, axis=1)[3] == -np.inf
        assert_bitwise(logsumexp(np.full(4, -np.inf)), scipy_logsumexp(np.full(4, -np.inf)))

    def test_scalar_and_integer_input(self):
        for a in (3.0, [1, 2, 3], np.arange(12).reshape(3, 4)):
            assert_bitwise(logsumexp(a), scipy_logsumexp(a))


def left_to_right(cols):
    total = cols[0]
    for col in cols[1:]:
        total = total + col
    return total


class TestLogSumExpLast:
    """util.logsumexp over the last axis is the oracle of the column passes,
    bit for bit, at every last-axis length."""

    @pytest.mark.parametrize("kappa", range(1, SHORT_AXIS + 3))
    def test_random_rows(self, kappa):
        rng = np.random.default_rng(kappa)
        for shape in [(1, kappa), (1, 1, kappa), (3, 40, kappa), (250, kappa)]:
            a = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 40.0], size=shape)
            assert_bitwise(logsumexp_last(a), logsumexp(a, axis=-1))

    @pytest.mark.parametrize("kappa", range(2, SHORT_AXIS + 3))
    def test_ties_and_non_finite_entries(self, kappa):
        rng = np.random.default_rng(100 + kappa)
        a = np.round(rng.standard_normal((400, kappa)) * 2)
        a[:100, -1] = a[:100].max(axis=1)  # tied maxima
        a[100:200][rng.random((100, kappa)) < 0.3] = -np.inf
        a[200] = -np.inf
        a[201, 0] = np.inf
        a[202, -1] = np.nan
        a[203, :2] = np.inf
        a[204, 0], a[204, -1] = np.inf, -np.inf
        a[205, 0], a[205, -1] = -np.inf, np.nan
        out = logsumexp_last(a)
        assert_bitwise(out, logsumexp(a, axis=-1))
        assert out[200] == -np.inf and out[201] == np.inf and np.isnan(out[202])

    @pytest.mark.parametrize("kappa", range(4, SHORT_AXIS + 1))
    def test_sum_order_is_visible(self, kappa):
        # with the maximum masked out, kappa - 1 >= 3 terms are summed, so
        # the order shows in the bits: these rows round differently when
        # summed right to left, and the passes still match the oracle
        rng = np.random.default_rng(200 + kappa)
        a = rng.standard_normal((2000, kappa)) * 30.0
        out = logsumexp_last(a)
        assert_bitwise(out, logsumexp(a, axis=-1))
        terms = [np.exp(a[:, k] - a.max(axis=1)) for k in range(kappa)]
        terms = [np.where(t == 1.0, 0.0, t) for t in terms]
        assert np.any(left_to_right(terms) != left_to_right(terms[::-1]))

    def test_one_dimensional_input_goes_to_logsumexp(self):
        a = np.array([0.5, -1.0, 2.0])
        assert_bitwise(logsumexp_last(a), logsumexp(a, axis=-1))


def recording_pool(sizes):
    """A stand-in for ThreadPoolExecutor that records its size in sizes and
    runs the tasks inline, so no thread starts."""

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    return Pool


class TestMapIndexed:
    @pytest.mark.parametrize(
        "threads,n,cores,pool",
        [(8, 3, 4, 3), (8, 100, 4, 4), (3, 100, 4, 3), (1, 100, 4, None), (8, 1, 4, None),
         (8, 0, 4, None), (8, 100, None, None)],
        ids=["tasks", "cores", "threads", "serial", "one-task", "no-task", "cores-unknown"],
    )
    def test_pool_capped_by_tasks_and_cores(self, threads, n, cores, pool, monkeypatch):
        sizes = []
        monkeypatch.setattr(util, "ThreadPoolExecutor", recording_pool(sizes))
        monkeypatch.setattr(util.os, "cpu_count", lambda: cores)
        assert map_indexed(lambda i: i * i, n, threads) == [i * i for i in range(n)]
        assert sizes == ([] if pool is None else [pool])


class TestMapGroups:
    @pytest.mark.parametrize("n,threads,stack", [(0, 2, 1), (1, 2, 1), (9, 1, 4), (9, 2, 1), (10, 2, 3), (3, 8, 1)])
    def test_values_in_index_order_from_stacks_within_the_cap(self, n, threads, stack):
        stacks = []

        def fn(indices, ws):
            stacks.append(list(indices))
            return [10 * i for i in indices]

        assert util.map_groups(fn, n, threads, stack) == [10 * i for i in range(n)]
        assert sorted(i for s in stacks for i in s) == list(range(n))
        assert all(0 < len(s) <= stack and s == list(range(s[0], s[0] + len(s))) for s in stacks)

    def test_stacked_replicates_stay_on_the_calling_thread(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(util, "ThreadPoolExecutor", recording_pool(sizes))
        monkeypatch.setattr(util.os, "cpu_count", lambda: 4)
        util.map_groups(lambda indices, ws: list(indices), 100, 4, stack=5)
        assert sizes == []
        util.map_groups(lambda indices, ws: list(indices), 100, 4)
        assert sizes == [4]

    @pytest.mark.parametrize("stack", [1, 4])
    @pytest.mark.parametrize("cores", [2, 4])
    def test_groups_do_not_depend_on_threads(self, cores, stack, monkeypatch):
        # the groups are the tasks of map_indexed; each returns its indices
        monkeypatch.setattr(util, "ThreadPoolExecutor", recording_pool([]))
        monkeypatch.setattr(util.os, "cpu_count", lambda: cores)
        real = util.map_indexed
        plans = []
        for threads in (1, 2):
            groups, stacks = [], []

            def tasks(group, n, threads):
                return real(lambda g: groups.append(group(g)) or groups[-1], n, threads)

            monkeypatch.setattr(util, "map_indexed", tasks)
            util.map_groups(lambda indices, ws: stacks.append(list(indices)) or list(indices), 37, threads, stack)
            plans.append((groups, stacks))
        assert plans[0] == plans[1]
        assert len(plans[0][0]) == (4 * cores if stack == 1 else 1)

    def test_a_thread_reuses_its_workspace(self):
        seen = []

        def fn(indices, ws):
            seen.append((ws, ws.take("a", (len(indices), 3)).__array_interface__["data"][0]))
            return list(indices)

        util.map_groups(fn, 12, 1, stack=4)
        assert len({id(ws) for ws, _ in seen}) == 1
        assert len({address for _, address in seen}) == 1


class TestWorkspace:
    def test_a_key_grows_and_keeps_its_buffer(self):
        ws = util.Workspace()
        a = ws.take("k", (2, 3))
        a[...] = 1.0
        b = ws.take("k", (6,))
        assert b.flags.c_contiguous and np.shares_memory(a, b)
        c = ws.take("k", (4, 5))
        assert c.shape == (4, 5) and not np.shares_memory(a, c)
        assert not np.shares_memory(c, ws.take("other", (4, 5)))
