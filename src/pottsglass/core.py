"""Domain types: state distributions, monotone matrix paths, overlap arrays,
evaluation results.

Paths are stored as step functions on cells (x_{p-1}, x_p], constant equal to
gamma_p on each cell, with value 0 at 0.  Everything is immutable after
validation and safe to share across threads.
"""

from dataclasses import dataclass, field

import numpy as np

from .util import ValidationError

SUM_TOL = 1e-12
SYM_TOL = 1e-12
PSD_TOL = 1e-10
ENTRY_TOL = 1e-12
D_MATCH_TOL = 1e-10


def freeze(a):
    """A read-only float copy of an array-like."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def psd_factor(cov):
    """Eigenvalues of the symmetric part of a square array, or of each in a
    stack, and the factor u sqrt(max(lambda, 0)), whose outer product is its
    PSD projection.  The eigenvalues ascend, so the columns of the positive
    ones come last."""
    lam, u = np.linalg.eigh(0.5 * (cov + np.swapaxes(cov, -1, -2)))
    return lam, u * np.sqrt(np.clip(lam, 0.0, None))[..., None, :]


def diag_rows(d):
    """diag(d) for a distribution vector, or for each row of a stack."""
    kappa = d.shape[-1]
    out = np.zeros(d.shape + (kappa,))
    out[..., np.arange(kappa), np.arange(kappa)] = d
    return out


def path_arrays(d, inner_x, increments):
    """xs and gammas of paths built from level x's and the first r-1
    increments, over any leading axes: d (..., kappa), inner_x (..., r) and
    increments (..., r-1, kappa, kappa).  Each gamma_p is gamma_{p-1} plus
    its increment, from gamma_0 = 0, and gamma_r = diag(d) exactly."""
    r = inner_x.shape[-1]
    kappa = d.shape[-1]
    gammas = np.zeros(inner_x.shape[:-1] + (r + 1, kappa, kappa))
    for p in range(1, r):
        gammas[..., p, :, :] = gammas[..., p - 1, :, :] + increments[..., p - 1, :, :]
    gammas[..., r, :, :] = diag_rows(d)
    ends = np.ones(inner_x.shape[:-1] + (1,))
    xs = np.concatenate([0.0 * ends, inner_x, ends], axis=-1)
    return xs, gammas


def check_paths(d, xs, gammas):
    """MonotonePath's checks on one path or on a stack of them: d (..., kappa),
    xs (..., r+2) and gammas (..., r+1, kappa, kappa) with the same leading
    axes.  Raises ValidationError for the first check that some path fails;
    an increment fails on its first defect in path order."""
    kappa = d.shape[-1]
    xs = xs.reshape(-1, xs.shape[-1])
    gammas = gammas.reshape((-1,) + gammas.shape[-3:])
    if np.any((xs[:, 0] != 0.0) | (xs[:, -1] != 1.0)):
        raise ValidationError("xs endpoints must be exactly 0 and 1")
    if np.any(np.diff(xs, axis=1) < 0):
        raise ValidationError("xs must be nondecreasing")
    if np.any(np.max(np.abs(gammas[:, 0]), axis=(1, 2)) > ENTRY_TOL):
        raise ValidationError("gamma_0 must be the zero matrix")
    if not np.all(gammas[:, -1] == diag_rows(d.reshape(-1, kappa))):
        raise ValidationError("gamma_r must equal diag(d) exactly")
    inc = np.diff(gammas, axis=1)
    inc_t = np.swapaxes(inc, -1, -2)
    asym = np.max(np.abs(inc - inc_t), axis=(2, 3)) > SYM_TOL
    lam_min = np.linalg.eigvalsh(0.5 * (inc + inc_t))[..., 0]
    bad = asym | (lam_min < -PSD_TOL)
    if bad.any():
        row, p = np.argwhere(bad)[0]
        if asym[row, p]:
            raise ValidationError(f"increment {p + 1} is not symmetric")
        raise ValidationError(
            f"increment {p + 1} is not PSD (lambda_min = {lam_min[row, p]:.3e})"
        )


@dataclass(frozen=True)
class EvalResult:
    value: float
    std_error: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method == "quadrature" and self.std_error != 0.0:
            raise ValidationError("quadrature results are deterministic")

    def to_json_dict(self):
        return {
            "value": float(self.value),
            "std_error": float(self.std_error),
            "method": self.method,
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class StateDistribution:
    """A point on the kappa-simplex of state proportions."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 1 or d.size < 1 or not np.all(np.isfinite(d)):
            raise ValidationError("distribution must be a finite 1-d vector")
        if np.any(d < -ENTRY_TOL):
            raise ValidationError("distribution entries must be nonnegative")
        if abs(d.sum() - 1.0) > SUM_TOL:
            raise ValidationError(f"distribution sums to {d.sum()!r}, not 1")
        object.__setattr__(self, "d", freeze(np.clip(d, 0.0, None)))

    @property
    def kappa(self):
        return self.d.size

    def is_representable(self, N):
        counts = self.d * N
        return bool(np.all(np.abs(counts - np.round(counts)) <= 1e-9))

    def counts(self, N):
        if not self.is_representable(N):
            raise ValidationError(f"distribution is not {N}-representable")
        return np.round(self.d * N).astype(int)

    @classmethod
    def uniform(cls, kappa):
        return cls(np.full(kappa, 1.0 / kappa))

    def to_json_dict(self):
        return {"kappa": int(self.kappa), "d": [float(v) for v in self.d]}


def as_multipliers(lam, kappa):
    """The kappa-1 multipliers of an array-like as a validated read-only vector;
    one value stands for all of them (repeated for kappa >= 3), none for kappa = 1."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if kappa >= 3 and lam.size == 1:
        lam = np.full(kappa - 1, float(lam[0]))
    if kappa == 1:
        lam = lam[:0]
    if lam.ndim != 1 or not np.all(np.isfinite(lam)):
        raise ValidationError("multipliers must be a finite 1-d vector")
    if lam.size != kappa - 1:
        raise ValidationError(f"expected {kappa - 1} multipliers, got {lam.size}")
    return freeze(lam)


@dataclass(frozen=True)
class MonotonePath:
    """Discrete monotone path: gamma_p on the cell (x_{p-1}, x_p].

    xs has length r+2 (0 = x_{-1}, x_0, ..., x_r = 1); gammas has shape
    (r+1, kappa, kappa) with gamma_0 = 0 and gamma_r = diag(d).
    """

    d: StateDistribution
    xs: np.ndarray
    gammas: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        gammas = np.asarray(self.gammas, dtype=float)
        kappa = self.d.kappa
        if xs.ndim != 1 or xs.size < 2:
            raise ValidationError("xs must hold at least the two endpoints")
        r = xs.size - 2
        if gammas.shape != (r + 1, kappa, kappa):
            raise ValidationError(f"gammas must have shape {(r + 1, kappa, kappa)}")
        check_paths(self.d.d, xs, gammas)
        object.__setattr__(self, "xs", freeze(xs))
        object.__setattr__(self, "gammas", freeze(gammas))

    @property
    def r(self):
        return self.xs.size - 2

    @property
    def kappa(self):
        return self.d.kappa

    @property
    def inner_x(self):
        """x_0, ..., x_{r-1}: the cascade/recursion level parameters."""
        return self.xs[1:-1]

    def value_at(self, x):
        """Path value: gamma_p for x in (x_{p-1}, x_p], zero at 0."""
        if x <= 0.0:
            return self.gammas[0]
        p = int(np.searchsorted(self.xs[1:], x, side="left"))
        return self.gammas[min(p, self.r)]

    @classmethod
    def from_increments(cls, d, inner_x, increments):
        """Build a path from level x's and the first r-1 PSD increments.

        The final increment is derived so gamma_r = diag(d) exactly.
        """
        inner_x = np.asarray(inner_x, dtype=float)
        r = inner_x.size
        increments = list(increments)
        if len(increments) != r - 1:
            raise ValidationError(f"expected {r - 1} free increments, got {len(increments)}")
        increments = np.asarray(increments, dtype=float).reshape(r - 1, d.kappa, d.kappa)
        return cls(d, *path_arrays(d.d, inner_x, increments))

    @classmethod
    def one_step(cls, d, x0):
        """The r=1 path: zero before x0-weighted level, diag(d) after."""
        return cls.from_increments(d, [float(x0)], [])

    def to_json_dict(self):
        return {
            "kappa": int(self.kappa),
            "d": [float(v) for v in self.d.d],
            "x": [float(v) for v in self.xs],
            "gammas": [[[float(v) for v in row] for row in g] for g in self.gammas],
        }

    @classmethod
    def from_json_dict(cls, obj):
        return cls(
            StateDistribution(np.asarray(obj["d"], dtype=float)),
            np.asarray(obj["x"], dtype=float),
            np.asarray(obj["gammas"], dtype=float),
        )


# The path formulas below act on one path or on a stack of them: xs
# (..., r+2) and gammas (..., r+1, kappa, kappa) with the same leading axes.


def hs_norms(gammas):
    """|gamma_p|_HS^2 for p = 0..r."""
    return np.sum(gammas**2, axis=(-2, -1))


def hs_sq_integral(xs, gammas):
    """Exact integral of the squared Hilbert-Schmidt norm over [0, 1]."""
    return np.sum(np.diff(xs, axis=-1) * hs_norms(gammas), axis=-1)


def increment_covariances(gammas):
    """Covariance 2 (gamma_p - gamma_{p-1}) of the level-p Gaussian vector."""
    return 2.0 * np.diff(gammas, axis=-3)


def hs_increments(gammas):
    """|gamma_p|_HS^2 - |gamma_{p-1}|_HS^2 for p = 1..r."""
    return np.diff(hs_norms(gammas), axis=-1)


def hs_telescoped(xs, gammas):
    """sum_p x_p (|gamma_{p+1}|_HS^2 - |gamma_p|_HS^2) over the levels."""
    return np.sum(xs[..., 1:-1] * hs_increments(gammas), axis=-1)


@dataclass(frozen=True)
class OverlapArray:
    """Replica-pair overlap data: trace array and kappa x kappa blocks."""

    traces: np.ndarray  # (n, n)
    blocks: np.ndarray  # (n, n, kappa, kappa)

    @property
    def n(self):
        return self.traces.shape[0]

    @property
    def kappa(self):
        return self.blocks.shape[2]

    def off_diagonal_blocks(self):
        n = self.n
        iu = np.triu_indices(n, k=1)
        return self.blocks[iu], self.traces[iu]


def _check_same_space(a, b):
    if a.kappa != b.kappa:
        raise ValidationError("paths have different kappa")
    if np.max(np.abs(a.d.d - b.d.d)) > D_MATCH_TOL:
        raise ValidationError("paths have different state distributions")


def path_delta(a, b):
    """The L1 path metric, computed exactly on the merged breakpoint grid."""
    _check_same_space(a, b)
    grid = np.union1d(a.xs, b.xs)
    total = 0.0
    for left, right in zip(grid[:-1], grid[1:]):
        if right <= left:
            continue
        diff = a.value_at(right) - b.value_at(right)
        total += (right - left) * float(np.sum(np.abs(diff)))
    return total


def round_distribution(d, N):
    """Nearest N-representable distribution by largest-remainder rounding.

    Zero entries stay zero; ties break toward the lowest state index.
    """
    if N < 1:
        raise ValidationError("N must be at least 1")
    target = d.d * N
    counts = np.floor(target).astype(int)
    remainder = target - counts
    missing = N - counts.sum()
    if missing > 0:
        eligible = np.flatnonzero(d.d > 0)
        # stable sort on -remainder keeps the lowest index first among ties
        order = eligible[np.argsort(-remainder[eligible], kind="stable")]
        for k in order[:missing]:
            counts[k] += 1
    return StateDistribution(counts / N)
