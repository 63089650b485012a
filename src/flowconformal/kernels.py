"""Gaussian kernel, median-heuristic bandwidth, and unbiased squared MMD.

The squared MMD estimator is the unbiased three-term U-statistic: within-set
kernel sums exclude the diagonal and are divided by m(m-1), the cross term by
mn. There is one implementation, a single autodiff node: its forward builds
the three Gaussian Gram matrices from ||a||^2 + ||b||^2 - 2ab^T on rows
centred at their pooled mean, and its backward is the closed form
d/da_i = -(2/h^2) sum_j w_ij (a_i - b_j), taken as row sums plus two
matrix products per operand. The plain numeric entry point wraps constants
around the same node, so the training loss and the reported estimate can
never disagree. The median heuristic reads its distances from the same
Gram expansion and takes the roots of only the middle ones, after one
partition of the squared distances. The product ab^T is a plain gemm on a
contiguous copy of b^T, which OpenBLAS keeps single-threaded at training
sizes, so class models trained in parallel processes do not contend for
BLAS threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor, as_tensor
from .errors import ConfigError, DataError

__all__ = [
    "KernelSpec",
    "Mmd2Estimate",
    "MEDIAN_HEURISTIC",
    "median_bandwidth",
    "resolve_bandwidth",
    "kernel_eval",
    "mmd2_unbiased",
    "mmd2_unbiased_graph",
]

MEDIAN_HEURISTIC = "median-heuristic"


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel with either a fixed bandwidth or a deferred rule."""

    family: str = "gaussian"
    bandwidth: float | None = None
    bandwidth_rule: str | None = None

    def __post_init__(self):
        if self.family != "gaussian":
            raise ConfigError(f"unsupported kernel family {self.family!r}")
        has_bw = self.bandwidth is not None
        has_rule = self.bandwidth_rule is not None
        if has_bw == has_rule:
            raise ConfigError("specify exactly one of bandwidth or bandwidth_rule")
        if has_bw:
            bw = float(self.bandwidth)
            if not np.isfinite(bw) or bw <= 0:
                raise ConfigError(f"bandwidth must be finite and positive, got {self.bandwidth}")
            object.__setattr__(self, "bandwidth", bw)
        elif self.bandwidth_rule != MEDIAN_HEURISTIC:
            raise ConfigError(f"unknown bandwidth rule {self.bandwidth_rule!r}")

    @property
    def resolved(self) -> bool:
        return self.bandwidth is not None


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m, n) squared distances ||a_i - b_j||^2 from the Gram expansion.

    Callers centre the rows first: the expansion cancels ||a||^2 against
    2ab^T, and its rounding error grows with the norms, not the distances.
    Entries that rounding pushes below zero are clamped to 0. ``a @ a.T``
    would go to BLAS syrk and ``a @ b.T`` to a transposed-operand path; both
    run multithreaded in OpenBLAS even at 128 rows and are several times
    slower than the gemm on a contiguous b^T (256 x 8 rows on a 2-core
    x86-64: 470 us for syrk, 40 us for the gemm).
    """
    sq = a @ np.ascontiguousarray(b.T)
    sq *= -2.0
    a_norms = (a * a).sum(axis=1)
    sq += a_norms[:, None]
    sq += (a_norms if b is a else (b * b).sum(axis=1))[None, :]
    return np.maximum(sq, 0.0, out=sq)


def _gram(a: np.ndarray, b: np.ndarray, scale: float) -> np.ndarray:
    """Gaussian Gram matrix exp(scale * ||a_i - b_j||^2), built in place."""
    k = _sq_dists(a, b)
    k *= scale
    return np.exp(k, out=k)


def median_bandwidth(samples: np.ndarray) -> float:
    """Median pairwise Euclidean distance of the rows of ``samples``.

    Falls back to the mean pairwise distance when the median is zero; if that
    is also zero every point coincides and no scale exists.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DataError("median heuristic needs a 2-D array with at least 2 rows")
    # the pairs i < j, row by row as np.triu_indices lists them
    upper = ~np.tri(x.shape[0], dtype=bool)
    xc = x - x.mean(axis=0)
    sq = _sq_dists(xc, xc)[upper]
    # the expansion leaves rounding residue between coincident rows; those
    # pairs must read exactly 0 for the fallback and the degeneracy test.
    # Sorted, coincident rows are neighbours.
    rows = x[np.lexsort(x.T)]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        _, key = np.unique(x, axis=0, return_inverse=True)
        key = key.ravel()
        sq[(key[:, None] == key[None, :])[upper]] = 0.0
    # np.median of the pair distances, the mean of the one or two middle ones.
    # sqrt is monotone, so those are the roots of the middle squared ones. A
    # partition at one index costs a tenth of np.median's at three; the middle
    # value below it is the largest of the lower half.
    hi = sq.size // 2
    part = np.partition(sq, hi)
    lo = part[:hi].max() if sq.size % 2 == 0 else part[hi]
    med = float(np.sqrt([lo, part[hi]]).mean())
    if med > 0:
        return med
    mean = float(np.sqrt(sq).mean())
    if mean > 0:
        return mean
    raise DataError("degenerate sample for bandwidth: all points identical")


def resolve_bandwidth(spec: KernelSpec, samples: np.ndarray) -> KernelSpec:
    """Pin a rule-based spec to a concrete bandwidth computed from ``samples``."""
    if spec.resolved:
        return spec
    return replace(spec, bandwidth=median_bandwidth(samples), bandwidth_rule=None)


def kernel_eval(spec: KernelSpec, u: np.ndarray, v: np.ndarray) -> float:
    """k(u, v) = exp(-||u - v||^2 / bandwidth^2) for two vectors."""
    if not spec.resolved:
        raise ConfigError("kernel bandwidth not resolved; call resolve_bandwidth first")
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.shape != v.shape:
        raise DataError(f"dimension mismatch: {u.shape} vs {v.shape}")
    sq = float(((u - v) ** 2).sum())
    return float(np.exp(-sq / (spec.bandwidth ** 2)))


def mmd2_unbiased_graph(u, v, spec: KernelSpec) -> Tensor:
    """Unbiased squared-MMD node; differentiable in both sample sets."""
    if not spec.resolved:
        raise ConfigError("kernel bandwidth not resolved; call resolve_bandwidth first")
    a = as_tensor(u)
    b = as_tensor(v)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DataError("sample sets must be 2-D (rows are points)")
    if a.data.shape[1] != b.data.shape[1]:
        raise DataError(
            f"sample dimensions differ: {a.data.shape[1]} vs {b.data.shape[1]}"
        )
    m = a.data.shape[0]
    n = b.data.shape[0]
    if m < 2 or n < 2:
        raise DataError(f"unbiased estimator needs at least 2 points per set, got {m} and {n}")
    # the estimator is symmetric in its arguments, but float reductions are
    # order-sensitive; pick a canonical operand order so that swapping the
    # call arguments runs the bit-identical computation
    if (m, a.data.tobytes()) > (n, b.data.tobytes()):
        a, b = b, a
        m, n = n, m
    # the kernel depends on differences only, so centring is free and keeps
    # the Gram expansion's cancellation error at the scale of the distances
    mu = (a.data.sum(axis=0) + b.data.sum(axis=0)) * (1.0 / (m + n))
    x = a.data - mu
    y = b.data - mu
    scale = -1.0 / (spec.bandwidth * spec.bandwidth)
    kxx = _gram(x, x, scale)
    kyy = _gram(y, y, scale)
    kxy = _gram(x, y, scale)
    # the expansion does not leave exact ones on the diagonal, so the
    # U-statistic drops those entries instead of subtracting the count
    np.fill_diagonal(kxx, 0.0)
    np.fill_diagonal(kyy, 0.0)
    cx = 1.0 / (m * (m - 1))
    cy = 1.0 / (n * (n - 1))
    cxy = 2.0 / (m * n)
    value = kxx.sum() * cx + kyy.sum() * cy - kxy.sum() * cxy

    def backward(g):
        # value = sum_ij w_ij k(p_i, q_j) over the three Gram blocks, and
        # d k(p, q)/dp = -(2/h^2) k(p, q) (p - q); the within-set blocks are
        # symmetric, so each of their weights counts twice
        s = float(g) * 2.0 * scale
        wxy = kxy * cxy
        if a.requires_grad:
            wxx = kxx * (2.0 * cx)
            a._accum(((wxx.sum(axis=1) - wxy.sum(axis=1))[:, None] * x
                      - wxx @ x + wxy @ y) * s)
        if b.requires_grad:
            wyy = kyy * (2.0 * cy)
            b._accum(((wyy.sum(axis=1) - wxy.sum(axis=0))[:, None] * y
                      - wyy @ y + wxy.T @ x) * s)

    return a._make(np.asarray(value, dtype=np.float64), (a, b), backward)


@dataclass(frozen=True)
class Mmd2Estimate:
    value: float
    m: int
    n: int


def mmd2_unbiased(u: np.ndarray, v: np.ndarray, spec: KernelSpec) -> Mmd2Estimate:
    """Numeric unbiased squared MMD between two sample sets."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    node = mmd2_unbiased_graph(u, v, spec)
    return Mmd2Estimate(value=float(node.data), m=u.shape[0], n=v.shape[0])
