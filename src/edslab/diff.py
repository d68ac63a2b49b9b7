"""Finite-difference first and second derivatives.

Central differences with per-coordinate steps h_k = rel * max(|x_k|, 1)
+ 1e-8, so steps are scale-invariant in the large and bounded away from
zero near the origin.  First derivatives, and second derivatives taken as
the difference of an analytic gradient (which recovers one order of
accuracy), use rel = 1e-5; nested central differences, used when no
gradient is available, use rel = 1e-4.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationError

Array = np.ndarray

REL_STEP = 1e-5
REL_STEP_NESTED = 1e-4
ABS_FLOOR = 1e-8


def steps(at: Array, rel_step: float) -> Array:
    return rel_step * np.maximum(np.abs(at), 1.0) + ABS_FLOOR


def _eval_vector(fun: Callable, point: Array, coordinate) -> Array:
    out = np.atleast_1d(np.asarray(fun(point), dtype=float))
    if not np.all(np.isfinite(out)):
        bad = int(np.flatnonzero(~np.isfinite(out))[0])
        raise EvaluationError(
            f"non-finite oracle output (entry {bad}) while differencing coordinate {coordinate}"
        )
    return out


def _eval_scalar(fun: Callable, point: Array, coordinate) -> float:
    out = float(fun(point))
    if not np.isfinite(out):
        raise EvaluationError(
            f"non-finite oracle output while differencing coordinate {coordinate}"
        )
    return out


def partial_jacobian(fun: Callable, at, idx: Sequence[int]) -> Array:
    """Central-difference derivative of a vector map w.r.t. selected
    coordinates of its argument.  Columns follow the order of `idx`."""
    at = np.asarray(at, dtype=float)
    h = steps(at, REL_STEP)
    idx = np.asarray(idx, dtype=int)
    if idx.size == 0:
        return np.zeros((_eval_vector(fun, at, "-").size, 0))
    cols = []
    for k in idx:
        e = np.zeros_like(at)
        e[k] = h[k]
        fp = _eval_vector(fun, at + e, k)
        fm = _eval_vector(fun, at - e, k)
        cols.append((fp - fm) / (2.0 * h[k]))
    return np.column_stack(cols)


def jacobian(fun: Callable, at) -> Array:
    """Central-difference Jacobian, exact to O(h^2)."""
    at = np.asarray(at, dtype=float)
    return partial_jacobian(fun, at, np.arange(at.size))


def gradient(fun: Callable, at) -> Array:
    """Central-difference gradient of a scalar map."""
    scalar = lambda t: np.array([fun(t)])
    return jacobian(scalar, at)[0]


def hessian_block(fun: Callable, idx_a: Sequence[int], idx_b: Sequence[int], at) -> Array:
    """Mixed second-derivative block of a scalar map by nested central
    differences.  Symmetric blocks (idx_a == idx_b) are symmetrized as
    (M + M^T) / 2."""
    at = np.asarray(at, dtype=float)
    h = steps(at, REL_STEP_NESTED)
    idx_a = np.asarray(idx_a, dtype=int)
    idx_b = np.asarray(idx_b, dtype=int)
    out = np.zeros((idx_a.size, idx_b.size))
    if idx_a.size == 0 or idx_b.size == 0:
        return out
    f0 = _eval_scalar(fun, at, "-")
    for r, pcoord in enumerate(idx_a):
        ep = np.zeros_like(at)
        ep[pcoord] = h[pcoord]
        for c, qcoord in enumerate(idx_b):
            if pcoord == qcoord:
                fp = _eval_scalar(fun, at + ep, pcoord)
                fm = _eval_scalar(fun, at - ep, pcoord)
                out[r, c] = (fp - 2.0 * f0 + fm) / h[pcoord] ** 2
            else:
                eq = np.zeros_like(at)
                eq[qcoord] = h[qcoord]
                fpp = _eval_scalar(fun, at + ep + eq, pcoord)
                fpm = _eval_scalar(fun, at + ep - eq, pcoord)
                fmp = _eval_scalar(fun, at - ep + eq, pcoord)
                fmm = _eval_scalar(fun, at - ep - eq, pcoord)
                out[r, c] = (fpp - fpm - fmp + fmm) / (4.0 * h[pcoord] * h[qcoord])
    if np.array_equal(idx_a, idx_b):
        out = 0.5 * (out + out.T)
    return out


def hessian_via_gradient(grad_fun: Callable, idx_b: Sequence[int], at) -> Array:
    """Second derivatives as the central difference of an analytic gradient:
    column q is d(grad)/d(at[idx_b[q]])."""
    return partial_jacobian(grad_fun, at, idx_b)
