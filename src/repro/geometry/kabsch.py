"""Kabsch optimal superposition and RMSD.

``kabsch(mobile, target)`` returns the proper rigid transform minimizing
the RMSD of the transformed mobile points against the target points.
This is the rotation kernel TM-align calls thousands of times per pairwise
alignment, so it is fully vectorized and optionally charges an op counter.

``kabsch_batch(mobile, target)`` solves a whole ``(k, n, 3)`` stack of
equal-length superposition problems with one batched pipeline (one
cross-covariance ``matmul`` over the stack, one gufunc SVD over the
``(k, 3, 3)`` covariances).  Every slice is bit-identical to the
corresponding serial ``kabsch`` call: the batched gufuncs run the exact
same per-matrix LAPACK/BLAS kernels, so scores derived from either path
agree repr-exactly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry.transforms import RigidTransform

__all__ = [
    "kabsch",
    "kabsch_batch",
    "rotations_from_covariances",
    "superpose",
    "rmsd",
    "rmsd_superposed",
]

# The determinant correction only ever scales the last singular vector by
# +/-1; both diagonal matrices are constant, so they are hoisted out of the
# per-call path (kabsch runs ~10k times per pairwise TM-align).
_DIAG_KEEP = np.diag([1.0, 1.0, 1.0])
_DIAG_FLIP = np.diag([1.0, 1.0, -1.0])
_DIAG_KEEP.setflags(write=False)
_DIAG_FLIP.setflags(write=False)

# np.linalg.svd spends more time in its Python wrapper than in LAPACK for a
# 3x3 input; the underlying gufunc (full_matrices variant) runs the exact
# same dgesdd call.  Guarded import: fall back to the public API if the
# private module moves.
try:  # pragma: no cover - exercised implicitly by every kabsch call
    from numpy.linalg import _umath_linalg as _ul

    _svd3 = _ul.svd_f
except (ImportError, AttributeError):  # pragma: no cover
    _svd3 = np.linalg.svd


def _det3_sign(m: np.ndarray) -> float:
    """Sign of a 3x3 determinant via the closed-form expansion.

    Only used on products of orthogonal matrices, whose determinant is
    +/-1 up to rounding, so the sign is unambiguous under any correctly
    rounded evaluation order and never zero.  NaN factors (a failed SVD)
    give -1, as in the native kernel.
    """
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return 1.0 if det > 0.0 else -1.0


def _check_pair(mobile: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mobile = np.asarray(mobile, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if mobile.ndim != 2 or mobile.shape[1] != 3:
        raise ValueError(f"mobile must be (N, 3), got {mobile.shape}")
    if mobile.shape != target.shape:
        raise ValueError(
            f"point sets must match: mobile {mobile.shape} vs target {target.shape}"
        )
    if mobile.shape[0] < 1:
        raise ValueError("need at least one point")
    return mobile, target


def kabsch(
    mobile: np.ndarray,
    target: np.ndarray,
    weights: Optional[np.ndarray] = None,
    counter=None,
) -> RigidTransform:
    """Least-squares rigid superposition of ``mobile`` onto ``target``.

    Uses the SVD formulation with the determinant correction that excludes
    reflections.  ``weights`` (optional, length N, non-negative) gives a
    weighted fit.  ``counter`` is an optional
    :class:`repro.cost.CostCounter` charged with ``kabsch`` / ``kabsch_point``.
    """
    mobile, target = _check_pair(mobile, target)
    n = mobile.shape[0]
    if counter is not None:
        counter.add("kabsch", 1)
        counter.add("kabsch_point", n)

    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError(f"weights must be length {n}, got {w.shape}")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must not all be zero")
        w = w / total
        mu_m = w @ mobile
        mu_t = w @ target
        pm = mobile - mu_m
        pt = target - mu_t
        cov = (pm * w[:, None]).T @ pt
    else:
        # np.add.reduce + divide is exactly what ndarray.mean computes,
        # without the _methods.py dispatch overhead.
        mu_m = np.add.reduce(mobile, axis=0) / n
        mu_t = np.add.reduce(target, axis=0) / n
        pm = mobile - mu_m
        pt = target - mu_t
        cov = pm.T @ pt

    u, _, vt = _svd3(cov)
    diag = _DIAG_KEEP if _det3_sign(vt.T @ u.T) > 0 else _DIAG_FLIP
    rot = vt.T @ diag @ u.T
    tra = mu_t - rot @ mu_m
    return RigidTransform.from_trusted(rot, tra)


def kabsch_batch(
    mobile: np.ndarray,
    target: np.ndarray,
    counter=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked least-squares superpositions: ``(k, n, 3)`` onto ``(k, n, 3)``.

    Returns ``(rotations, translations)`` of shapes ``(k, 3, 3)`` and
    ``(k, 3)``.  Slice ``i`` is bit-identical to
    ``kabsch(mobile[i], target[i])`` — the means, cross-covariances, SVDs
    and rotation assembly all run the same per-slice kernels — so batched
    callers reproduce serial scores exactly.  ``counter`` is charged the
    same totals as ``k`` serial calls.  Unweighted only (the TM-align hot
    paths never pass weights); ``k == 0`` is allowed and returns empty
    stacks.
    """
    mobile = np.asarray(mobile, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if mobile.ndim != 3 or mobile.shape[2] != 3:
        raise ValueError(f"mobile must be (k, n, 3), got {mobile.shape}")
    if mobile.shape != target.shape:
        raise ValueError(
            f"point stacks must match: mobile {mobile.shape} vs target {target.shape}"
        )
    k, n = mobile.shape[0], mobile.shape[1]
    if k == 0:
        return np.empty((0, 3, 3)), np.empty((0, 3))
    if n < 1:
        raise ValueError("need at least one point per slice")
    return _kabsch_batch_core(mobile, target, counter)


def _kabsch_batch_core(
    mobile: np.ndarray, target: np.ndarray, counter=None
) -> tuple[np.ndarray, np.ndarray]:
    """Trusted-input ``kabsch_batch`` body: float64 C-order ``(k, n, 3)``.

    Internal hot paths call this directly to skip the per-call
    ``asarray``/shape validation (they construct the stacks themselves).
    """
    k, n = mobile.shape[0], mobile.shape[1]
    if counter is not None:
        counter.add("kabsch", k)
        counter.add("kabsch_point", k * n)
    mu_m = np.add.reduce(mobile, axis=1)
    mu_m /= n
    mu_t = np.add.reduce(target, axis=1)
    mu_t /= n
    pm = mobile - mu_m[:, None, :]
    pt = target - mu_t[:, None, :]
    cov = np.matmul(pm.transpose(0, 2, 1), pt)
    rots = rotations_from_covariances(cov)
    tras = mu_t - np.matmul(rots, mu_m[:, :, None])[:, :, 0]
    return rots, tras


def rotations_from_covariances(cov: np.ndarray) -> np.ndarray:
    """Optimal rotations for a ``(k, 3, 3)`` stack of cross-covariances.

    The SVD + determinant-correction tail of the batched Kabsch.  Slice
    ``i`` is bit-identical to the serial kernel's rotation for the same
    covariance.
    """
    k = cov.shape[0]
    u, _, vt = _svd3(cov)
    # vt^T @ u^T per slice is both the determinant-sign probe and, for the
    # proper (det > 0) slices, already the final rotation — the serial
    # kernel's vt.T @ diag(1,1,1) @ u.T reduces to it bitwise.
    rots = np.matmul(vt.transpose(0, 2, 1), u.transpose(0, 2, 1))
    # The closed-form det sign per slice; small stacks go through plain
    # Python (float64 and Python floats share IEEE semantics, and one
    # tolist() beats ~15 tiny vectorized ops for the hot k <= 32 case).
    if k <= 32:
        improper = [i for i, m in enumerate(rots) if _det3_sign(m) < 0.0]
    else:
        m = rots
        det = (
            m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
            - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
            + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0])
        )
        improper = np.nonzero(~(det > 0.0))[0].tolist()
    if improper:
        # improper (reflection) slices: redo with diag(1, 1, -1)
        vt_f = vt[improper].transpose(0, 2, 1)
        u_f = u[improper].transpose(0, 2, 1)
        rots[improper] = np.matmul(np.matmul(vt_f, _DIAG_FLIP), u_f)
    return rots


def superpose(
    mobile: np.ndarray,
    target: np.ndarray,
    weights: Optional[np.ndarray] = None,
    counter=None,
) -> tuple[np.ndarray, RigidTransform]:
    """Superpose and return ``(transformed_mobile, transform)``."""
    xf = kabsch(mobile, target, weights=weights, counter=counter)
    return xf.apply(mobile), xf


def rmsd(a: np.ndarray, b: np.ndarray) -> float:
    """Plain (un-superposed) RMSD between matched coordinate sets."""
    a, b = _check_pair(a, b)
    diff = a - b
    return float(np.sqrt((diff * diff).sum() / a.shape[0]))


def rmsd_superposed(mobile: np.ndarray, target: np.ndarray, counter=None) -> float:
    """Minimum RMSD after optimal superposition."""
    moved, _ = superpose(mobile, target, counter=counter)
    return rmsd(moved, target)
