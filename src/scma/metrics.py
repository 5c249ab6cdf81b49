"""Codebook quality indicators: minimum Euclidean and product distances with
their kissing numbers, the per-resource superimposed constellations, and the
closed-form lower bound on the mutual information between the received value
and the superimposed sum.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import CodebookSet, ScmaError, _require_int, superpositions

PRODUCT_DIMENSION_TOL = 1e-12
KISSING_REL_TOL = 1e-3  # absorbs the 4-decimal truncation of published tables


@dataclass(frozen=True)
class KpiReport:
    """Distance profile over every unordered pair of codewords in the whole
    system (same-user and cross-user pairs alike)."""

    d_e_min: float
    tau_e: int
    d_p_min: float
    tau_p: int

    def to_dict(self) -> dict:
        return asdict(self)


def kpi(cbs: CodebookSet) -> KpiReport:
    """Minimum Euclidean / product distances and kissing numbers.

    The product distance of a pair multiplies the entry distances over the
    dimensions where the codewords differ by more than an absolute
    ``PRODUCT_DIMENSION_TOL``; with no such pair, ``d_p_min`` and ``tau_p``
    are 0.  Kissing numbers count the pairs within a relative
    ``KISSING_REL_TOL`` of each minimum.
    """
    cfg = cbs.config
    X = cbs.books.reshape(cfg.J * cfg.M, cfg.K)
    iu, ju = np.triu_indices(X.shape[0], k=1)
    mags = np.abs(X[iu] - X[ju])  # (pairs, K)
    d_e = np.sqrt((mags ** 2).sum(axis=1))
    differing = mags > PRODUCT_DIMENSION_TOL
    d_p = np.where(differing, mags, 1.0).prod(axis=1)
    valid = differing.any(axis=1)
    d_e_min = float(d_e.min())
    tau_e = int((d_e <= d_e_min * (1.0 + KISSING_REL_TOL)).sum())
    if valid.any():
        d_p_min = float(d_p[valid].min())
        tau_p = int((d_p[valid] <= d_p_min * (1.0 + KISSING_REL_TOL)).sum())
    else:
        d_p_min, tau_p = 0.0, 0
    return KpiReport(d_e_min=d_e_min, tau_e=tau_e, d_p_min=d_p_min, tau_p=tau_p)


def sum_constellation(cbs: CodebookSet, resource: int) -> np.ndarray:
    """The (M^d,) superpositions of the users' entries on one resource, in
    lexicographic symbol order (lowest user index most significant)."""
    _require_int(0, resource=resource)
    if resource >= cbs.config.K:
        raise ValueError(f"resource must be < {cbs.config.K}, got {resource}")
    users = cbs.graph.resource_users(resource)
    if users.size == 0:
        raise ScmaError(f"resource {resource} has no users attached")
    return superpositions(cbs.books[users][:, :, [resource]])[:, 0]


def i_lower_bound(points: np.ndarray, n0: float) -> float:
    """Mutual-information lower bound (bits) for a sum constellation's
    ``points`` under complex Gaussian noise of total variance n0, clamped to
    its [0, log2(#points)] range."""
    points = np.asarray(points, dtype=np.complex128).ravel()
    if points.size == 0:
        raise ValueError("points must not be empty")
    if not (np.isfinite(n0) and n0 > 0.0):
        raise ValueError(f"n0 must be finite and positive, got {n0}")
    T = points.size
    d2 = np.abs(points[:, None] - points[None, :]) ** 2
    with np.errstate(over="ignore"):  # a subnormal n0 sends -d2 / (4 n0) to -inf
        cross = float(np.exp(-d2 / (4.0 * n0)).sum() - T)  # off-diagonal terms
    val = np.log2(T) - np.log2(1.0 + cross / T)
    return float(np.clip(val, 0.0, np.log2(T)))


def i_lower_bound_profile(cbs: CodebookSet, n0: float) -> tuple[np.ndarray, float]:
    """Per-resource bound values plus their mean (the quantity used for
    whole-system comparisons)."""
    per = np.array(
        [i_lower_bound(sum_constellation(cbs, k), n0) for k in range(cbs.config.K)]
    )
    return per, float(per.mean())
