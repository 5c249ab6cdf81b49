"""Codebook quality indicators: minimum Euclidean and product distances with
their kissing numbers, the per-resource superimposed constellations, and the
closed-form lower bound on the mutual information between the received value
and the superimposed sum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CodebookSet, ScmaError, superpositions

PRODUCT_DIMENSION_TOL = 1e-12


@dataclass(frozen=True)
class KpiReport:
    """Distance profile over every unordered pair of codewords in the whole
    system (same-user and cross-user pairs alike)."""

    d_e_min: float
    tau_e: int
    d_p_min: float
    tau_p: int
    rel_tol: float

    def to_dict(self) -> dict:
        return {
            "d_e_min": self.d_e_min,
            "tau_e": self.tau_e,
            "d_p_min": self.d_p_min,
            "tau_p": self.tau_p,
            "rel_tol": self.rel_tol,
        }


def kpi(cbs: CodebookSet, rel_tol: float = 1e-3) -> KpiReport:
    """Minimum Euclidean / product distances and kissing numbers.

    The product distance of a pair multiplies the entry distances over the
    dimensions where the codewords differ by more than an absolute 1e-12.
    Kissing numbers count the pairs within ``rel_tol`` (relative) of each
    minimum, which absorbs the 4-decimal truncation of published codebooks.
    """
    if not 0.0 < rel_tol <= 0.01:
        raise ValueError(f"rel_tol must lie in (0, 0.01], got {rel_tol}")
    cfg = cbs.config
    X = cbs.books.reshape(cfg.J * cfg.M, cfg.K)
    n = X.shape[0]
    if n < 2:
        raise ScmaError("need at least two codewords to compute distances")
    iu, ju = np.triu_indices(n, k=1)
    mags = np.abs(X[iu] - X[ju])  # (pairs, K)
    d_e = np.sqrt((mags ** 2).sum(axis=1))
    differing = mags > PRODUCT_DIMENSION_TOL
    d_p = np.where(differing, mags, 1.0).prod(axis=1)
    valid = differing.any(axis=1)
    d_e_min = float(d_e.min())
    tau_e = int((d_e <= d_e_min * (1.0 + rel_tol)).sum())
    if valid.any():
        d_p_min = float(d_p[valid].min())
        tau_p = int((d_p[valid] <= d_p_min * (1.0 + rel_tol)).sum())
    else:
        d_p_min, tau_p = 0.0, 0
    return KpiReport(d_e_min=d_e_min, tau_e=tau_e, d_p_min=d_p_min, tau_p=tau_p,
                     rel_tol=rel_tol)


def sum_constellation(cbs: CodebookSet, resource: int) -> np.ndarray:
    """The (M^d,) superpositions of the users' entries on one resource, in
    lexicographic symbol order (lowest user index most significant)."""
    users = cbs.graph.resource_users(resource)
    if users.size == 0:
        raise ScmaError(f"resource {resource} has no users attached")
    return superpositions(cbs.books[users][:, :, [resource]])[:, 0]


def i_lower_bound(points: np.ndarray, n0: float) -> float:
    """Mutual-information lower bound (bits) for a sum constellation's
    ``points`` under complex Gaussian noise of total variance n0, clamped to
    its [0, log2(#points)] range."""
    if not (np.isfinite(n0) and n0 > 0.0):
        raise ValueError(f"n0 must be finite and positive, got {n0}")
    T = points.size
    d2 = np.abs(points[:, None] - points[None, :]) ** 2
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
