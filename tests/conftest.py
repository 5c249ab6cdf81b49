"""Shared test fixtures and reference constructions."""
from __future__ import annotations

import numpy as np
import pytest

from scma.core import CodebookSet
from scma.fixtures import load_codebook


@pytest.fixture(scope="session")
def table2() -> CodebookSet:
    return load_codebook("table2_awgn_6x4")


@pytest.fixture(scope="session")
def table3() -> CodebookSet:
    return load_codebook("table3_fading_6x4")


@pytest.fixture(scope="session")
def table5() -> CodebookSet:
    return load_codebook("table5_awgn_12x6")


def qpsk_set() -> CodebookSet:
    """Single-user QPSK on one resource; the only configuration with a
    closed-form symbol-error rate, used for calibration."""
    pts = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j]) / np.sqrt(2.0)
    books = pts.reshape(1, 4, 1)
    return CodebookSet(books, np.array([[1]]))


def qpsk_theoretical_ser(n0: float) -> float:
    """Exact QPSK symbol-error rate for unit symbol energy and total noise
    variance n0 (independent errors on the two rails)."""
    from scipy.special import erfc

    q = 0.5 * erfc(np.sqrt(1.0 / n0) / np.sqrt(2.0))
    return float(2.0 * q - q * q)


def brute_force_kpi(books: np.ndarray, rel_tol: float = 1e-3):
    """Reference distance computation with explicit loops, kept independent
    of the vectorized implementation."""
    X = books.reshape(-1, books.shape[-1])
    d_list, dp_list = [], []
    for i in range(X.shape[0]):
        for j in range(i + 1, X.shape[0]):
            diff = np.abs(X[i] - X[j])
            d_list.append(float(np.sqrt((diff ** 2).sum())))
            mask = diff > 1e-12
            if mask.any():
                dp_list.append(float(np.prod(diff[mask])))
    d = np.array(d_list)
    dp = np.array(dp_list)
    d_e_min = d.min()
    d_p_min = dp.min()
    tau_e = int((d <= d_e_min * (1 + rel_tol)).sum())
    tau_p = int((dp <= d_p_min * (1 + rel_tol)).sum())
    return d_e_min, tau_e, d_p_min, tau_p


def brute_force_marginals(
    books: np.ndarray, y: np.ndarray, h: np.ndarray | None, n0: float
) -> np.ndarray:
    """Exact posterior symbol marginals by enumerating every joint
    hypothesis.  The log posterior is shifted by its maximum, so a small n0
    does not underflow every hypothesis."""
    J, M, K = books.shape
    scaled = books if h is None else books * h.T[:, None, :]
    log_post = np.zeros((M,) * J)
    for flat in range(M ** J):
        idx = np.unravel_index(flat, (M,) * J)
        s = sum(scaled[j, idx[j]] for j in range(J))
        log_post[idx] = -np.sum(np.abs(y - s) ** 2) / n0
    post = np.exp(log_post - log_post.max())
    post /= post.sum()
    marginals = np.empty((J, M))
    for j in range(J):
        axes = tuple(a for a in range(J) if a != j)
        marginals[j] = post.sum(axis=axes)
    return marginals
