"""Shared test fixtures and reference constructions."""
from __future__ import annotations

import numpy as np
import pytest

from scma.core import CodebookSet, superpositions
from scma.detector import (
    RESCUE_FLOOR,
    MpaConfig,
    _check_inputs,
    _edge_product,
    _flushed_exp,
    _log_resource,
    _log_weights,
    _normalize_rows,
    _slabs,
)
from scma.fixtures import load_codebook

MAP_ENUMERATION_LIMIT = 2 ** 24


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


def map_detect_batch(
    y: np.ndarray,
    cbs: CodebookSet,
    h: np.ndarray | None,
    n0: float,
) -> np.ndarray:
    """Joint maximum-likelihood decisions by enumerating all M^J hypotheses;
    returns (frames, J) symbol indices.  Ties break toward the
    lexicographically smallest symbol tuple.  The exact oracle that message
    passing is checked against on small systems."""
    y = np.asarray(y, dtype=np.complex128)
    _check_inputs(y, cbs, h, n0)
    cfg = cbs.config
    n_hyp = cfg.M ** cfg.J
    if n_hyp > MAP_ENUMERATION_LIMIT:
        raise ValueError(
            f"M^J = {n_hyp} hypotheses exceed the enumeration limit "
            f"({MAP_ENUMERATION_LIMIT}); use mpa_detect_batch instead"
        )
    frames = y.shape[0]
    best = np.empty(frames, dtype=np.int64)
    if h is None:
        cand = superpositions(cbs.books)
        cnorm2 = (np.abs(cand) ** 2).sum(axis=1)
        chunk = max(1, 2 ** 22 // max(n_hyp, 1))
        for lo in range(0, frames, chunk):
            hi = min(lo + chunk, frames)
            metric = cnorm2[None, :] - 2.0 * (y[lo:hi] @ cand.conj().T).real
            best[lo:hi] = np.argmin(metric, axis=1)
    else:
        for f in range(frames):
            scaled = cbs.books * h[f].T[:, None, :]  # (J, M, K)
            cand = superpositions(scaled)
            metric = (np.abs(y[f][None, :] - cand) ** 2).sum(axis=1)
            best[f] = int(np.argmin(metric))
    # hypothesis index digits in base M, user 0 the most significant
    return np.stack(np.unravel_index(best, (cfg.M,) * cfg.J), axis=-1)


# --- the per-resource sweep, the byte oracle of the batched detector -------

def _contract(T, msgs, axes):
    """Sum T (slot axes, then frames) times msgs[a] over each slot axis a."""
    n = T.ndim - 1
    ops = [T, list(range(n + 1))]
    for a in axes:
        ops += [msgs[a], [a, n]]
    return np.einsum(*ops, [a for a in range(n + 1) if a not in axes])


def _sum_product(T, msgs):
    n = T.ndim - 1
    if n == 1:
        return [T]
    h = n // 2
    return (_sum_product(_contract(T, msgs, range(h, n)), msgs[:h])
            + _sum_product(_contract(T, msgs, range(h)), msgs[h:]))


def _per_resource_slab(y, cbs, h, n0, cfg):
    """(J, M, frames) beliefs of one slab, one resource update at a time,
    with edges numbered row by row of F."""
    books, F = cbs.books, np.asarray(cbs.factor_matrix)
    (K, J), M, frames = F.shape, cbs.config.M, y.shape[0]
    rows, edge_user = np.nonzero(F)
    E = rows.size
    res_start = np.concatenate(([0], np.cumsum(F.sum(axis=1))))
    edges = [slice(res_start[k], res_start[k + 1]) for k in range(K)]
    user_edges = np.full((J, max(2, *F.sum(axis=0))), E)
    for j in range(J):
        own = np.flatnonzero(edge_user == j)
        user_edges[j, :own.size] = own

    def log_table(k, f=slice(None)):
        return _log_weights(y[f, k], [books[j, :, k] if h is None else
                                      h[f, k, j][None, :] * books[j, :, k][:, None]
                                      for j in edge_user[edges[k]]], n0)

    tables = [_flushed_exp(t, out=t) for t in map(log_table, range(K))]
    Q = np.full((E + 1, M, frames), 1.0 / M)
    R = np.ones_like(Q)
    others = [np.delete(user_edges, s, axis=1) for s in range(user_edges.shape[1])]
    for _ in range(cfg.iterations):
        for k, e in enumerate(edges):
            raw = np.stack(_sum_product(tables[k], list(Q[e])), out=R[e])
            low = np.flatnonzero((raw.max(axis=1) < RESCUE_FLOOR).any(axis=0))
            _normalize_rows(raw)
            if len(low):
                R[e, :, low] = _log_resource(log_table(k, low), Q[e, :, low])
        for cols, rest in zip(user_edges.T, others):
            Q[cols] = _normalize_rows(_edge_product(R, rest))
    return _normalize_rows(_edge_product(R, user_edges))


def per_resource_mpa(y, cbs, h, n0, cfg=MpaConfig()):
    """Sum-product beliefs (frames, J, M) from the detector's kernel with one
    update per resource and one normalisation per resource, in the same
    frame slabs as ``mpa_detect_batch``; a lone frame is detected as two
    copies of itself."""
    y = np.asarray(y, dtype=np.complex128)
    M = cbs.config.M
    out = np.empty((y.shape[0], cbs.config.J, M))
    for f in _slabs(y.shape[0], 8 * M ** int(cbs.graph.row_degrees.max())):
        n = f.stop - f.start
        rows = [f.start] * 2 if n == 1 else f
        hf = None if h is None else h[rows]
        out[f] = _per_resource_slab(y[rows], cbs, hf, n0, cfg).transpose(2, 0, 1)[:n]
    return out
