"""Shared test fixtures and reference constructions."""
from __future__ import annotations

import numpy as np
import pytest

from scma.core import CodebookSet, superpositions
from scma.detector import (
    FLUSH_FLOOR,
    RESCUE_FLOOR,
    MpaConfig,
    _check_inputs,
    _edge_product,
    _flushed_exp,
    _log_resource,
    _log_weights,
    _normalize_rows,
    _slab_plan,
)
from scma.fixtures import load_codebook
from scma.structure import StructureTemplate

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


def template_doc(t: StructureTemplate) -> dict:
    """The template JSON document of ``t``, written out by hand: each slot
    cell is 0 or {"p": zero-based parameter index, "s": +1 or -1}."""
    slots = [[[0 if s == 0 else {"p": abs(s) - 1, "s": 1 if s > 0 else -1}
               for s in row] for row in book] for book in t.slots.tolist()]
    return {"name": t.name, "num_params": t.num_params,
            "F": t.graph.F.tolist(), "slots": slots}


def six_codeword_template_doc() -> dict:
    """A hand-written template document of 2 users on 1 resource, each with
    the M = 6 antipodal codewords [a, b, c, -c, -b, -a] of its own three
    parameters: every slot rule holds, but M is not a power of 2."""
    def book(first: int) -> list:
        cells = [{"p": first + i, "s": 1} for i in range(3)]
        return [[c] for c in cells + [{**c, "s": -1} for c in reversed(cells)]]

    return {"name": "six", "num_params": 6, "F": [[1, 1]], "slots": [book(0), book(3)]}


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


def full_gains(cbs: CodebookSet, h: np.ndarray | None) -> np.ndarray | None:
    """The (frames, K, J) gains of the (frames, E) edge gains h of
    ``cbs.graph``, 0 off its edges, for the oracles that index gains by
    (resource, user); None stays None."""
    if h is None:
        return None
    g = cbs.graph
    out = np.zeros((len(h),) + g.F.shape, dtype=complex)
    out[:, g.edge_res, g.edge_user] = h
    return out


def brute_force_marginals(
    books: np.ndarray, y: np.ndarray, h: np.ndarray | None, n0: float
) -> np.ndarray:
    """Exact posterior symbol marginals by enumerating every joint
    hypothesis; h is one frame's (K, J) gains or None.  The log posterior is
    shifted by its maximum, so a small n0 does not underflow every
    hypothesis."""
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
    """Joint maximum-likelihood decisions by enumerating all M^J hypotheses,
    from the detector's inputs, h being (frames, E) edge gains or None;
    returns (frames, J) symbol indices.  Ties break toward the
    lexicographically smallest symbol tuple.  The exact oracle that message
    passing is checked against on small systems."""
    y = np.asarray(y, dtype=np.complex128)
    _check_inputs(y, cbs, h, n0)
    h, cfg = full_gains(cbs, h), cbs.config
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


def _halves(B):
    """Per half of the slots, the (M^{d-1}, M) layout of one resource's
    (M, ..., M) frame-free AWGN table whose last axis is the half's last
    dropped slot; for one slot, just the (1, M) table."""
    d = B.ndim
    layouts = (B,) if d == 1 else (B, np.moveaxis(B, d // 2 - 1, -1))
    return tuple(np.ascontiguousarray(b).reshape(-1, B.shape[0]) for b in layouts)


def _matmul_sum_product(B, msgs):
    """The outgoing messages of one resource from the per-half layouts B of
    its frame-free AWGN table (``_halves``): each half contracts its last
    dropped slot with one matmul, then goes on as ``_sum_product``."""
    n, (M, frames) = len(msgs), msgs[0].shape
    if n == 1:
        return [np.broadcast_to(B[0].reshape(M, 1), (M, frames))]
    h, out = n // 2, []
    for (lo, hi), Bh in zip(((0, h), (h, n)), B):
        drop = [a for a in range(n) if not lo <= a < hi]
        part = np.matmul(Bh, msgs[drop[-1]]).reshape((M,) * (n - 1) + (frames,))
        rest = msgs[:drop[-1]] + msgs[drop[-1] + 1:]
        out += _sum_product(_contract(part, rest, drop[:-1]), msgs[lo:hi])
    return out


def _factors(y_col, s, D, n0):
    """(A, A times the scale) of one resource's (d, M) codeword entries s
    on the factored AWGN path: A = exp(2 (v - max v) / n0) per slot with
    v = Re(conj(y) s), flushed at FLUSH_FLOOR minus the resource's spread,
    and the scale exp(D) at the per-slot argmax of v."""
    d, M = s.shape
    v = s.real[:, :, None] * y_col.real + s.imag[:, :, None] * y_col.imag
    best = v.argmax(axis=1)
    v -= v.max(axis=1, keepdims=True)
    v *= 2.0
    with np.errstate(over="ignore"):
        v /= n0
    A = _flushed_exp(v, out=v, floor=FLUSH_FLOOR - D.max())
    flat = best[0]
    for p in range(1, d):
        flat = flat * M + best[p]
    return A, A * np.exp(D[flat])


def _per_resource_slab(y, cbs, h, n0, cfg, factored):
    """(J, M, frames) beliefs of one slab, one resource update at a time,
    with edges numbered row by row of F; ``factored`` maps each resource to
    its D and the ``_halves`` of its frame-free AWGN table, or is empty for
    the per-frame tables."""
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

    if factored:
        tables = [_factors(y[:, k], books[edge_user[edges[k]], :, k], factored[k][0], n0)
                  for k in range(K)]
    else:
        tables = [_flushed_exp(t, out=t) for t in map(log_table, range(K))]
    Q = np.full((E + 1, M, frames), 1.0 / M)
    R = np.ones_like(Q)
    others = [np.delete(user_edges, s, axis=1) for s in range(user_edges.shape[1])]
    for _ in range(cfg.iterations):
        for k, e in enumerate(edges):
            if factored:
                A, Ac = tables[k]
                raw = np.stack(_matmul_sum_product(factored[k][1], list(Q[e] * A)), out=R[e])
                raw *= Ac
            else:
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
    update per resource and one normalisation per resource, in the slabs and
    rows of the detector's slab plan, from the detector's inputs.  On AWGN
    inside the detector's guard,
    each resource keeps its table factored, as the detector's degree groups
    do."""
    y = np.asarray(y, dtype=np.complex128)
    M, g = cbs.config.M, cbs.graph
    plan = _slab_plan(cbs, n0, h is not None)
    factored = {k: (D[i], _halves(B[..., i, 0])) for (_, ks, _), (D, B)
                in zip(g.groups, plan.awgn or []) for i, k in enumerate(ks)}
    out = np.empty((y.shape[0], cbs.config.J, M))
    for f, rows in plan.slabs(y.shape[0]):
        hf = None if h is None else full_gains(cbs, h[rows])
        out[f] = _per_resource_slab(y[rows], cbs, hf, n0, cfg,
                                    factored).transpose(2, 0, 1)[:f.stop - f.start]
    return out
