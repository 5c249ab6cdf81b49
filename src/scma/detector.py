"""Multi-user detection on the factor graph.

``mpa_detect`` runs sum-product message passing between resource nodes and
user nodes, exchanging length-M probability vectors stored frames last.  One
kernel yields all d_f outgoing messages of a resource from its M^{d_f}-entry
weight table: it contracts the table with the incoming messages of one half
of the slots, recurses on the other half, then swaps the halves, so it costs
~2 * M^{d_f} per frame instead of d_f * M^{d_f}.  The tables are built once
per call, their exponent shifted by its per-(frame, resource) maximum, which
cancels in the normalization and keeps the linear domain alive at very small
noise levels.

The log domain runs the same kernel plus a rescue.  A sum term is lost or
coarsely rounded only below the normal range (~2.2e-308); while every
unnormalised outgoing message peaks at or above ``RESCUE_FLOOR`` (1e-250),
each such term is below 2.2e-58 of the peak, so even M^{d_f - 1} of them
shift a normalised entry by less than 1e-55.  Where some message of a
resource peaks below the floor, its messages are recomputed on those frames
in log arithmetic.
Max-log uses the same log arithmetic on all frames: its max is exact there,
while a linear max-product rounds products and breaks exact ties otherwise.

``map_detect`` is the brute-force joint maximum-likelihood oracle used to
verify the message-passing detector on small systems.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .core import CodebookSet

MAP_ENUMERATION_LIMIT = 2 ** 24

# log-domain rescue threshold on a message's peak; see the module docstring
RESCUE_FLOOR = 1e-250


@dataclass(frozen=True)
class MpaConfig:
    """Message-passing settings: sweep count, arithmetic domain ("linear" or
    "log"), damping factor on the user-to-resource messages, and max-log (log
    domain only).  Both domains share one ~2 * M^{d_f} sum-product kernel; the
    log domain adds the exact log-arithmetic rescue below ``RESCUE_FLOOR``,
    and max-log runs in log arithmetic on all frames."""

    iterations: int = 10
    domain: str = "linear"
    damping: float = 0.0
    max_log: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.domain not in ("linear", "log"):
            raise ValueError(f"domain must be 'linear' or 'log', got {self.domain!r}")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")
        if self.max_log and self.domain != "log":
            raise ValueError("max_log requires the log domain")


def _normalize_rows(msg: np.ndarray) -> np.ndarray:
    """Scale each length-M vector (axis -2) to sum 1; all-zero vectors fall
    back to uniform."""
    total = msg.sum(axis=-2, keepdims=True)
    bad = total <= 0.0
    if bad.any():
        msg = np.where(bad, 1.0, msg)
        total = msg.sum(axis=-2, keepdims=True)
    return msg / total


def _log_weights(
    y_col: np.ndarray, contribs: list[np.ndarray], n0: float, frames: int, M: int
) -> np.ndarray:
    """(M, ..., M, frames) array of -|y - sum|^2 / n0, max-shifted per frame.

    Each entry of ``contribs`` is either (M,) for frame-constant gains or
    (M, frames); axis p of the result indexes the p-th colliding user."""
    d = len(contribs)
    S = np.zeros((1,) * (1 + d), dtype=np.complex128)
    for p, c in enumerate(contribs):
        shape = [1] * (1 + d)
        shape[p] = M
        if c.ndim == 2:
            shape[d] = frames
        S = S + c.reshape(shape)
    diff = y_col.reshape((1,) * d + (frames,)) - S
    A = -(diff.real ** 2 + diff.imag ** 2) / n0
    A -= A.max(axis=tuple(range(d)), keepdims=True)
    return A


def _contract(T: np.ndarray, msgs: list[np.ndarray], axes: range) -> np.ndarray:
    """Sum T (slot axes, then frames) times msgs[a] over each slot axis a."""
    n = T.ndim - 1
    ops = [T, list(range(n + 1))]
    for a in axes:
        ops += [msgs[a], [a, n]]
    return np.einsum(*ops, [a for a in range(n + 1) if a not in axes])


def _sum_product(T: np.ndarray, msgs: list[np.ndarray]) -> list[np.ndarray]:
    """Unnormalised outgoing message of every slot of T: slot p's message
    sums T times every other slot's incoming message.  Each half of the
    slots is contracted away once and shared by the other half's messages."""
    n = T.ndim - 1
    if n == 1:
        return [T]
    h = n // 2
    return _sum_product(_contract(T, msgs, range(h, n)), msgs[:h]) + _sum_product(
        _contract(T, msgs, range(h)), msgs[h:]
    )


def _log_resource(logW: np.ndarray, Q: np.ndarray, max_log: bool) -> np.ndarray:
    """Normalised outgoing messages of one resource in log arithmetic from
    its (M, ..., M, frames) table and incoming (slots, M, frames) messages;
    max_log replaces each sum over combinations by a max."""
    d = Q.shape[0]
    with np.errstate(divide="ignore"):
        logQ = np.log(Q)
    out = np.empty_like(Q)
    reduce = np.max if max_log else logsumexp
    for p in range(d):
        B = logW
        for q in range(d):
            if q != p:
                shape = [1] * d + [Q.shape[2]]
                shape[q] = Q.shape[1]
                B = B + logQ[q].reshape(shape)
        axes = tuple(ax for ax in range(d) if ax != p)
        lr = reduce(B, axis=axes) if axes else B
        out[p] = np.exp(lr - logsumexp(lr, axis=0, keepdims=True))
    return out


class _Graph:
    """Adjacency derived from the factor matrix."""

    def __init__(self, F: np.ndarray):
        self.K, self.J = F.shape
        self.res_users = [np.flatnonzero(F[k]) for k in range(self.K)]
        self.user_res = [np.flatnonzero(F[:, j]) for j in range(self.J)]
        if not all(map(len, self.res_users)) or not all(map(len, self.user_res)):
            raise ValueError("factor matrix has an isolated row or column")
        # local position of user j within resource k's neighbor list
        self.pos = {
            (k, j): p for k in range(self.K) for p, j in enumerate(self.res_users[k])
        }


_GRAPH_CACHE: dict[bytes, _Graph] = {}


def _graph_for(F: np.ndarray) -> _Graph:
    key = F.tobytes() + repr(F.shape).encode()
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = _Graph(F)
    return _GRAPH_CACHE[key]


def _check_inputs(y: np.ndarray, h: np.ndarray | None, n0: float) -> None:
    if n0 <= 0.0:
        raise ValueError(f"n0 must be positive, got {n0}")
    if not np.isfinite(y).all():
        raise ValueError("received signal contains non-finite values")
    if h is not None and not np.isfinite(h).all():
        raise ValueError("channel gains contain non-finite values")


def mpa_detect_batch(
    y: np.ndarray,
    cbs: CodebookSet,
    h: np.ndarray | None,
    n0: float,
    cfg: MpaConfig = MpaConfig(),
) -> np.ndarray:
    """Sum-product detection of a batch of frames.

    y is (frames, K); h is (frames, K, J) complex gains or None for all-ones
    (AWGN) gains.  Returns beliefs of shape (frames, J, M): per frame and user
    a probability vector over the M codewords.
    """
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim != 2:
        raise ValueError("y must be (frames, K)")
    _check_inputs(y, h, n0)
    books = cbs.books
    M, frames = cbs.config.M, y.shape[0]
    F = cbs.factor_matrix if cbs.factor_matrix is not None else cbs.supports()
    g = _graph_for(np.asarray(F))

    # weight tables, one per resource, fixed across iterations
    logW = [
        _log_weights(y[:, k], [books[j, :, k] if h is None else
                               h[:, k, j][None, :] * books[j, :, k][:, None]
                               for j in g.res_users[k]], n0, frames, M)
        for k in range(g.K)
    ]
    W = None if cfg.max_log else [np.exp(lw) for lw in logW]

    # user -> resource messages [resource][local slot], uniform to start
    Q = [np.full((len(g.res_users[k]), M, frames), 1.0 / M) for k in range(g.K)]
    R = [np.empty_like(Q[k]) for k in range(g.K)]

    for _ in range(cfg.iterations):
        for k in range(g.K):
            if cfg.max_log:
                R[k][:] = _log_resource(logW[k], Q[k], max_log=True)
                continue
            raw = np.stack(_sum_product(W[k], list(Q[k])))
            R[k][:] = _normalize_rows(raw)
            if cfg.domain == "log":
                low = np.flatnonzero((raw.max(axis=1) < RESCUE_FLOOR).any(axis=0))
                if low.size:
                    R[k][:, :, low] = _log_resource(
                        logW[k][..., low], Q[k][:, :, low], max_log=False)
        for j in range(g.J):
            incoming = [R[k][g.pos[(k, j)]] for k in g.user_res[j]]
            for t, k in enumerate(g.user_res[j]):
                out = np.ones((M, frames))
                for msg in incoming[:t] + incoming[t + 1:]:
                    out = out * msg
                out = _normalize_rows(out)
                if cfg.damping > 0.0:
                    out = (1.0 - cfg.damping) * out + cfg.damping * Q[k][g.pos[(k, j)]]
                Q[k][g.pos[(k, j)]] = out

    beliefs = np.empty((g.J, M, frames))
    for j in range(g.J):
        b = np.ones((M, frames))
        for k in g.user_res[j]:
            b = b * R[k][g.pos[(k, j)]]
        beliefs[j] = _normalize_rows(b)
    return np.ascontiguousarray(beliefs.transpose(2, 0, 1))


def mpa_detect(
    y: np.ndarray,
    cbs: CodebookSet,
    h: np.ndarray | None,
    n0: float,
    cfg: MpaConfig = MpaConfig(),
) -> np.ndarray:
    """Single-frame sum-product detection; returns (J, M) beliefs.

    h is the (K, J) gain matrix or None for AWGN.
    """
    y = np.asarray(y, dtype=np.complex128)
    hb = None if h is None else np.asarray(h, dtype=np.complex128)[None, :, :]
    return mpa_detect_batch(y[None, :], cbs, hb, n0, cfg)[0]


def hard_decision(belief: np.ndarray) -> np.ndarray:
    """Per-user argmax over the last axis; ties resolve to the smaller
    index."""
    return np.argmax(np.asarray(belief), axis=-1)


def _candidate_sums(scaled_books: np.ndarray) -> np.ndarray:
    """(M^J, K) superpositions of one codeword per user, in lexicographic
    symbol order with user 0 as the most significant digit."""
    J, M, K = scaled_books.shape
    S = np.zeros((1, K), dtype=np.complex128)
    for j in range(J):
        S = (S[:, None, :] + scaled_books[j][None, :, :]).reshape(-1, K)
    return S


def _decode_indices(flat: np.ndarray, J: int, M: int) -> np.ndarray:
    out = np.empty(flat.shape + (J,), dtype=np.int64)
    rem = flat.copy()
    for j in range(J - 1, -1, -1):
        out[..., j] = rem % M
        rem //= M
    return out


def map_detect_batch(
    y: np.ndarray,
    cbs: CodebookSet,
    h: np.ndarray | None,
    n0: float,
) -> np.ndarray:
    """Joint maximum-likelihood decisions by enumerating all M^J hypotheses;
    returns (frames, J) symbol indices.  Ties break toward the
    lexicographically smallest symbol tuple."""
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim != 2:
        raise ValueError("y must be (frames, K)")
    _check_inputs(y, h, n0)
    cfg = cbs.config
    n_hyp = cfg.M ** cfg.J
    if n_hyp > MAP_ENUMERATION_LIMIT:
        raise ValueError(
            f"M^J = {n_hyp} hypotheses exceed the enumeration limit "
            f"({MAP_ENUMERATION_LIMIT}); use mpa_detect instead"
        )
    frames = y.shape[0]
    if h is None:
        cand = _candidate_sums(np.asarray(cbs.books))
        cnorm2 = (np.abs(cand) ** 2).sum(axis=1)
        best = np.empty(frames, dtype=np.int64)
        chunk = max(1, 2 ** 22 // max(n_hyp, 1))
        for lo in range(0, frames, chunk):
            hi = min(lo + chunk, frames)
            metric = cnorm2[None, :] - 2.0 * (y[lo:hi] @ cand.conj().T).real
            best[lo:hi] = np.argmin(metric, axis=1)
        return _decode_indices(best, cfg.J, cfg.M)
    best = np.empty(frames, dtype=np.int64)
    for f in range(frames):
        scaled = cbs.books * h[f].T[:, None, :]  # (J, M, K)
        cand = _candidate_sums(scaled)
        metric = (np.abs(y[f][None, :] - cand) ** 2).sum(axis=1)
        best[f] = int(np.argmin(metric))
    return _decode_indices(best, cfg.J, cfg.M)


def map_detect(
    y: np.ndarray,
    cbs: CodebookSet,
    h: np.ndarray | None,
    n0: float,
) -> np.ndarray:
    """Single-frame joint ML oracle; returns (J,) symbol indices."""
    y = np.asarray(y, dtype=np.complex128)
    hb = None if h is None else np.asarray(h, dtype=np.complex128)[None, :, :]
    return map_detect_batch(y[None, :], cbs, hb, n0)[0]
