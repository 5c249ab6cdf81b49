"""Multi-user detection on the factor graph.

``mpa_detect_batch`` runs sum-product message passing between resource nodes
and user nodes, exchanging length-M probability vectors stored frames last.
One recursion yields all d_f outgoing messages of a resource from its
M^{d_f}-entry weight table: it contracts the table with the incoming messages
of one half of the slots, recurses on the other half, then swaps the halves,
so it costs ~2 * M^{d_f} per frame instead of d_f * M^{d_f}.  The contraction
is its argument: ``np.einsum`` on linear tables, or on log tables an add of
log-messages reduced by ``_logsumexp`` (the log rescue).
The one table per resource is built once per call, its exponent shifted by
its per-(frame, resource) maximum, which cancels in the normalization and
keeps the linear kernel alive at very small noise levels.

The messages live in one (E + 1, M, frames) array per direction, ``Q`` from
users to resources and ``R`` back, indexed by the edges of ``cbs.graph``.
Resource k owns the contiguous edges ``res_start[k]:res_start[k + 1]``, so
its update works on slices.  The user update runs once per column s of
``user_edges``: the product of R over the other columns, normalised, is
written to Q at column s.  Users with fewer edges than columns are padded
with the index E; row E is all ones in R and a write-only sink in Q.

A block is detected in frame slabs.  A resource's table takes 8 * M^{d_f}
bytes per frame, 8 MiB for 4096 frames at M = 4 and d_f = 4, so
``mpa_detect_batch`` splits the frames into the fewest near-equal slabs
whose largest table fits ``SLAB_BYTES`` and runs the tables, the sweeps and
the rescue on one slab at a time.  A 4096-frame block is 4 slabs of 1024
frames on 12x6 and one slab on 6x4; one 12x6 call's peak allocation falls
from ~65 to ~18 MiB.

A frame's beliefs do not depend on the call that holds it: frames never mix
in the tables, the sweeps or the rescue, and a 1-frame slab, whose einsum
would take another path and round differently, is detected as two copies of
its frame.

A sum term is lost or coarsely rounded only below the normal range
(``tiny`` ~2.2e-308), and arithmetic on such subnormal numbers is many times
slower than on normal ones.  A kernel product T * q_c * q_d of a table
entry with incoming messages goes subnormal long before T does, so the
linear table flushes every entry whose exponent is at or below
``FLUSH_FLOOR`` = log(tiny) / 2 (~-354.2) to exactly 0 and takes exp only of
the rest.  A kept entry is at least sqrt(tiny) ~1.5e-154, so its products
stay normal while the messages' product stays above sqrt(tiny).  Each
flushed entry was below sqrt(tiny), and the incoming messages are at most 1,
so flushing moves each of the M^{d_f - 1} terms of an unnormalised message
entry by less than sqrt(tiny).

Sum-product has one path: the linear kernel plus a rescue.  While every
unnormalised outgoing message peaks at or above ``RESCUE_FLOOR`` (1e-96),
each term lost to underflow or to the flush is at most ~1.5e-58 of the peak,
so even M^{d_f - 1} of them shift a normalised entry by less than 1e-55.
Where some message of a resource peaks below the floor, its messages are
recomputed on those frames in log arithmetic from log tables rebuilt for
them.

``map_detect_batch`` is the brute-force joint maximum-likelihood oracle used
to verify the message-passing detector on small systems.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import CodebookSet, superpositions

MAP_ENUMERATION_LIMIT = 2 ** 24

# rescue threshold on a message's peak; see the module docstring
RESCUE_FLOOR = 1e-96

# table exponents at or below this flush to 0 in the linear table, so every
# kept entry is at least sqrt(tiny); see the module docstring
FLUSH_FLOOR = 0.5 * float(np.log(np.finfo(float).tiny))

# bytes one resource's weight table may take per slab: the 2 MiB per-core L2
# cache of the machine the slab size was measured on; see the module docstring
SLAB_BYTES = 2 * 2 ** 20


@dataclass(frozen=True)
class MpaConfig:
    """Message-passing settings: the sweep count of sum-product, whose log
    rescue always runs (see the module docstring).  ``domain`` is inert: it
    is validated to "linear" or "log" but selects nothing, kept only because
    the benchmark passes it, and goes in a later benchmark-only change."""

    iterations: int = 10
    domain: str = "linear"

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.domain not in ("linear", "log"):
            raise ValueError(f"domain must be 'linear' or 'log', got {self.domain!r}")


def _normalize_rows(msg: np.ndarray) -> np.ndarray:
    """Scale each length-M vector (axis -2) of msg in place to sum 1; all-zero
    vectors fall back to uniform.  Returns msg."""
    total = msg.sum(axis=-2, keepdims=True)
    bad = total <= 0.0
    if bad.any():
        np.copyto(msg, 1.0, where=bad)
        total = msg.sum(axis=-2, keepdims=True)
    msg /= total
    return msg


def _log_weights(
    y_col: np.ndarray,
    contribs: list[np.ndarray],
    n0: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """(M, ..., M, frames) array of -|y - sum|^2 / n0, max-shifted per frame,
    written to ``out`` if given.

    Each entry of ``contribs`` is either (M,) for frame-constant gains or
    (M, frames); axis p of the result indexes the p-th colliding user.  The
    real and imaginary parts are built separately and in place, rounding
    exactly as the complex formula does: the sum ((c0 + c1) + ...), then
    (y - sum) squared per part, added, divided by -n0.  The real part's
    difference is written straight into the result, and the imaginary part's
    into one temporary: the sum itself where that already has the table's
    shape.  Each part is made contiguous before it broadcasts, which is
    faster than reading the strided part of a complex array.  Frames do not
    mix, so a table built on a subset of frames equals that slice of the full
    one."""
    d, frames, M = len(contribs), y_col.shape[0], contribs[0].shape[0]
    table_shape = (M,) * d + (frames,)
    A = np.empty(table_shape) if out is None else out
    for part in (np.real, np.imag):
        S = None
        for p, c in enumerate(contribs):
            shape = [1] * (1 + d)
            shape[p] = M
            if c.ndim == 2:
                shape[d] = frames
            c = np.ascontiguousarray(part(c)).reshape(shape)
            S = c if S is None else S + c
        if part is np.real:
            dst = A
        else:
            dst = S if d > 1 and S.shape == table_shape else None
        diff = np.subtract(
            np.ascontiguousarray(part(y_col)).reshape((1,) * d + (frames,)), S, out=dst
        )
        np.square(diff, out=diff)
    np.add(A, diff, out=A)
    np.divide(A, -n0, out=A)
    A -= A.max(axis=tuple(range(d)), keepdims=True)
    return A


def _flushed_exp(A: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(A), with every entry at or below ``FLUSH_FLOOR`` set to exactly 0
    instead of a subnormal or zero result; out may be A itself."""
    keep = A > FLUSH_FLOOR
    if keep.all():
        return np.exp(A, out=out)
    # np.exp is slow on inputs whose result underflows, and a masked
    # np.exp(where=) is slow on scattered masks, so the flushed entries are
    # zeroed after an unmasked exp of the clamped table, whose results are
    # all normal; the clamp also keeps -inf from turning NaN.  The product is
    # a call, not `out *= keep`, which measured ~0.4 MB more peak RSS on the
    # DE benchmark (numpy 2.4.6, cause unknown)
    out = np.maximum(A, FLUSH_FLOOR, out=out)
    np.exp(out, out=out)
    np.multiply(out, keep, out=out)
    return out


def _contract(T: np.ndarray, msgs: list[np.ndarray], axes: range) -> np.ndarray:
    """Sum T (slot axes, then frames) times msgs[a] over each slot axis a."""
    n = T.ndim - 1
    ops = [T, list(range(n + 1))]
    for a in axes:
        ops += [msgs[a], [a, n]]
    return np.einsum(*ops, [a for a in range(n + 1) if a not in axes])


def _log_contract(T: np.ndarray, msgs: list[np.ndarray], axes: range) -> np.ndarray:
    """``_contract`` in log arithmetic: add the log-message msgs[a] along
    each slot axis a of T in axis order, then log-sum-exp those axes."""
    n, B = T.ndim - 1, None
    for a in axes:
        m = np.expand_dims(msgs[a], [i for i in range(n) if i != a])
        B = T + m if B is None else np.add(B, m, out=B)
    return _logsumexp(B, axis=tuple(axes))


def _sum_product(
    T: np.ndarray, msgs: list[np.ndarray], contract: Callable = _contract
) -> list[np.ndarray]:
    """Unnormalised outgoing message of every slot of T: slot p's message
    contracts T with every other slot's incoming message.  Each half of the
    slots is contracted away once and shared by the other half's messages."""
    n = T.ndim - 1
    if n == 1:
        return [T]
    h = n // 2
    return (_sum_product(contract(T, msgs, range(h, n)), msgs[:h], contract)
            + _sum_product(contract(T, msgs, range(h)), msgs[h:], contract))


def _logsumexp(
    a: np.ndarray, axis: int | tuple[int, ...], keepdims: bool = False
) -> np.ndarray:
    """log(sum(exp(a))) over axis.

    The arithmetic is fixed so the rescue's bytes do not depend on an
    installed library: the m entries equal to the maximum a_max are split
    out of the sum s = sum exp(a - a_max) over the rest, which is divided by
    m where nonzero, and the result is log1p(s) + log(m) + a_max.  Where that
    is not finite, as on an all -inf reduction, it is log(sum(exp(a)))."""
    a_max = a.max(axis=axis, keepdims=True)
    is_max = a == a_max
    # a copy in a's memory layout, so the sums below add in the same order
    rest = a.copy(order="K")
    rest[is_max] = -np.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = is_max.sum(axis=axis, keepdims=True, dtype=a.dtype)
        rest -= a_max
        s = np.exp(rest, out=rest).sum(axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            direct = np.log(np.exp(a).sum(axis=axis, keepdims=True))
            out = np.where(bad, direct, out)
    return out if keepdims else out.squeeze(axis)


def _log_resource(logW: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Normalised outgoing messages of one resource in log arithmetic from its
    (M, ..., M, frames) log table and incoming (slots, M, frames) messages."""
    with np.errstate(divide="ignore"):
        logQ = np.log(Q)
    lr = np.stack(_sum_product(logW, list(logQ), _log_contract))
    return np.exp(lr - _logsumexp(lr, axis=1, keepdims=True))


def _edge_product(R: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(J, M, frames) product of the messages R[cols[:, t]] over the columns
    t of a (J, slots) edge-index array, taken in column order."""
    out = R[cols[:, 0]]
    for t in range(1, cols.shape[1]):
        out *= R[cols[:, t]]
    return out


def _check_inputs(
    y: np.ndarray, cbs: CodebookSet, h: np.ndarray | None, n0: float
) -> None:
    K, J = cbs.config.K, cbs.config.J
    if y.ndim != 2 or y.shape[1] != K:
        raise ValueError(f"y has shape {y.shape}, expected (frames, K) = (frames, {K})")
    if h is not None and np.shape(h) != (len(y), K, J):
        raise ValueError(f"h has shape {np.shape(h)}, expected {(len(y), K, J)}")
    if not (np.isfinite(n0) and n0 > 0.0):
        raise ValueError(f"n0 must be finite and positive, got {n0}")
    if not np.isfinite(y).all():
        raise ValueError("received signal contains non-finite values")
    if h is not None and not np.isfinite(h).all():
        raise ValueError("channel gains contain non-finite values")


def _slabs(frames: int, frame_bytes: int) -> list[slice]:
    """The fewest consecutive near-equal slices covering range(frames), each
    of at most max(1, SLAB_BYTES // frame_bytes) frames; one empty slice for
    0 frames."""
    n = max(1, -(-frames // max(1, SLAB_BYTES // frame_bytes)))
    bounds = [frames * i // n for i in range(n + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


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
    a probability vector over the M codewords.  A frame's beliefs do not
    depend on the call: detected alone or in any batch, it gives the same
    bytes (see the module docstring).
    """
    y = np.asarray(y, dtype=np.complex128)
    _check_inputs(y, cbs, h, n0)
    g, M = cbs.graph, cbs.config.M
    if not (g.row_degrees.all() and g.col_degrees.all()):
        raise ValueError("factor matrix has an isolated row or column")
    out = None
    for f in _slabs(y.shape[0], 8 * M ** int(g.row_degrees.max())):
        # a lone frame is detected as two copies of itself; see the module
        # docstring
        n = f.stop - f.start
        rows = [f.start] * 2 if n == 1 else f
        hf = None if h is None else h[rows]
        beliefs = _detect_slab(y[rows], cbs, hf, n0, cfg).transpose(2, 0, 1)[:n]
        if out is None:
            # allocated once the first slab's tables are freed, so a block of
            # one slab peaks no higher than its detection
            out = np.empty((y.shape[0], g.J, M))
        out[f] = beliefs
    return out


def _detect_slab(
    y: np.ndarray,
    cbs: CodebookSet,
    h: np.ndarray | None,
    n0: float,
    cfg: MpaConfig,
) -> np.ndarray:
    """(J, M, frames) beliefs of ``mpa_detect_batch`` on checked inputs."""
    books, g = cbs.books, cbs.graph
    M, frames, user_edges = cbs.config.M, y.shape[0], g.user_edges
    edges = [slice(g.res_start[k], g.res_start[k + 1]) for k in range(g.K)]

    def log_table(k: int, f: slice | np.ndarray = slice(None), out=None) -> np.ndarray:
        return _log_weights(y[f, k], [books[j, :, k] if h is None else
                                      h[f, k, j][None, :] * books[j, :, k][:, None]
                                      for j in g.resource_users(k)], n0, out)

    # one flushed linear weight table per resource, fixed across iterations
    # and built in place from its log table.  All of them share one buffer:
    # freeing a buffer this large raises glibc's mmap and trim thresholds
    # above what a call frees, so later calls reuse heap pages instead of
    # mapping fresh ones
    shapes = [(M,) * len(g.resource_users(k)) + (frames,) for k in range(g.K)]
    ends = np.cumsum([0] + [int(np.prod(s)) for s in shapes])
    buf = np.empty(ends[-1])
    tables = [log_table(k, out=buf[ends[k]:ends[k + 1]].reshape(shapes[k]))
              for k in range(g.K)]
    tables = [_flushed_exp(t, out=t) for t in tables]

    # user -> resource (Q) and resource -> user (R) messages per edge, uniform
    # to start; row E pads user_edges, all ones in R and a write-only sink in Q
    Q = np.full((g.edge_user.size + 1, M, frames), 1.0 / M)
    R = np.ones_like(Q)

    others = [np.delete(user_edges, s, axis=1) for s in range(user_edges.shape[1])]
    for _ in range(cfg.iterations):
        for k, e in enumerate(edges):
            raw = np.stack(_sum_product(tables[k], list(Q[e])), out=R[e])
            # frames to rescue, read before raw is normalised in place
            low = np.flatnonzero((raw.max(axis=1) < RESCUE_FLOOR).any(axis=0))
            _normalize_rows(raw)
            if len(low):
                R[e, :, low] = _log_resource(log_table(k, low), Q[e, :, low])
        for cols, rest in zip(user_edges.T, others):
            Q[cols] = _normalize_rows(_edge_product(R, rest))

    return _normalize_rows(_edge_product(R, user_edges))


def hard_decision(belief: np.ndarray) -> np.ndarray:
    """Per-user argmax over the last axis; ties resolve to the smaller
    index."""
    return np.argmax(np.asarray(belief), axis=-1)


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
