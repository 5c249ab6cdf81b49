"""Multi-user detection on the factor graph.

``mpa_detect_batch`` runs sum-product message passing between resource nodes
and user nodes, exchanging length-M probability vectors stored frames last.
One recursion yields all d_f outgoing messages of a resource from its
M^{d_f}-entry weight table: it contracts the table with the incoming messages
of one half of the slots, recurses on the other half, then swaps the halves,
so it costs ~2 * M^{d_f} per frame instead of d_f * M^{d_f}; each
contraction is one ``np.einsum``.  The tables are built once per call, each
exponent shifted by its per-(frame, resource) maximum, which cancels in the
normalization and keeps the linear kernel alive at very small noise levels.
The K_d resources of one degree d_f keep theirs in one (M, ..., M, K_d,
frames) array, so one recursion serves the whole degree group; the resource
axis sits just before frames because a leading one made the einsums slower
at d_f = 3.

The messages live in one (E + 1, M, frames) array per direction, ``Q`` from
users to resources and ``R`` back, indexed by the edges of ``cbs.graph``,
which numbers them degree group by degree group.  So a group's messages are
(K_d, d_f, M, frames) views of Q and R, and its recursion's last einsums
write every outgoing message straight into R.  A sweep then tests each
group's message peaks for the rescue once, normalises all of R at once and
rescues the flagged resources one by one; resource updates read only Q, so
the order moves no byte.  The user update runs once per column s of
``user_edges``: the product of R over the other columns, normalised, is
written to Q at column s.  It opens every sweep but the first, since no
one reads the Q of the last sweep.  Users with fewer edges than columns are
padded with the index E; row E is all ones in R and a write-only sink in Q.

A block is detected in frame slabs.  One resource's table takes 8 * M^{d_f}
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
recomputed on those frames from log tables rebuilt for them, one outgoing
slot p at a time: the log table plus the other slots' log-messages, shifted
by its per-frame maximum, exponentiated and summed over the other slots.
The largest term is then exactly 1, so only terms below ``tiny`` are lost
or coarsely rounded, which moves a normalised entry by less than
M^{d_f - 1} * tiny.  The rescued messages are still linear probabilities,
stored and multiplied as such at the user node.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CodebookSet, _require_int

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
        _require_int(1, iterations=self.iterations)
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
    into one contiguous temporary: the sum itself where that already has the
    table's shape.  The sum of the parts, its scaling and its max shift run
    in that temporary, so a strided ``out``, such as one resource's slot of
    a degree group's tables, is written twice and read twice.  Each part is
    made contiguous before it broadcasts, which is faster than reading the
    strided part of a complex array.  Frames do not mix, so a table built on
    a subset of frames equals that slice of the full one."""
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
    np.add(diff, A, out=diff)
    np.divide(diff, -n0, out=diff)
    return np.subtract(diff, diff.max(axis=tuple(range(d)), keepdims=True), out=A)


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


def _contract(
    T: np.ndarray, msgs: list[np.ndarray], axes: list[int], out: np.ndarray | None = None
) -> np.ndarray:
    """Sum T (slot axes, then resources, then frames) times the (resources,
    M, frames) message msgs[a] over each slot axis a in axes: the partial
    table of the other slots, or, written to ``out``, the one slot's
    message."""
    n = T.ndim - 2
    ops = [T, list(range(n + 2))]
    for a in axes:
        ops += [msgs[a], [n, a, n + 1]]
    kept = [a for a in range(n) if a not in axes]
    return np.einsum(*ops, kept + [n, n + 1] if out is None else [n, *kept, n + 1], out=out)


def _sum_product(T: np.ndarray, msgs: list[np.ndarray], out: list[np.ndarray]) -> None:
    """Write to out[p] the unnormalised outgoing message of every slot p of
    the linear table T: T contracted with every other slot's incoming
    message.  Each half of the slots is contracted away once and shared by
    the other half's messages."""
    n = len(msgs)
    if n == 1:
        np.copyto(out[0], np.moveaxis(T, 0, 1))
        return
    h = n // 2
    for lo, hi in ((0, h), (h, n)):
        drop = [a for a in range(n) if not lo <= a < hi]
        if hi - lo == 1:
            _contract(T, msgs, drop, out[lo])
        else:
            _sum_product(_contract(T, msgs, drop), msgs[lo:hi], out[lo:hi])


def _log_resource(logW: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Normalised outgoing messages of one resource from its (M, ..., M,
    frames) log table and incoming (slots, M, frames) messages, each slot's
    summed after a per-frame max shift; see the module docstring."""
    n = Q.shape[0]
    with np.errstate(divide="ignore"):
        logQ = np.log(Q)
    out = np.empty_like(Q)
    for p in range(n):
        others = tuple(a for a in range(n) if a != p)
        B = logW
        for q in others:
            B = B + np.expand_dims(logQ[q], [a for a in range(n) if a != q])
        B = B - B.max(axis=tuple(range(n)), keepdims=True)
        out[p] = np.exp(B, out=B).sum(axis=others)
    return _normalize_rows(out)


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
    M, frames, user_edges, E = cbs.config.M, y.shape[0], g.user_edges, g.edge_user.size

    def log_table(k: int, f: slice | np.ndarray = slice(None), out=None) -> np.ndarray:
        return _log_weights(y[f, k], [books[j, :, k] if h is None else
                                      h[f, k, j][None, :] * books[j, :, k][:, None]
                                      for j in g.resource_users(k)], n0, out)

    # per degree d, its K_d resources' flushed linear weight tables in one
    # (M, ..., M, K_d, frames) array, fixed across iterations and built in
    # place from the log tables, and the group's contiguous edges.  A graph
    # of one degree holds all its tables in one buffer: freeing a buffer this
    # large raises glibc's mmap and trim thresholds above what a call frees,
    # so later calls reuse heap pages instead of mapping fresh ones
    groups = []
    for d in sorted(set(g.row_degrees.tolist())):
        ks = np.flatnonzero(g.row_degrees == d)
        T = np.empty((M,) * d + (ks.size, frames))
        for i, k in enumerate(ks):
            log_table(k, out=T[..., i, :])
        e = slice(g.res_start[ks[0]], g.res_start[ks[0]] + ks.size * d)
        groups.append((ks, e, _flushed_exp(T, out=T)))

    # user -> resource (Q) and resource -> user (R) messages per edge, uniform
    # to start; row E pads user_edges, all ones in R and a write-only sink in Q
    Q = np.full((E + 1, M, frames), 1.0 / M)
    R = np.ones_like(Q)

    others = [np.delete(user_edges, s, axis=1) for s in range(user_edges.shape[1])]
    for sweep in range(cfg.iterations):
        # the previous sweep's user update; the last sweep's Q would go unread
        if sweep:
            for cols, rest in zip(user_edges.T, others):
                Q[cols] = _normalize_rows(_edge_product(R, rest))
        rescue = []
        for ks, e, T in groups:
            # the group's (d, K_d, M, frames) messages, views of Q and R
            Qd, Rd = (m[e].reshape(ks.size, T.ndim - 2, M, frames).swapaxes(0, 1)
                      for m in (Q, R))
            _sum_product(T, list(Qd), list(Rd))
            # resources and frames to rescue, read before R is normalised
            low = (Rd.max(axis=2) < RESCUE_FLOOR).any(axis=0)
            if low.any():
                rescue += [(k, np.flatnonzero(f)) for k, f in zip(ks, low) if f.any()]
        _normalize_rows(R[:E])
        for k, f in rescue:
            e = g.resource_edges(k)
            R[e, :, f] = _log_resource(log_table(k, f), Q[e, :, f])

    return _normalize_rows(_edge_product(R, user_edges))


def hard_decision(belief: np.ndarray) -> np.ndarray:
    """Per-user argmax over the last axis; ties resolve to the smaller
    index."""
    return np.argmax(np.asarray(belief), axis=-1)
