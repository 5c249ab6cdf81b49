"""Multi-user detection on the factor graph.

``mpa_detect_batch`` runs sum-product message passing between resource nodes
and user nodes, exchanging length-M probability vectors stored frames last.
One recursion yields all d_f outgoing messages of a resource from its
M^{d_f}-entry weight table: it contracts the table with the incoming messages
of one half of the slots, recurses on the other half, then swaps the halves,
so it costs ~2 * M^{d_f} per frame instead of d_f * M^{d_f}.  The tables
are built once per call, each squared distance shifted by its per-(frame,
resource) minimum before the division by -n0, which cancels in the
normalization and keeps the linear kernel alive at very small noise levels,
even where the other exponents overflow to -inf.
The K_d resources of one degree d_f keep theirs in one (M, ..., M, K_d,
frames) array, so one recursion serves the whole degree group; the resource
axis sits just before frames because a leading one made the einsums slower
at d_f = 3.

The messages live in an (E, M, frames) array ``Q`` from users to resources
and an (E + 1, M, frames) ``R`` back, indexed by the edges of ``cbs.graph``,
which numbers them degree group by degree group.  So a group's messages are
(K_d, d_f, M, frames) views of Q and R, and its recursion's last einsums
write every outgoing message straight into R.  A sweep then tests each
group's message peaks for the rescue once, normalises all of R at once and
rescues the flagged resources one by one; resource updates read only Q, so
the order moves no byte.  The user update opens every sweep: the product of
R over each edge's ``partners``, its user's other edges, is written into Q
and normalised there.  R starts all ones, so the first one sets Q to exactly
1/M, M being a power of two.  Users with fewer edges than ``user_edges`` has
columns are padded with the index E, and R's row E is all ones.

A block is detected in frame slabs, each holding its Q, R and tables, or on
the factored AWGN path its per-edge arrays, as views of one buffer.
``_slab_plan`` gives a (codebook, n0, channel)'s table kind, buffer parts
and ``capacity``, the most frames whose buffer fits ``SLAB_BYTES`` (6 MiB).
Its one rule cuts any frame count into the fewest near-equal slabs of at
most ``capacity`` frames, larger first: smaller first, ``ser-12x6-rayleigh``
peaked at 71.3 MB RSS, not 62.5 (2-core VM).  ``mpa_detect_batch`` and the
Monte-Carlo block worker detect one slab at a time.  That bounds memory, not
cache fit: einsum took 0.53-0.70 ns per term at 64 to 2,048 frames per slab,
but at 4 MiB, 3 slabs per 6x4 block, a 2-worker 6x4 estimate ran 1.16-1.21x
slower.  Q and R are set only after the table build, and a pad after R tops
their piece up to one table of the largest degree, so every table is built
there and copied into its slot.  The beliefs are allocated before the first
slab, so each slab's buffer takes the memory its predecessor freed.  Freeing
the buffer, once mmapped, lifts glibc's trim threshold to twice its size,
above what a block frees at the heap top, so later blocks reuse its pages: 0
minor faults per 4-block estimate, 12x6 Rayleigh included, whose block holds
only its (frames, E) edge gains and one slab's beliefs at a time.

A frame's beliefs do not depend on the call that holds it: frames never mix
in the tables, the sweeps or the rescue, and a 1-frame slab, whose einsum
would take another path and round differently, is detected as two copies of
its frame.  The AWGN path's matmul hands frames to BLAS as the columns of
one product; a column's entries are sums over the M rows of one frame, and
the kernels round them the same way at any column count from 2 up.

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

On AWGN the tables factor.  With u_p[m] = 2 Re(conj(y) s_p[m]) / n0 for the
codeword entries s_p of slot p, -|y - S[m]|^2 / n0 = -|y|^2 / n0 +
sum_p u_p[m_p] - |S[m]|^2 / n0, and |y|^2 cancels in the normalization.  So
each edge keeps A_p = exp(u_p - max u_p), (M, frames), and each resource one
frame-free table B[m] = exp(-(|S[m]|^2 - min |S|^2) / n0) and a per-frame
scale c = exp((|S[m*]|^2 - min |S|^2) / n0), m* the per-slot argmax of u.
The message to slot p is c A_p times the sum of B[m] prod_{j != p} (A_j
q_j)[m_j]: a sweep multiplies Q by A into a buffer, runs the recursion on B,
and multiplies R by A c.  The slab's table kind marks B as frame-free, so
the sweep hands ``_contract`` a matmul buffer, and it takes the last
dropped slot of each half as one batched ``np.matmul`` over the group's
resources.  Before the flush, A_1 ... A_d B c is the max-shifted
table times e^delta per (resource, frame), where delta >= 0 because the
per-slot maxima bound the joint one; and it is at most e^spread, a
resource's spread being (max - min |S|^2) / n0.  Each A_p flushes at
``FLUSH_FLOOR`` minus its resource's spread: a flushed entry gives terms
below sqrt(tiny) after the scale, as a flushed table entry does, and the
max-shifted table entry of each such term is at most sqrt(tiny) e^-delta,
so it is flushed on the table path too.  Each factored message is
therefore at least the table path's message times e^delta >= 1, up to
rounding: the rescue test below fires no more often, and its bound holds as
stated.

The factored path needs products formed before the scale to stay normal.
A term the bound keeps, at least sqrt(tiny) after the scale, is at least
sqrt(tiny) e^-spread before it, which is normal while spread < -log(tiny) /
2 ~ 354.2 nats; and a term lost to underflow before the scale is below
tiny e^spread after it, under the sqrt(tiny) the flush loses.  So the path
runs only while every resource's spread is at most ``FACTOR_MAX_SPREAD`` =
320, which leaves e^34 ~ 6e14 of headroom; kept A entries are then at least
e^-674, still normal.  It admits ``table2_awgn_6x4`` to 15 dB (284 nats)
and ``table5_awgn_12x6`` to 12 dB (279 nats), the paper's design point.
Above it, or with fading gains, whose cross terms are per frame, the call
uses the tables above.  The spread depends only on (codebook, n0), so a
frame's beliefs still do not depend on the call; it is tested as
max - min of |S|^2 against FACTOR_MAX_SPREAD * n0, which cannot overflow at
a subnormal n0.

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
M^{d_f - 1} * tiny; a slot whose every term is -inf falls back to uniform.
The rescued messages are still linear probabilities, stored and multiplied
as such at the user node.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .core import CodebookSet, _require_int, superpositions

# rescue threshold on a message's peak; see the module docstring
RESCUE_FLOOR = 1e-96

# table exponents at or below this flush to 0 in the linear table, so every
# kept entry is at least sqrt(tiny); see the module docstring
FLUSH_FLOOR = 0.5 * float(np.log(np.finfo(float).tiny))

# the AWGN tables stay factored while no resource's spread, (max - min of
# |S|^2 over its hypotheses) / n0, exceeds this many nats; see the module
# docstring
FACTOR_MAX_SPREAD = 320.0

# bytes a slab's parts may take (Q, R and its tables or per-edge arrays), not counting their
# cache-line padding; a bound on memory, not a cache size; see the module docstring
SLAB_BYTES = 6 * 2 ** 20


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


def _log_weights(y_col: np.ndarray, contribs: list[np.ndarray], n0: float,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """(M, ..., M, frames) array of -|y - sum|^2 / n0, shifted per frame to
    a largest entry of 0: ``scratch``, a float array of that shape, if given.

    Each entry of ``contribs`` is either (M,) for frame-constant gains or
    (M, frames); axis p of the result indexes the p-th colliding user.  The
    real and imaginary parts are built separately and in place, rounding
    exactly as the complex formula does: the sum ((c0 + c1) + ...), then
    (y - sum) squared per part, added, less its per-frame minimum, divided
    by -n0.  The shift comes before the division, so the nearest hypothesis
    scores exactly 0 even where the others overflow to -inf at a subnormal
    n0.  The real part's last add (its difference if d = 1) writes into
    ``scratch``, broadcast to the table's shape; the imaginary part's
    difference is written into its own sum where that already has the
    table's shape, and the rest runs in place in the real part's.  Each part
    is made contiguous before it broadcasts, which is faster than reading
    the strided part of a complex array.  Frames do not mix, so a table
    built on a subset of frames equals that slice of the full one."""
    d, frames, M = len(contribs), y_col.shape[0], contribs[0].shape[0]
    diffs = []
    for part, dst in ((np.real, scratch), (np.imag, None)):
        S = None
        for p, c in enumerate(contribs):
            shape = [1] * d + [frames if c.ndim == 2 else 1]
            shape[p] = M
            c = np.ascontiguousarray(part(c)).reshape(shape)
            S = c if S is None else np.add(S, c, out=dst if p == d - 1 else None)
        if dst is None and d > 1 and S.size == M ** d * frames:
            dst = S
        diff = np.subtract(np.ascontiguousarray(part(y_col)).reshape((1,) * d + (frames,)), S,
                           out=dst)
        diffs.append(np.square(diff, out=diff))
    A = np.add(*diffs, out=diffs[0])
    A -= A.min(axis=tuple(range(d)), keepdims=True)
    with np.errstate(over="ignore"):
        return np.divide(A, -n0, out=A)


def _flushed_exp(
    A: np.ndarray, out: np.ndarray | None = None, floor: float | np.ndarray = FLUSH_FLOOR
) -> np.ndarray:
    """exp(A), with every entry at or below ``floor`` (``FLUSH_FLOOR``, or an
    array that broadcasts against A and is no lower than log(tiny)) set to
    exactly 0 instead of a subnormal or zero result; out may be A itself."""
    keep = A > floor
    if keep.all():
        return np.exp(A, out=out)
    # np.exp is slow on inputs whose result underflows, and a masked
    # np.exp(where=) is slow on scattered masks, so the flushed entries are
    # zeroed after an unmasked exp of the clamped table, whose results are
    # all normal; the clamp also keeps -inf from turning NaN.  The product is
    # a call, not `out *= keep`, which measured ~0.4 MB more peak RSS on the
    # DE benchmark (numpy 2.4.6, cause unknown)
    out = np.maximum(A, floor, out=out)
    np.exp(out, out=out)
    np.multiply(out, keep, out=out)
    return out


def _contract(
    T: np.ndarray, msgs: list[np.ndarray], axes: list[int], out: np.ndarray | None = None,
    buf: np.ndarray | None = None,
) -> np.ndarray:
    """Sum T (slot axes, then resources, then frames) times the (resources,
    M, frames) message msgs[a] over each slot axis a in axes: the partial
    table of the other slots, or, written to ``out``, the one slot's
    message.  Given a flat matmul buffer ``buf``, T is frame-free (its frame
    axis has length 1) and first takes axes[-1] as one batched ``np.matmul``
    into ``buf``'s front, the partial table if no axis is left."""
    n = T.ndim - 2
    if buf is not None:
        a, (K, M, frames) = axes[-1], msgs[axes[-1]].shape
        # a transposed view: np.moveaxis costs measurably more per call
        T = T[..., 0].transpose([n, *(b for b in range(n) if b != a), a]).reshape(K, -1, M)
        T = np.matmul(T, msgs[a], out=buf[:T.size // M * frames].reshape(K, -1, frames))
        n, msgs, axes = n - 1, msgs[:a] + msgs[a + 1:], axes[:-1]
        T = T.reshape(K, *(M,) * n, frames).transpose([*range(1, n + 1), 0, n + 1])
        if not axes and out is None:
            return T
    ops = [T, list(range(n + 2))]
    for a in axes:
        ops += [msgs[a], [n, a, n + 1]]
    kept = [a for a in range(n) if a not in axes]
    return np.einsum(*ops, kept + [n, n + 1] if out is None else [n, *kept, n + 1], out=out)


def _sum_product(
    T: np.ndarray, msgs: list[np.ndarray], out: list[np.ndarray], buf: np.ndarray | None = None
) -> None:
    """Write to out[p] the unnormalised outgoing message of every slot p of
    the linear table T: T contracted with every other slot's incoming
    message.  Each half of the slots is contracted away once and shared by
    the other half's messages; ``buf``, for a frame-free T, is ``_contract``'s."""
    n = len(msgs)
    if n == 1:
        np.copyto(out[0], np.moveaxis(T, 0, 1))
        return
    h = n // 2
    for lo, hi in ((0, h), (h, n)):
        drop = [a for a in range(n) if not lo <= a < hi]
        if hi - lo == 1:
            _contract(T, msgs, drop, out[lo], buf)
        else:
            _sum_product(_contract(T, msgs, drop, buf=buf), msgs[lo:hi], out[lo:hi])


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
        # the clamp keeps a slot whose every term is -inf at -inf, not NaN
        B = B - np.maximum(B.max(axis=tuple(range(n)), keepdims=True), np.finfo(float).min)
        out[p] = np.exp(B, out=B).sum(axis=others)
    return _normalize_rows(out)


def _edge_product(R: np.ndarray, cols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(rows, M, frames) product of R[cols[:, t]] over the columns t of an edge-index array,
    in column order, into ``out`` if given: mode "clip" fills it directly, "raise" via a copy."""
    out = np.take(R, cols[:, 0], axis=0, out=out, mode="clip")
    for t in range(1, cols.shape[1]):
        out *= R[cols[:, t]]
    return out


def _check_inputs(
    y: np.ndarray, cbs: CodebookSet, h: np.ndarray | None, n0: float
) -> None:
    K, E = cbs.config.K, cbs.graph.edge_user.size
    if y.ndim != 2 or y.shape[1] != K:
        raise ValueError(f"y has shape {y.shape}, expected (frames, K) = (frames, {K})")
    if h is not None and np.shape(h) != (len(y), E):
        raise ValueError(f"h has shape {np.shape(h)}, expected (frames, E) = {(len(y), E)}")
    if not (np.isfinite(n0) and n0 > 0.0):
        raise ValueError(f"n0 must be finite and positive, got {n0}")
    if not np.isfinite(y).all():
        raise ValueError("received signal contains non-finite values")
    if h is not None and not np.isfinite(h).all():
        raise ValueError("channel gains contain non-finite values")


def _awgn_tables(cbs: CodebookSet, n0: float) -> list[tuple] | None:
    """Per degree group of ``cbs.graph``, the frame-free part of its AWGN
    tables, or None if some resource's spread exceeds ``FACTOR_MAX_SPREAD``.

    A group's entry is (D, B): D is the (K_d, M^d) array of
    (|S[m]|^2 - min |S|^2) / n0 over each resource's hypotheses m, and B is
    exp(-D) in the per-frame tables' layout with a length-1 frame axis, an
    (M, ..., M, K_d, 1) view.  The guard compares max - min of |S|^2 with
    FACTOR_MAX_SPREAD * n0, which cannot overflow."""
    g, M = cbs.graph, cbs.config.M
    out = []
    for d, ks, e in g.groups:
        # users[p, i] sits in slot p of the group's i-th resource
        users = g.edge_user[e].reshape(ks.size, d).T
        S = superpositions(cbs.books[users, :, ks].transpose(0, 2, 1)).T
        norm2 = S.real * S.real + S.imag * S.imag
        lo = norm2.min(axis=1, keepdims=True)
        if (norm2.max(axis=1, keepdims=True) - lo > FACTOR_MAX_SPREAD * n0).any():
            return None
        D = np.divide(norm2 - lo, n0)
        B = np.exp(-D).reshape((ks.size,) + (M,) * d)
        out.append((D, B.transpose([*range(1, d + 1), 0])[..., None]))
    return out


def _awgn_edges(y: np.ndarray, cbs: CodebookSet, n0: float, awgn: list[tuple], A: np.ndarray,
                Ac: np.ndarray) -> None:
    """Fill one slab's (E, M, frames) A and Ac on the factored AWGN path: A
    is exp(u - max u) per edge, with u = 2 Re(conj(y) s) / n0 formed as 2 (v
    - max v) / n0 from v = Re(conj(y) s), flushed at ``FLUSH_FLOOR`` minus
    its resource's spread.  Ac is A times its resource's per-frame scale
    exp(D[m*]), m* the per-slot argmax of v; see the module docstring."""
    g, M, frames = cbs.graph, cbs.config.M, y.shape[0]
    s = cbs.books[g.edge_user, :, g.edge_res][:, :, None]
    yt = y[:, g.edge_res].T[:, None, :]
    np.multiply(np.ascontiguousarray(s.real), np.ascontiguousarray(yt.real), out=A)
    A += np.multiply(np.ascontiguousarray(s.imag), np.ascontiguousarray(yt.imag), out=Ac)
    best = A.argmax(axis=1)
    A -= A.max(axis=1, keepdims=True)
    A *= 2.0
    with np.errstate(over="ignore"):
        A /= n0
    for (d, ks, e), (D, _) in zip(g.groups, awgn):
        Ae = A[e].reshape(ks.size, d, M, frames)
        _flushed_exp(Ae, out=Ae, floor=(FLUSH_FLOOR - D.max(axis=1))[:, None, None, None])
        m = best[e].reshape(ks.size, d, frames)
        flat = m[:, 0]
        for p in range(1, d):
            flat = flat * M + m[:, p]
        scale = np.exp(np.take_along_axis(D, flat, axis=1))
        np.multiply(Ae, scale[:, None, None, :], out=Ac[e].reshape(ks.size, d, M, frames))


class _SlabPlan(NamedTuple):
    """A slab plan: ``awgn``, ``_awgn_tables``'s tables or None; ``shapes``,
    the parts of a slab's one buffer without their frame axis, Q, R, a pad
    that tops their piece up to one table of the largest degree, and each
    degree group's tables, or on the factored path A, Ac, the messages times
    A and the matmul output; ``capacity``, a slab's most frames."""

    awgn: list[tuple] | None
    shapes: list[tuple[int, ...]]
    capacity: int

    def slabs(self, frames: int) -> Iterator[tuple[slice, slice | list[int]]]:
        """(output slice, rows) of the fewest consecutive near-equal slabs of
        at most ``capacity`` frames covering range(frames), larger ones first,
        a lone frame's rows being two copies of it; one empty slab for 0."""
        n = max(1, -(-frames // self.capacity))
        bounds = [i * (frames // n) + min(i, frames % n) for i in range(n + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            yield slice(lo, hi), [lo] * 2 if hi == lo + 1 else slice(lo, hi)


def _slab_plan(cbs: CodebookSet, n0: float, fading: bool) -> _SlabPlan:
    """The slab plan of a call at n0, with or without fading."""
    g, M, E = cbs.graph, cbs.config.M, cbs.graph.edge_user.size
    awgn = None if fading else _awgn_tables(cbs, n0)
    pad = max(0, M ** g.groups[-1][0] - (2 * E + 1) * M)
    shapes = [(E, M), (E + 1, M)] + ([(E, M)] * 3 + [(max(D.size // M for D, _ in awgn),)] if awgn
                                     else [(pad,)] + [(M,) * d + k.shape for d, k, _ in g.groups])
    return _SlabPlan(awgn, shapes, max(1, SLAB_BYTES // (8 * sum(map(math.prod, shapes)))))


def mpa_detect_batch(
    y: np.ndarray,
    cbs: CodebookSet,
    h: np.ndarray | None,
    n0: float,
    cfg: MpaConfig = MpaConfig(),
) -> np.ndarray:
    """Sum-product detection of a batch of frames.

    y is (frames, K); h is (frames, E) complex gains on the edges of
    ``cbs.graph``, in edge order, or None for all-ones (AWGN) gains.
    Returns beliefs of shape (frames, J, M): per frame and user a
    probability vector over the M codewords.  A frame's beliefs do not
    depend on the call: detected alone or in any batch, it gives the same
    bytes (see the module docstring).
    """
    y = np.asarray(y, dtype=np.complex128)
    h = None if h is None else np.asarray(h, dtype=np.complex128)
    _check_inputs(y, cbs, h, n0)
    g, M = cbs.graph, cbs.config.M
    if not (g.row_degrees.all() and g.col_degrees.all()):
        raise ValueError("factor matrix has an isolated row or column")
    if not y.shape[0]:
        return np.empty((0, cbs.config.J, M))
    plan = _slab_plan(cbs, n0, h is not None)
    # before the first slab, so each slab's buffer takes the memory its
    # predecessor freed; see the module docstring
    out = np.empty((y.shape[0], cbs.config.J, M))
    for f, rows in plan.slabs(y.shape[0]):
        slab = _Slab(y[rows], cbs, None if h is None else h[rows], n0, plan)
        for _ in range(cfg.iterations):
            slab.sweep()
        out[f] = slab.beliefs().transpose(2, 0, 1)[:f.stop - f.start]
        # freed before the next slab is carved, so one buffer is held at a time
        del slab
    return out


class _Slab:
    """One slab of ``mpa_detect_batch``: its y and h, ``frames``, its table
    kind ``awgn`` (the plan's frame-free tables, or None for per-frame ones)
    and its views into one buffer of the plan's parts, which the build fills."""

    def __init__(self, y: np.ndarray, cbs: CodebookSet, h: np.ndarray | None, n0: float,
                 plan: _SlabPlan) -> None:
        self.y, self.cbs, self.h, self.n0, self.awgn = y, cbs, h, n0, plan.awgn
        M, self.frames, self.buf = cbs.config.M, y.shape[0], None
        # each part starts on a 64-byte line (8 doubles): the first line of a buffer one line
        # longer than the parts, each of them rounded up to whole lines
        sizes = [math.prod(s) * self.frames for s in plan.shapes]
        lines = [-(-n // 8) * 8 for n in sizes]
        mem = np.empty(sum(lines) + 8)
        at = np.cumsum([-mem.ctypes.data % 64 // 8] + lines)
        self.Q, self.R, *parts = (mem[i:i + n].reshape(s + (self.frames,))
                                  for i, n, s in zip(at, sizes, plan.shapes))
        # per degree group, its K_d resources' flushed linear weight tables in one (M, ..., M,
        # K_d, frames) array, fixed across iterations: each log table is built in the piece of
        # Q, R and the pad, copied into its slot, then the array is flushed in place; on the
        # factored AWGN path, ``awgn``'s tables and ``_awgn_edges``'s arrays
        if self.awgn is None:
            self.tables, flat = [], mem[at[0]:at[3]]
            for (d, ks, _), T in zip(cbs.graph.groups, parts[1:]):
                scratch = flat[:M ** d * self.frames].reshape(T.shape[:d] + (self.frames,))
                for j, k in enumerate(ks):
                    T[..., j, :] = self.log_table(k, scratch=scratch)
                self.tables.append(_flushed_exp(T, out=T))
        else:
            self.tables = [B for _, B in self.awgn]
            (self.A, self.Ac, self.P), self.buf = parts[:3], parts[3].reshape(-1)
            _awgn_edges(y, cbs, n0, self.awgn, self.A, self.Ac)
        # all ones, row E (the partners' padding) included, so the first sweep's Q is 1/M
        self.R.fill(1.0)

    def log_table(self, k: int, f: slice | np.ndarray = slice(None), scratch=None) -> np.ndarray:
        """Resource k's log table on frames f, for the build and the rescue."""
        b, h, e = self.cbs.books[:, :, k], self.h, self.cbs.graph.resource_edges(k)
        return _log_weights(self.y[f, k], [b[j] if h is None else h[f, i] * b[j, :, None]
                                           for i, j in enumerate(self.cbs.graph.edge_user[e],
                                                                 e.start)], self.n0, scratch)

    def sweep(self) -> None:
        """The user update, the resource updates, R's normalisation and the rescue."""
        g, M, frames, Q, R = self.cbs.graph, self.cbs.config.M, self.frames, self.Q, self.R
        _normalize_rows(_edge_product(R, g.partners, out=Q))
        if self.awgn is not None:
            np.multiply(Q, self.A, out=self.P)
        rescue = []
        for (_, ks, e), T in zip(g.groups, self.tables):
            # the group's (d, K_d, M, frames) messages, views of R and of Q, or
            # on the factored path of P = Q A
            Qd, Rd = (m[e].reshape(ks.size, -1, M, frames).swapaxes(0, 1)
                      for m in (Q if self.awgn is None else self.P, R))
            _sum_product(T, list(Qd), list(Rd), self.buf)
            if self.awgn is not None:
                R[e] *= self.Ac[e]
            # resources and frames to rescue, read before R is normalised
            low = (Rd.max(axis=2) < RESCUE_FLOOR).any(axis=0)
            if low.any():
                rescue += [(k, np.flatnonzero(f)) for k, f in zip(ks, low) if f.any()]
        _normalize_rows(R[:-1])
        for k, f in rescue:
            e = g.resource_edges(k)
            R[e, :, f] = _log_resource(self.log_table(k, f), Q[e, :, f])

    def beliefs(self) -> np.ndarray:
        """The (J, M, frames) beliefs of the last sweep."""
        return _normalize_rows(_edge_product(self.R, self.cbs.graph.user_edges))


def hard_decision(belief: np.ndarray) -> np.ndarray:
    """Per-user argmax over the last axis; ties resolve to the smaller
    index."""
    return np.argmax(np.asarray(belief), axis=-1)
