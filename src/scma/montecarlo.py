"""Symbol-error-rate estimation by simulating frames through the channel and
the message-passing detector.

One function, :func:`estimate_ser`, runs every estimate: :func:`sweep_ser`
calls it once per SNR point, and the DE objective once per evaluation.
Frames are processed in blocks of FRAME_BLOCK frames (the last one shorter
when the frame count is not a multiple) whose randomness is derived from
(master seed, stream, block index) alone, so common random numbers are
obtained by reusing a stream: two codebooks evaluated under the same (seed,
stream) see the same symbols, fading gains, and noise.  Blocks run in waves
of at most ``threads`` blocks on one worker pool, with no more workers than
blocks and no pool for one; results are reduced in block order, and the run
stops after the first block at which the running error count reaches the
error target, or at the frame count.  The stop point therefore does not
depend on the worker count, and neither does the estimate.  The default
error target, infinity, is never reached, so the run covers every frame.

An SER ``bound`` ends a run at the first frame where its errors over the
symbols asked, ``frames * J``, reach it: a bounded estimate is the shortest
prefix of the frame stream that reaches the bound.  A block is drawn whole
and detected one call at a time, on the next slab the detector's slab plan,
made once per estimate, cuts from its remaining frames, or on a bounded run
on at most ``FIRST_PIECE`` frames, then the frames its error rate so far
projects it needs.  It stops after the call that brings its errors plus
those before its wave to the bound, and the block-order reduction cuts the
detected frames' error flags there.  A frame's beliefs do not depend on the
call that holds it, so the calls and ``threads`` decide only how many frames
are detected, never the estimate, and a bound the run never reaches,
infinity (no bound) included, gives the unbounded estimate exactly.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

import numpy as np

from .channel import FRAME_BLOCK, block_rng, draw_frame_block, ebn0_to_n0
from .core import CodebookSet, _require_int
from .detector import MpaConfig, _slab_plan, hard_decision, mpa_detect_batch

DEFAULT_TARGET_ERRORS = 200
DEFAULT_MAX_FRAMES = 10 ** 6

# a bounded block's first piece, before its error rate can project the rest
FIRST_PIECE = 1024


@dataclass(frozen=True)
class SerEstimate:
    """Monte-Carlo symbol-error-rate with its seed provenance.  It stores
    what was counted: each user's symbol errors, and ``frames_by_errors``,
    the number of frames with 0, 1, ..., J symbol errors; the frame count,
    the totals and the rates are computed from those counts."""

    per_user_errors: tuple[int, ...]
    frames_by_errors: tuple[int, ...]
    seed: int
    ebn0_db: float
    channel: str

    @property
    def frames(self) -> int:
        return sum(self.frames_by_errors)

    @property
    def symbol_errors(self) -> int:
        return sum(self.per_user_errors)

    @property
    def symbols_sent(self) -> int:
        return self.frames * len(self.per_user_errors)

    @property
    def ser(self) -> float:
        return self.symbol_errors / self.symbols_sent

    @property
    def per_user_ser(self) -> tuple[float, ...]:
        return tuple(np.array(self.per_user_errors, np.int64) / self.frames)

    def to_dict(self) -> dict:
        return {
            "ebno_db": self.ebn0_db,
            "ser": self.ser,
            "errors": self.symbol_errors,
            "symbols": self.symbols_sent,
            "frames": self.frames,
            "per_user_ser": list(self.per_user_ser),
            "seed": self.seed,
            "channel": self.channel,
        }


def _next_piece(done: int, errors: int, need: int, left: int) -> int:
    """Frames of a bounded block's next piece, after ``done`` frames with
    ``errors`` errors, ``need`` errors short of the bound and ``left`` frames
    from the block's end; see the module docstring."""
    if done == 0:
        n = FIRST_PIECE
    elif errors * left <= need * done:
        n = left
    else:
        n = math.ceil(need * done / errors)
    return min(n, left)


def estimate_ser(
    cbs: CodebookSet,
    ebn0_db: float,
    channel: str,
    frames: int,
    mpa: MpaConfig = MpaConfig(),
    seed: int = 0,
    stream: int = 0,
    threads: int = 1,
    bound: float = math.inf,
    target_errors: float = math.inf,
) -> SerEstimate:
    """Simulate up to ``frames`` independent frames and count per-user symbol
    errors.  Identical (seed, stream, frames, config) always produce the
    identical estimate, at any ``threads``.  The run stops early at the end
    of the first block at which ``target_errors`` symbol errors are counted,
    or, with an SER ``bound``, at the first frame where its errors divided
    by ``frames * J`` reach it (see the module docstring); a stopped bounded
    estimate's SER is therefore at least ``bound``.  Infinity, the default of
    both, never stops a run."""
    _require_int(1, frames=frames, threads=threads)
    _require_int(0, seed=seed, stream=stream)
    if not bound >= 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    if not target_errors >= 1:
        raise ValueError(f"target_errors must be >= 1, got {target_errors}")
    n0, J = ebn0_to_n0(ebn0_db, cbs.config), cbs.config.J
    n_blocks = -(-frames // FRAME_BLOCK)
    # the fewest errors whose rate over the symbols asked reaches the bound
    asked = frames * J
    goal = math.inf
    if bound <= 1:
        goal = round(bound * asked)
        if goal / asked < bound:
            goal += 1
    stop = min(target_errors, goal)
    plan = _slab_plan(cbs, n0, channel != "awgn")

    def run_block(block: int, prior: int) -> np.ndarray:
        """(frames, J) symbol-error flags of the frames of one block that were
        detected, its wave having started with ``prior`` errors."""
        nb = min(FRAME_BLOCK, frames - block * FRAME_BLOCK)
        rng = block_rng(seed, stream, block)
        symbols, h, y = draw_frame_block(cbs, channel, n0, nb, rng)
        wrong = np.empty(symbols.shape, dtype=bool)
        done = found = 0
        while done < nb:
            n = next(plan.slabs(nb - done))[0].stop
            if goal < math.inf:
                n = min(n, _next_piece(done, found, goal - prior - found, nb - done))
            f = slice(done, done + n)
            hf = None if h is None else h[f]
            wrong[f] = hard_decision(mpa_detect_batch(y[f], cbs, hf, n0, mpa)) != symbols[f]
            found += int(wrong[f].sum())
            done += n
            if prior + found >= goal:
                break
        return wrong[:done]

    def in_block_order(run):
        for first in range(0, n_blocks, threads):
            wave = range(first, min(first + threads, n_blocks))
            # a wave starts once the previous one is reduced, so per_user
            # holds every earlier block; read the whole wave, so that a
            # failing block always raises
            yield from list(run(run_block, wave, repeat(int(per_user.sum()))))

    per_user = np.zeros(J, dtype=np.int64)
    by_errors = np.zeros(J + 1, dtype=np.int64)
    # no pool at 1 worker: its thread's malloc arena costs de-6x4-awgn 12-16 MB RSS
    workers = min(threads, n_blocks)
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for wrong in in_block_order(pool.map if pool else map):
            counts = wrong.sum(axis=1)
            # up to the first frame whose running error count reaches the goal
            end = np.searchsorted(np.cumsum(counts), goal - per_user.sum()) + 1
            per_user += wrong[:end].sum(axis=0)
            by_errors += np.bincount(counts[:end], minlength=J + 1)
            if per_user.sum() >= stop:
                break
    return SerEstimate(tuple(per_user.tolist()), tuple(by_errors.tolist()), seed,
                       float(ebn0_db), channel)


def sweep_ser(
    cbs: CodebookSet,
    ebno_list: Iterable[float],
    channel: str,
    mpa: MpaConfig = MpaConfig(),
    seed: int = 0,
    target_errors: float = DEFAULT_TARGET_ERRORS,
    max_frames: int = DEFAULT_MAX_FRAMES,
    threads: int = 1,
) -> list[SerEstimate]:
    """One :func:`estimate_ser` per SNR point: each point stops early once
    ``target_errors`` symbol errors are collected, capped at ``max_frames``
    frames; ``target_errors=math.inf`` runs every point for exactly
    ``max_frames`` frames.  All points share the same underlying random
    draws (paired comparison across SNR).  Every count must be at least 1,
    and every point must map to a noise variance, or ``ValueError`` is
    raised before any frame is simulated."""
    points = list(ebno_list)
    if not points:
        raise ValueError("ebno_list must not be empty")
    _require_int(1, max_frames=max_frames)
    for ebn0 in points:
        ebn0_to_n0(ebn0, cbs.config)
    return [
        estimate_ser(cbs, ebn0, channel, max_frames, mpa, seed, 0, threads,
                     target_errors=target_errors)
        for ebn0 in points
    ]
