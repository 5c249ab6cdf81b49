"""Symbol-error-rate estimation by simulating frames through the channel and
the message-passing detector.

One loop serves every estimate.  Frames are processed in blocks of
FRAME_BLOCK frames (the last one shorter when the frame cap is not a
multiple) whose randomness is derived from (master seed, stream, block index)
alone, so common random numbers are obtained by reusing a stream: two
codebooks evaluated under the same (seed, stream) see the same symbols,
fading gains, and noise.  Blocks run in waves of at most ``threads`` blocks
on one worker pool; results are reduced in block order, and the loop stops
after the first block at which the running error count reaches the error
target, or at the frame cap.  The stop point therefore does not depend on
the worker count, and neither does the estimate.  A fixed frame count is the
same loop with an error target that is never reached.

An SER ``bound`` lets a run stop inside a block, once its errors over the
symbols asked, ``frames * J``, reach it.  A bounded block is drawn whole and
detected in consecutive pieces: ``FIRST_PIECE`` frames, then the frames its
error rate so far projects it needs to reach the bound, rounded up to a
multiple of ``PIECE_STEP``, or the rest of the block once the projection
reaches its end.  The block stops at the end of the first piece where its
errors plus those counted before its wave reach the bound.  A frame's
beliefs do not depend on the detector call, so a bound the run never
reaches, infinity (no bound) included, gives the unbounded estimate exactly.
Whether a run stops depends only on its full error count, so not on
``threads``; its frame count when it stops may, because the blocks of a wave
all start from the count before the wave.  Unbounded runs detect each block
in one call.
"""
from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .channel import FRAME_BLOCK, block_rng, draw_frame_block, ebn0_to_n0
from .core import CodebookSet
from .detector import MpaConfig, hard_decision, mpa_detect_batch

DEFAULT_TARGET_ERRORS = 200
DEFAULT_MAX_FRAMES = 10 ** 6

# a bounded block's first piece, and the multiple its later pieces round up
# to: detector calls below ~512 frames lose throughput to fixed costs
FIRST_PIECE = 1024
PIECE_STEP = 256


@dataclass(frozen=True)
class SerEstimate:
    """Monte-Carlo symbol-error-rate with its raw counts and seed
    provenance."""

    ser: float
    symbol_errors: int
    symbols_sent: int
    per_user_ser: tuple[float, ...]
    seed: int
    ebn0_db: float
    frames: int
    channel: str

    @property
    def ci95(self) -> tuple[float, float]:
        """Exact (Clopper-Pearson) 95% interval on the symbol-error rate,
        from the beta quantiles of ``symbol_errors`` out of ``symbols_sent``.

        It treats every detected symbol as an independent trial.  The J
        symbols of a frame share its noise and fading draw, and the detector
        decides them jointly, so errors cluster within frames and this
        interval can be narrower than the true one.  Zero errors give a
        positive upper bound and all errors a lower bound below 1."""
        # scipy is imported here, not at module level: it would otherwise
        # double the package's import time, and nothing else needs it
        from scipy.special import betaincinv

        x, n = self.symbol_errors, self.symbols_sent
        lo = betaincinv(x, n - x + 1, 0.025) if x > 0 else 0.0
        hi = betaincinv(x + 1, n - x, 0.975) if x < n else 1.0
        return (float(lo), float(hi))

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


def _require_int(low: int, **values: int) -> None:
    """Each value an integer (numpy integers included) of at least ``low``."""
    for name, value in values.items():
        if not (isinstance(value, numbers.Integral) and value >= low):
            raise ValueError(f"{name} must be an integer >= {low}, got {value}")


def _next_piece(done: int, errors: int, need: int, left: int) -> int:
    """Frames of a bounded block's next piece, after ``done`` frames with
    ``errors`` errors, ``need`` errors short of the bound and ``left`` frames
    from the block's end; see the module docstring."""
    if done == 0:
        n = FIRST_PIECE
    elif errors * left <= need * done:
        n = left
    else:
        n = -(-math.ceil(need * done / errors) // PIECE_STEP) * PIECE_STEP
    return min(n, left)


def _simulate(
    cbs: CodebookSet,
    ebn0_db: float,
    n0: float,
    channel: str,
    max_frames: int,
    target_errors: float,
    mpa: MpaConfig,
    seed: int,
    stream: int,
    threads: int,
    bound: float = math.inf,
) -> SerEstimate:
    """Run blocks of at most FRAME_BLOCK frames until ``target_errors``
    symbol errors are counted at a block's end, an SER of ``bound`` over the
    frames asked at a piece's end, or ``max_frames`` frames are simulated."""
    n_blocks = -(-max_frames // FRAME_BLOCK)
    # the fewest errors whose rate over the symbols asked reaches the bound
    asked = max_frames * cbs.config.J
    goal = math.inf
    if bound <= 1:
        goal = max(0, round(bound * asked))
        if goal / asked < bound:
            goal += 1
    stop = min(target_errors, goal)

    def run_block(block: int, prior: int) -> tuple[np.ndarray, int]:
        """Per-user errors and frames detected of one block, whose wave
        started with ``prior`` errors."""
        nb = min(FRAME_BLOCK, max_frames - block * FRAME_BLOCK)
        rng = block_rng(seed, stream, block)
        symbols, h, y = draw_frame_block(cbs, channel, n0, nb, rng)
        errs = np.zeros(cbs.config.J, dtype=np.int64)
        done = 0
        while done < nb:
            found = int(errs.sum())
            n = nb if goal == math.inf else _next_piece(
                done, found, goal - prior - found, nb - done)
            f = slice(done, done + n)
            hf = None if h is None else h[f]
            decided = hard_decision(mpa_detect_batch(y[f], cbs, hf, n0, mpa))
            errs += (decided != symbols[f]).sum(axis=0)
            done += n
            if prior + errs.sum() >= goal:
                break
        return errs, done

    def in_block_order(run):
        for first in range(0, n_blocks, threads):
            wave = range(first, min(first + threads, n_blocks))
            # a wave starts once the previous one is reduced, so per_user
            # holds every earlier block; read the whole wave, so that a
            # failing block always raises
            yield from list(run(run_block, wave, repeat(int(per_user.sum()))))

    per_user = np.zeros(cbs.config.J, dtype=np.int64)
    frames = 0
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        for user_errs, done in in_block_order(pool.map if pool else map):
            per_user += user_errs
            frames += done
            if per_user.sum() >= stop:
                break
    errors = int(per_user.sum())
    sent = frames * cbs.config.J
    return SerEstimate(
        ser=errors / sent,
        symbol_errors=errors,
        symbols_sent=sent,
        per_user_ser=tuple(per_user / frames),
        seed=seed,
        ebn0_db=float(ebn0_db),
        frames=frames,
        channel=channel,
    )


def estimate_ser(
    cbs: CodebookSet,
    ebn0_db: float,
    channel: str,
    frames: int,
    mpa: MpaConfig = MpaConfig(),
    seed: int = 0,
    stream: int = 0,
    threads: int = 1,
    bound: float | None = math.inf,
) -> SerEstimate:
    """Simulate ``frames`` independent frames and count per-user symbol
    errors.  Identical (seed, stream, frames, config) always produce the
    identical estimate.  With an SER ``bound`` the run may stop early, at the
    end of the first detector piece where its errors divided by ``frames * J``
    reach it (see the module docstring); the estimate then covers the frames
    detected, and its SER is at least ``bound``.  Infinity or None: no bound."""
    _require_int(1, frames=frames, threads=threads)
    _require_int(0, seed=seed, stream=stream)
    bound = math.inf if bound is None else bound
    if not bound >= 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    n0 = ebn0_to_n0(ebn0_db, cbs.config)
    return _simulate(
        cbs, ebn0_db, n0, channel, frames, np.inf, mpa, seed, stream, threads, bound
    )


def sweep_ser(
    cbs: CodebookSet,
    ebno_list: Iterable[float],
    channel: str,
    mpa: MpaConfig = MpaConfig(),
    seed: int = 0,
    frames: int | None = None,
    target_errors: int = DEFAULT_TARGET_ERRORS,
    max_frames: int = DEFAULT_MAX_FRAMES,
    threads: int = 1,
) -> list[SerEstimate]:
    """One estimate per SNR point.  With ``frames`` set, every point runs the
    same fixed frame count (and equals :func:`estimate_ser` for that point);
    otherwise each point stops early once ``target_errors`` symbol errors are
    collected, capped at ``max_frames`` frames.  All points share the same
    underlying random draws (paired comparison across SNR).  Every count must
    be at least 1, including the unused ones, and every point must map to a
    noise variance, or ``ValueError`` is raised before any frame is
    simulated."""
    points = list(ebno_list)
    if not points:
        raise ValueError("ebno_list must not be empty")
    if not target_errors >= 1:
        raise ValueError(f"target_errors must be >= 1, got {target_errors}")
    _require_int(1, max_frames=max_frames, threads=threads)
    _require_int(0, seed=seed)
    if frames is not None:
        _require_int(1, frames=frames)
        max_frames, target_errors = frames, np.inf
    n0s = [ebn0_to_n0(ebn0, cbs.config) for ebn0 in points]
    return [
        _simulate(
            cbs, ebn0, n0, channel, max_frames, target_errors, mpa, seed, 0, threads
        )
        for ebn0, n0 in zip(points, n0s)
    ]


SWEEP_CSV_HEADER = "ebno_db,ser,errors,frames,seed"


def sweep_csv_lines(estimates: Sequence[SerEstimate]) -> list[str]:
    lines = [SWEEP_CSV_HEADER]
    for e in estimates:
        lines.append(
            f"{e.ebn0_db:.10g},{e.ser:.10g},{e.symbol_errors},{e.frames},{e.seed}"
        )
    return lines


def write_sweep_csv(estimates: Sequence[SerEstimate], path: str | Path) -> None:
    Path(path).write_text("\n".join(sweep_csv_lines(estimates)) + "\n")
