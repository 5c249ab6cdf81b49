"""Symbol-error-rate estimation by simulating frames through the channel and
the message-passing detector.

Frames are processed in fixed-size blocks whose randomness is derived from
(master seed, stream, block index) alone, so estimates are bit-identical for
any worker count and common random numbers are obtained by reusing a stream:
two codebooks evaluated under the same (seed, stream) see the same symbols,
fading gains, and noise.  Worker threads only schedule whole blocks; results
are reduced in block order.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .channel import FRAME_BLOCK, block_rng, draw_frame_block, ebn0_to_n0
from .core import CodebookSet
from .detector import MpaConfig, hard_decision, mpa_detect_batch

DEFAULT_TARGET_ERRORS = 200
DEFAULT_MAX_FRAMES = 10 ** 6


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
        """Normal-approximation 95% interval on the error count, expressed
        as a rate."""
        half = 1.96 * np.sqrt(self.symbol_errors)
        lo = max(0.0, (self.symbol_errors - half) / self.symbols_sent)
        hi = min(1.0, (self.symbol_errors + half) / self.symbols_sent)
        return (lo, hi)

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


def _require_positive(**counts: int) -> None:
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _block_sizes(frames: int) -> list[int]:
    sizes = [FRAME_BLOCK] * (frames // FRAME_BLOCK)
    if frames % FRAME_BLOCK:
        sizes.append(frames % FRAME_BLOCK)
    return sizes


def _eval_block(
    cbs: CodebookSet,
    channel: str,
    n0: float,
    nb: int,
    seed: int,
    stream: int,
    block: int,
    mpa: MpaConfig,
) -> tuple[int, np.ndarray]:
    rng = block_rng(seed, stream, block)
    symbols, h, y = draw_frame_block(cbs, channel, n0, nb, rng)
    decided = hard_decision(mpa_detect_batch(y, cbs, h, n0, mpa))
    wrong = decided != symbols
    return int(wrong.sum()), wrong.sum(axis=0)


def _run_blocks(
    cbs: CodebookSet,
    channel: str,
    n0: float,
    sizes: Sequence[int],
    seed: int,
    stream: int,
    mpa: MpaConfig,
    threads: int,
    first_block: int = 0,
) -> list[tuple[int, np.ndarray]]:
    """Evaluate blocks first_block..first_block+len(sizes)-1, returned in
    block order regardless of scheduling."""
    args = [
        (cbs, channel, n0, nb, seed, stream, first_block + i, mpa)
        for i, nb in enumerate(sizes)
    ]
    if threads <= 1 or len(args) <= 1:
        return [_eval_block(*a) for a in args]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda a: _eval_block(*a), args))


def estimate_ser(
    cbs: CodebookSet,
    ebn0_db: float,
    channel: str,
    frames: int,
    mpa: MpaConfig = MpaConfig(),
    seed: int = 0,
    stream: int = 0,
    threads: int = 1,
) -> SerEstimate:
    """Simulate ``frames`` independent frames and count per-user symbol
    errors.  Identical (seed, stream, frames, config) always produce the
    identical estimate."""
    _require_positive(frames=frames, threads=threads)
    n0 = ebn0_to_n0(ebn0_db, cbs.config)
    results = _run_blocks(
        cbs, channel, n0, _block_sizes(frames), seed, stream, mpa, threads
    )
    per_user = np.zeros(cbs.config.J, dtype=np.int64)
    errors = 0
    for errs, user_errs in results:
        errors += errs
        per_user += user_errs
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


def _estimate_until(
    cbs: CodebookSet,
    ebn0_db: float,
    channel: str,
    target_errors: int,
    max_frames: int,
    mpa: MpaConfig,
    seed: int,
    stream: int,
    threads: int,
) -> SerEstimate:
    """Accumulate whole blocks until the error target is met or the frame cap
    is reached.  The stop decision scans block results in index order, so the
    outcome does not depend on the thread count."""
    n0 = ebn0_to_n0(ebn0_db, cbs.config)
    per_user = np.zeros(cbs.config.J, dtype=np.int64)
    errors = 0
    frames_done = 0
    block = 0
    wave = max(1, threads)
    while errors < target_errors and frames_done < max_frames:
        sizes = []
        budget = max_frames - frames_done
        for _ in range(wave):
            if budget <= 0:
                break
            nb = min(FRAME_BLOCK, budget)
            sizes.append(nb)
            budget -= nb
        results = _run_blocks(
            cbs, channel, n0, sizes, seed, stream, mpa, threads, first_block=block
        )
        for nb, (errs, user_errs) in zip(sizes, results):
            errors += errs
            per_user += user_errs
            frames_done += nb
            block += 1
            if errors >= target_errors:
                break
    sent = frames_done * cbs.config.J
    return SerEstimate(
        ser=errors / sent,
        symbol_errors=errors,
        symbols_sent=sent,
        per_user_ser=tuple(per_user / frames_done),
        seed=seed,
        ebn0_db=float(ebn0_db),
        frames=frames_done,
        channel=channel,
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
    be at least 1, including the unused ones, or ``ValueError`` is raised
    before any frame is simulated."""
    points = list(ebno_list)
    if not points:
        raise ValueError("ebno_list must not be empty")
    _require_positive(
        target_errors=target_errors, max_frames=max_frames, threads=threads
    )
    out = []
    for ebn0 in points:
        if frames is not None:
            out.append(
                estimate_ser(cbs, ebn0, channel, frames, mpa, seed, threads=threads)
            )
        else:
            out.append(
                _estimate_until(
                    cbs, ebn0, channel, target_errors, max_frames, mpa, seed, 0,
                    threads,
                )
            )
    return out


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


def read_sweep_csv(path: str | Path) -> list[dict]:
    """Parse a sweep CSV back into one dict per SNR point."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != SWEEP_CSV_HEADER:
        raise ValueError(f"{path}: missing sweep header {SWEEP_CSV_HEADER!r}")
    out = []
    for line in lines[1:]:
        ebno, ser, errors, frames, seed = line.split(",")
        out.append({
            "ebno_db": float(ebno),
            "ser": float(ser),
            "errors": int(errors),
            "frames": int(frames),
            "seed": int(seed),
        })
    return out
