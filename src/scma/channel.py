"""Received-signal synthesis: superposition of the users' codewords through
per-user flat channels plus circularly-symmetric AWGN.

Noise convention: a codeword carries unit energy, so the energy per bit is
1/log2(M); ``n0`` is the total complex noise variance per resource (n0/2 per
real dimension).

Randomness is derived from a master seed in fixed-size frame blocks so that
results are reproducible regardless of how blocks are scheduled across
workers: block b of stream s uses ``SeedSequence((master_seed, s, b))``.
Within a block the draw order is symbols, then fading gains, then noise.
"""
from __future__ import annotations

import math

import numpy as np

from .core import CodebookSet, SystemConfig

FRAME_BLOCK = 4096

CHANNELS = ("awgn", "rayleigh")


def ebn0_to_n0(ebn0_db: float, cfg: SystemConfig) -> float:
    """Noise variance for a given Eb/N0 in dB under the unit-codeword-energy
    convention (E_b = 1/log2 M); ``ValueError`` if it is not finite and
    positive (beyond about +-3000 dB, or NaN)."""
    # a Python float, so a numpy scalar overflows into the except, not a warning
    ebn0_db = float(ebn0_db)
    eb = 1.0 / cfg.bits_per_symbol
    try:
        n0 = eb / 10.0 ** (ebn0_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        n0 = math.nan
    if not (math.isfinite(n0) and n0 > 0.0):
        raise ValueError(f"Eb/N0 {ebn0_db:g} dB is out of range: its noise "
                         "variance is not finite and positive")
    return n0


def block_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    """Generator for one frame block; the (seed, stream, block) triple fully
    determines every draw."""
    return np.random.default_rng(np.random.SeedSequence((seed, stream, block)))


def draw_frame_block(
    cbs: CodebookSet,
    channel: str,
    n0: float,
    frames: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Synthesize a block of independent frames.

    Returns (symbols (F, J), gains (F, K, J) or None for AWGN, received
    (F, K)).  The unit-variance noise is drawn before scaling by sqrt(n0), so
    two calls with the same rng state but different n0 see paired noise.
    """
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}; expected one of {CHANNELS}")
    cfg = cbs.config
    symbols = rng.integers(0, cfg.M, size=(frames, cfg.J))
    x = cbs.books[np.arange(cfg.J)[None, :], symbols, :]  # (F, J, K)
    if channel == "rayleigh":
        h = rng.standard_normal((frames, cfg.K, cfg.J)) + 1j * rng.standard_normal(
            (frames, cfg.K, cfg.J)
        )
        h /= np.sqrt(2.0)
        signal = np.einsum("fkj,fjk->fk", h, x)
    else:
        h = None
        signal = x.sum(axis=1)
    noise = rng.standard_normal((frames, cfg.K)) + 1j * rng.standard_normal(
        (frames, cfg.K)
    )
    y = signal + np.sqrt(n0 / 2.0) * noise
    return symbols, h, y
