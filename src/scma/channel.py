"""Received-signal synthesis: superposition of the users' codewords through
per-user flat channels plus circularly-symmetric AWGN.

Noise convention: a codeword carries unit energy, so the energy per bit is
1/log2(M); ``n0`` is the total complex noise variance per resource (n0/2 per
real dimension).

Randomness is derived from a master seed in fixed-size frame blocks so that
results are reproducible regardless of how blocks are scheduled across
workers: block b of stream s uses ``SeedSequence((master_seed, s, b))``.
Within a block the stream is read once, in order: symbols, then the real
parts of all (K, J) fading gains, then their imaginary parts, then noise.
The gains on the graph's edges are returned, as detection reads.  They and
any off-graph gain that a nonzero codeword entry reaches form the signal;
every other gain meets only zero entries, so it is drawn and dropped.
"""
from __future__ import annotations

import math

import numpy as np

from .core import CodebookSet, SystemConfig

FRAME_BLOCK = 4096

# frames per draw of gains and per piece of signal: 1.1 MiB of 12x6 codewords or gains
SIGNAL_CHUNK = 1024

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

    Returns (symbols (F, J), gains (F, E) on the edges of ``cbs.graph`` or
    None for AWGN, received (F, K)).  Every random number is read into these
    arrays before any signal is formed.  The unit-variance noise is drawn
    before scaling by sqrt(n0), so two calls with the same rng state but
    different n0 see paired noise.
    """
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}; expected one of {CHANNELS}")
    cfg = cbs.config
    symbols = rng.integers(0, cfg.M, size=(frames, cfg.J))
    g, h = cbs.graph, None
    if channel == "rayleigh":
        # kept gains: the edges in edge order, then off-graph pairs a codeword reaches
        off_k, off_j = np.nonzero((cbs.books != 0).any(axis=1).T & (g.F == 0))
        k, j = np.r_[g.edge_res, off_k], np.r_[g.edge_user, off_j]
        # chunk buffers before h: the other order let 2-worker peak RSS step up ~3 MB
        part = np.empty((min(frames, SIGNAL_CHUNK), cfg.K, cfg.J))
        hc = np.zeros(part.shape, dtype=complex)  # a dropped gain stays exactly 0
        h = np.empty((frames, k.size), dtype=complex)
        for half in (h.real, h.imag):
            for lo in range(0, frames, SIGNAL_CHUNK):
                half[lo:lo + SIGNAL_CHUNK] = rng.standard_normal(out=part[:frames - lo])[:, k, j]
        h /= np.sqrt(2.0)
        del part
    y = np.empty((frames, cfg.K), dtype=complex)
    y.real, y.imag = rng.standard_normal((2, frames, cfg.K))
    y *= np.sqrt(n0 / 2.0)
    # no random numbers from here on; codewords and (K, J) gains by the chunk
    for lo in range(0, frames, SIGNAL_CHUNK):
        f = slice(lo, lo + SIGNAL_CHUNK)
        x = cbs.books[np.arange(cfg.J)[None, :], symbols[f], :]  # (chunk, J, K)
        if h is not None:
            hc[:len(x), k, j] = h[f]
        y[f] += x.sum(axis=1) if h is None else np.einsum("fkj,fjk->fk", hc[:len(x)], x)
        del x  # freed before the next chunk's codewords are gathered
    return symbols, None if h is None else h[:, :g.edge_res.size], y
