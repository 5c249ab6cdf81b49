"""Records the reference SER curves of the shipped AWGN codebooks, which the
tier-1 gate ``tests/test_reference_ser.py`` compares the detector against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python runs/reference_ser/record.py

For each system and Eb/N0 point it draws ``FRAME_BLOCK``-frame blocks of
stream 0 of ``RECORD_SEED``, a seed no test uses, and detects them until at
least ``MIN_ERRORS`` symbol errors are counted.  Each point shares the
blocks' symbols and unit noise, as ``sweep_ser`` does.  It writes one CSV
per system next to this file, one row per point: the frames, the symbol
errors and ``h0 .. hJ``, the number of frames with 0, 1, ..., J symbol
errors, which is what a test on frame-clustered counts needs.
"""
from __future__ import annotations

import csv
import sys
from pathlib import Path

import numpy as np

from scma.channel import FRAME_BLOCK, block_rng, draw_frame_block, ebn0_to_n0
from scma.detector import hard_decision, mpa_detect_batch
from scma.fixtures import load_codebook

RECORD_SEED = 31_415_926
MIN_ERRORS = 20_000
POINTS = {
    "table2_awgn_6x4": (4.0, 6.0, 8.0),
    "table5_awgn_12x6": (8.0, 10.0, 12.0),
}


def frame_error_histogram(cbs, ebn0_db: float, seed: int, frames: int | None = None,
                          min_errors: float = float("inf")) -> np.ndarray:
    """(J + 1,) counts of AWGN frames by their number of symbol errors, over
    ``frames`` frames or, without a frame count, over whole blocks until
    ``min_errors`` symbol errors are counted."""
    J = cbs.config.J
    n0 = ebn0_to_n0(ebn0_db, cbs.config)
    hist = np.zeros(J + 1, dtype=np.int64)
    block = 0
    while (hist.sum() < frames) if frames is not None else (hist @ np.arange(J + 1) < min_errors):
        n = FRAME_BLOCK if frames is None else min(FRAME_BLOCK, frames - hist.sum())
        symbols, _, y = draw_frame_block(cbs, "awgn", n0, n, block_rng(seed, 0, block))
        wrong = (hard_decision(mpa_detect_batch(y, cbs, None, n0)) != symbols).sum(axis=1)
        hist += np.bincount(wrong, minlength=J + 1)
        block += 1
    return hist


def main() -> int:
    for name, points in POINTS.items():
        cbs = load_codebook(name)
        J = cbs.config.J
        path = Path(__file__).with_name(f"{name}.csv")
        with path.open("w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["ebno_db", "frames", "errors", *(f"h{e}" for e in range(J + 1))])
            for ebn0_db in points:
                hist = frame_error_histogram(cbs, ebn0_db, RECORD_SEED, min_errors=MIN_ERRORS)
                errors = int(hist @ np.arange(J + 1))
                out.writerow([ebn0_db, int(hist.sum()), errors, *hist.tolist()])
                print(f"{name} {ebn0_db:g} dB: {hist.sum()} frames, {errors} errors", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
