"""Records the reference SER curves of the shipped codebooks, which the
tier-1 gate ``tests/test_reference_ser.py`` compares the detector against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python runs/reference_ser/record.py

For each system, on its channel, and each Eb/N0 point it runs
``estimate_ser`` on stream 0 of ``RECORD_SEED``, a seed no test uses, until
at least ``MIN_ERRORS`` symbol errors are counted.  The points of a system
share the blocks' symbols, gains and unit noise, as ``sweep_ser``'s do, and
the worker count moves no count.  It writes one CSV per system next to this
file, one row per point: the frames, the symbol errors and ``h0 .. hJ``, the
estimate's ``frames_by_errors``, which is what a test on frame-clustered
counts needs.
"""
from __future__ import annotations

import csv
import sys
from pathlib import Path

from scma.fixtures import load_codebook
from scma.montecarlo import estimate_ser

RECORD_SEED = 31_415_926
MIN_ERRORS = 20_000
# a frame cap no point reaches
MAX_FRAMES = 10 ** 9
THREADS = 2
POINTS = {
    "table2_awgn_6x4": ("awgn", (4.0, 6.0, 8.0)),
    "table5_awgn_12x6": ("awgn", (8.0, 10.0, 12.0)),
    "table3_fading_6x4": ("rayleigh", (9.0, 13.0, 17.0)),
    "table6_fading_12x6": ("rayleigh", (10.0, 14.0, 18.0)),
}


def main() -> int:
    for name, (channel, points) in POINTS.items():
        cbs = load_codebook(name)
        path = Path(__file__).with_name(f"{name}.csv")
        with path.open("w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["ebno_db", "frames", "errors",
                          *(f"h{e}" for e in range(cbs.config.J + 1))])
            for ebn0_db in points:
                est = estimate_ser(cbs, ebn0_db, channel, MAX_FRAMES, seed=RECORD_SEED,
                                   threads=THREADS, target_errors=MIN_ERRORS)
                out.writerow([ebn0_db, est.frames, est.symbol_errors, *est.frames_by_errors])
                print(f"{name} {ebn0_db:g} dB: {est.frames} frames, "
                      f"{est.symbol_errors} errors", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
