"""Prints one SHA-256 over the beliefs ``mpa_detect_batch`` gives on a fixed
set of inputs, so that a change meant to keep the detector's bytes can be
checked against its parent commit:

    PYTHONPATH=src python runs/belief_hash.py

Run it on the parent and on the change, on one machine, and compare the two
lines.  The hash is not a golden value across platforms: numpy and BLAS
builds may round differently.

The inputs are the four shipped codebooks and ``derive_8x4`` of
``table3_fading_6x4``, each on AWGN and on Rayleigh fading, at Eb/N0 = 0 to
40 dB in 4-dB steps.  Each point detects 512 frames drawn from
``block_rng(5, 0, db)`` with the default ``MpaConfig``, and its beliefs are
hashed in that order.
"""
from __future__ import annotations

import hashlib

from scma.channel import block_rng, draw_frame_block, ebn0_to_n0
from scma.detector import mpa_detect_batch
from scma.fixtures import load_codebook
from scma.structure import derive_8x4

CODEBOOKS = ("table2_awgn_6x4", "table3_fading_6x4", "table5_awgn_12x6", "table6_fading_12x6")
FRAMES = 512


def main() -> None:
    books = [load_codebook(name) for name in CODEBOOKS]
    books.append(derive_8x4(load_codebook("table3_fading_6x4")))
    digest = hashlib.sha256()
    for cbs in books:
        for channel in ("awgn", "rayleigh"):
            for db in range(0, 41, 4):
                n0 = ebn0_to_n0(db, cbs.config)
                _, h, y = draw_frame_block(cbs, channel, n0, FRAMES, block_rng(5, 0, db))
                digest.update(mpa_detect_batch(y, cbs, h, n0).tobytes())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
