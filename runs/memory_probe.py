"""Prints the traced memory peaks of one 4096-frame block on each shipped
codebook, the figures the README quotes:

    PYTHONPATH=src python runs/memory_probe.py

Each row draws the block with ``draw_frame_block`` from ``block_rng(1, 0,
0)`` and detects it with one ``mpa_detect_batch`` call, under
``tracemalloc``.  ``draw`` is the draw's peak; ``detect`` is the peak the
call adds above the block it detects; ``block`` is the larger of the draw's
peak and the block's arrays plus ``detect``.  ``worker`` is the peak of one
4096-frame ``estimate_ser`` at ``threads=1``, what a block worker holds:
the draw, then each detector slab with its beliefs and decisions, one
slab per call.  ``slabs`` is the number of the block's frame slabs, as the
detector's slab rule cuts them, and the first one's frames, the most any
holds.  tracemalloc counts numpy's buffers, not the interpreter's own memory
or the heap's free pages, so a process's resident memory is larger.
"""
from __future__ import annotations

import tracemalloc

from scma.channel import FRAME_BLOCK, block_rng, draw_frame_block, ebn0_to_n0
from scma.detector import _slab_plan, mpa_detect_batch
from scma.fixtures import load_codebook
from scma.montecarlo import estimate_ser

# (codebook, channel, Eb/N0 dB): each AWGN codebook on its factored path and
# on the per-frame tables
POINTS = (
    ("table2_awgn_6x4", "awgn", 8.0),
    ("table2_awgn_6x4", "awgn", 20.0),
    ("table3_fading_6x4", "rayleigh", 9.0),
    ("table5_awgn_12x6", "awgn", 10.0),
    ("table5_awgn_12x6", "awgn", 16.0),
    ("table6_fading_12x6", "rayleigh", 18.0),
)
MIB = 2 ** 20


def main() -> None:
    print(f"{'codebook':<20} {'channel':<9} {'dB':>4} {'path':<9} {'slabs':>10} "
          f"{'draw':>8} {'detect':>8} {'block':>8} {'worker':>8}  (MiB)")
    for name, channel, ebn0_db in POINTS:
        cbs = load_codebook(name)
        n0 = ebn0_to_n0(ebn0_db, cbs.config)
        plan = _slab_plan(cbs, n0, channel != "awgn")
        # an untraced 2-frame block first, so no row carries one-off set-up
        _, h, y = draw_frame_block(cbs, channel, n0, 2, block_rng(1, 0, 0))
        mpa_detect_batch(y, cbs, h, n0)
        estimate_ser(cbs, ebn0_db, channel, 2)
        tracemalloc.start()
        try:
            _, h, y = draw_frame_block(cbs, channel, n0, FRAME_BLOCK, block_rng(1, 0, 0))
            held, draw = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            mpa_detect_batch(y, cbs, h, n0)
            detect = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        del h, y
        tracemalloc.start()
        try:
            estimate_ser(cbs, ebn0_db, channel, FRAME_BLOCK)
            worker = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        path = "factored" if plan.awgn is not None else "tables"
        sizes = [f.stop - f.start for f, _ in plan.slabs(FRAME_BLOCK)]
        split = f"{len(sizes)} x {sizes[0]}"
        print(f"{name:<20} {channel:<9} {ebn0_db:>4g} {path:<9} {split:>10} "
              f"{draw / MIB:>8.2f} {detect / MIB:>8.2f} {max(draw, held + detect) / MIB:>8.2f} "
              f"{worker / MIB:>8.2f}")


if __name__ == "__main__":
    main()
