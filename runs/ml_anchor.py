"""Prints, at each point of the joint-ML anchor of the detector's SER, how
MPA's symbol errors compare with those of joint maximum likelihood on the
same frames, so that a change to the detector can quote them:

    PYTHONPATH=src python runs/ml_anchor.py

Each point draws one block of ``frames`` frames from ``block_rng(seed, 0,
0)``, a stream no other test draws, and detects it with the default
``MpaConfig`` and with the exhaustive ML oracle of tier-1,
``tests/conftest.py::map_detect_batch``.  Each line gives the frames, MPA's
and ML's symbol errors, MPA/ML and the paired z of MPA - ``RATIO`` ML per
frame, which ``tests/test_reference_ser.py::TestJointMlAnchor`` requires to
stay below the one-sided ``FALSE_ALARM`` quantile.  That test reads the
points and the statistic from here.  The lines are a record, not a gate:
the script exits 0 whatever they read.
"""
from __future__ import annotations

import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np

from scma.channel import block_rng, draw_frame_block, ebn0_to_n0
from scma.detector import MpaConfig, hard_decision, mpa_detect_batch
from scma.fixtures import load_codebook

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import map_detect_batch  # noqa: E402

# codebook: (channel, Eb/N0 dB, seed, frames)
POINTS = {
    "table2_awgn_6x4": ("awgn", 8.0, 2323, 32768),
    "table3_fading_6x4": ("rayleigh", 13.0, 4646, 16384),
}
# MPA/ML's upper bound and the one-sided false-alarm rate of the paired test
# against it
RATIO = 1.06
FALSE_ALARM = 1e-3


def paired_excess_z(got: np.ndarray, ref: np.ndarray) -> float:
    """One-sided z of the mean of got - RATIO * ref, two detectors' error
    counts on the same frames: large where got makes more than RATIO times
    ref's errors."""
    d = got - RATIO * ref
    return float(d.mean() / np.sqrt(d.var(ddof=1) / d.size))


def frame_errors(name: str, configs=(MpaConfig(),)) -> tuple[np.ndarray, list[np.ndarray]]:
    """Joint ML's symbol errors per frame at the point of codebook ``name``,
    and MPA's at each of ``configs``, on the same frames."""
    channel, ebn0_db, seed, frames = POINTS[name]
    cbs = load_codebook(name)
    n0 = ebn0_to_n0(ebn0_db, cbs.config)
    x, h, y = draw_frame_block(cbs, channel, n0, frames, block_rng(seed, 0, 0))
    ml = (map_detect_batch(y, cbs, h, n0) != x).sum(axis=1)
    return ml, [(hard_decision(mpa_detect_batch(y, cbs, h, n0, cfg)) != x).sum(axis=1)
                for cfg in configs]


def main() -> int:
    limit = NormalDist().inv_cdf(1.0 - FALSE_ALARM)
    for name, (channel, ebn0_db, seed, frames) in POINTS.items():
        ml, (mpa,) = frame_errors(name)
        print(f"{name} {channel} {ebn0_db:g} dB, seed {seed}: {frames} frames, "
              f"MPA {mpa.sum()}, ML {ml.sum()}, MPA/ML {mpa.sum() / ml.sum():.3f}, "
              f"z {paired_excess_z(mpa, ml):.2f} (limit {limit:.2f})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
