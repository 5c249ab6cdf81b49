"""The SER gate: a short fixed sweep of each shipped codebook, on its
channel, against its reference curve in ``runs/reference_ser``.

A frame's J symbols share one noise and fading draw and are detected
jointly, so the unit of the test is the frame: each frame's number of symbol
errors, 0..J.  At each point a two-sample z test compares the mean per-frame
error count of the sweep with the reference's, with the variance of the
pooled histogram.  Each channel's six points share a family-wise
false-alarm rate of 1e-4: ``Z`` splits it evenly over them, two-sided,
under the normal approximation.  The counts are skewed, so the true rates
are higher.  Sweeps of these sizes drawn 10^6 times per point from the
recorded histograms reached |z| >= ``Z`` 137 times over the AWGN points, a
family-wise rate of about 1.4e-4, 93 of them at 12x6 12 dB, where a sweep
expects ~90 errors; and 180 times over the Rayleigh points, about 1.8e-4,
99 of them at 12x6 18 dB, where a sweep expects ~46 errors.  The sweep's
stream is not the reference's.  A detector that changes only the last bits
of some beliefs, and no decision, passes with the counts it has today.
"""
import csv
import importlib.util
from collections import Counter
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from scma.fixtures import load_codebook
from scma.montecarlo import estimate_ser

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "runs" / "reference_ser"
_spec = importlib.util.spec_from_file_location("record", REFERENCE_DIR / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

GATE_SEED = 27_182_818
GATE_FRAMES = {"table2_awgn_6x4": 16384, "table5_awgn_12x6": 8192,
               "table3_fading_6x4": 24576, "table6_fading_12x6": 8192}
FAMILY_FALSE_ALARM = 1e-4
POINTS = [(name, ebn0_db) for name, (_, pts) in record.POINTS.items() for ebn0_db in pts]
Z = {channel: NormalDist().inv_cdf(1.0 - FAMILY_FALSE_ALARM / (2 * n))
     for channel, n in Counter(record.POINTS[name][0] for name, _ in POINTS).items()}


def reference_histogram(name: str, ebn0_db: float) -> np.ndarray:
    with (REFERENCE_DIR / f"{name}.csv").open(newline="") as fh:
        for row in csv.DictReader(fh):
            if float(row["ebno_db"]) == ebn0_db:
                return np.array([int(v) for k, v in row.items() if k.startswith("h")])
    raise LookupError(f"{name} has no reference at {ebn0_db} dB")


def clustered_z(ref: np.ndarray, got: np.ndarray) -> float:
    """Two-sample z of the mean errors per frame of two histograms of frames
    by error count, with the pooled histogram's variance."""
    e = np.arange(ref.size)
    pooled = ref + got
    mean = pooled @ e / pooled.sum()
    var = pooled @ (e - mean) ** 2 / (pooled.sum() - 1)
    diff = got @ e / got.sum() - ref @ e / ref.sum()
    return float(diff / np.sqrt(var * (1.0 / got.sum() + 1.0 / ref.sum())))


class TestReferenceCurves:
    @pytest.mark.parametrize("name", sorted(record.POINTS))
    def test_files_hold_the_recorded_points(self, name):
        J = load_codebook(name).config.J
        for ebn0_db in record.POINTS[name][1]:
            hist = reference_histogram(name, ebn0_db)
            assert hist.size == J + 1
            assert hist @ np.arange(J + 1) >= record.MIN_ERRORS

    @pytest.mark.parametrize("name,ebn0_db", POINTS)
    def test_sweep_matches_reference(self, name, ebn0_db):
        channel = record.POINTS[name][0]
        est = estimate_ser(load_codebook(name), ebn0_db, channel, GATE_FRAMES[name],
                           seed=GATE_SEED)
        got = np.array(est.frames_by_errors)
        z = clustered_z(reference_histogram(name, ebn0_db), got)
        limit = Z[channel]
        assert abs(z) < limit, f"{name} at {ebn0_db} dB: z = {z:.2f}, limit {limit:.2f}"

    def test_statistic_flags_a_shifted_histogram(self):
        """One error more in 1 % of the frames moves the 6x4 8 dB mean by
        0.01, which is past the limit; the reference against itself is 0."""
        ref = reference_histogram("table2_awgn_6x4", 8.0)
        assert clustered_z(ref, ref) == 0.0
        shifted = ref.copy()
        moved = ref.sum() // 100
        shifted[0] -= moved
        shifted[1] += moved
        assert clustered_z(ref, shifted) > Z["awgn"]
