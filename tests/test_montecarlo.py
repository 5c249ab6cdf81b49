"""Seed-reproducible SER estimation and sweeps."""
import numpy as np
import pytest

from scma.channel import ebn0_to_n0
from scma.detector import MpaConfig
from scma.montecarlo import (
    estimate_ser,
    read_sweep_csv,
    sweep_csv_lines,
    sweep_ser,
    write_sweep_csv,
)

from conftest import qpsk_set, qpsk_theoretical_ser

FAST_MPA = MpaConfig(iterations=10)


class TestEstimate:
    def test_noiseless_run_has_zero_errors(self, table2):
        est = estimate_ser(table2, 60.0, "awgn", frames=1000, seed=1)
        assert est.ser == 0.0
        assert est.symbol_errors == 0
        assert est.symbols_sent == 6000

    def test_deep_noise_approaches_chance_level(self, table2):
        est = estimate_ser(table2, -60.0, "awgn", frames=10 ** 4, seed=2)
        assert est.ser == pytest.approx(0.75, abs=0.03)

    def test_moderate_snr_operating_point(self, table2):
        est = estimate_ser(table2, 8.0, "awgn", frames=2 * 10 ** 4, seed=3)
        assert 5e-4 < est.ser < 1e-2

    def test_per_user_rates_average_to_total(self, table2):
        est = estimate_ser(table2, 4.0, "awgn", frames=5000, seed=4)
        assert np.mean(est.per_user_ser) == pytest.approx(est.ser, abs=1e-12)
        assert est.symbols_sent == est.frames * 6

    def test_bit_identical_across_worker_counts(self, table2):
        runs = [
            estimate_ser(table2, 6.0, "rayleigh", frames=9000, seed=5, threads=t)
            for t in (1, 4)
        ]
        assert runs[0] == runs[1]

    def test_identical_seed_identical_estimate(self, table2):
        a = estimate_ser(table2, 6.0, "awgn", frames=5000, seed=6)
        b = estimate_ser(table2, 6.0, "awgn", frames=5000, seed=6)
        assert a == b

    def test_different_streams_differ(self, table2):
        a = estimate_ser(table2, 2.0, "awgn", frames=4000, seed=7, stream=0)
        b = estimate_ser(table2, 2.0, "awgn", frames=4000, seed=7, stream=1)
        assert a.symbol_errors != b.symbol_errors

    def test_frames_validated(self, table2):
        with pytest.raises(ValueError):
            estimate_ser(table2, 10.0, "awgn", frames=0)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_validated(self, table2, threads):
        with pytest.raises(ValueError, match="threads"):
            estimate_ser(table2, 10.0, "awgn", frames=100, threads=threads)

    def test_ci_bounds_ordered(self, table2):
        est = estimate_ser(table2, 0.0, "awgn", frames=2000, seed=8)
        lo, hi = est.ci95
        assert 0.0 <= lo <= est.ser <= hi <= 1.0


class TestQpskCalibration:
    def test_estimate_matches_closed_form(self):
        cbs = qpsk_set()
        n0 = ebn0_to_n0(6.0, cbs.config)
        theory = qpsk_theoretical_ser(n0)
        est = estimate_ser(cbs, 6.0, "awgn", frames=10 ** 5, seed=9)
        # ~480 expected errors; allow four standard deviations
        sigma = np.sqrt(theory / est.symbols_sent)
        assert abs(est.ser - theory) < 4 * sigma

    def test_confidence_interval_covers_closed_form(self):
        cbs = qpsk_set()
        n0 = ebn0_to_n0(6.0, cbs.config)
        theory = qpsk_theoretical_ser(n0)
        est = estimate_ser(cbs, 6.0, "awgn", frames=10 ** 5, seed=10)
        lo, hi = est.ci95
        assert lo <= theory <= hi


class TestSweep:
    def test_single_point_equals_estimate(self, table2):
        sweep = sweep_ser(table2, [7.0], "awgn", seed=11, frames=6000)
        single = estimate_ser(table2, 7.0, "awgn", frames=6000, seed=11)
        assert sweep[0] == single

    def test_monotone_within_statistical_slack(self, table2):
        points = [3.0, 5.0, 7.0]
        sweep = sweep_ser(
            table2, points, "awgn", seed=12, target_errors=200, max_frames=10 ** 5
        )
        for a, b in zip(sweep, sweep[1:]):
            assert a.symbol_errors >= 200
            slack = 3 * np.sqrt(a.symbol_errors) / a.symbols_sent
            assert b.ser <= a.ser + slack

    def test_early_stop_reaches_target(self, table2):
        [est] = sweep_ser(
            table2, [4.0], "awgn", seed=13, target_errors=150, max_frames=10 ** 5
        )
        assert est.symbol_errors >= 150
        assert est.frames <= 10 ** 5

    def test_frame_cap_respected(self, table2):
        [est] = sweep_ser(
            table2, [30.0], "awgn", seed=14, target_errors=500, max_frames=3000
        )
        assert est.frames == 3000

    def test_fading_optimized_set_wins_in_fading(self, table2, table3):
        # paired streams: both sets see identical symbols, gains, and noise
        kwargs = dict(seed=15, frames=40000, mpa=FAST_MPA)
        awgn_opt = estimate_ser(table2, 18.0, "rayleigh", **kwargs)
        fad_opt = estimate_ser(table3, 18.0, "rayleigh", **kwargs)
        assert fad_opt.ser < awgn_opt.ser

    @pytest.mark.parametrize(
        "counts",
        [
            {"target_errors": 0},
            {"max_frames": 0},
            {"threads": 0},
            {"threads": -3},
            {"frames": 0},
            {"frames": 100, "max_frames": 0},
        ],
    )
    def test_counts_below_one_rejected(self, table2, counts):
        name = next(k for k, v in counts.items() if v < 1)
        with pytest.raises(ValueError, match=name):
            sweep_ser(table2, [10.0], "awgn", **counts)

    def test_empty_points_rejected(self, table2):
        with pytest.raises(ValueError):
            sweep_ser(table2, [], "awgn")


class TestCsv:
    def test_layout_and_precision(self, table2, tmp_path):
        sweep = sweep_ser(table2, [2.0, 4.0], "awgn", seed=16, frames=3000)
        lines = sweep_csv_lines(sweep)
        assert lines[0] == "ebno_db,ser,errors,frames,seed"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert float(fields[0]) == 2.0
        assert int(fields[2]) == sweep[0].symbol_errors
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep, path)
        assert path.read_text().splitlines() == lines

    def test_rerun_is_byte_identical(self, table2, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_sweep_csv(sweep_ser(table2, [5.0], "awgn", seed=17, frames=4000), a)
        write_sweep_csv(sweep_ser(table2, [5.0], "awgn", seed=17, frames=4000), b)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trips_through_own_parser(self, table2, tmp_path):
        sweep = sweep_ser(table2, [1.0, 3.0], "awgn", seed=18, frames=2500)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep, path)
        back = read_sweep_csv(path)
        for est, row in zip(sweep, back):
            assert row["ebno_db"] == est.ebn0_db
            # rates are written with 10 significant digits
            assert row["ser"] == pytest.approx(est.ser, rel=1e-9)
            assert row["errors"] == est.symbol_errors
            assert row["frames"] == est.frames
            assert row["seed"] == est.seed

    def test_reader_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("snr,rate\n1,2\n")
        with pytest.raises(ValueError):
            read_sweep_csv(path)
