"""Seed-reproducible SER estimation and sweeps."""
import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scma
import scma.montecarlo as mc
from scma.channel import FRAME_BLOCK, block_rng, draw_frame_block, ebn0_to_n0
from scma.detector import MpaConfig, hard_decision, mpa_detect_batch
from scma.montecarlo import (
    estimate_ser,
    sweep_csv_lines,
    sweep_ser,
    write_sweep_csv,
)

from conftest import qpsk_set, qpsk_theoretical_ser

FAST_MPA = MpaConfig(iterations=10)

# frame counts of at most three blocks that end inside a block
PARTIAL_FRAMES = st.integers(1, 3 * FRAME_BLOCK).filter(lambda n: n % FRAME_BLOCK)


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

    @pytest.mark.parametrize("frames", [0, 4096.0])
    def test_frames_validated(self, table2, frames):
        with pytest.raises(ValueError, match="frames must be an integer >= 1"):
            estimate_ser(table2, 10.0, "awgn", frames=frames)

    @pytest.mark.parametrize("threads", [0, -3, 2.0])
    def test_threads_validated(self, table2, threads):
        with pytest.raises(ValueError, match="threads"):
            estimate_ser(table2, 10.0, "awgn", frames=100, threads=threads)

    @pytest.mark.parametrize("run,ebn0,kwargs", [
        pytest.param(estimate_ser, 10.0, {"frames": 100, "seed": -1}, id="estimate-seed"),
        pytest.param(estimate_ser, 10.0, {"frames": 100, "stream": -2}, id="estimate-stream"),
        pytest.param(sweep_ser, [10.0], {"seed": -1}, id="sweep-seed"),
    ])
    def test_negative_seed_or_stream_rejected(self, table2, run, ebn0, kwargs):
        name = list(kwargs)[-1]
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 0"):
            run(table2, ebn0, "awgn", **kwargs)

    def test_ci_bounds_ordered(self, table2):
        est = estimate_ser(table2, 0.0, "awgn", frames=2000, seed=8)
        lo, hi = est.ci95
        assert 0.0 <= lo <= est.ser <= hi <= 1.0



class TestConfidenceInterval:
    """Clopper-Pearson bounds, checked against their closed forms at the
    edges (x = 0: upper 1 - (alpha/2)^(1/n); x = n: lower (alpha/2)^(1/n))
    and against scipy.stats.beta in between."""

    def test_zero_errors_has_positive_upper_bound(self, table2):
        est = estimate_ser(table2, 60.0, "awgn", frames=1000, seed=1)
        assert est.symbol_errors == 0
        lo, hi = est.ci95
        assert lo == 0.0
        assert hi == pytest.approx(1.0 - 0.025 ** (1.0 / est.symbols_sent), rel=1e-9)
        assert 3.0 / est.symbols_sent < hi < 4.0 / est.symbols_sent

    def test_all_errors_has_lower_bound_below_one(self, table2):
        est = estimate_ser(table2, 60.0, "awgn", frames=10, seed=1)
        n = est.symbols_sent
        est = replace(est, ser=1.0, symbol_errors=n)
        lo, hi = est.ci95
        assert hi == 1.0
        assert lo == pytest.approx(0.025 ** (1.0 / n), rel=1e-9)
        assert lo < 1.0

    def test_interior_matches_beta_quantiles(self, table2):
        from scipy.stats import beta

        est = estimate_ser(table2, 0.0, "awgn", frames=2000, seed=8)
        x, n = est.symbol_errors, est.symbols_sent
        lo, hi = est.ci95
        assert lo == pytest.approx(beta.ppf(0.025, x, n - x + 1), rel=1e-9)
        assert hi == pytest.approx(beta.ppf(0.975, x + 1, n - x), rel=1e-9)

    def test_scipy_loads_only_when_ci95_runs(self):
        """A fresh ``import scma, scma.cli`` loads no scipy module; ``ci95``
        imports its beta quantile on first use and returns the same bounds
        as before the import moved, down to the last bit."""
        script = (
            "import json, sys\n"
            "import scma, scma.cli\n"
            "from scma.montecarlo import SerEstimate\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "before = scipy_modules()\n"
            "bounds = [SerEstimate(x / n, x, n, (x / n,), 0, 0.0, n, 'awgn').ci95\n"
            "          for x, n in ((0, 6000), (6000, 6000), (37, 6000), (1, 1), (0, 1))]\n"
            "print(json.dumps({'before': before, 'after': bool(scipy_modules()),\n"
            "                  'bounds': bounds}))\n"
        )
        src = str(Path(scma.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        out = json.loads(proc.stdout)
        assert out["before"] == []
        assert out["after"]
        assert out["bounds"] == [
            [0.0, 0.000614624283417639],
            [0.9993853757165824, 1.0],
            [0.004345509852381966, 0.00849001448657186],
            [0.025, 1.0],
            [0.0, 0.975],
        ]


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
            {"max_frames": 1e4},
            {"threads": 2.0},
            {"frames": 4096.0},
        ],
    )
    def test_counts_below_one_rejected(self, table2, counts):
        """Below one, or a float where a whole count is asked."""
        name = next(k for k, v in counts.items() if v < 1 or isinstance(v, float))
        with pytest.raises(ValueError, match=name):
            sweep_ser(table2, [10.0], "awgn", **counts)

    def test_empty_points_rejected(self, table2):
        with pytest.raises(ValueError):
            sweep_ser(table2, [], "awgn")


class TestThreadIndependence:
    """The worker count only schedules blocks; it never changes an estimate,
    also when the error target is reached inside a wave of blocks."""

    @settings(max_examples=15, deadline=None)
    @example(seed=0, target_errors=1, max_frames=3 * FRAME_BLOCK - 1)
    @given(
        seed=st.integers(0, 2 ** 16),
        target_errors=st.integers(1, 4000),
        max_frames=PARTIAL_FRAMES,
    )
    def test_early_stop_same_at_any_thread_count(
        self, table2, seed, target_errors, max_frames
    ):
        runs = [
            sweep_ser(
                table2, [3.0, 8.0], "awgn", seed=seed,
                target_errors=target_errors, max_frames=max_frames, threads=t,
            )
            for t in (1, 2, 3)
        ]
        assert runs[0] == runs[1] == runs[2]
        for est in runs[0]:
            assert est.frames == max_frames or est.symbol_errors >= target_errors

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), frames=PARTIAL_FRAMES)
    def test_fixed_frame_sweep_equals_estimate(self, table2, seed, frames):
        ref = estimate_ser(table2, 5.0, "awgn", frames, seed=seed)
        for t in (1, 2, 3):
            kwargs = dict(seed=seed, threads=t)
            assert estimate_ser(table2, 5.0, "awgn", frames, **kwargs) == ref
            assert sweep_ser(table2, [5.0], "awgn", frames=frames, **kwargs) == [ref]


def frame_errors(cbs, ebn0_db, channel, frames, seed, stream=0) -> np.ndarray:
    """(frames, J) symbol-error indicators of an unbounded run, each block
    detected in one call."""
    n0 = ebn0_to_n0(ebn0_db, cbs.config)
    out = []
    for block, lo in enumerate(range(0, frames, FRAME_BLOCK)):
        nb = min(FRAME_BLOCK, frames - lo)
        symbols, h, y = draw_frame_block(
            cbs, channel, n0, nb, block_rng(seed, stream, block))
        out.append(hard_decision(mpa_detect_batch(y, cbs, h, n0)) != symbols)
    return np.concatenate(out)


@pytest.fixture
def detector_calls(monkeypatch):
    """Frame counts of every detector call the Monte-Carlo loop makes."""
    calls = []

    def spy(y, *args, **kwargs):
        calls.append(len(y))
        return mpa_detect_batch(y, *args, **kwargs)

    monkeypatch.setattr(mc, "mpa_detect_batch", spy)
    return calls


class TestBound:
    """An SER bound stops a run at the end of the first detector piece where
    the running error count over the symbols asked reaches it; bounds are
    given here as ``n / (frames * J)`` for an error count ``n``."""

    def test_reached_bound_stops_early(self, table2, detector_calls):
        full = estimate_ser(table2, 4.0, "awgn", frames=4000, seed=21)
        n = full.symbol_errors // 3
        bound = n / (4000 * table2.config.J)
        est = estimate_ser(table2, 4.0, "awgn", frames=4000, seed=21, bound=bound)
        assert est.symbol_errors >= n
        assert est.frames < 4000
        assert est.ser >= bound
        assert sum(detector_calls) == 4000 + est.frames

    def test_unreached_bound_gives_the_unbounded_estimate(self, table2):
        for channel, frames in (("awgn", 9000), ("rayleigh", 5000)):
            full = estimate_ser(table2, 6.0, channel, frames=frames, seed=22)
            symbols = frames * table2.config.J
            for bound in ((full.symbol_errors + 1) / symbols, 10 ** 9 / symbols,
                          float("inf"), None):
                est = estimate_ser(
                    table2, 6.0, channel, frames=frames, seed=22, bound=bound)
                assert est == full
                assert pickle.dumps(est) == pickle.dumps(full)

    def test_bound_reached_in_second_block_counts_a_prefix(self, table2):
        errs = frame_errors(table2, 4.0, "awgn", 9000, seed=23)
        first = int(errs[:FRAME_BLOCK].sum())
        n = first + int(errs[FRAME_BLOCK:2 * FRAME_BLOCK].sum()) // 2
        bound = n / (9000 * table2.config.J)
        est = estimate_ser(table2, 4.0, "awgn", frames=9000, seed=23, bound=bound)
        assert FRAME_BLOCK < est.frames < 2 * FRAME_BLOCK
        prefix = errs[:est.frames]
        assert est.symbol_errors == int(prefix.sum()) >= n
        assert est.symbols_sent == est.frames * table2.config.J
        assert est.per_user_ser == tuple(prefix.sum(axis=0) / est.frames)
        # it stopped at the end of the first piece that reached the bound
        assert int(errs[:est.frames - mc.PIECE_STEP].sum()) < n

    @pytest.mark.parametrize("frames", [1109, 1116])
    def test_bound_of_the_first_piece_errors_stops_there(self, table2, frames):
        """``n / symbols * symbols`` rounds above ``n`` at 1109 frames and
        below it at 1116; either way the bound ``n / symbols`` stops the run
        exactly when ``n`` errors are counted."""
        symbols = frames * table2.config.J
        n = int(frame_errors(table2, 4.0, "awgn", frames, seed=25)[:1024].sum())
        assert n / symbols * symbols != n
        est = estimate_ser(table2, 4.0, "awgn", frames, seed=25, bound=n / symbols)
        assert (est.frames, est.symbol_errors) == (1024, n)
        est = estimate_ser(table2, 4.0, "awgn", frames, seed=25,
                           bound=(n + 1) / symbols)
        assert est.frames > 1024

    @pytest.mark.parametrize("frames", [1025, 2049, 5121, 9000])
    def test_detector_calls_cover_the_frames_detected(self, table2, detector_calls,
                                                       frames):
        for n in (1, 40, 150, 400, 10 ** 9):
            detector_calls.clear()
            est = estimate_ser(table2, 3.0, "awgn", frames=frames, seed=24,
                               bound=n / (frames * table2.config.J))
            assert sum(detector_calls) == est.frames

    def test_negative_bound_rejected(self, table2):
        with pytest.raises(ValueError, match="bound"):
            estimate_ser(table2, 10.0, "awgn", frames=100, bound=-1)

    @settings(max_examples=12, deadline=None)
    @example(seed=0, n=0, frames=3 * FRAME_BLOCK - 1)
    @given(
        seed=st.integers(0, 2 ** 16),
        n=st.integers(0, 1500),
        frames=PARTIAL_FRAMES,
    )
    def test_whether_it_stops_does_not_depend_on_threads(
        self, table2, seed, n, frames
    ):
        full = estimate_ser(table2, 4.0, "awgn", frames, seed=seed)
        bound = n / (frames * table2.config.J)
        for t in (1, 2, 3):
            est = estimate_ser(table2, 4.0, "awgn", frames, seed=seed, threads=t,
                               bound=bound)
            stopped = est.symbol_errors >= n
            assert stopped == (full.symbol_errors >= n)
            if stopped:
                assert est.ser >= bound
            else:
                assert est == full


class TestCsv:
    def test_layout_and_precision(self, table2, tmp_path):
        sweep = sweep_ser(table2, [2.0, 4.0], "awgn", seed=16, frames=3000)
        lines = sweep_csv_lines(sweep)
        assert lines[0] == "ebno_db,ser,errors,frames,seed"
        assert len(lines) == 3
        for est, line in zip(sweep, lines[1:]):
            ebno, ser, errors, frames, seed = line.split(",")
            assert float(ebno) == est.ebn0_db
            # rates are written with 10 significant digits
            assert float(ser) == pytest.approx(est.ser, rel=1e-9)
            assert int(errors) == est.symbol_errors
            assert int(frames) == est.frames
            assert int(seed) == est.seed
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep, path)
        assert path.read_text().splitlines() == lines

    def test_rerun_is_byte_identical(self, table2, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_sweep_csv(sweep_ser(table2, [5.0], "awgn", seed=17, frames=4000), a)
        write_sweep_csv(sweep_ser(table2, [5.0], "awgn", seed=17, frames=4000), b)
        assert a.read_bytes() == b.read_bytes()
