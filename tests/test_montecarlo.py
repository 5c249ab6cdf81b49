"""Seed-reproducible SER estimation and sweeps."""
import dataclasses
import math
import pickle
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scma.montecarlo as mc
from scma.channel import FRAME_BLOCK, block_rng, draw_frame_block, ebn0_to_n0
from scma.detector import SLAB_BYTES, MpaConfig, _slab_plan, hard_decision, mpa_detect_batch
from scma.fixtures import load_codebook
from scma.montecarlo import estimate_ser, sweep_ser

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

    @pytest.mark.parametrize("frames", [0, 4096.0, True])
    def test_frames_validated(self, table2, frames):
        with pytest.raises(ValueError, match="frames must be an integer >= 1"):
            estimate_ser(table2, 10.0, "awgn", frames=frames)

    @pytest.mark.parametrize("threads", [0, -3, 2.0, True])
    def test_threads_validated(self, table2, threads):
        with pytest.raises(ValueError, match="threads"):
            estimate_ser(table2, 10.0, "awgn", frames=100, threads=threads)

    @pytest.mark.parametrize("target_errors", [0, -5, float("nan")])
    def test_target_errors_validated(self, table2, target_errors):
        with pytest.raises(ValueError, match="target_errors must be >= 1"):
            estimate_ser(table2, 10.0, "awgn", frames=100, target_errors=target_errors)

    @pytest.mark.parametrize("run,ebn0,kwargs", [
        pytest.param(estimate_ser, 10.0, {"frames": 100, "seed": -1}, id="estimate-seed"),
        pytest.param(estimate_ser, 10.0, {"frames": 100, "stream": -2}, id="estimate-stream"),
        pytest.param(sweep_ser, [10.0], {"seed": -1}, id="sweep-seed"),
        pytest.param(estimate_ser, 10.0, {"frames": 100, "seed": True}, id="estimate-seed-bool"),
        pytest.param(estimate_ser, 10.0, {"frames": 100, "stream": True},
                     id="estimate-stream-bool"),
        pytest.param(sweep_ser, [10.0], {"seed": True}, id="sweep-seed-bool"),
    ])
    def test_negative_seed_or_stream_rejected(self, table2, run, ebn0, kwargs):
        name = list(kwargs)[-1]
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 0"):
            run(table2, ebn0, "awgn", **kwargs)


class TestQpskCalibration:
    def test_estimate_matches_closed_form(self):
        cbs = qpsk_set()
        n0 = ebn0_to_n0(6.0, cbs.config)
        theory = qpsk_theoretical_ser(n0)
        est = estimate_ser(cbs, 6.0, "awgn", frames=10 ** 5, seed=9)
        # ~480 expected errors; allow four standard deviations
        sigma = np.sqrt(theory / est.symbols_sent)
        assert abs(est.ser - theory) < 4 * sigma


class TestSweep:
    def test_single_point_equals_estimate(self, table2):
        sweep = sweep_ser(table2, [7.0], "awgn", seed=11, max_frames=6000,
                          target_errors=math.inf)
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
            {"max_frames": 1e4},
            {"threads": 2.0},
            {"max_frames": True},
            {"threads": True},
        ],
    )
    def test_counts_below_one_rejected(self, table2, counts):
        """Below one, or a float or bool where a whole count is asked."""
        name = next(k for k, v in counts.items() if v < 1 or isinstance(v, (float, bool)))
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
    @example(seed=0, frames=3 * FRAME_BLOCK - 1, target_errors=1)
    @given(seed=st.integers(0, 2 ** 16), frames=PARTIAL_FRAMES,
           target_errors=st.integers(1, 1500))
    def test_fixed_frame_sweep_equals_estimate(self, table2, seed, frames,
                                               target_errors):
        """A sweep point is the estimate with the same frames and error
        target: a fixed frame count is an unreachable target."""
        ref = estimate_ser(table2, 5.0, "awgn", frames, seed=seed)
        early = estimate_ser(table2, 5.0, "awgn", frames, seed=seed,
                             target_errors=target_errors)
        for t in (1, 2, 3):
            kwargs = dict(seed=seed, threads=t)
            assert estimate_ser(table2, 5.0, "awgn", frames, **kwargs) == ref
            assert sweep_ser(table2, [5.0], "awgn", target_errors=math.inf,
                             max_frames=frames, **kwargs) == [ref]
            assert sweep_ser(table2, [5.0], "awgn", target_errors=target_errors,
                             max_frames=frames, **kwargs) == [early]


def frame_errors(cbs, ebn0_db, channel, frames, seed, stream=0,
                 mpa=MpaConfig()) -> np.ndarray:
    """(frames, J) symbol-error indicators of an unbounded run, each block
    detected in one call."""
    n0 = ebn0_to_n0(ebn0_db, cbs.config)
    out = []
    for block, lo in enumerate(range(0, frames, FRAME_BLOCK)):
        nb = min(FRAME_BLOCK, frames - lo)
        symbols, h, y = draw_frame_block(
            cbs, channel, n0, nb, block_rng(seed, stream, block))
        out.append(hard_decision(mpa_detect_batch(y, cbs, h, n0, mpa)) != symbols)
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


def shortest_prefix(errs: np.ndarray, n: float) -> np.ndarray:
    """The first frames of ``errs`` up to the one whose running error count
    reaches ``n``, or all of them if none does."""
    reached = np.flatnonzero(errs.sum(axis=1).cumsum() >= n)
    return errs[:reached[0] + 1] if reached.size else errs


def assert_counts(est, errs: np.ndarray) -> None:
    """``est`` counts exactly the frames of ``errs``."""
    J = errs.shape[1]
    assert est.frames == len(errs)
    assert est.per_user_errors == tuple(errs.sum(axis=0).tolist())
    assert est.frames_by_errors == tuple(np.bincount(errs.sum(axis=1), minlength=J + 1))


class TestBound:
    """An SER bound ends a run at the first frame where the running error
    count over the symbols asked reaches it, so a bounded estimate is the
    shortest prefix of the frame stream that reaches it; bounds are given
    here as ``n / (frames * J)`` for an error count ``n``."""

    def test_reached_bound_stops_early(self, table2, detector_calls):
        """Also for a bound between two error counts, ``n + 0.25``."""
        errs = frame_errors(table2, 4.0, "awgn", 4000, seed=21)
        for n in (int(errs.sum()) // 3, int(errs.sum()) // 3 + 0.25):
            detector_calls.clear()
            bound = n / (4000 * table2.config.J)
            est = estimate_ser(table2, 4.0, "awgn", frames=4000, seed=21, bound=bound)
            assert_counts(est, shortest_prefix(errs, n))
            assert est.symbol_errors >= n
            assert est.frames < 4000
            assert est.ser >= bound
            assert sum(detector_calls) >= est.frames

    def test_unreached_bound_gives_the_unbounded_estimate(self, table2):
        for channel, frames in (("awgn", 9000), ("rayleigh", 5000)):
            full = estimate_ser(table2, 6.0, channel, frames=frames, seed=22)
            symbols = frames * table2.config.J
            for bound in ((full.symbol_errors + 1) / symbols, 10 ** 9 / symbols,
                          float("inf")):
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
        # it stopped at the first frame that reached the bound
        assert int(errs[:est.frames - 1].sum()) < n

    @pytest.mark.parametrize("frames", [1109, 1116])
    def test_bound_of_the_first_piece_errors_stops_there(self, table2, frames):
        """``n / symbols * symbols`` rounds above ``n`` at 1109 frames and
        below it at 1116; either way the bound ``n / symbols`` stops the run
        at the frame that brings the count to ``n``, inside the first
        piece, and ``(n + 1) / symbols`` at the one that passes ``n``."""
        symbols = frames * table2.config.J
        errs = frame_errors(table2, 4.0, "awgn", frames, seed=25)
        n = int(errs[:mc.FIRST_PIECE].sum())
        assert n / symbols * symbols != n
        est = estimate_ser(table2, 4.0, "awgn", frames, seed=25, bound=n / symbols)
        assert_counts(est, shortest_prefix(errs, n))
        assert est.symbol_errors >= n and est.frames <= mc.FIRST_PIECE
        est = estimate_ser(table2, 4.0, "awgn", frames, seed=25,
                           bound=(n + 1) / symbols)
        assert_counts(est, shortest_prefix(errs, n + 1))
        assert est.frames > mc.FIRST_PIECE

    @pytest.mark.parametrize("frames", [1025, 2049, 5121, 9000])
    def test_detector_calls_cover_the_frames_detected(self, table2, detector_calls,
                                                       frames):
        errs = frame_errors(table2, 3.0, "awgn", frames, seed=24)
        for n in (1, 40, 150, 400, 10 ** 9):
            detector_calls.clear()
            est = estimate_ser(table2, 3.0, "awgn", frames=frames, seed=24,
                               bound=n / (frames * table2.config.J))
            assert_counts(est, shortest_prefix(errs, n))
            assert frames >= sum(detector_calls) >= est.frames

    def test_no_call_exceeds_the_largest_slab_of_a_whole_block(self, table2,
                                                                 detector_calls):
        """A call takes at most the next slab of the block's remaining
        frames, however long the projected piece: cutting each piece by its
        own plan made calls of 1024, 2322, 298 and 76 frames here, where a
        4096-frame block's slabs hold 2048."""
        n0 = ebn0_to_n0(8.0, table2.config)
        whole = next(_slab_plan(table2, n0, False).slabs(FRAME_BLOCK))[0].stop
        est = estimate_ser(table2, 8.0, "awgn", FRAME_BLOCK, seed=1,
                           bound=49 / (FRAME_BLOCK * table2.config.J))
        assert est.symbol_errors >= 49 and len(detector_calls) > 2
        assert max(detector_calls) <= whole

    def test_the_race_checks_after_every_call(self, detector_calls):
        """The bound is tested after each detector call, so the call that
        reaches it is the last: here the first 410-frame slab, where the
        first piece's 1024 frames ran as three calls before the test."""
        cbs = load_codebook("table6_fading_12x6")
        est = estimate_ser(cbs, 14.0, "rayleigh", FRAME_BLOCK, seed=3,
                           bound=1 / (FRAME_BLOCK * cbs.config.J))
        assert est.symbol_errors >= 1
        assert sum(detector_calls[:-1]) < est.frames <= sum(detector_calls)

    def test_negative_bound_rejected(self, table2):
        with pytest.raises(ValueError, match="bound"):
            estimate_ser(table2, 10.0, "awgn", frames=100, bound=-1)

    @pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
    @settings(max_examples=12, deadline=None)
    @example(seed=0, n=0, frames=3 * FRAME_BLOCK - 1)
    @example(seed=25716, n=2059, frames=7717)
    @given(
        seed=st.integers(0, 2 ** 16),
        n=st.integers(0, 1500),
        frames=PARTIAL_FRAMES,
    )
    def test_whether_it_stops_does_not_depend_on_threads(
        self, table2, channel, seed, n, frames
    ):
        errs = frame_errors(table2, 4.0, channel, frames, seed=seed)
        bound = n / (frames * table2.config.J)
        runs = [
            estimate_ser(table2, 4.0, channel, frames, seed=seed, threads=t,
                         bound=bound)
            for t in (1, 2, 3)
        ]
        assert runs[0] == runs[1] == runs[2]
        assert_counts(runs[0], shortest_prefix(errs, n))
        if errs.sum() >= n:
            assert runs[0].ser >= bound


class TestDerivedValues:
    """An estimate stores its per-user error counts and its frames by error
    count; the totals and the rates are computed from them."""

    def test_stores_only_what_was_measured(self):
        names = [f.name for f in dataclasses.fields(mc.SerEstimate)]
        assert names == ["per_user_errors", "frames_by_errors", "seed", "ebn0_db", "channel"]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("fixture_id,channel,ebn0_db", [
        ("table2", "awgn", 4.0), ("table3", "rayleigh", 8.0),
    ])
    def test_rates_are_the_counts_divided(self, request, fixture_id, channel,
                                          ebn0_db, threads):
        cbs = request.getfixturevalue(fixture_id)
        frames = 2 * FRAME_BLOCK + 7
        est = estimate_ser(cbs, ebn0_db, channel, frames, FAST_MPA, seed=25,
                           threads=threads)
        counts = est.per_user_errors
        assert all(type(c) is int for c in counts)
        errs = frame_errors(cbs, ebn0_db, channel, frames, seed=25, mpa=FAST_MPA)
        assert counts == tuple(errs.sum(axis=0).tolist())
        assert sum(counts) == est.symbol_errors > 0
        J = cbs.config.J
        assert est.frames_by_errors == tuple(np.bincount(errs.sum(axis=1), minlength=J + 1))
        assert all(type(c) is int for c in est.frames_by_errors)
        assert est.symbols_sent == frames * J
        assert [r.hex() for r in est.per_user_ser] == [(c / frames).hex() for c in counts]
        assert est.ser.hex() == (sum(counts) / (frames * J)).hex()


class TestFailingBlock:
    """A block that raises inside a wave fails the whole estimate, wherever
    it sits in its wave, and leaves no worker thread behind."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("bad", [0, 1, 2, 3])
    def test_raises_and_joins_its_workers(self, table2, monkeypatch, threads, bad):
        def failing_rng(seed, stream, block):
            if block == bad:
                raise RuntimeError(f"block {block} failed")
            return block_rng(seed, stream, block)

        monkeypatch.setattr(mc, "block_rng", failing_rng)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"block {bad} failed"):
            estimate_ser(table2, 6.0, "awgn", 3 * FRAME_BLOCK + 1, FAST_MPA,
                         threads=threads)
        assert threading.active_count() == before


def test_peak_memory_of_a_12x6_rayleigh_block():
    """One 4096-frame block at 1 worker holds its symbols, edge gains and
    received signal, plus one detector slab and that slab's beliefs and
    decisions at a time: ~9.9 MiB traced.  Whole (F, K, J) gains and one
    detector call for the block, whose beliefs outlive every slab, peaked
    at ~14.3 MiB."""
    cbs = load_codebook("table6_fading_12x6")
    cfg, E = cbs.config, cbs.graph.edge_user.size
    estimate_ser(cbs, 18.0, "rayleigh", 2)  # no one-off set-up in the trace
    tracemalloc.start()
    try:
        estimate_ser(cbs, 18.0, "rayleigh", FRAME_BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = FRAME_BLOCK * (8 * cfg.J + 16 * E + 16 * cfg.K)  # symbols, gains, y
    assert peak <= block + 1.5 * SLAB_BYTES
