"""Noise-variance mapping, signal synthesis, and stream derivation."""
import tracemalloc

import numpy as np
import pytest

from scma.channel import CHANNELS, SIGNAL_CHUNK, block_rng, draw_frame_block, ebn0_to_n0
from scma.core import CodebookSet
from scma.fixtures import load_codebook

from conftest import full_gains


def _solo(cbs: CodebookSet, j: int) -> CodebookSet:
    """The same codebook set with every user but ``j`` silenced."""
    books = np.zeros_like(np.asarray(cbs.books))
    books[j] = cbs.books[j]
    return CodebookSet(books, cbs.factor_matrix)


def _draw(cbs: CodebookSet, channel: str, n0: float, seed: int):
    """One 64-frame block; equal seeds give equal rng states."""
    return draw_frame_block(cbs, channel, n0, 64, block_rng(seed, 0, 0))


def whole_block_draw(cbs, channel, n0, frames, rng):
    """``draw_frame_block`` with whole-block temporaries: every codeword at
    once, and each gain formed as re + 1j * im.  The reference for its
    bytes."""
    cfg = cbs.config
    symbols = rng.integers(0, cfg.M, size=(frames, cfg.J))
    x = cbs.books[np.arange(cfg.J)[None, :], symbols, :]
    h = None
    if channel == "rayleigh":
        h = rng.standard_normal((frames, cfg.K, cfg.J)) + 1j * rng.standard_normal(
            (frames, cfg.K, cfg.J))
        h /= np.sqrt(2.0)
    signal = x.sum(axis=1) if h is None else np.einsum("fkj,fjk->fk", h, x)
    noise = rng.standard_normal((frames, cfg.K)) + 1j * rng.standard_normal((frames, cfg.K))
    return symbols, h, signal + np.sqrt(n0 / 2.0) * noise


class TestEbn0Mapping:
    def test_zero_db_m4(self, table2):
        assert ebn0_to_n0(0.0, table2.config) == pytest.approx(0.5)

    def test_ten_db_m4(self, table2):
        assert ebn0_to_n0(10.0, table2.config) == pytest.approx(0.05)

    def test_high_snr_limit(self, table2):
        assert ebn0_to_n0(60.0, table2.config) < 1e-6
        grid = [ebn0_to_n0(db, table2.config) for db in range(-10, 40, 5)]
        assert all(a > b for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("ebn0_db", [
        5000.0, -5000.0, -3100.0, float("nan"),
        pytest.param(np.float64(5000), id="numpy-5000"),
        pytest.param(np.float64(-5000), id="numpy--5000"),
    ])
    def test_out_of_range_names_the_ebn0(self, table2, ebn0_db):
        """+5000 dB overflows the power of ten, -5000 dB underflows it to
        zero, and -3100 dB gives an infinite n0; a numpy scalar fails the
        same way, with no warning."""
        with pytest.raises(ValueError, match=f"Eb/N0 {ebn0_db:g} dB is out of range"):
            ebn0_to_n0(ebn0_db, table2.config)


class TestTransmit:
    def test_noiseless_single_user_identity(self, table2):
        symbols, _, y = _draw(_solo(table2, 2), "awgn", 0.0, seed=0)
        ref, _, _ = _draw(table2, "awgn", 0.0, seed=0)
        assert np.array_equal(symbols, ref)
        assert np.array_equal(y, table2.books[2, symbols[:, 2]])

    def test_noiseless_superposition_of_codewords(self, table2):
        symbols, h, y = _draw(table2, "awgn", 0.0, seed=0)
        assert h is None
        expected = sum(table2.books[j, symbols[:, j]] for j in range(table2.config.J))
        assert np.allclose(y, expected, atol=1e-15)

    def test_linear_in_each_users_codeword_at_fixed_noise(self, table2):
        symbols, _, y1 = _draw(table2, "awgn", 0.3, seed=99)
        books = np.array(table2.books)
        books[0] *= 2.0
        doubled = CodebookSet(books, table2.factor_matrix)
        same, _, y2 = _draw(doubled, "awgn", 0.3, seed=99)
        assert np.array_equal(symbols, same)
        assert np.allclose(y2 - y1, table2.books[0, symbols[:, 0]], atol=1e-12)

    def test_noise_power_matches_n0(self, table2):
        n0 = 0.8
        rng = block_rng(5, 0, 0)
        frames = 10 ** 5 // 4
        symbols, _, y = draw_frame_block(table2, "awgn", n0, frames, rng)
        signal = table2.books[np.arange(6)[None, :], symbols, :].sum(axis=1)
        power = np.mean(np.abs(y - signal) ** 2) * table2.config.K
        assert power == pytest.approx(table2.config.K * n0, rel=0.05)


class TestRayleigh:
    def test_unit_mean_square_gain(self, table2):
        rng = block_rng(11, 0, 0)
        frames = 42000  # about half a million edge gains
        _, h, _ = draw_frame_block(table2, "rayleigh", 0.1, frames, rng)
        assert 0.995 <= np.mean(np.abs(h) ** 2) <= 1.005

    def test_realization_shape(self, table2):
        symbols, h, y = _draw(table2, "rayleigh", 0.0, seed=1)
        assert h.shape == (64, 12)
        x = table2.books[np.arange(6)[None, :], symbols, :]
        assert np.allclose(y, np.einsum("fkj,fjk->fk", full_gains(table2, h), x), atol=1e-15)


class TestStreamDerivation:
    def test_same_triple_same_draws(self):
        a = block_rng(42, 1, 7).standard_normal(16)
        b = block_rng(42, 1, 7).standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_blocks_differ(self):
        a = block_rng(42, 1, 7).standard_normal(16)
        b = block_rng(42, 1, 8).standard_normal(16)
        c = block_rng(42, 2, 7).standard_normal(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_block_draws_reproducible(self, table2):
        s1, h1, y1 = draw_frame_block(table2, "rayleigh", 0.2, 64, block_rng(3, 0, 0))
        s2, h2, y2 = draw_frame_block(table2, "rayleigh", 0.2, 64, block_rng(3, 0, 0))
        assert np.array_equal(s1, s2)
        assert np.array_equal(h1, h2)
        assert np.array_equal(y1, y2)

    def test_unknown_channel_rejected(self, table2):
        with pytest.raises(ValueError):
            draw_frame_block(table2, "rician", 0.1, 4, block_rng(0, 0, 0))


class TestRealizationGains:
    def test_each_user_enters_through_its_own_gains(self, table2):
        symbols, h, y = _draw(table2, "rayleigh", 0.0, seed=4)
        total = np.zeros_like(y)
        for j in range(table2.config.J):
            same, h_j, y_j = _draw(_solo(table2, j), "rayleigh", 0.0, seed=4)
            assert np.array_equal(same, symbols) and np.array_equal(h_j, h)
            x_j = table2.books[j, symbols[:, j]]
            assert np.allclose(y_j, full_gains(table2, h)[:, :, j] * x_j, atol=1e-15)
            total += y_j
        assert np.allclose(y, total, atol=1e-15)


def off_support_codebook(cbs: CodebookSet) -> CodebookSet:
    """``cbs`` with one nonzero codeword entry outside its factor matrix."""
    books, F = np.array(cbs.books), np.asarray(cbs.factor_matrix)
    k, j = np.argwhere(F == 0)[0]
    books[j, 1, k] = 0.3 - 0.2j
    return CodebookSet(books, F)


def silent_edge_codebook(cbs: CodebookSet) -> CodebookSet:
    """``cbs`` with every codeword entry on one edge of its factor matrix
    zeroed."""
    books, F = np.array(cbs.books), np.asarray(cbs.factor_matrix)
    k, j = np.argwhere(F == 1)[0]
    books[j, :, k] = 0
    return CodebookSet(books, F)


class NoCopyGenerator(np.random.Generator):
    """A generator that refuses to be copied or pickled."""

    def __copy__(self):
        raise TypeError("the generator was copied")

    def __deepcopy__(self, memo):
        raise TypeError("the generator was deep-copied")

    def __reduce__(self):
        raise TypeError("the generator was pickled")


class TestDrawMemory:
    FRAMES = (0, 1, SIGNAL_CHUNK - 1, SIGNAL_CHUNK, SIGNAL_CHUNK + 1, 2 * SIGNAL_CHUNK + 3, 4096)

    @staticmethod
    def assert_same_draw(cbs, channel, frames, seed, generator=np.random.Generator):
        """``draw_frame_block``'s bytes, on a ``generator`` over the block's
        bit generator, are the whole-block draw's, its gains those on the
        edges of ``cbs.graph``."""
        rng = generator(block_rng(seed, 0, frames).bit_generator)
        got = draw_frame_block(cbs, channel, 0.3, frames, rng)
        ref = list(whole_block_draw(cbs, channel, 0.3, frames, block_rng(seed, 0, frames)))
        if ref[1] is not None:
            ref[1] = ref[1][:, cbs.graph.edge_res, cbs.graph.edge_user]
        for a, b in zip(got, ref):
            assert (a is None) == (b is None), (frames, seed)
            if a is not None:
                assert a.dtype == b.dtype and a.shape == b.shape, (frames, seed)
                assert a.tobytes() == b.tobytes(), (frames, seed)

    @pytest.mark.parametrize("channel", CHANNELS)
    @pytest.mark.parametrize("name", ["table2_awgn_6x4", "table6_fading_12x6"])
    def test_bytes_equal_the_whole_block_draw(self, name, channel):
        """At frame counts around the signal's chunk edges, on three seeds."""
        cbs = load_codebook(name)
        for frames in self.FRAMES:
            for seed in (1, 2, 3):
                self.assert_same_draw(cbs, channel, frames, seed)

    @pytest.mark.parametrize("name", ["table2_awgn_6x4", "table6_fading_12x6"])
    def test_energy_off_the_factor_matrix_is_received(self, name):
        """A codebook with energy outside its factor matrix, which ``validate``
        flags but a simulation accepts: on Rayleigh, its symbols and signal
        are the whole-block draw's, whose gains cover every (k, j)."""
        cbs = off_support_codebook(load_codebook(name))
        for frames in self.FRAMES:
            self.assert_same_draw(cbs, "rayleigh", frames, 1)

    @pytest.mark.parametrize("channel", CHANNELS)
    @pytest.mark.parametrize("name", ["table2_awgn_6x4", "table6_fading_12x6", "off_support"])
    def test_the_generator_is_never_copied(self, name, channel):
        """The draw reads its generator's stream once, in order: a generator
        that cannot be copied gives the whole-block draw's bytes."""
        cbs = (off_support_codebook(load_codebook("table6_fading_12x6"))
               if name == "off_support" else load_codebook(name))
        for frames in self.FRAMES:
            self.assert_same_draw(cbs, channel, frames, 1, NoCopyGenerator)

    @pytest.mark.parametrize("off_support", [False, True])
    @pytest.mark.parametrize("name", ["table2_awgn_6x4", "table6_fading_12x6"])
    def test_an_edge_no_codeword_reaches_keeps_its_gain(self, name, off_support):
        """An edge whose codeword entries are all zero still returns its
        gain, alone and beside energy off the factor matrix."""
        cbs = silent_edge_codebook(load_codebook(name))
        if off_support:
            cbs = off_support_codebook(cbs)
        for frames in self.FRAMES:
            self.assert_same_draw(cbs, "rayleigh", frames, 1)

    @staticmethod
    def traced_draw(channel):
        """One 4096-frame 12x6 block's returned bytes, traced peak and chunk
        of codewords; the generator is built before tracing starts."""
        cbs = load_codebook("table6_fading_12x6")
        rng = block_rng(1, 0, 0)
        tracemalloc.start()
        try:
            out = draw_frame_block(cbs, channel, 0.1, 4096, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in out if a is not None)
        return held, peak, SIGNAL_CHUNK * cbs.config.J * cbs.config.K * 16

    def test_peak_of_a_12x6_rayleigh_block(self):
        """A 4096-frame block holds what it returns and, per chunk of
        frames, the complex (K, J) gains with the dropped ones zeroed and the
        codewords, less than 2.5 chunks of codewords in all: ~4.6 MiB,
        against ~5.4 MiB with a float part of the gains per chunk and a
        separate signal array, ~7.6 MiB with whole-block (F, K, J) gains and
        ~14.0 MiB with the whole block's codewords and temporaries."""
        held, peak, chunk = self.traced_draw("rayleigh")
        assert peak <= held + 2.5 * chunk

    def test_peak_of_a_12x6_awgn_block(self):
        """A 4096-frame block holds what it returns and one chunk of
        codewords with its sum: ~2.0 MiB, against ~3.1 MiB with separate
        signal and complex noise arrays."""
        held, peak, chunk = self.traced_draw("awgn")
        assert peak <= held + 1.5 * chunk
