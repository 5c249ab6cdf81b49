"""Noise-variance mapping, signal synthesis, and stream derivation."""
import numpy as np
import pytest

from scma.channel import block_rng, draw_frame_block, ebn0_to_n0
from scma.core import CodebookSet


def _solo(cbs: CodebookSet, j: int) -> CodebookSet:
    """The same codebook set with every user but ``j`` silenced."""
    books = np.zeros_like(np.asarray(cbs.books))
    books[j] = cbs.books[j]
    return CodebookSet(books, cbs.factor_matrix)


def _draw(cbs: CodebookSet, channel: str, n0: float, seed: int):
    """One 64-frame block; equal seeds give equal rng states."""
    return draw_frame_block(cbs, channel, n0, 64, block_rng(seed, 0, 0))


class TestEbn0Mapping:
    def test_zero_db_m4(self, table2):
        assert ebn0_to_n0(0.0, table2.config) == pytest.approx(0.5)

    def test_ten_db_m4(self, table2):
        assert ebn0_to_n0(10.0, table2.config) == pytest.approx(0.05)

    def test_high_snr_limit(self, table2):
        assert ebn0_to_n0(60.0, table2.config) < 1e-6
        grid = [ebn0_to_n0(db, table2.config) for db in range(-10, 40, 5)]
        assert all(a > b for a, b in zip(grid, grid[1:]))


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
        frames = 42000  # about one million gain draws
        _, h, _ = draw_frame_block(table2, "rayleigh", 0.1, frames, rng)
        assert 0.995 <= np.mean(np.abs(h) ** 2) <= 1.005

    def test_realization_shape(self, table2):
        symbols, h, y = _draw(table2, "rayleigh", 0.0, seed=1)
        assert h.shape == (64, 4, 6)
        x = table2.books[np.arange(6)[None, :], symbols, :]
        assert np.allclose(y, np.einsum("fkj,fjk->fk", h, x), atol=1e-15)


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
            assert np.allclose(y_j, h[:, :, j] * x_j, atol=1e-15)
            total += y_j
        assert np.allclose(y, total, atol=1e-15)
