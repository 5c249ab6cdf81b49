"""Message-passing detection against exact references."""
import numpy as np
import pytest
from scipy.special import logsumexp

from scma.channel import block_rng, draw_frame_block, ebn0_to_n0
from scma.core import CodebookSet
from scma.detector import (
    MpaConfig,
    hard_decision,
    map_detect,
    map_detect_batch,
    mpa_detect,
    mpa_detect_batch,
)
from scma.fixtures import load_codebook

from conftest import brute_force_marginals, qpsk_set


def per_slot_mpa(y, cbs, h, n0, cfg):
    """Sum-product with one resource update per outgoing message: a full
    einsum over the weight table in the linear domain, broadcast plus
    logsumexp (or max) in the log domain.  Frames-first layout throughout;
    kept independent of the detector's shared-partials kernel."""
    books, F = np.asarray(cbs.books), np.asarray(cbs.factor_matrix)
    (K, J), M, frames = F.shape, books.shape[1], y.shape[0]
    res_users = [np.flatnonzero(F[k]) for k in range(K)]
    user_res = [np.flatnonzero(F[:, j]) for j in range(J)]
    pos = {(k, j): p for k in range(K) for p, j in enumerate(res_users[k])}

    def normalize(m):
        total = m.sum(axis=-1, keepdims=True)
        if (total <= 0.0).any():
            m = np.where(total <= 0.0, 1.0, m)
            total = m.sum(axis=-1, keepdims=True)
        return m / total

    logW = []
    for k in range(K):
        d = len(res_users[k])
        S = np.zeros((1,) * (1 + d), complex)
        for p, j in enumerate(res_users[k]):
            shape = [1] * (1 + d)
            shape[1 + p] = M
            c = books[j, :, k]
            if h is not None:
                c = h[:, k, j][:, None] * c[None, :]
                shape[0] = frames
            S = S + c.reshape(shape)
        diff = y[:, k].reshape((frames,) + (1,) * d) - S
        A = -(diff.real ** 2 + diff.imag ** 2) / n0
        logW.append(A - A.max(axis=tuple(range(1, 1 + d)), keepdims=True))
    W = [np.exp(lw) for lw in logW]
    Q = [np.full((len(res_users[k]), frames, M), 1.0 / M) for k in range(K)]
    R = [np.empty_like(q) for q in Q]
    letters = "abcde"
    for _ in range(cfg.iterations):
        for k in range(K):
            d = len(res_users[k])
            if cfg.domain == "linear":
                for p in range(d):
                    others = [q for q in range(d) if q != p]
                    sub = ",".join(
                        ["f" + letters[:d]] + ["f" + letters[q] for q in others]
                    )
                    R[k][p] = np.einsum(
                        sub + "->f" + letters[p], W[k], *[Q[k][q] for q in others],
                        optimize="optimal",
                    )
                R[k][:] = normalize(R[k])
                continue
            with np.errstate(divide="ignore"):
                logQ = np.log(Q[k])
            for p in range(d):
                B = logW[k]
                for q in range(d):
                    if q != p:
                        shape = [frames] + [1] * d
                        shape[1 + q] = M
                        B = B + logQ[q].reshape(shape)
                axes = tuple(ax for ax in range(1, 1 + d) if ax != 1 + p)
                lr = B.max(axis=axes) if cfg.max_log else logsumexp(B, axis=axes)
                R[k][p] = np.exp(lr - logsumexp(lr, axis=1, keepdims=True))
        for j in range(J):
            incoming = [R[k][pos[(k, j)]] for k in user_res[j]]
            for t, k in enumerate(user_res[j]):
                out = np.ones((frames, M))
                for msg in incoming[:t] + incoming[t + 1:]:
                    out = out * msg
                out = normalize(out)
                if cfg.damping > 0.0:
                    out = (1.0 - cfg.damping) * out + cfg.damping * Q[k][pos[(k, j)]]
                Q[k][pos[(k, j)]] = out
    beliefs = np.empty((frames, J, M))
    for j in range(J):
        b = np.ones((frames, M))
        for k in user_res[j]:
            b = b * R[k][pos[(k, j)]]
        beliefs[:, j, :] = normalize(b)
    return beliefs


def tree_system(seed=7):
    """Cycle-free two-user system: user 1 occupies both resources, user 2
    only the second."""
    rng = np.random.default_rng(seed)
    books = np.zeros((2, 4, 2), complex)
    books[0, :, 0] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    books[0, :, 1] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    books[1, :, 1] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return CodebookSet.from_books(books / 1.5, np.array([[1, 0], [1, 1]]))


class TestTreeExactness:
    @pytest.mark.parametrize("domain", ["linear", "log"])
    def test_beliefs_match_exact_marginals(self, domain):
        cbs = tree_system()
        rng = np.random.default_rng(17)
        n0 = 0.35
        for _ in range(10):
            y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            beliefs = mpa_detect(y, cbs, None, n0, MpaConfig(iterations=2, domain=domain))
            exact = brute_force_marginals(np.asarray(cbs.books), y, None, n0)
            assert np.abs(beliefs - exact).max() < 1e-10

    def test_exact_with_fading_gains(self):
        cbs = tree_system(seed=8)
        rng = np.random.default_rng(18)
        h = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        beliefs = mpa_detect(y, cbs, h, 0.5, MpaConfig(iterations=2))
        exact = brute_force_marginals(np.asarray(cbs.books), y, h, 0.5)
        assert np.abs(beliefs - exact).max() < 1e-10


class TestMpaBehavior:
    def test_noiseless_frames_decode_exactly(self, table2):
        symbols, _, y = draw_frame_block(table2, "awgn", 0.0, 100, block_rng(1, 0, 0))
        beliefs = mpa_detect_batch(y, table2, None, 1e-4, MpaConfig())
        assert np.array_equal(hard_decision(beliefs), symbols)

    def test_beliefs_are_normalized(self, table2):
        n0 = ebn0_to_n0(6.0, table2.config)
        _, _, y = draw_frame_block(table2, "awgn", n0, 50, block_rng(2, 0, 0))
        for domain in ("linear", "log"):
            b = mpa_detect_batch(y, table2, None, n0, MpaConfig(domain=domain))
            assert (b >= 0).all()
            assert np.abs(b.sum(axis=2) - 1.0).max() < 1e-9

    def test_linear_and_log_domains_agree(self, table2):
        n0 = 0.05
        _, _, y = draw_frame_block(table2, "awgn", n0, 64, block_rng(3, 0, 0))
        lin = mpa_detect_batch(y, table2, None, n0, MpaConfig(domain="linear"))
        log = mpa_detect_batch(y, table2, None, n0, MpaConfig(domain="log"))
        assert np.abs(lin - log).max() < 1e-7

    def test_permutation_equivariance(self, table2):
        n0 = 0.1
        _, _, y = draw_frame_block(table2, "awgn", n0, 16, block_rng(4, 0, 0))
        perm = np.array([3, 0, 5, 1, 4, 2])
        permuted = CodebookSet.from_books(
            np.asarray(table2.books)[perm], np.asarray(table2.factor_matrix)[:, perm]
        )
        base = mpa_detect_batch(y, table2, None, n0, MpaConfig())
        relabeled = mpa_detect_batch(y, permuted, None, n0, MpaConfig())
        assert np.abs(relabeled - base[:, perm, :]).max() < 1e-9

    def test_scaling_consistency(self, table2):
        n0 = 0.08
        c = 0.6 - 1.1j
        _, h, y = draw_frame_block(table2, "rayleigh", n0, 16, block_rng(5, 0, 0))
        base = mpa_detect_batch(y, table2, h, n0, MpaConfig())
        scaled = mpa_detect_batch(c * y, table2, c * h, abs(c) ** 2 * n0, MpaConfig())
        assert np.abs(scaled - base).max() < 1e-9

    def test_damping_preserves_fixed_point(self, table2):
        n0 = 0.05
        _, _, y = draw_frame_block(table2, "awgn", n0, 32, block_rng(6, 0, 0))
        plain = mpa_detect_batch(y, table2, None, n0, MpaConfig(iterations=30))
        damped = mpa_detect_batch(
            y, table2, None, n0, MpaConfig(iterations=30, damping=0.3)
        )
        assert np.abs(plain - damped).max() < 1e-6

    def test_max_log_variant_decodes_noiseless(self, table2):
        symbols, _, y = draw_frame_block(table2, "awgn", 0.0, 50, block_rng(7, 0, 0))
        cfg = MpaConfig(domain="log", max_log=True)
        assert np.array_equal(
            hard_decision(mpa_detect_batch(y, table2, None, 1e-3, cfg)), symbols
        )

    def test_input_validation(self, table2):
        y = np.zeros((1, 4), complex)
        with pytest.raises(ValueError):
            mpa_detect_batch(y, table2, None, 0.0)
        bad = y.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            mpa_detect_batch(bad, table2, None, 0.1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MpaConfig(iterations=0)
        with pytest.raises(ValueError):
            MpaConfig(domain="fuzzy")
        with pytest.raises(ValueError):
            MpaConfig(damping=1.0)
        with pytest.raises(ValueError):
            MpaConfig(max_log=True, domain="linear")


SHIPPED_SYSTEMS = [
    ("table2_awgn_6x4", "awgn"),
    ("table3_fading_6x4", "rayleigh"),
    ("table5_awgn_12x6", "awgn"),
    ("table6_fading_12x6", "rayleigh"),
]


class TestPerSlotParity:
    """The shared-partials kernel against the per-slot reference on one
    256-frame block of each shipped system."""

    @pytest.mark.parametrize("ebn0_db", [0.0, 9.0, 18.0])
    @pytest.mark.parametrize("name,channel", SHIPPED_SYSTEMS)
    def test_marginals_and_decisions_match(self, name, channel, ebn0_db):
        cbs = load_codebook(name)
        n0 = ebn0_to_n0(ebn0_db, cbs.config)
        _, h, y = draw_frame_block(cbs, channel, n0, 256, block_rng(21, 0, 0))
        for damping in (0.0, 0.3):
            for domain in ("linear", "log"):
                cfg = MpaConfig(domain=domain, damping=damping)
                ref = per_slot_mpa(y, cbs, h, n0, cfg)
                got = mpa_detect_batch(y, cbs, h, n0, cfg)
                assert np.abs(got - ref).max() < 1e-12, (domain, damping)
                assert np.array_equal(hard_decision(got), hard_decision(ref))
            cfg = MpaConfig(domain="log", damping=damping, max_log=True)
            assert np.array_equal(
                hard_decision(mpa_detect_batch(y, cbs, h, n0, cfg)),
                hard_decision(per_slot_mpa(y, cbs, h, n0, cfg)),
            )


class TestLogRescue:
    def test_underflowing_frame_keeps_log_beliefs(self, table2):
        """Every user sends symbol 0, but user 0's first resource carries the
        superposition with user 0 at symbol 2.  At n0 = 1e-4 the two
        resources' messages for user 0 share no symbol above the underflow
        range, so the linear sums vanish and only log arithmetic keeps the
        beliefs."""
        books, F = np.asarray(table2.books), np.asarray(table2.factor_matrix)
        y = books[:, 0, :].sum(axis=0)
        k0 = np.flatnonzero(F[:, 0])[0]
        y[k0] += books[0, 2, k0] - books[0, 0, k0]
        y = y[None, :]
        n0 = 1e-4
        ref = per_slot_mpa(y, table2, None, n0, MpaConfig(domain="log"))
        log = mpa_detect_batch(y, table2, None, n0, MpaConfig(domain="log"))
        lin = mpa_detect_batch(y, table2, None, n0, MpaConfig(domain="linear"))
        assert np.abs(log - ref).max() < 1e-12
        assert np.abs(lin - ref).max() > 0.5


class TestMapOracle:
    def test_noiseless_recovery(self, table2):
        symbols, _, y = draw_frame_block(table2, "awgn", 0.0, 64, block_rng(8, 0, 0))
        assert np.array_equal(map_detect_batch(y, table2, None, 0.05), symbols)

    def test_single_user_reduces_to_nearest_codeword(self):
        cbs = qpsk_set()
        rng = np.random.default_rng(12)
        y = rng.standard_normal((40, 1)) + 1j * rng.standard_normal((40, 1))
        decided = map_detect_batch(y, cbs, None, 0.2)[:, 0]
        nearest = np.argmin(np.abs(y - cbs.books[0, :, 0][None, :]) ** 2, axis=1)
        assert np.array_equal(decided, nearest)

    def test_single_frame_wrapper(self, table2):
        _, _, y = draw_frame_block(table2, "awgn", 0.05, 1, block_rng(9, 0, 0))
        assert map_detect(y[0], table2, None, 0.05).shape == (6,)

    def test_agreement_with_mpa_at_moderate_snr(self, table2):
        n0 = ebn0_to_n0(10.0, table2.config)
        symbols, _, y = draw_frame_block(table2, "awgn", n0, 10 ** 4, block_rng(10, 0, 0))
        mpa = hard_decision(mpa_detect_batch(y, table2, None, n0, MpaConfig()))
        joint = map_detect_batch(y, table2, None, n0)
        agreement = np.mean((mpa == joint).all(axis=1))
        assert agreement >= 0.99
        # the joint-ML oracle is at least as good on the same frames
        assert (joint != symbols).mean() <= (mpa != symbols).mean()

    def test_enumeration_guard(self):
        books = np.zeros((13, 4, 2), complex)
        books[:, :, 0] = np.arange(52).reshape(13, 4)
        big = CodebookSet.from_books(books)
        with pytest.raises(ValueError, match="mpa_detect"):
            map_detect_batch(np.zeros((1, 2), complex), big, None, 0.1)

    def test_fading_path_matches_awgn_with_unit_gains(self, table2):
        n0 = 0.05
        _, _, y = draw_frame_block(table2, "awgn", n0, 32, block_rng(11, 0, 0))
        ones = np.ones((32, 4, 6), complex)
        assert np.array_equal(
            map_detect_batch(y, table2, None, n0),
            map_detect_batch(y, table2, ones, n0),
        )


class TestHardDecision:
    def test_uniform_goes_to_first_index(self):
        assert hard_decision(np.full((2, 4), 0.25)).tolist() == [0, 0]

    def test_one_hot(self):
        b = np.zeros((1, 4))
        b[0, 2] = 1.0
        assert hard_decision(b).tolist() == [2]

    def test_plain_argmax(self):
        assert hard_decision(np.array([[0.1, 0.6, 0.2, 0.1]])).tolist() == [1]
