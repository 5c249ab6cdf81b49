"""Message-passing detection against exact references."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from scma import detector
from scma.channel import block_rng, draw_frame_block, ebn0_to_n0
from scma.core import CodebookSet
from scma.detector import (
    FLUSH_FLOOR,
    MpaConfig,
    _flushed_exp,
    _log_resource,
    _log_weights,
    hard_decision,
    mpa_detect_batch,
)
from scma.fixtures import load_codebook
from scma.structure import derive_8x4

from conftest import brute_force_marginals, map_detect_batch, per_resource_mpa, qpsk_set


def per_slot_mpa(y, cbs, h, n0, cfg, log=False):
    """Sum-product with one resource update per outgoing message: a full
    einsum over the weight table in linear arithmetic, or with log, broadcast
    plus logsumexp in log arithmetic.  Frames-first layout throughout; kept
    independent of the detector's shared-partials kernel."""
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
            if not log:
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
                lr = logsumexp(B, axis=axes)
                R[k][p] = np.exp(lr - logsumexp(lr, axis=1, keepdims=True))
        for j in range(J):
            incoming = [R[k][pos[(k, j)]] for k in user_res[j]]
            for t, k in enumerate(user_res[j]):
                out = np.ones((frames, M))
                for msg in incoming[:t] + incoming[t + 1:]:
                    out = out * msg
                Q[k][pos[(k, j)]] = normalize(out)
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
    return CodebookSet(books / 1.5, np.array([[1, 0], [1, 1]]))


class TestTreeExactness:
    def test_beliefs_match_exact_marginals(self):
        cbs = tree_system()
        rng = np.random.default_rng(17)
        n0 = 0.35
        for _ in range(10):
            y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            beliefs = mpa_detect_batch(y[None], cbs, None, n0, MpaConfig(iterations=2))[0]
            exact = brute_force_marginals(np.asarray(cbs.books), y, None, n0)
            assert np.abs(beliefs - exact).max() < 1e-10

    def test_exact_with_fading_gains(self):
        cbs = tree_system(seed=8)
        rng = np.random.default_rng(18)
        h = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        beliefs = mpa_detect_batch(y[None], cbs, h[None], 0.5, MpaConfig(iterations=2))[0]
        exact = brute_force_marginals(np.asarray(cbs.books), y, h, 0.5)
        assert np.abs(beliefs - exact).max() < 1e-10


@st.composite
def tree_systems(draw):
    """A random system whose factor graph is a tree, one received frame, and
    its (K, J) gains or None.  Every node after resource 0 attaches to one
    already placed node of the other kind."""
    K, J = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    kinds = draw(st.permutations(["k"] * (K - 1) + ["j"] * J).filter(
        lambda order: order[0] == "j"))
    F = np.zeros((K, J), dtype=np.int64)
    placed = {"k": [0], "j": []}
    for kind in kinds:
        other = "j" if kind == "k" else "k"
        new = len(placed[kind])
        anchor = draw(st.sampled_from(placed[other]))
        k, j = (new, anchor) if kind == "k" else (anchor, new)
        F[k, j] = 1
        placed[kind].append(new)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = draw(st.sampled_from([2, 4]))
    books = (rng.standard_normal((J, M, K)) + 1j * rng.standard_normal((J, M, K)))
    books *= F.T[:, None, :]
    y = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    h = None
    if draw(st.booleans()):
        h = (rng.standard_normal((K, J)) + 1j * rng.standard_normal((K, J))) / np.sqrt(2)
    return CodebookSet(books, F), y, h


class TestCycleFreeGraphs:
    """On a tree, K + J sweeps of sum-product give the exact marginals."""

    @settings(max_examples=60, deadline=None)
    @given(tree_systems(), st.sampled_from([0.1, 0.4, 2.0]))
    def test_beliefs_equal_brute_force_marginals(self, system, n0):
        cbs, y, h = system
        cfg = MpaConfig(iterations=cbs.config.K + cbs.config.J)
        exact = brute_force_marginals(np.asarray(cbs.books), y, h, n0)
        hb = None if h is None else h[None]
        assert np.abs(mpa_detect_batch(y[None], cbs, hb, n0, cfg) - exact).max() <= 1e-9

    @pytest.mark.parametrize("n0", [1e-3, 1.5e-3, 2e-3])
    def test_log_rescue_keeps_conflicting_tree_frame_exact(self, n0):
        """User 0's two resources favour different symbols by hundreds of
        nats.  Every linear sum of resource 1 underflows or flushes, so
        linear arithmetic alone makes its message uniform (off by 0.75), and
        the rescue keeps the exact marginals."""
        cbs = tree_system(seed=8)
        books = np.asarray(cbs.books)
        y = np.array([books[0, 1, 0], books[0, 3, 1] + books[1, 0, 1]])
        exact = brute_force_marginals(books, y, None, n0)
        assert np.abs(mpa_detect_batch(y[None], cbs, None, n0) - exact).max() <= 1e-9


class TestMpaBehavior:
    def test_noiseless_frames_decode_exactly(self, table2):
        symbols, _, y = draw_frame_block(table2, "awgn", 0.0, 100, block_rng(1, 0, 0))
        beliefs = mpa_detect_batch(y, table2, None, 1e-4, MpaConfig())
        assert np.array_equal(hard_decision(beliefs), symbols)

    def test_beliefs_are_normalized(self, table2):
        n0 = ebn0_to_n0(6.0, table2.config)
        _, _, y = draw_frame_block(table2, "awgn", n0, 50, block_rng(2, 0, 0))
        b = mpa_detect_batch(y, table2, None, n0)
        assert (b >= 0).all()
        assert np.abs(b.sum(axis=2) - 1.0).max() < 1e-9

    def test_linear_and_log_arithmetic_agree(self, table2):
        n0 = 0.05
        _, _, y = draw_frame_block(table2, "awgn", n0, 64, block_rng(3, 0, 0))
        got = mpa_detect_batch(y, table2, None, n0)
        lin = per_slot_mpa(y, table2, None, n0, MpaConfig())
        log = per_slot_mpa(y, table2, None, n0, MpaConfig(), log=True)
        assert np.abs(lin - log).max() < 1e-7
        assert np.abs(got - log).max() < 1e-7

    def test_permutation_equivariance(self, table2):
        n0 = 0.1
        _, _, y = draw_frame_block(table2, "awgn", n0, 16, block_rng(4, 0, 0))
        perm = np.array([3, 0, 5, 1, 4, 2])
        permuted = CodebookSet(
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

    def test_input_validation(self, table2):
        y = np.zeros((1, 4), complex)
        with pytest.raises(ValueError):
            mpa_detect_batch(y, table2, None, 0.0)
        bad = y.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            mpa_detect_batch(bad, table2, None, 0.1)

    @pytest.mark.parametrize("detect", [mpa_detect_batch, map_detect_batch])
    @pytest.mark.parametrize("n0", [np.nan, np.inf])
    def test_non_finite_noise_rejected(self, table2, detect, n0):
        """A NaN n0 made all-NaN beliefs that decided symbol 0, and an
        infinite one uniform beliefs."""
        with pytest.raises(ValueError, match="n0 must be finite and positive"):
            detect(np.zeros((1, 4), complex), table2, None, n0)

    @pytest.mark.parametrize("detect", [mpa_detect_batch, map_detect_batch])
    @pytest.mark.parametrize("y_shape,h_shape", [
        ((3, 5), None),
        ((3, 4), (3, 4, 7)),
        ((3, 4), (2, 4, 6)),
        ((3, 4), (3, 6, 4)),
    ])
    def test_input_shapes_checked(self, table2, detect, y_shape, h_shape):
        """y must be (frames, K) and h (frames, K, J); extra columns are not
        silently dropped."""
        y = np.zeros(y_shape, complex)
        h = None if h_shape is None else np.ones(h_shape, complex)
        with pytest.raises(ValueError, match=r"has shape .* expected"):
            detect(y, table2, h, 0.1)

    def test_isolated_user_rejected(self, table2):
        """A user on no resource loads as a codebook set but cannot be
        detected."""
        books, F = np.array(table2.books), np.array(table2.factor_matrix)
        books[2], F[:, 2] = 0.0, 0
        cbs = CodebookSet(books, F)
        with pytest.raises(ValueError, match="isolated"):
            mpa_detect_batch(np.zeros((1, 4), complex), cbs, None, 0.1)

    def test_config_validation(self):
        for iterations in (0, 1.5):
            with pytest.raises(ValueError, match="iterations must be an integer >= 1"):
                MpaConfig(iterations=iterations)
        with pytest.raises(ValueError):
            MpaConfig(domain="fuzzy")


SHIPPED_SYSTEMS = [
    ("table2_awgn_6x4", "awgn"),
    ("table3_fading_6x4", "rayleigh"),
    ("table5_awgn_12x6", "awgn"),
    ("table6_fading_12x6", "rayleigh"),
]


class TestPerSlotParity:
    """The shared-partials kernel against the per-slot reference on one
    256-frame block of each shipped system.  At 30 dB most blocks have table
    entries below the flush floor, which the reference keeps."""

    @pytest.mark.parametrize("ebn0_db", [0.0, 9.0, 18.0, 30.0])
    @pytest.mark.parametrize("name,channel", SHIPPED_SYSTEMS)
    def test_marginals_and_decisions_match(self, name, channel, ebn0_db):
        cbs = load_codebook(name)
        n0 = ebn0_to_n0(ebn0_db, cbs.config)
        _, h, y = draw_frame_block(cbs, channel, n0, 256, block_rng(21, 0, 0))
        got = mpa_detect_batch(y, cbs, h, n0, MpaConfig())
        for log in (False, True):
            ref = per_slot_mpa(y, cbs, h, n0, MpaConfig(), log=log)
            assert np.abs(got - ref).max() < 1e-12, log
            assert np.array_equal(hard_decision(got), hard_decision(ref))


def resource_tables(name, channel, ebn0_db, frames=256):
    """(y column, per-user contributions, n0) of every resource of one block
    of a shipped system, as the detector passes them to ``_log_weights``."""
    cbs = load_codebook(name)
    n0 = ebn0_to_n0(ebn0_db, cbs.config)
    _, h, y = draw_frame_block(cbs, channel, n0, frames, block_rng(21, 0, 0))
    books, F = np.asarray(cbs.books), np.asarray(cbs.factor_matrix)
    for k in range(F.shape[0]):
        users = np.flatnonzero(F[k])
        contribs = [books[j, :, k] if h is None else
                    h[:, k, j][None, :] * books[j, :, k][:, None] for j in users]
        yield y[:, k], contribs, n0


class TestWeightTables:
    @pytest.mark.parametrize("ebn0_db", [0.0, 18.0, 30.0])
    @pytest.mark.parametrize("name,channel", SHIPPED_SYSTEMS)
    def test_log_weights_bit_identical_to_complex_formula(self, name, channel, ebn0_db):
        for y_col, contribs, n0 in resource_tables(name, channel, ebn0_db):
            d, frames = len(contribs), y_col.shape[0]
            S = np.zeros((1,) * (1 + d), dtype=np.complex128)
            for p, c in enumerate(contribs):
                shape = [1] * (1 + d)
                shape[p] = 4
                if c.ndim == 2:
                    shape[d] = frames
                S = S + c.reshape(shape)
            diff = y_col.reshape((1,) * d + (frames,)) - S
            A = -(diff.real ** 2 + diff.imag ** 2) / n0
            A -= A.max(axis=tuple(range(d)), keepdims=True)
            got = _log_weights(y_col, contribs, n0)
            assert got.shape == A.shape and got.tobytes() == A.tobytes()

    @pytest.mark.parametrize("name,channel", SHIPPED_SYSTEMS)
    def test_linear_tables_hold_no_subnormal_entry(self, name, channel):
        flushed = 0
        for y_col, contribs, n0 in resource_tables(name, channel, 30.0):
            logW = _log_weights(y_col, contribs, n0)
            W = _flushed_exp(logW)
            assert not ((W > 0.0) & (W < np.exp(FLUSH_FLOOR))).any()
            low = logW <= FLUSH_FLOOR
            assert (W[low] == 0.0).all()
            assert W[~low].tobytes() == np.exp(logW[~low]).tobytes()
            flushed += low.sum()
        assert flushed > 0

    def test_tables_overflowing_to_minus_infinity_flush_to_zero(self, table2):
        """At a subnormal n0 most exponents overflow to -inf; they must
        flush to 0 like any other entry below the floor, not to NaN."""
        symbols, _, y = draw_frame_block(table2, "awgn", 0.0, 64, block_rng(70, 0, 0))
        with np.errstate(over="ignore"):
            beliefs = mpa_detect_batch(y, table2, None, 1e-310)
        assert np.isfinite(beliefs).all()
        assert np.array_equal(hard_decision(beliefs), symbols)


class TestFrameSlabs:
    """A 4096-frame 12x6 block is detected in four 1024-frame slabs."""

    @pytest.fixture(scope="class")
    def block(self):
        cbs = load_codebook("table6_fading_12x6")
        n0 = ebn0_to_n0(18.0, cbs.config)
        _, h, y = draw_frame_block(cbs, "rayleigh", n0, 4096, block_rng(1, 0, 0))
        return y, cbs, h, n0

    def test_beliefs_do_not_depend_on_the_split(self, block):
        """Calls of any size give the whole block's bytes, a lone frame
        included; calls of 1, 2 and 7 frames cover the first 32 calls."""
        y, cbs, h, n0 = block
        whole = mpa_detect_batch(y, cbs, h, n0)
        for size in (1, 2, 7, 513, 1024, 1025):
            for lo in range(0, min(len(y), 32 * size), size):
                f = slice(lo, lo + size)
                got = mpa_detect_batch(y[f], cbs, h[f], n0)
                assert got.tobytes() == whole[f].tobytes(), (size, lo)

    @pytest.mark.parametrize("fixture_id, channel", [
        ("table2_awgn_6x4", "awgn"), ("table3_fading_6x4", "rayleigh"),
        ("table5_awgn_12x6", "awgn"), ("table6_fading_12x6", "rayleigh"),
    ])
    def test_a_lone_frame_equals_its_row(self, fixture_id, channel):
        """On each shipped system, from 0 dB to 40 dB where the rescue runs,
        a frame detected alone gives its row of a 16-frame call."""
        cbs = load_codebook(fixture_id)
        for ebno_db in (0.0, 16.0, 40.0):
            n0 = ebn0_to_n0(ebno_db, cbs.config)
            _, h, y = draw_frame_block(cbs, channel, n0, 16, block_rng(2, 0, 0))
            whole = mpa_detect_batch(y, cbs, h, n0)
            for i in range(16):
                hi = None if h is None else h[i:i + 1]
                got = mpa_detect_batch(y[i:i + 1], cbs, hi, n0)
                assert got.tobytes() == whole[i].tobytes(), (ebno_db, i)

    def test_slabs_are_near_equal(self, monkeypatch):
        for cap in (1, 2, 3, 5, 16):
            monkeypatch.setattr(detector, "SLAB_BYTES", 8 * cap)
            for frames in range(50):
                slabs = detector._slabs(frames, 8)
                sizes = [f.stop - f.start for f in slabs]
                assert [f.start for f in slabs[1:]] == [f.stop for f in slabs[:-1]]
                assert (slabs[0].start, slabs[-1].stop) == (0, frames)
                assert max(sizes) - min(sizes) <= 1
                assert max(sizes) <= cap
                assert len(slabs) == max(1, -(-frames // cap))

    def test_peak_memory_of_a_block(self, block):
        """Whole-block tables held 6 x 8 MiB and peaked at ~65 MiB; slab
        tables of 2 MiB peak at ~18 MiB."""
        tracemalloc.start()
        try:
            mpa_detect_batch(*block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


def underflowing_frame(cbs):
    """(1, K) frame in which every user sends symbol 0, but user 0's first
    resource carries the superposition with user 0 at symbol 2."""
    books, F = np.asarray(cbs.books), np.asarray(cbs.factor_matrix)
    y = books[:, 0, :].sum(axis=0)
    k0 = np.flatnonzero(F[:, 0])[0]
    y[k0] += books[0, 2, k0] - books[0, 0, k0]
    return y[None, :]


class TestLogRescue:
    def test_underflowing_frame_keeps_log_beliefs(self, table2):
        """At n0 = 1e-4 the two resources' messages for user 0 share no
        symbol above the underflow range, so the linear sums vanish and only
        the rescue's log arithmetic keeps the beliefs."""
        y, n0 = underflowing_frame(table2), 1e-4
        ref = per_slot_mpa(y, table2, None, n0, MpaConfig(), log=True)
        assert np.abs(mpa_detect_batch(y, table2, None, n0) - ref).max() < 1e-12

    def test_resource_peak_in_the_newly_rescued_band(self, monkeypatch):
        """User 0's first resource favours symbol 0 and its second symbol 1,
        whose message to user 0 gets its symbol-0 entry only from table
        entries below the flush floor.  That resource's message to user 1
        peaks near 1e-194, inside the band (1e-250, RESCUE_FLOOR), so the
        rescue recomputes the resource in log arithmetic and keeps the exact
        marginals.  With the floor at 1e-250 the flushed messages stand and
        user 0's belief lands on the wrong symbol."""
        cbs = tree_system(seed=48)
        y = np.array([-0.26 + 0.05j, 1.43 - 0.09j])
        n0 = 1.5e-3
        exact = brute_force_marginals(np.asarray(cbs.books), y, None, n0)
        cfg = MpaConfig(iterations=4)
        assert np.abs(mpa_detect_batch(y[None], cbs, None, n0, cfg) - exact).max() <= 1e-12
        monkeypatch.setattr(detector, "RESCUE_FLOOR", 1e-250)
        assert np.abs(mpa_detect_batch(y[None], cbs, None, n0, cfg) - exact).max() > 0.5

    def test_domain_selects_nothing(self):
        """``MpaConfig.domain`` is inert: on a frame the rescue changes,
        either value gives the default detector's bytes."""
        cbs = tree_system(seed=8)
        books = np.asarray(cbs.books)
        y = np.array([books[0, 1, 0], books[0, 3, 1] + books[1, 0, 1]])
        base = mpa_detect_batch(y[None], cbs, None, 1.5e-3).tobytes()
        for domain in ("linear", "log"):
            cfg = MpaConfig(domain=domain)
            assert mpa_detect_batch(y[None], cbs, None, 1.5e-3, cfg).tobytes() == base

    @pytest.mark.xfail(strict=True, reason="rescued messages are stored and "
                       "multiplied as linear probabilities at the user node")
    def test_user_node_product_underflow_keeps_log_beliefs(self):
        """One user on two resources whose evidence disagrees by more than
        the double range: the exact marginal is one-hot at symbol 0, but the
        user-node product underflows and the beliefs come out uniform."""
        c = 0.7 * np.array([1, 1j, -1j, -1])
        books = np.stack([c, c * np.exp(0.3j)], axis=1)[None]
        cbs = CodebookSet(books, np.array([[1], [1]]))
        y = np.array([c[0], c[3] * np.exp(0.3j) + 0.05])
        exact = brute_force_marginals(books, y, None, 1e-4)
        assert np.abs(mpa_detect_batch(y[None], cbs, None, 1e-4) - exact).max() <= 1e-9


@st.composite
def mixed_degree_systems(draw):
    """A random system whose resources take at least two degrees from 1 to
    4, its factor graph often with cycles, 1-4 frames and their gains or
    None."""
    K, J = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    while True:  # drawn here, not filtered: most random F break some rule
        F = (rng.random((K, J)) < 0.5).astype(np.int64)
        degrees = F.sum(axis=1)
        if F.any(axis=0).all() and 1 <= degrees.min() < degrees.max() <= 4:
            break
    M, frames = draw(st.sampled_from([2, 4])), draw(st.integers(1, 4))
    books = (rng.standard_normal((J, M, K)) + 1j * rng.standard_normal((J, M, K)))
    books *= F.T[:, None, :]
    y = rng.standard_normal((frames, K)) + 1j * rng.standard_normal((frames, K))
    h = None
    if draw(st.booleans()):
        shape = (frames, K, J)
        h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    return CodebookSet(books, F), y, h


# each system with the Eb/N0 (dB) it is designed or benchmarked at
ORACLE_SYSTEMS = [
    ("table2_awgn_6x4", 8.0),
    ("table3_fading_6x4", 17.0),
    ("table5_awgn_12x6", 10.0),
    ("table6_fading_12x6", 18.0),
    ("derive_8x4", 10.0),
]


class TestPerResourceOracle:
    """The batched sweep gives the bytes of the per-resource sweep,
    ``conftest.per_resource_mpa``.  No digests: ``np.exp`` may round
    differently under another SIMD dispatch, so both sides run here."""

    @pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
    @pytest.mark.parametrize("name,design_db", ORACLE_SYSTEMS)
    def test_shipped_systems(self, name, design_db, channel):
        """1, 2 and 300 frames, and a call of two slabs."""
        cbs = (derive_8x4(load_codebook("table2_awgn_6x4")) if name == "derive_8x4"
               else load_codebook(name))
        table_bytes = 8 * cbs.config.M ** int(cbs.graph.row_degrees.max())
        two_slabs = detector.SLAB_BYTES // table_bytes + 1
        for ebn0_db in (0.0, design_db, 40.0):
            n0 = ebn0_to_n0(ebn0_db, cbs.config)
            _, h, y = draw_frame_block(cbs, channel, n0, two_slabs, block_rng(31, 0, 0))
            for frames in (1, 2, 300, two_slabs):
                hf = None if h is None else h[:frames]
                got = mpa_detect_batch(y[:frames], cbs, hf, n0)
                ref = per_resource_mpa(y[:frames], cbs, hf, n0)
                assert got.tobytes() == ref.tobytes(), (ebn0_db, frames)

    def test_rescued_frame(self, table2, monkeypatch):
        rescues = []
        log_resource = detector._log_resource
        monkeypatch.setattr(detector, "_log_resource",
                            lambda *a: rescues.append(1) or log_resource(*a))
        y = underflowing_frame(table2)
        got = mpa_detect_batch(y, table2, None, 1e-4)
        assert rescues
        assert got.tobytes() == per_resource_mpa(y, table2, None, 1e-4).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(mixed_degree_systems(), st.sampled_from([1e-3, 0.05, 1.0]), st.integers(1, 4))
    def test_mixed_degree_graphs(self, system, n0, iterations):
        """At n0 = 1e-3 the rescue runs in most calls."""
        cbs, y, h = system
        cfg = MpaConfig(iterations=iterations)
        got = mpa_detect_batch(y, cbs, h, n0, cfg)
        assert got.tobytes() == per_resource_mpa(y, cbs, h, n0, cfg).tobytes()


@st.composite
def log_resource_cases(draw):
    """A degree 1-4 log table with tied and -inf entries, and incoming
    (slots, M, frames) messages with zero entries, for 1-3 frames.  In each
    frame one symbol tuple has a finite table entry and nonzero messages, so
    every slot keeps a finite term."""
    d, M = draw(st.integers(1, 4)), draw(st.sampled_from([2, 4]))
    frames = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (M,) * d + (frames,)
    logW = rng.choice([-np.inf, -2.0, 0.0], size=shape)
    spread = rng.random(shape) < 0.5
    logW[spread] = rng.uniform(-800.0, 0.0, spread.sum())
    Q = rng.random((d, M, frames)) * (rng.random((d, M, frames)) < 0.6)
    for f in range(frames):
        x = rng.integers(M, size=d)
        logW[(*x, f)] = rng.uniform(-800.0, 0.0)
        Q[np.arange(d), x, f] = rng.uniform(0.1, 1.0, d)
    return logW, Q


class TestLogResource:
    @settings(max_examples=300, deadline=None)
    @given(log_resource_cases())
    def test_matches_per_slot_logsumexp(self, case):
        """Each slot's message against log-sum-exp over the other slots of
        the table plus their log-messages, normalised in log arithmetic."""
        logW, Q = case
        d = Q.shape[0]
        with np.errstate(divide="ignore"):
            logQ = np.log(Q)
        ref = np.empty_like(Q)
        for p in range(d):
            others = tuple(a for a in range(d) if a != p)
            B = logW
            for q in others:
                B = B + np.expand_dims(logQ[q], [a for a in range(d) if a != q])
            lr = logsumexp(B, axis=others) if others else B
            ref[p] = np.exp(lr - logsumexp(lr, axis=0))
        got = _log_resource(logW, Q)
        assert got.shape == Q.shape
        assert np.abs(got - ref).max() <= 1e-12


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
        big = CodebookSet(books)
        with pytest.raises(ValueError, match="mpa_detect_batch"):
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
