"""Distance indicators and the mutual-information lower bound."""
import numpy as np
import pytest

from scma.core import CodebookSet
from scma.fixtures import load_fixture
from scma.metrics import (
    i_lower_bound,
    i_lower_bound_profile,
    kpi,
    sum_constellation,
)

from conftest import brute_force_kpi, qpsk_set


class TestKpi:
    def test_awgn_table_matches_published_indicators(self, table2):
        expect = load_fixture("table4_kpi")["proposed_awgn"]
        report = kpi(table2)
        assert report.d_e_min == pytest.approx(expect["d_e_min"], abs=1e-3)
        assert report.tau_e == expect["tau_e"]
        assert report.d_p_min == pytest.approx(expect["d_p_min"], abs=1e-3)
        assert report.tau_p == expect["tau_p"]

    def test_fading_table_matches_published_indicators(self, table3):
        expect = load_fixture("table4_kpi")["proposed_fading"]
        report = kpi(table3)
        assert report.d_e_min == pytest.approx(expect["d_e_min"], abs=1e-3)
        assert report.tau_e == expect["tau_e"]
        assert report.d_p_min == pytest.approx(expect["d_p_min"], abs=1e-3)
        assert report.tau_p == expect["tau_p"]

    def test_antipodal_unit_norm_pair(self):
        x = np.array([0.6, 0.8j])
        books = np.stack([x, -x]).reshape(1, 2, 2)
        report = kpi(CodebookSet(books))
        assert report.d_e_min == pytest.approx(2.0)

    def test_matches_brute_force_on_random_small_sets(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            J = int(rng.integers(1, 4))
            M = int(rng.choice([2, 4]))
            K = int(rng.integers(1, 4))
            books = rng.standard_normal((J, M, K)) + 1j * rng.standard_normal((J, M, K))
            report = kpi(CodebookSet(books))
            de, te, dp, tp = brute_force_kpi(books)
            assert report.d_e_min == de
            assert report.tau_e == te
            assert report.d_p_min == dp
            assert report.tau_p == tp

    def test_single_differing_dimension_product_equals_entry_distance(self):
        books = np.zeros((1, 2, 3), complex)
        books[0, 0] = [1 + 1j, 2.0, 3.0]
        books[0, 1] = [1 + 1j, 2.0, 3.0 - 0.7j]
        report = kpi(CodebookSet(books))
        assert report.d_p_min == pytest.approx(0.7)
        assert report.d_e_min == pytest.approx(0.7)

    def test_invariant_under_user_relabeling(self, table2):
        perm = np.array([5, 3, 1, 0, 2, 4])
        permuted = CodebookSet(
            np.asarray(table2.books)[perm], np.asarray(table2.factor_matrix)[:, perm]
        )
        assert kpi(permuted) == kpi(table2)

    def test_invariant_under_global_phase(self, table2):
        rotated = CodebookSet(
            np.exp(1.1j) * np.asarray(table2.books), table2.factor_matrix
        )
        base, rot = kpi(table2), kpi(rotated)
        assert rot.d_e_min == pytest.approx(base.d_e_min, rel=1e-12)
        assert rot.d_p_min == pytest.approx(base.d_p_min, rel=1e-12)
        assert (rot.tau_e, rot.tau_p) == (base.tau_e, base.tau_p)

    def test_two_codewords_suffice(self):
        pair = np.array([[[1.0 + 0j], [-1.0 + 0j]]])
        report = kpi(CodebookSet(pair))
        assert report.d_e_min == pytest.approx(2.0)
        assert report.tau_e >= 1 and report.tau_p >= 1

    def test_identical_codewords_have_no_product_distance(self):
        pair = np.array([[[1.0 + 0j], [1.0 + 0j]]])
        report = kpi(CodebookSet(pair))
        assert (report.d_e_min, report.tau_e) == (0.0, 1)
        assert (report.d_p_min, report.tau_p) == (0.0, 0)


class TestSuperimposedPoints:
    def test_degree_one_resource_gives_user_points(self):
        cbs = qpsk_set()
        assert np.array_equal(sum_constellation(cbs, 0), cbs.books[0, :, 0])

    def test_6x4_resources_have_64_points(self, table2):
        for k in range(4):
            assert sum_constellation(table2, k).size == 64

    def test_points_sum_to_zero(self, table2):
        # antipodal constellations pair every tuple with its negation
        for k in range(4):
            assert abs(sum_constellation(table2, k).sum()) < 1e-10

    @pytest.mark.parametrize("resource", [-1, 4, 2.0, True])
    def test_resource_outside_range_rejected(self, table2, resource):
        """-1 used to return resource 3's points; 4 and 2.0 raised bare
        numpy IndexErrors; True was read as resource 1."""
        with pytest.raises(ValueError, match="resource must be"):
            sum_constellation(table2, resource)

    def test_lexicographic_order(self, table2):
        pts = sum_constellation(table2, 0)
        users = np.flatnonzero(table2.factor_matrix[0])
        manual = (
            table2.books[users[0], :, 0][:, None, None]
            + table2.books[users[1], :, 0][None, :, None]
            + table2.books[users[2], :, 0][None, None, :]
        ).ravel()
        assert np.array_equal(pts, manual)


class TestLowerBound:
    def test_heavy_noise_limit(self, table2):
        pts = sum_constellation(table2, 0)
        assert i_lower_bound(pts, 1e6) < 1e-4

    def test_vanishing_noise_saturates(self, table2):
        pts = sum_constellation(table2, 0)
        assert i_lower_bound(pts, 1e-6) == pytest.approx(6.0, abs=1e-9)

    def test_subnormal_noise_saturates_silently(self, table2):
        """At a subnormal n0 every off-diagonal exponent overflows to -inf,
        which used to raise a RuntimeWarning."""
        assert i_lower_bound(sum_constellation(table2, 0), 1e-310) == 6.0

    def test_two_point_closed_form(self):
        pts = np.array([1 + 0j, -1 + 0j])
        expect = 1.0 - np.log2(1.0 + np.exp(-4.0))
        assert i_lower_bound(pts, 0.25) == pytest.approx(expect, abs=1e-12)

    def test_monotone_nonincreasing_in_noise(self, table2):
        pts = sum_constellation(table2, 2)
        grid = np.logspace(-3, 2, 24)
        vals = [i_lower_bound(pts, n0) for n0 in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_empty_point_set_rejected(self):
        """An empty set used to warn and then divide by zero."""
        with pytest.raises(ValueError, match="points must not be empty"):
            i_lower_bound([], 0.1)

    def test_profile_mean(self, table2):
        per, mean = i_lower_bound_profile(table2, 0.05)
        assert per.shape == (4,)
        assert mean == pytest.approx(per.mean())

    def test_list_of_points_matches_array(self, table2):
        """A list used to fail on its missing ``.size``."""
        pts = sum_constellation(table2, 1)
        assert i_lower_bound(pts.tolist(), 0.3) == i_lower_bound(pts, 0.3)
        assert i_lower_bound([0, 1 + 0j], 0.1) == i_lower_bound(np.array([0, 1 + 0j]), 0.1)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 4), (4, 1)])
    def test_shape_of_points_does_not_matter(self, shape):
        """The distances used to run along axis 0 only, so these 4 points
        read 1.548 bits as a (2, 2) array and 2.0 as (1, 4), not 1.096."""
        pts = np.array([1, -1, 1j, -1j])
        assert i_lower_bound(pts.reshape(shape), 0.5) == i_lower_bound(pts, 0.5)

    @pytest.mark.parametrize("point", [np.complex128(1 + 1j), [1 + 1j]])
    def test_lone_point_carries_no_information(self, point):
        """A 0-d point used to raise IndexError."""
        assert i_lower_bound(point, 0.5) == 0.0

    @pytest.mark.parametrize("n0", [0.0, np.nan, np.inf])
    def test_bad_noise_rejected(self, table2, n0):
        with pytest.raises(ValueError, match="n0 must be finite and positive"):
            i_lower_bound(sum_constellation(table2, 0), n0)
