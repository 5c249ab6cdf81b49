"""Shipped artifacts and the structural validator."""
import json

import numpy as np
import pytest

from scma.core import CodebookSet, codebook_from_dict, pack_params
from scma.fixtures import FIXTURE_IDS, load_codebook, load_factor_matrix, load_fixture
from scma.cli import main as cli_main
from scma.structure import (
    FactorGraph,
    builtin_template,
    codebook_violations,
    has_four_cycle,
    instantiate,
    validate_codebook,
)


class TestLoading:
    @pytest.mark.parametrize("fixture_id", FIXTURE_IDS)
    def test_every_fixture_loads_with_metadata(self, fixture_id):
        meta = load_fixture(fixture_id)["meta"]
        assert meta["source"]
        assert meta["precision"]

    def test_unknown_id_lists_available(self):
        with pytest.raises(KeyError, match="table2_awgn_6x4"):
            load_fixture("table9")

    def test_kind_guards(self):
        with pytest.raises(ValueError, match="not a codebook"):
            load_codebook("eq2_factor_6x4")
        with pytest.raises(ValueError, match="not a factor matrix"):
            load_factor_matrix("table2_awgn_6x4")

    @pytest.mark.parametrize(
        "fixture_id,J,K",
        [
            ("table2_awgn_6x4", 6, 4),
            ("table3_fading_6x4", 6, 4),
            ("table5_awgn_12x6", 12, 6),
            ("table6_fading_12x6", 12, 6),
        ],
    )
    def test_codebook_shapes(self, fixture_id, J, K):
        cbs = load_codebook(fixture_id)
        assert cbs.config.J == J and cbs.config.K == K and cbs.config.M == 4

    def test_round_trip_lossless(self, table5):
        doc = load_fixture("table5_awgn_12x6")
        again = codebook_from_dict(doc)
        assert np.array_equal(again.books, table5.books)


def loop_violations(books, F):
    """Reference for ``codebook_violations``: one Python loop per rule."""
    J, M, _ = books.shape
    out = [
        f"user {j} codeword {m}: support does not match factor matrix column"
        for j in range(J) for m in range(M)
        if not np.array_equal(np.abs(books[j, m]) > 0, F[:, j].astype(bool))
    ]
    out += [
        f"user {j}: codewords {m} and {n} are identical"
        for j in range(J) for m in range(M) for n in range(m + 1, M)
        if np.array_equal(books[j, m], books[j, n])
    ]
    for j in range(J):
        for m in range(M):
            if not np.array_equal(books[j, m], -books[j, M - 1 - m]):
                out.append(f"user {j}: codeword {m} is not the negation of "
                           f"codeword {M - 1 - m}")
                break
    return out


class TestStructuralChecks:
    @pytest.mark.parametrize(
        "fixture_id",
        ["table2_awgn_6x4", "table3_fading_6x4", "table5_awgn_12x6",
         "table6_fading_12x6"],
    )
    def test_published_codebooks_pass_validation(self, fixture_id):
        report = validate_codebook(load_codebook(fixture_id))
        assert report.ok, report.violations

    def test_awgn_6x4_norm_report(self, table2):
        report = validate_codebook(table2)
        assert report.warnings  # norm deviations are warnings only
        norms = report.codeword_norms
        assert np.allclose(norms[3], [1.1730, 1.1611, 1.1611, 1.1730], atol=1e-3)
        assert np.allclose(norms[:2], 1.0, atol=1e-3)

    def test_all_zero_set_flagged(self):
        zero = CodebookSet(np.zeros((2, 4, 2), complex))
        report = validate_codebook(zero)
        assert any("identical" in v for v in report.violations)

    def test_support_mismatch_flagged(self, table2):
        wrong_f = np.asarray(table2.factor_matrix).copy()
        wrong_f[0, 0] = 0
        wrong_f[1, 0] = 1
        broken = CodebookSet(table2.books, wrong_f)
        report = validate_codebook(broken)
        assert any("support" in v for v in report.violations)

    def test_broken_symmetry_flagged(self, table2):
        books = np.array(table2.books)
        books[0, 0, 0] *= 1.0001
        report = validate_codebook(CodebookSet(books, table2.factor_matrix))
        assert any("negation" in v for v in report.violations)

    @pytest.mark.parametrize("fixture_id", ["table3_fading_6x4", "table6_fading_12x6"])
    @pytest.mark.parametrize("seed", range(4))
    def test_rules_match_loop_reference(self, fixture_id, seed):
        """The vectorised rules give the messages of a per-codeword loop, in
        its order, on single faults of a published set."""
        cbs = load_codebook(fixture_id)
        rng = np.random.default_rng(seed)
        J, M, K = cbs.books.shape
        j, m, k = rng.integers(J), rng.integers(M), rng.integers(K)
        faults = []
        for fault in range(4):
            books, F = np.array(cbs.books), np.array(cbs.factor_matrix)
            if fault == 0:
                books[j, m, k] *= 1.0001
            elif fault == 1:
                books[j, (m + 1) % M] = books[j, m]
            elif fault == 2:
                F[k, j] ^= 1
            else:
                books[j] = 0
            faults.append((books, F))
        for books, F in faults:
            assert codebook_violations(books, F) == loop_violations(books, F)

    def test_table5_supports_match_12x6_factor_matrix(self, table5):
        assert np.array_equal(table5.supports(), load_factor_matrix("eq10_factor_12x6"))


class TestConsistencyWithTemplates:
    def test_awgn_table_regenerates_from_recovered_parameters(self, table2):
        b = table2.books
        a = np.array([b[0, 0, 0], b[0, 1, 0], b[0, 0, 2], b[0, 1, 2],
                      b[2, 0, 1], b[2, 1, 1]])
        rebuilt = instantiate(builtin_template("6x4"), a)
        assert np.abs(rebuilt.books - b).max() < 1e-4

    def test_example_vectors_consistent(self):
        doc = load_fixture("example1_vectors")
        a_opt = [complex(re, im) for re, im in doc["a_opt"]]
        assert pack_params(a_opt).tolist() == doc["best_row"]
        assert len(doc["initial_rows"]) == 3
        assert all(len(r) == 12 for r in doc["initial_rows"])

    def test_factor_matrix_fixtures(self):
        f6 = load_factor_matrix("eq2_factor_6x4")
        assert f6.shape == (4, 6)
        assert (f6.sum(axis=1) == 3).all() and (f6.sum(axis=0) == 2).all()
        assert has_four_cycle(FactorGraph(load_factor_matrix("eq9_factor_8x4")))
        f12 = load_factor_matrix("eq10_factor_12x6")
        assert (f12.sum(axis=1) == 4).all()
        assert not has_four_cycle(FactorGraph(f12))

    def test_kpi_reference_values_present(self):
        doc = load_fixture("table4_kpi")
        for key in ("proposed_awgn", "proposed_fading"):
            assert set(doc[key]) == {"d_e_min", "tau_e", "d_p_min", "tau_p"}


class TestDumpTool:
    def test_dump_to_file(self, tmp_path):
        out = tmp_path / "cb.json"
        assert cli_main(["fixture", "table3_fading_6x4", str(out)]) == 0
        cbs = codebook_from_dict(json.loads(out.read_text()))
        assert cbs.config.J == 6
        assert list(tmp_path.iterdir()) == [out]  # no manifest

    @pytest.mark.parametrize("fixture_id", sorted(FIXTURE_IDS))
    def test_stdout_equals_the_file_bytes(self, tmp_path, capsysbinary, fixture_id):
        out = tmp_path / "doc.json"
        assert cli_main(["fixture", fixture_id, str(out)]) == 0
        assert cli_main(["fixture", fixture_id]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()
        assert out.read_text() == json.dumps(load_fixture(fixture_id), indent=1) + "\n"

    def test_unknown_id_fails(self, capsys):
        assert cli_main(["fixture", "nope"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "table2_awgn_6x4" in err
