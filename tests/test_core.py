"""Parameter packing, container invariants, and the codebook JSON schema."""
import numpy as np
import pytest

from scma.core import (
    CodebookFormatError,
    CodebookSet,
    MalformedParameterError,
    SystemConfig,
    codebook_from_dict,
    codebook_to_dict,
    pack_params,
    read_codebook_json,
    unpack_params,
    write_codebook_json,
)
from scma.fixtures import load_fixture
from scma.structure import builtin_template, instantiate


class TestPackUnpack:
    def test_single_value(self):
        assert pack_params([1 + 2j]).tolist() == [1.0, 2.0]

    def test_unpack_zero(self):
        assert unpack_params([0, 0]).tolist() == [0j]

    def test_unpack_pairs(self):
        assert unpack_params([1, -1, 2, 3]).tolist() == [1 - 1j, 2 + 3j]

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            back = unpack_params(pack_params(a))
            assert np.array_equal(back, a)

    def test_pack_then_unpack_reals(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = rng.standard_normal(2 * int(rng.integers(1, 7)))
            assert np.array_equal(pack_params(unpack_params(p)), p)

    def test_worked_example_solution_packs_to_best_row(self):
        doc = load_fixture("example1_vectors").payload
        a_opt = [complex(re, im) for re, im in doc["a_opt"]]
        assert pack_params(a_opt).tolist() == doc["best_row"]

    def test_worked_example_best_row_unpacks_to_solution(self):
        doc = load_fixture("example1_vectors").payload
        a_opt = np.array([complex(re, im) for re, im in doc["a_opt"]])
        assert np.array_equal(unpack_params(doc["best_row"]), a_opt)

    def test_odd_length_rejected(self):
        with pytest.raises(MalformedParameterError):
            unpack_params([1.0, 2.0, 3.0])


class TestSystemConfig:
    def test_overloading_is_user_resource_ratio(self):
        cfg = SystemConfig(J=6, K=4, M=4, N=2, d_f=3)
        assert cfg.overloading == 1.5
        assert cfg.bits_per_symbol == 2

    def test_m_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            SystemConfig(J=2, K=2, M=3, N=1, d_f=1)

    def test_n_bounds(self):
        with pytest.raises(ValueError):
            SystemConfig(J=2, K=2, M=4, N=3, d_f=1)


class TestCodebookSet:
    def test_books_are_frozen(self, table2):
        with pytest.raises(ValueError):
            table2.books[0, 0, 0] = 0

    def test_shape_mismatch_rejected(self):
        cfg = SystemConfig(J=2, K=2, M=4, N=1, d_f=1)
        with pytest.raises(ValueError):
            CodebookSet(config=cfg, books=np.zeros((2, 4, 3), complex))

    @pytest.mark.parametrize("name", ["6x4", "12x6"])
    def test_template_instantiations_satisfy_support_invariant(self, name):
        t = builtin_template(name)
        rng = np.random.default_rng(3)
        a = rng.standard_normal(t.num_params) + 1j * rng.standard_normal(t.num_params)
        cbs = instantiate(t, a)
        assert np.array_equal(cbs.supports(), np.asarray(t.graph.F))


class TestCodebookJson:
    def test_round_trip_exact(self, table2):
        back = codebook_from_dict(codebook_to_dict(table2))
        assert np.array_equal(back.books, table2.books)
        assert np.array_equal(back.factor_matrix, table2.factor_matrix)

    def test_file_round_trip(self, table3, tmp_path):
        path = tmp_path / "cb.json"
        write_codebook_json(table3, path)
        back = read_codebook_json(path)
        assert np.array_equal(back.books, table3.books)

    def test_full_precision_survives_serialization(self, tmp_path):
        books = np.full((1, 2, 1), 0.1234567890123456 + 1j / 3.0)
        books[0, 1, 0] = -books[0, 0, 0]
        cbs = CodebookSet.from_books(books)
        path = tmp_path / "cb.json"
        write_codebook_json(cbs, path)
        assert np.array_equal(read_codebook_json(path).books, books)

    def test_missing_field_rejected(self):
        with pytest.raises(CodebookFormatError):
            codebook_from_dict({"J": 1, "K": 1})

    def test_wrong_codeword_count_rejected(self, table2):
        doc = codebook_to_dict(table2)
        doc["codebooks"][0] = doc["codebooks"][0][:2]
        with pytest.raises(CodebookFormatError):
            codebook_from_dict(doc)

    def test_bad_pair_rejected(self, table2):
        doc = codebook_to_dict(table2)
        doc["codebooks"][0][0][0] = [1.0]
        with pytest.raises(CodebookFormatError):
            codebook_from_dict(doc)

    @pytest.mark.parametrize("pair", [["nan", 0.0], [0.0, "inf"], [float("-inf"), 1.0]])
    def test_non_finite_entry_rejected(self, table2, pair):
        doc = codebook_to_dict(table2)
        doc["codebooks"][3][1][2] = pair
        with pytest.raises(CodebookFormatError, match=r"entry \(3,1,2\)"):
            codebook_from_dict(doc)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"J": 6, "K": 4,')
        with pytest.raises(CodebookFormatError):
            read_codebook_json(path)

    def test_bad_factor_shape_rejected(self, table2):
        doc = codebook_to_dict(table2)
        doc["F"] = [[1, 0], [0, 1]]
        with pytest.raises(CodebookFormatError):
            codebook_from_dict(doc)


class TestTopLevelValidation:
    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CodebookFormatError):
            read_codebook_json(path)
