"""Parameter packing, container invariants, and the codebook JSON schema."""
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import scma
from scma.core import (
    CodebookFormatError,
    CodebookSet,
    FactorGraph,
    MalformedParameterError,
    SystemConfig,
    codebook_from_dict,
    codebook_to_dict,
    pack_params,
    read_codebook_json,
    unpack_params,
    write_codebook_json,
)
from scma.fixtures import load_factor_matrix, load_fixture
from scma.structure import builtin_template, instantiate, read_template_json


class TestPublicApi:
    """A deletion that leaves an export behind fails here, not at a user's
    import."""

    def test_every_export_resolves_once(self):
        assert len(set(scma.__all__)) == len(scma.__all__)
        for name in scma.__all__:
            assert getattr(scma, name) is not None, name

    def test_star_import(self):
        namespace = {}
        exec("from scma import *", namespace)
        assert set(scma.__all__) <= set(namespace)


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
        doc = load_fixture("example1_vectors")
        a_opt = [complex(re, im) for re, im in doc["a_opt"]]
        assert pack_params(a_opt).tolist() == doc["best_row"]

    def test_worked_example_best_row_unpacks_to_solution(self):
        doc = load_fixture("example1_vectors")
        a_opt = np.array([complex(re, im) for re, im in doc["a_opt"]])
        assert np.array_equal(unpack_params(doc["best_row"]), a_opt)

    def test_odd_length_rejected(self):
        with pytest.raises(MalformedParameterError):
            unpack_params([1.0, 2.0, 3.0])


class TestSystemConfig:
    def test_bits_per_symbol(self):
        assert SystemConfig(J=6, K=4, M=4).bits_per_symbol == 2

    def test_m_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            SystemConfig(J=2, K=2, M=3)

    def test_users_and_resources_at_least_one(self):
        for J, K in ((0, 2), (2, 0)):
            with pytest.raises(ValueError, match="J and K must be >= 1"):
                SystemConfig(J=J, K=K, M=2)


class TestCodebookSet:
    def test_books_are_frozen(self, table2):
        with pytest.raises(ValueError):
            table2.books[0, 0, 0] = 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"\(K, J\)"):
            CodebookSet(np.zeros((2, 4, 3), complex), np.ones((2, 2), dtype=np.int64))

    def test_factor_matrix_without_columns_rejected(self):
        with pytest.raises(ValueError, match=r"\(K, J\) = \(1, 0\)"):
            CodebookSet(np.zeros((1, 2, 1)), np.zeros((1, 0)))

    def test_config_and_graph_are_derived(self):
        books = np.zeros((3, 2, 2), complex)
        books[:, 0, :] = [[1, 0], [0, 1], [1, 1]]
        books[:, 1] = -books[:, 0]
        cbs = CodebookSet(books)
        assert [f.name for f in fields(SystemConfig)] == ["J", "K", "M"]
        assert cbs.config == SystemConfig(J=3, K=2, M=2)
        assert cbs.factor_matrix.tolist() == [[1, 0, 1], [0, 1, 1]]
        assert np.array_equal(cbs.graph.F, cbs.factor_matrix)
        for name in ("config", "graph"):
            with pytest.raises(TypeError):
                CodebookSet(books, **{name: None})

    @pytest.mark.parametrize("name", ["6x4", "12x6"])
    def test_template_instantiations_satisfy_support_invariant(self, name):
        t = builtin_template(name)
        rng = np.random.default_rng(3)
        a = rng.standard_normal(t.num_params) + 1j * rng.standard_normal(t.num_params)
        cbs = instantiate(t, a)
        assert np.array_equal(CodebookSet(cbs.books).factor_matrix, t.graph.F)


class TestFactorGraph:
    def test_edge_indices(self):
        g = FactorGraph(np.array([[1, 0, 1], [1, 1, 0], [1, 0, 0]]))
        # the degree-1 resource 2 first, then resources 0 and 1 of degree 2
        assert g.res_start.tolist() == [1, 3, 0]
        assert g.edge_user.tolist() == [0, 0, 2, 0, 1]
        # one row per user, its edges by resource, padded with E = 5
        assert g.user_edges.tolist() == [[1, 3, 0], [4, 5, 5], [2, 5, 5]]
        # per edge, its user's row without it
        assert g.partners.tolist() == [[1, 3], [3, 0], [5, 5], [1, 0], [5, 5]]
        assert not g.partners.flags.writeable
        assert g.resource_edges(1) == slice(3, 5)
        assert g.resource_users(1).tolist() == [0, 1]
        # (degree, resources, edges) per degree group, in edge order
        assert [(d, ks.tolist(), e) for d, ks, e in g.groups] == [
            (1, [2], slice(0, 1)), (2, [0, 1], slice(1, 5))]
        assert not g.groups[1][1].flags.writeable
        # at least two columns, so every edge has a partner slot
        assert FactorGraph(np.eye(2, dtype=int)).user_edges.tolist() == [[0, 2], [1, 2]]
        assert FactorGraph(np.eye(2, dtype=int)).partners.tolist() == [[2], [2]]

    @pytest.mark.parametrize("source", [
        "eq2_factor_6x4", "eq9_factor_8x4", "eq10_factor_12x6", [[1, 0, 1], [1, 1, 0], [1, 0, 0]],
    ], ids=["6x4", "8x4", "12x6", "mixed-degree"])
    def test_edge_resources_follow_the_groups(self, source):
        """``edge_res`` is the one copy of each edge's resource, which the
        AWGN detector reads; the groups imply it."""
        g = FactorGraph(load_factor_matrix(source) if isinstance(source, str) else np.array(source))
        expect = np.concatenate([np.repeat(ks, d) for d, ks, _ in g.groups])
        assert np.array_equal(g.edge_res, expect)
        assert np.array_equal(g.F[g.edge_res, g.edge_user], np.ones(g.edge_user.size))
        assert not g.edge_res.flags.writeable


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
        cbs = CodebookSet(books)
        path = tmp_path / "cb.json"
        write_codebook_json(cbs, path)
        assert np.array_equal(read_codebook_json(path).books, books)

    def test_missing_field_rejected(self):
        with pytest.raises(CodebookFormatError):
            codebook_from_dict({"J": 1, "K": 1})

    @pytest.mark.parametrize("key", ["J", "K", "M"])
    @pytest.mark.parametrize("value", [6.7, "6", 6.0])
    def test_non_integer_dimension_rejected(self, table2, key, value):
        """A dimension is a JSON integer; 6.7 used to load as 6."""
        doc = codebook_to_dict(table2)
        doc[key] = value
        with pytest.raises(CodebookFormatError,
                           match=f"{key} must be an integer, got {value!r}"):
            codebook_from_dict(json.loads(json.dumps(doc)))

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

    @pytest.mark.parametrize("where", ["codebooks", "codeword", "pair", "F"])
    def test_malformed_entries_rejected(self, table2, where):
        doc = codebook_to_dict(table2)
        if where == "codebooks":
            doc["codebooks"] = 5
        elif where == "codeword":
            doc["codebooks"][2][1] = 0.5
        elif where == "pair":
            doc["codebooks"][1][3][0] = [None, 0.0]
        else:
            doc["F"][2][3] = None
        with pytest.raises(CodebookFormatError):
            codebook_from_dict(doc)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_sets_round_trip(self, data):
        J, K = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
        M = data.draw(st.sampled_from([2, 4]))
        F = data.draw(hnp.arrays(np.int64, (K, J), elements=st.integers(0, 1)))
        parts = data.draw(hnp.arrays(np.float64, (2, J, M, K), elements=st.floats(
            allow_nan=False, allow_infinity=False)))
        books = np.zeros((J, M, K), complex)
        books.real, books.imag = parts * F.T[None, :, None, :]
        cbs = CodebookSet(books, F)
        back = codebook_from_dict(json.loads(json.dumps(codebook_to_dict(cbs))))
        assert np.array_equal(back.books, cbs.books)
        assert np.array_equal(back.factor_matrix, F)
        assert back.config == cbs.config

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

    def test_factor_matrix_without_columns_rejected(self):
        doc = {"J": 1, "K": 1, "M": 2, "F": [[]], "codebooks": [[[[0, 0]], [[0, 0]]]]}
        with pytest.raises(CodebookFormatError, match="no user column"):
            codebook_from_dict(doc)

    @pytest.mark.parametrize("value", [2, 1.9, "1", 1.0, 0.5])
    def test_non_binary_factor_entry_rejected(self, table2, value):
        """1.9 and "1" used to load as 1; an F entry is not coerced."""
        doc = codebook_to_dict(table2)
        doc["F"][0][0] = value
        with pytest.raises(CodebookFormatError, match="integers 0 or 1"):
            codebook_from_dict(json.loads(json.dumps(doc)))

    def test_boolean_factor_entries_accepted(self, table2):
        doc = codebook_to_dict(table2)
        doc["F"] = [[bool(x) for x in row] for row in doc["F"]]
        back = codebook_from_dict(json.loads(json.dumps(doc)))
        assert back.factor_matrix.dtype == np.int64
        assert np.array_equal(back.factor_matrix, table2.factor_matrix)


class TestTopLevelValidation:
    @pytest.mark.parametrize("read", [read_codebook_json, read_template_json])
    def test_non_object_document_rejected(self, tmp_path, read):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(CodebookFormatError, match="top level must be an object"):
            read(path)
