"""Templates, instantiation, normalization, and factor-graph analysis."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scma.core import (
    CodebookFormatError,
    DegenerateParameterError,
    MalformedParameterError,
    unpack_params,
)
from scma import structure
from scma.fixtures import load_factor_matrix, load_fixture
from scma.structure import (
    FactorGraph,
    StructureTemplate,
    builtin_template,
    codeword_norms,
    derive_8x4,
    has_four_cycle,
    instantiate,
    normalize,
    read_template_json,
    template_from_dict,
    template_to_dict,
    validate_codebook,
    write_template_json,
)

A_AWGN = np.array([
    -0.3318 + 0.6262j, -0.8304 + 0.4252j, 0.7055, -0.3601,
    -0.4202 - 0.8350j, 0.5933 + 0.3548j,
])


def random_params(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestBuiltinTemplates:
    def test_6x4_layout(self):
        t = builtin_template("6x4")
        assert t.num_params == 6
        assert np.array_equal(t.graph.F, load_factor_matrix("eq2_factor_6x4"))
        # first user, first symbol places a_1 and a_3 on resources 1 and 3
        assert t.slots[0, 0].tolist() == [1, 0, 3, 0]

    def test_6x4_permuted_placements(self):
        # users 3 and 5 carry [-a4, a3, -a3, a4] on their first resource
        t = builtin_template("6x4")
        assert t.slots[2, :, 0].tolist() == [-4, 3, -3, 4]
        assert t.slots[4, :, 3].tolist() == [-4, 3, -3, 4]

    def test_12x6_layout(self):
        t = builtin_template("12x6")
        assert t.num_params == 8
        assert np.array_equal(t.graph.F, load_factor_matrix("eq10_factor_12x6"))
        assert (t.graph.row_degrees == 4).all()
        assert not has_four_cycle(t.graph)

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="12x6"):
            builtin_template("5x3")

    @pytest.mark.parametrize("name", ["6x4", "12x6"])
    def test_latin_property(self, name):
        t = builtin_template(name)
        for k in range(t.K):
            groups = [
                set(np.abs(t.slots[j, :, k]).tolist()) - {0}
                for j in t.graph.resource_users(k)
            ]
            for i in range(len(groups)):
                for l in range(i + 1, len(groups)):
                    assert not (groups[i] & groups[l])

    @pytest.mark.parametrize("name", ["6x4", "12x6"])
    def test_antipodal_symmetry(self, name):
        t = builtin_template(name)
        cbs = instantiate(t, random_params(t.num_params, seed=5))
        M = t.M
        for m in range(M):
            assert np.array_equal(cbs.books[:, m, :], -cbs.books[:, M - 1 - m, :])


class TestTemplateValidation:
    def test_support_mismatch_rejected(self):
        doc = template_to_dict(builtin_template("6x4"))
        doc["F"][0] = [0, 1, 1, 0, 1, 0]  # user 0's column no longer matches its slots
        with pytest.raises(CodebookFormatError, match="match F"):
            template_from_dict(doc)

    def test_codewords_differing_in_support_rejected(self):
        t = builtin_template("6x4")
        slots = np.array(t.slots)
        slots[0, [0, 3], 0] = 0  # codewords 0 and 3 leave resource 0, 1 and 2 keep it
        with pytest.raises(ValueError, match=r"template bad: user 0 codeword 0: "
                                             r"support does not match"):
            StructureTemplate("bad", 6, slots)

    def test_identical_codewords_rejected(self):
        """Antipodal and Latin, but user 0 sends only two distinct
        codewords; every codebook it produced failed validation."""
        t = builtin_template("6x4")
        slots = np.array(t.slots)
        slots[0, 1], slots[0, 2] = slots[0, 0], slots[0, 3]
        with pytest.raises(ValueError, match=r"template bad: user 0: codewords 0 "
                                             r"and 1 are identical"):
            StructureTemplate("bad", 6, slots)

    def test_broken_antipodal_rejected(self):
        t = builtin_template("6x4")
        slots = np.array(t.slots)
        slots[0, 0, 0] = 2
        with pytest.raises(ValueError, match="negation"):
            StructureTemplate("bad", 6, slots)

    def test_unused_resource_rejected(self):
        """A fifth resource that no user occupies used to load, and failed
        only at the first detector call."""
        slots = np.concatenate(
            [builtin_template("6x4").slots, np.zeros((6, 4, 1), int)], axis=2)
        with pytest.raises(ValueError, match="template bad: resource 4 has no users"):
            StructureTemplate("bad", 6, slots)

    def test_latin_violation_rejected(self):
        t = builtin_template("6x4")
        slots = np.array(t.slots)
        # make user 3 reuse user 1's parameters on resource 3 (both collide there)
        slots[3, :, 2] = slots[0, :, 2]
        with pytest.raises(ValueError, match="shared parameter"):
            StructureTemplate("bad", 6, slots)

    @pytest.mark.parametrize("relabel,num_params,unused", [
        ({}, 7, 7),
        ({3: 7}, 7, 3),
        ({1: 9, 2: 8}, 9, 1),
    ])
    def test_unreferenced_parameter_rejected(self, relabel, num_params, unused):
        """A parameter no slot places used to widen the DE search with
        dimensions that change nothing."""
        labels = np.arange(10)
        labels[list(relabel)] = list(relabel.values())
        slots = builtin_template("6x4").slots
        slots = np.sign(slots) * labels[np.abs(slots)]
        with pytest.raises(ValueError, match=f"template bad: no slot references "
                                             f"parameter a_{unused}$"):
            StructureTemplate("bad", num_params, slots)


class TestInstantiate:
    def test_published_awgn_codebooks_reproduced(self, table2):
        cbs = instantiate(builtin_template("6x4"), A_AWGN)
        assert np.abs(cbs.books - table2.books).max() < 1e-12

    def test_worked_example_first_codeword(self):
        a = unpack_params(load_fixture("example1_vectors")["best_row"])
        cbs = instantiate(builtin_template("6x4"), a)
        assert np.array_equal(cbs.books[0, 0], [-0.33 + 0.63j, 0, 0.71, 0])

    def test_all_zero_parameters_flagged_by_validation(self):
        t = builtin_template("6x4")
        cbs = instantiate(t, np.zeros(6, complex))
        assert np.abs(cbs.books).max() == 0
        report = validate_codebook(cbs)
        assert any("identical" in v for v in report.violations)

    def test_linear_in_parameters(self):
        t = builtin_template("12x6")
        a = random_params(8, seed=11)
        assert np.allclose(
            instantiate(t, 2 * a).books, 2 * instantiate(t, a).books, atol=0
        )

    def test_wrong_length_rejected(self):
        with pytest.raises(MalformedParameterError):
            instantiate(builtin_template("6x4"), np.ones(5, complex))

    @pytest.mark.parametrize("n", [5, 7])
    @pytest.mark.parametrize("func", [normalize, codeword_norms])
    def test_wrong_length_rejected_by_every_parameter_reader(self, func, n):
        with pytest.raises(MalformedParameterError, match="needs 6 parameters, got"):
            func(builtin_template("6x4"), np.ones(n, complex))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.5, np.nan)])
    @pytest.mark.parametrize("func", [instantiate, normalize, codeword_norms])
    def test_non_finite_rejected_by_every_parameter_reader(self, func, value):
        """A NaN or infinite entry used to give a NaN codebook, or NaN
        parameters with residual nan from normalize."""
        a = np.ones(6, complex)
        a[2] = value
        with pytest.raises(MalformedParameterError, match="non-finite parameter"):
            func(builtin_template("6x4"), a)


class TestNormalize:
    def feasible_point(self, u=0.37, seed=2):
        rng = np.random.default_rng(seed)
        mags = np.sqrt([1 - u, u, u, 1 - u, u, 1 - u])
        return mags * np.exp(1j * rng.uniform(-np.pi, np.pi, 6))

    def test_fixed_point_unchanged(self):
        t = builtin_template("6x4")
        a = self.feasible_point()
        out, residual = normalize(t, a)
        assert residual < 1e-9
        assert np.abs(out - a).max() < 1e-12

    def test_scaled_feasible_point_recovered(self):
        # oracle: the magnitude pattern |a1|=|a4|=|a6|, |a2|=|a3|=|a5| with
        # pairwise sums of squares equal to 1 makes all 24 codeword norms 1
        t = builtin_template("6x4")
        a = self.feasible_point(u=0.29, seed=9)
        out, residual = normalize(t, 3.0 * a)
        assert residual < 1e-9
        assert np.abs(out - a).max() < 1e-8
        assert np.abs(codeword_norms(t, out) - 1.0).max() < 1e-9

    def test_worked_example_row_reaches_unit_norms(self):
        t = builtin_template("6x4")
        row = load_fixture("example1_vectors")["initial_rows"][0]
        a, residual = normalize(t, unpack_params(row))
        assert residual < 1e-9
        norms = np.linalg.norm(instantiate(t, a).books, axis=2)
        assert np.abs(norms[:3] - 1.0).max() < 1e-9

    def test_idempotent(self):
        t = builtin_template("6x4")
        once, _ = normalize(t, random_params(6, seed=21))
        twice, _ = normalize(t, once)
        assert np.linalg.norm(twice - once) < 1e-8

    def test_12x6_converges_to_equal_magnitudes(self):
        # this template's constraints force every |a_t|^2 to 1/2
        t = builtin_template("12x6")
        out, residual = normalize(t, random_params(8, seed=4))
        assert residual < 1e-9
        assert np.abs(np.abs(out) - np.sqrt(0.5)).max() < 1e-6

    def test_phases_untouched(self):
        t = builtin_template("6x4")
        a = random_params(6, seed=30)
        out, _ = normalize(t, a)
        assert np.abs(np.angle(out) - np.angle(a)).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["6x4", "12x6"]), st.data())
    def test_random_parameters(self, name, data):
        """Phases of nonzero parameters are kept, the residual is the
        returned parameters' worst norm error, and DegenerateParameterError
        is raised exactly when some codeword's parameters are all zero.  The
        residual may exceed NORMALIZE_TOL once the sweep cap runs out."""
        t = builtin_template(name)
        magnitude = st.floats(1e-3, 1e3)
        phase = st.floats(-np.pi, np.pi)
        a = np.array([r * np.exp(1j * phi) for r, phi in data.draw(
            st.lists(st.tuples(magnitude, phase),
                     min_size=t.num_params, max_size=t.num_params))])
        a[list(data.draw(st.sets(st.integers(0, t.num_params - 1), max_size=2)))] = 0.0
        degenerate = any((a[np.abs(t.slots[j, m][t.slots[j, m] != 0]) - 1] == 0).all()
                         for j in range(t.J) for m in range(t.M))
        if degenerate:
            with pytest.raises(DegenerateParameterError):
                normalize(t, a)
            return
        out, residual = normalize(t, a)
        nz = a != 0
        assert (out[~nz] == 0).all()
        assert np.abs(np.angle(out[nz] * np.conj(a[nz]))).max() <= 1e-12
        assert residual == np.abs(codeword_norms(t, out) - 1).max()

    @pytest.mark.parametrize("name", ["6x4", "12x6"])
    @pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100, 1e200])
    def test_extreme_magnitudes_normalized(self, name, scale):
        """Squared magnitudes under- or overflow at 1e+-200, and from 1e+-100
        the 6x4 sweeps stalled at residual ~0.42; a power-of-two prescale
        brings the largest magnitude to unit scale first."""
        t = builtin_template(name)
        a = random_params(t.num_params, seed=31)
        with np.errstate(over="ignore"):
            out, residual = normalize(t, scale * a)
        assert np.abs(np.angle(out * np.conj(a))).max() <= 1e-12
        assert residual == np.abs(codeword_norms(t, out) - 1).max()
        assert residual < structure.NORMALIZE_TOL

    def test_zero_pair_raises(self):
        t = builtin_template("6x4")
        a = np.array([0, 1, 0, 1, 1, 1], dtype=complex)  # user 1 pairs a1 with a3
        with pytest.raises(DegenerateParameterError):
            normalize(t, a)


class TestFourCycles:
    def test_8x4_matrix_has_four_cycles(self):
        assert has_four_cycle(FactorGraph(load_factor_matrix("eq9_factor_8x4")))

    def test_12x6_matrix_is_four_cycle_free(self):
        assert not has_four_cycle(FactorGraph(load_factor_matrix("eq10_factor_12x6")))

    def test_identity_matrix_is_clean(self):
        assert not has_four_cycle(FactorGraph(np.eye(4, dtype=int)))


class TestDerive8x4:
    def test_extension_layout(self, table3):
        ext = derive_8x4(table3)
        assert (ext.config.J, ext.config.K) == (8, 4)
        assert np.array_equal(ext.factor_matrix, load_factor_matrix("eq9_factor_8x4"))
        # user 7 rides on resources {1, 2}
        assert np.array_equal(np.flatnonzero(ext.factor_matrix[:, 6]), [0, 1])

    def test_users_unchanged_and_values_reused(self, table3):
        ext = derive_8x4(table3)
        assert np.array_equal(ext.books[:6], table3.books)
        base_vals = set(
            np.round(table3.books[2:4][np.abs(table3.books[2:4]) > 0], 12).tolist()
        )
        ext_vals = set(
            np.round(ext.books[6:][np.abs(ext.books[6:]) > 0], 12).tolist()
        )
        assert ext_vals <= base_vals

    def test_wrong_base_rejected(self, table5):
        with pytest.raises(ValueError):
            derive_8x4(table5)


class TestTemplateFiles:
    def test_round_trip(self, tmp_path):
        t = builtin_template("12x6")
        path = tmp_path / "t.json"
        write_template_json(t, path)
        back = read_template_json(path)
        assert back.name == t.name
        assert back.num_params == t.num_params
        assert np.array_equal(back.slots, t.slots)
        assert np.array_equal(back.graph.F, t.graph.F)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["6x4", "12x6"]), st.data())
    def test_relabelled_builtins_round_trip(self, name, data):
        t = builtin_template(name)
        users = np.array(data.draw(st.permutations(range(t.J))))
        resources = np.array(data.draw(st.permutations(range(t.K))))
        labels = np.array([0] + data.draw(st.permutations(range(1, t.num_params + 1))))
        signs = np.array([1] + data.draw(st.lists(
            st.sampled_from([-1, 1]), min_size=t.num_params, max_size=t.num_params)))
        s = t.slots[users][:, :, resources]
        relabelled = StructureTemplate(
            "relabelled", t.num_params, np.sign(s) * signs[np.abs(s)] * labels[np.abs(s)]
        )
        back = template_from_dict(json.loads(json.dumps(template_to_dict(relabelled))))
        assert np.array_equal(back.slots, relabelled.slots)
        assert np.array_equal(back.graph.F, relabelled.graph.F)
        assert np.array_equal(back.graph.F, t.graph.F[resources][:, users])

    def test_infinite_parameter_count_rejected(self):
        doc = template_to_dict(builtin_template("6x4"))
        doc["num_params"] = float("inf")
        with pytest.raises(CodebookFormatError, match="invalid template field"):
            template_from_dict(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("value", [6.7, "6", 6.0])
    def test_non_integer_parameter_count_rejected(self, value):
        """6.9 used to load as 6 and run a search."""
        doc = template_to_dict(builtin_template("6x4"))
        doc["num_params"] = value
        with pytest.raises(CodebookFormatError, match=f"invalid template field: "
                                                      f"num_params must be an integer"):
            template_from_dict(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("entry", [str, lambda x: x + 0.5, float, lambda x: x * 1.9],
                             ids=["string", "plus-half", "float", "times-1.9"])
    def test_non_integer_factor_entries_rejected(self, entry):
        """A template whose F entries were all strings or all shifted by 0.5
        used to load; F is checked by ``FactorGraph`` before any cast."""
        doc = template_to_dict(builtin_template("6x4"))
        doc["F"] = [[entry(x) for x in row] for row in doc["F"]]
        with pytest.raises(CodebookFormatError, match="integers 0 or 1"):
            template_from_dict(json.loads(json.dumps(doc)))

    def test_factor_matrix_must_match_slots(self):
        doc = template_to_dict(builtin_template("6x4"))
        doc["F"][0] = doc["F"][1]
        with pytest.raises(CodebookFormatError, match="slots do not match F"):
            template_from_dict(doc)

    def test_user_supplied_template_accepted(self):
        doc = template_to_dict(builtin_template("6x4"))
        doc["name"] = "custom"
        t = template_from_dict(doc)
        assert t.name == "custom"
        assert t.num_params == 6

    @pytest.mark.parametrize("cell", [
        {"p": 0},
        {"p": 0, "s": 2},
        {"p": -3, "s": 1},
        {"p": 1.7, "s": 1},
        {"p": 0, "s": True},
        {"p": True, "s": 1},
        {"p": 0, "s": 1.0},
        {"p": 10 ** 30, "s": 1},
        False,
        [0],
    ])
    def test_malformed_slots_rejected(self, cell):
        """A cell is the int 0 or {"p": int >= 0, "s": 1 or -1}; a sign of 2,
        a negative or fractional index or a boolean is not coerced into
        some other parameter reference."""
        doc = template_to_dict(builtin_template("6x4"))
        doc["slots"][0][0][0] = cell
        with pytest.raises(CodebookFormatError, match="malformed slot entry"):
            template_from_dict(doc)


class TestNormalizeCap:
    def test_sweep_cap_returns_residual_without_hanging(self, monkeypatch):
        monkeypatch.setattr(structure, "NORMALIZE_TOL", 0.0)
        monkeypatch.setattr(structure, "NORMALIZE_MAX_SWEEPS", 50)
        t = builtin_template("6x4")
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], dtype=complex)
        out, residual = normalize(t, a)
        assert np.isfinite(residual)
        assert np.abs(codeword_norms(t, out) - 1.0).max() == residual
