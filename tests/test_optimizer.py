"""Differential-evolution mechanics and end-to-end search behavior."""
import math

import numpy as np
import pytest

import scma.montecarlo as mc
import scma.optimizer as opt
from scma.core import pack_params, unpack_params
from scma.detector import MpaConfig
from scma.optimizer import (
    DeConfig,
    ObjectiveConfig,
    Population,
    _pick_donors,
    de_rng,
    init_population,
    make_trial,
    optimize,
    step_generation,
)
from scma.structure import builtin_template, instantiate, normalize

SIX_BY_FOUR = builtin_template("6x4")
EVAL_10DB = ObjectiveConfig(ebn0_db=10.0, frames=1500, crn_mode="fixed")


def plain_config(**kw) -> DeConfig:
    base = dict(s_p=10, d=12, alpha=0.6, c_r=0.95, i_max=10, seed=1, eval=EVAL_10DB)
    base.update(kw)
    return DeConfig(**base)


def zero_objective(row: np.ndarray, bound: float) -> float:
    return 0.0


class TestConfigValidation:
    @pytest.mark.parametrize("value", [3, 4.0])
    def test_minimum_population(self, value):
        with pytest.raises(ValueError, match="s_p must be an integer >= 4"):
            plain_config(s_p=value)

    def test_crossover_rate_range(self):
        with pytest.raises(ValueError):
            plain_config(c_r=1.5)

    def test_even_dimension(self):
        with pytest.raises(ValueError):
            plain_config(d=11)

    @pytest.mark.parametrize("field,value", [
        ("i_max", -3), ("plateau_window", -1), ("plateau_eps", -0.01),
        ("plateau_eps", np.nan), ("i_max", 1.5), ("plateau_window", 1.5),
    ])
    def test_negative_stopping_controls_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            plain_config(**{field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha_rejected(self, value):
        with pytest.raises(ValueError, match="alpha must be finite"):
            plain_config(alpha=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_ebn0_rejected(self, value):
        with pytest.raises(ValueError, match="ebn0_db must be finite"):
            ObjectiveConfig(ebn0_db=value)

    def test_crn_mode_names(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(ebn0_db=10.0, crn_mode="weekly")

    @pytest.mark.parametrize("field,value", [
        ("threads", 0), ("threads", -2), ("threads", 2.0), ("frames", 100.0),
    ])
    def test_counts_below_one_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            ObjectiveConfig(ebn0_db=10.0, **{field: value})

    @pytest.mark.parametrize("value", [-1, 1.0])
    def test_seed_not_a_nonnegative_integer_rejected(self, value):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            plain_config(seed=value)

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            ObjectiveConfig(ebn0_db=10.0, channel="rician")


class TestInitPopulation:
    def test_shape_and_determinism(self):
        t = builtin_template("6x4")
        cfg = plain_config()
        a = init_population(cfg, t, de_rng(cfg.seed), zero_objective)
        b = init_population(cfg, t, de_rng(cfg.seed), zero_objective)
        assert a.rows.shape == (10, 12)
        assert np.array_equal(a.rows, b.rows)
        assert a.generation == 0

    def test_rows_are_normalized_and_bounded(self):
        t = builtin_template("6x4")
        cfg = plain_config(s_p=40, seed=123)
        pop = init_population(cfg, t, de_rng(cfg.seed), zero_objective)
        for row in pop.rows:
            norms = np.linalg.norm(instantiate(t, unpack_params(row)).books, axis=2)
            assert np.abs(norms - 1.0).max() < 1e-8
        # rescaling a parameter pair never pushes a magnitude past 1
        assert np.abs(pop.rows).max() <= 1.5

    def test_dimension_mismatch_rejected(self):
        t = builtin_template("12x6")
        with pytest.raises(ValueError):
            init_population(plain_config(d=12), t, de_rng(0), zero_objective)


class TestDonors:
    def test_distinct_and_exclude_target(self):
        rng = de_rng(7)
        for _ in range(500):
            i = int(rng.integers(8))
            donors = _pick_donors(8, i, rng)
            assert len(set(donors)) == 3
            assert i not in donors


class TestMakeTrial:
    def raw_population(self, s_p=8, d=12, seed=3):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(-1, 1, size=(s_p, d))
        return Population(rows=rows, fitness=np.zeros(s_p), generation=0)

    def test_reproducible(self):
        pop = self.raw_population()
        cfg = plain_config(s_p=8)
        a = make_trial(pop, 2, cfg, de_rng(9))
        b = make_trial(pop, 2, cfg, de_rng(9))
        assert np.array_equal(a, b)

    def test_zero_crossover_changes_exactly_one_coordinate(self):
        # trials are built before normalization: only j_rand mutates
        pop = self.raw_population()
        cfg = plain_config(s_p=8, c_r=0.0)
        for seed in range(20):
            trial = make_trial(pop, 1, cfg, de_rng(seed))
            assert int((trial != pop.rows[1]).sum()) == 1

    def test_full_crossover_takes_no_target_coordinates(self):
        pop = self.raw_population(seed=4)
        cfg = plain_config(s_p=8, c_r=1.0)
        trial = make_trial(pop, 0, cfg, de_rng(11))
        assert (trial != pop.rows[0]).all()

    def test_zero_alpha_mixes_target_with_one_donor(self):
        pop = self.raw_population(seed=5)
        cfg = plain_config(s_p=8, alpha=1e-300)  # alpha must stay positive
        trial = make_trial(pop, 3, cfg, de_rng(13))
        matched = False
        for r in range(8):
            if r == 3:
                continue
            ok = np.all(
                np.isclose(trial, pop.rows[r], atol=1e-12)
                | np.isclose(trial, pop.rows[3], atol=1e-12)
            )
            matched = matched or ok
        assert matched


class TestStepGeneration:
    def test_constant_objective_keeps_population(self):
        rng = np.random.default_rng(8)
        rows = rng.uniform(-1, 1, size=(8, 12))
        pop = Population(rows=rows, fitness=np.full(8, 0.5), generation=0)
        cfg = plain_config(s_p=8)
        new = step_generation(pop, cfg, lambda r, bound: 0.5, de_rng(1), SIX_BY_FOUR)
        assert np.array_equal(new.rows, pop.rows)
        assert new.generation == 1

    def test_accepted_trials_are_normalized(self):
        rng = np.random.default_rng(6)
        rows = rng.uniform(-1, 1, size=(8, 12))
        pop = Population(rows=rows, fitness=np.full(8, np.inf), generation=0)
        new = step_generation(pop, plain_config(s_p=8), zero_objective, de_rng(15),
                              SIX_BY_FOUR)
        for row in new.rows:
            books = instantiate(SIX_BY_FOUR, unpack_params(row)).books
            assert np.abs(np.linalg.norm(books, axis=2) - 1.0).max() < 1e-8

    def test_sphere_function_converges(self):
        # distance to a feasible (unit-norm) target, searched over normalized rows
        raw = unpack_params(np.linspace(-0.8, 0.9, 12))
        target = pack_params(normalize(SIX_BY_FOUR, raw)[0])
        objective = lambda row, bound: float(np.sum((row - target) ** 2))  # noqa: E731
        cfg = plain_config(s_p=20, c_r=0.9, alpha=0.5, seed=5)
        rng = de_rng(cfg.seed)
        pop = init_population(cfg, SIX_BY_FOUR, rng, objective)
        start = pop.best_fitness
        for _ in range(30):
            pop = step_generation(pop, cfg, objective, rng, SIX_BY_FOUR)
        # 30 generations cut the distance about 10x (1.32 -> 0.13)
        assert pop.best_fitness < start / 5

    def test_elitist_selection(self):
        rng = np.random.default_rng(10)
        rows = rng.uniform(-1, 1, size=(6, 12))
        objective = lambda row, bound: float(np.sum(row ** 2))  # noqa: E731
        fitness = np.array([objective(r, math.inf) for r in rows])
        pop = Population(rows=rows, fitness=fitness, generation=0)
        cfg = plain_config(s_p=6)
        for seed in range(5):
            new = step_generation(pop, cfg, objective, de_rng(seed), SIX_BY_FOUR)
            assert new.best_fitness <= pop.best_fitness
            pop = new


class TestOptimize:
    def test_iteration_cap_zero_returns_initial_best(self):
        cfg = plain_config(s_p=6, i_max=0, seed=21)
        result = optimize(builtin_template("6x4"), cfg)
        assert result.generations == 0
        assert len(result.history) == 1
        assert result.history[0] == result.population.best_fitness

    def test_history_monotone_under_fixed_streams(self):
        cfg = plain_config(s_p=6, i_max=4, seed=22)
        result = optimize(builtin_template("6x4"), cfg)
        assert all(a >= b for a, b in zip(result.history, result.history[1:]))

    def test_full_reproducibility(self):
        cfg = plain_config(s_p=6, i_max=3, seed=23)
        a = optimize(builtin_template("6x4"), cfg)
        b = optimize(builtin_template("6x4"), cfg)
        assert np.array_equal(a.history, b.history)
        assert np.array_equal(a.best_row, b.best_row)
        assert np.array_equal(a.a_opt, b.a_opt)

    def test_search_improves_over_initialization(self):
        cfg = plain_config(s_p=6, i_max=6, seed=24)
        result = optimize(builtin_template("6x4"), cfg)
        assert result.history[-1] <= result.history[0]

    def test_plateau_stops_early(self):
        # a constant objective plateaus as soon as the window fills
        eval_cfg = ObjectiveConfig(ebn0_db=60.0, frames=200, crn_mode="fixed")
        cfg = plain_config(
            s_p=5, i_max=40, plateau_eps=0.02, plateau_window=5, seed=25,
            eval=eval_cfg,
        )
        result = optimize(builtin_template("6x4"), cfg)
        assert result.stop_reason == "plateau"
        assert result.generations == 5

    def test_per_generation_mode_runs(self):
        eval_cfg = ObjectiveConfig(ebn0_db=10.0, frames=800, crn_mode="per-generation")
        cfg = plain_config(s_p=5, i_max=2, seed=26, eval=eval_cfg)
        result = optimize(builtin_template("6x4"), cfg)
        assert result.generations == 2
        assert len(result.history) == 3


class TestRace:
    """Trials race their rows: a bounded evaluation stops once the trial has
    lost, and the search is byte for byte the one that evaluates every trial
    in full."""

    @staticmethod
    def run(monkeypatch, cfg, full):
        frames = []
        detect = mc.mpa_detect_batch
        estimate = opt.estimate_ser

        def counting_detect(y, *args, **kwargs):
            frames.append(len(y))
            return detect(y, *args, **kwargs)

        def unbounded_estimate(*args, bound=None, **kwargs):
            return estimate(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(mc, "mpa_detect_batch", counting_detect)
            if full:
                m.setattr(opt, "estimate_ser", unbounded_estimate)
            return optimize(SIX_BY_FOUR, cfg), sum(frames)

    @pytest.mark.parametrize("frames", [1500, 5000])
    @pytest.mark.parametrize("crn_mode", ["fixed", "per-generation"])
    @pytest.mark.parametrize("channel,ebn0_db", [("awgn", 8.0), ("rayleigh", 14.0)])
    def test_equals_full_evaluation(self, monkeypatch, channel, ebn0_db, crn_mode,
                                    frames):
        # 12 evaluations per run either way: under fixed streams the second
        # generation's bounds include fitness cached from accepted trials
        i_max = 2 if crn_mode == "fixed" else 1
        raced_frames = full_frames = 0
        for seed in (31, 32, 33):
            cfg = plain_config(
                s_p=4, i_max=i_max, seed=seed,
                eval=ObjectiveConfig(ebn0_db=ebn0_db, channel=channel,
                                     frames=frames, mpa=MpaConfig(iterations=3),
                                     crn_mode=crn_mode))
            raced, n = self.run(monkeypatch, cfg, full=False)
            raced_frames += n
            full, n = self.run(monkeypatch, cfg, full=True)
            full_frames += n
            assert raced.history.tobytes() == full.history.tobytes()
            assert raced.best_row.tobytes() == full.best_row.tobytes()
            assert raced.population.rows.tobytes() == full.population.rows.tobytes()
            assert (raced.population.fitness.tobytes()
                    == full.population.fitness.tobytes())
        assert raced_frames < full_frames
