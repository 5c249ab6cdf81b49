"""Differential evolution over packed codebook parameters.

Each candidate row is a real vector of interleaved (re, im) parameter parts.
A generation builds one trial per row with rand/1 mutation fused with
binomial crossover (the forced j_rand coordinate guarantees the trial differs
from its target before normalization), renormalizes the trial with the
run's structure template so every codeword has unit norm, and replaces the
row only on strictly lower SER.
Trials are built from the pre-generation population snapshot, so selection
outcomes do not depend on evaluation order.

Each trial races its row on the same frames: once its running error count
reaches the row's, it has lost, whatever its remaining frames hold.  So
``step_generation`` passes the row's fitness as the trial's bound, and the
SER objective hands it unchanged to ``estimate_ser``, which stops once the
trial's SER is known to be at least that high (see ``scma.montecarlo``).  A
stopped SER is at least the row's, so the strict ``<`` rejects it with no
special case, and an accepted trial never stops, so every recorded fitness
is a full estimate.  The population init and the survivor refresh run with
an infinite bound, that is none, because they set the bounds.
A stopped trial's estimate, like every other, does not depend on
``threads``.

The SER objective is stochastic; two stream policies are supported:

* ``per-generation`` (default): all rows and trials of generation G are
  evaluated on frame streams derived from G, so comparisons inside a
  generation are paired but survivor fitness is re-measured each generation.
* ``fixed``: every evaluation of the whole run shares one stream set, making
  the objective a deterministic function of the codebook; survivor fitness is
  cached and the recorded best-SER history is exactly nonincreasing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .channel import CHANNELS, ebn0_to_n0
from .core import _frozen, _require_int, pack_params, unpack_params
from .detector import MpaConfig
from .montecarlo import estimate_ser
from .structure import StructureTemplate, instantiate, normalize

CRN_MODES = ("per-generation", "fixed")


@dataclass(frozen=True)
class ObjectiveConfig:
    """Monte-Carlo budget and operating point for the SER objective;
    :func:`optimize` checks ``ebn0_db`` with ``ebn0_to_n0`` before any work."""

    ebn0_db: float
    channel: str = "awgn"
    frames: int = 20000
    mpa: MpaConfig = MpaConfig()
    crn_mode: str = "per-generation"
    threads: int = 1

    def __post_init__(self) -> None:
        if self.channel not in CHANNELS:
            raise ValueError(f"channel must be one of {CHANNELS}, got {self.channel!r}")
        _require_int(1, frames=self.frames, threads=self.threads)
        if self.crn_mode not in CRN_MODES:
            raise ValueError(f"crn_mode must be one of {CRN_MODES}")


@dataclass(frozen=True)
class DeConfig:
    """Differential-evolution controls plus the evaluation setup; the first
    renormalization in :func:`init_population` checks the row length ``d``."""

    s_p: int = 20
    d: int = 12
    alpha: float = 0.6
    c_r: float = 0.95
    i_max: int = 80
    plateau_eps: float = 0.02
    plateau_window: int = 5
    seed: int = 0
    eval: ObjectiveConfig = ObjectiveConfig(ebn0_db=10.0)

    def __post_init__(self) -> None:
        _require_int(4, s_p=self.s_p)  # three donors plus the target
        if not 0.0 <= self.c_r <= 1.0:
            raise ValueError("c_r must lie in [0, 1]")
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        _require_int(0, d=self.d, i_max=self.i_max, plateau_window=self.plateau_window,
                     seed=self.seed)
        if not self.plateau_eps >= 0:
            raise ValueError(f"plateau_eps must be >= 0, got {self.plateau_eps}")


@dataclass(frozen=True)
class Population:
    """Candidate rows with their most recent fitness values."""

    rows: np.ndarray  # (s_p, d)
    fitness: np.ndarray  # (s_p,)
    generation: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _frozen(np.asarray(self.rows, float)))
        object.__setattr__(self, "fitness", _frozen(np.asarray(self.fitness, float)))

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.fitness))

    @property
    def best_fitness(self) -> float:
        return float(self.fitness.min())


# objective(row, bound): the row's value, or any value at least ``bound``
# where the row's value is at least ``bound``; infinity means no bound
Objective = Callable[[np.ndarray, float], float]


def de_rng(seed: int) -> np.random.Generator:
    """Generator driving mutation/crossover draws, separated from the
    Monte-Carlo frame streams."""
    return np.random.default_rng(np.random.SeedSequence((seed, 0x0DE)))


def make_objective(template: StructureTemplate, cfg: DeConfig, stream: int) -> Objective:
    """SER of the codebook a row encodes; ``stream`` selects the common
    random numbers (callers pass the generation index, or 0 under the fixed
    policy), and an SER ``bound`` lets the estimate stop once the row's SER
    is known to be at least that high."""
    ev = cfg.eval

    def objective(row: np.ndarray, bound: float) -> float:
        cbs = instantiate(template, unpack_params(row))
        est = estimate_ser(
            cbs,
            ev.ebn0_db,
            ev.channel,
            ev.frames,
            ev.mpa,
            seed=cfg.seed,
            stream=stream,
            threads=ev.threads,
            bound=bound,
        )
        return est.ser

    return objective


def _renormalized(template: StructureTemplate, packed: np.ndarray) -> np.ndarray:
    return pack_params(normalize(template, unpack_params(packed))[0])


def _pick_donors(
    s_p: int, i: int, rng: np.random.Generator
) -> tuple[int, int, int]:
    """Three distinct row indices different from i, drawn by partial
    shuffle."""
    others = np.delete(np.arange(s_p), i)
    r0, r1, r2 = rng.permutation(others)[:3]
    return int(r0), int(r1), int(r2)


def init_population(
    cfg: DeConfig,
    template: StructureTemplate,
    rng: np.random.Generator,
    objective: Objective,
) -> Population:
    """Rows i.i.d. uniform on [-1, 1], each renormalized to unit codeword
    norms, then evaluated once without a bound.  A ``cfg.d`` other than
    twice ``template.num_params`` raises ``MalformedParameterError`` at the
    first renormalization, before any objective call."""
    rows = rng.uniform(-1.0, 1.0, size=(cfg.s_p, cfg.d))
    for i in range(cfg.s_p):
        rows[i] = _renormalized(template, rows[i])
    fitness = np.array([objective(rows[i], math.inf) for i in range(cfg.s_p)])
    return Population(rows=rows, fitness=fitness, generation=0)


def make_trial(
    pop: Population, i: int, cfg: DeConfig, rng: np.random.Generator
) -> np.ndarray:
    """rand/1 mutation fused with binomial crossover against row i, before
    normalization.  Draw order: donor shuffle, j_rand, per-coordinate
    uniforms."""
    r0, r1, r2 = _pick_donors(cfg.s_p, i, rng)
    j_rand = int(rng.integers(cfg.d))
    take_mutant = rng.random(cfg.d) < cfg.c_r
    take_mutant[j_rand] = True
    mutant = pop.rows[r0] + cfg.alpha * (pop.rows[r1] - pop.rows[r2])
    return np.where(take_mutant, mutant, pop.rows[i])


def step_generation(
    pop: Population,
    cfg: DeConfig,
    objective: Objective,
    rng: np.random.Generator,
    template: StructureTemplate,
) -> Population:
    """One generation: build a normalized trial per row from the population
    snapshot and keep whichever of (row, trial) has strictly lower objective
    value.  Each trial is evaluated with its row's fitness as the bound.  The
    input population is untouched if the objective raises."""
    trials = [
        _renormalized(template, make_trial(pop, i, cfg, rng)) for i in range(cfg.s_p)
    ]
    trial_fit = np.array([objective(t, f) for t, f in zip(trials, pop.fitness)])
    rows = np.array(pop.rows)
    fitness = np.array(pop.fitness)
    for i in range(cfg.s_p):
        if trial_fit[i] < fitness[i]:
            rows[i] = trials[i]
            fitness[i] = trial_fit[i]
    new = Population(rows=rows, fitness=fitness, generation=pop.generation + 1)
    assert new.best_fitness <= pop.best_fitness, "elitism violated"
    return new


@dataclass(frozen=True)
class OptimizeResult:
    history: np.ndarray  # best SER after init and after each generation
    population: Population
    stop_reason: str

    @property
    def best_row(self) -> np.ndarray:
        """A copy of the packed real parameters of the best row."""
        return np.array(self.population.rows[self.population.best_index])


def _plateaued(history: list[float], eps: float, window: int) -> bool:
    if window < 1 or len(history) <= window:
        return False
    recent = history[-(window + 1):]
    for prev, cur in zip(recent[:-1], recent[1:]):
        denom = max(abs(prev), 1e-300)
        if abs(cur - prev) / denom >= eps:
            return False
    return True


def optimize(template: StructureTemplate, cfg: DeConfig) -> OptimizeResult:
    """Run the full search: population init, generations of mutation /
    crossover / normalization / selection, stopping on plateau or the
    iteration cap.  Fully reproducible from (seed, config).  An Eb/N0 out of
    range for the template raises ``ValueError`` before any work."""
    ebn0_to_n0(cfg.eval.ebn0_db, template.config)
    rng = de_rng(cfg.seed)
    fixed = cfg.eval.crn_mode == "fixed"

    pop = init_population(cfg, template, rng, make_objective(template, cfg, 0))
    history = [pop.best_fitness]
    stop_reason = "iteration cap"
    for gen in range(1, cfg.i_max + 1):
        objective = make_objective(template, cfg, 0 if fixed else gen)
        if not fixed:
            # fresh streams: re-measure survivors so row-vs-trial comparisons
            # stay paired under this generation's common random numbers
            refreshed = np.array([objective(row, math.inf) for row in pop.rows])
            pop = replace(pop, fitness=refreshed)
        pop = step_generation(pop, cfg, objective, rng, template)
        history.append(pop.best_fitness)
        if _plateaued(history, cfg.plateau_eps, cfg.plateau_window):
            stop_reason = "plateau"
            break
    return OptimizeResult(np.array(history), pop, stop_reason)
