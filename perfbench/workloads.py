"""The benchmark's workloads, driven through the public ``scma`` API.

Each workload turns ``(seed, seconds)`` into a fixed list of operations, so a
run does the same work on every commit and its counts repeat exactly.  The
list is sized from the run length with the operation times the seed code
takes on a 2-core x86-64 VM (``NOMINAL_*``).  Operation ``i`` of a run with
seed ``s`` uses stream ``i`` of seed ``s`` where the API takes a stream
(``estimate_ser``), and seed ``100 * s + i`` where it does not.

Why these three:

* ``ser-12x6-rayleigh``: the heaviest detector work (d_f = 4, so 256-entry
  weight tables per resource and frame, with per-frame gains in the table
  build), and the only workload that runs two block workers.
* ``sweep-6x4-log``: the log-domain kernel and the early-stop Monte-Carlo
  loop, whose frame counts vary per SNR point.
* ``de-6x4-awgn``: many small ``estimate_ser`` calls on the Python-bound
  d_f = 3 AWGN path, plus normalize/instantiate per trial and survivor
  re-measurement; population batching shows here and nowhere else.
"""
from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

import scma.optimizer as scma_optimizer
from scma.channel import FRAME_BLOCK, block_rng, draw_frame_block, ebn0_to_n0
from scma.core import CodebookSet, unpack_params
from scma.detector import MpaConfig, mpa_detect_batch
from scma.fixtures import load_codebook
from scma.montecarlo import SerEstimate, estimate_ser, sweep_ser
from scma.optimizer import DeConfig, ObjectiveConfig, optimize
from scma.structure import builtin_template, codeword_norms, instantiate, normalize

from spans import NO_TRACE, patched

WARMUP_FRAMES = 256
# Outputs of a non-reference seed must land within this factor of the
# reference SER; wide enough for ~40 errors per operation.
SER_BAND = 4.0
# normalize() stops after a fixed number of sweeps even when its 1e-9
# tolerance is not yet met; DE rows have been seen 1.4e-6 from unit norm.
UNIT_NORM_TOL = 1e-4


def user_errors(est: SerEstimate) -> list[int]:
    """Per-user symbol error counts recovered from the per-user rates."""
    return [int(round(r * est.frames)) for r in est.per_user_ser]


def _ser(frames: int, errors: int, users: int) -> float:
    return errors / (frames * users)


def _in_band(value: float, ref: float) -> bool:
    return ref / SER_BAND <= value <= ref * SER_BAND


def _exact(spec: dict, output: dict, refs: dict) -> list[str]:
    """Mismatch with the stored output of this operation, if one is stored
    for the run's seed."""
    stored = refs.get(str(spec["run_seed"]), [])
    i = spec["index"]
    if i < len(stored) and output != stored[i]:
        return [f"op {i}: {output} != reference {stored[i]}"]
    return []


class Workload:
    name: str
    threads: int

    def setup(self):
        """Load inputs and make the first call, which builds the detector's
        graph cache and contraction paths; returns the state ops use."""
        raise NotImplementedError

    def op_specs(self, seed: int, seconds: float) -> list[dict]:
        raise NotImplementedError

    def run(self, state, spec: dict, tracer=NO_TRACE) -> tuple[dict, list[tuple[int, float]]]:
        """One operation: its comparable output, and (frames, seconds)
        timing samples."""
        raise NotImplementedError

    def check(self, spec: dict, output: dict, refs: dict) -> list[str]:
        """Problems with one output: invariants always, and equality with
        the stored output when ``refs`` (this workload's references, keyed
        by seed) has one for this operation."""
        raise NotImplementedError

    def probe_case(self, state) -> tuple[CodebookSet, str, float, str]:
        """(codebook, channel, Eb/N0, domain) for the detector probe."""
        raise NotImplementedError

    def quick_check(self, state) -> dict:
        """Small untimed run at a fixed seed, compared bit-exactly with the
        stored reference on every run."""
        raise NotImplementedError


class SerWorkload(Workload):
    name = "ser-12x6-rayleigh"
    threads = 2
    fixture = "table6_fading_12x6"
    users = 12
    channel = "rayleigh"
    ebn0_db = 18.0
    mpa = MpaConfig()
    frames = 2 * FRAME_BLOCK  # one block per worker
    NOMINAL_OP_S = 1.7

    def setup(self):
        cbs = load_codebook(self.fixture)
        estimate_ser(cbs, self.ebn0_db, self.channel, WARMUP_FRAMES, self.mpa)
        return cbs

    def op_specs(self, seed, seconds):
        n = max(1, round(seconds / self.NOMINAL_OP_S))
        return [{"run_seed": seed, "index": i, "seed": seed, "stream": i} for i in range(n)]

    def run(self, cbs, spec, tracer=NO_TRACE):
        with tracer.span("montecarlo"):
            t0 = time.perf_counter()
            est = estimate_ser(
                cbs, self.ebn0_db, self.channel, self.frames, self.mpa,
                seed=spec["seed"], stream=spec["stream"], threads=self.threads,
            )
            dt = time.perf_counter() - t0
        return {"frames": est.frames, "errors": user_errors(est)}, [(est.frames, dt)]

    def check(self, spec, output, refs):
        problems = []
        errs = output["errors"]
        if output["frames"] != self.frames:
            problems.append(f"frames {output['frames']} != {self.frames}")
        if len(errs) != self.users or not all(0 <= e <= self.frames for e in errs):
            problems.append(f"per-user error counts out of range: {errs}")
        base = refs[str(REFERENCE_SEEDS[0])]
        ref_ser = np.mean([_ser(r["frames"], sum(r["errors"]), self.users) for r in base])
        ser = _ser(output["frames"], sum(errs), self.users)
        if not _in_band(ser, ref_ser):
            problems.append(f"SER {ser:.3g} far from reference {ref_ser:.3g}")
        return problems + _exact(spec, output, refs)

    def probe_case(self, cbs):
        return cbs, self.channel, self.ebn0_db, self.mpa.domain

    def quick_check(self, cbs):
        est = estimate_ser(
            cbs, self.ebn0_db, self.channel, FRAME_BLOCK // 2, self.mpa,
            seed=1, stream=1000, threads=self.threads,
        )
        return {"frames": est.frames, "errors": user_errors(est)}


class SweepWorkload(Workload):
    name = "sweep-6x4-log"
    threads = 1
    fixture = "table3_fading_6x4"
    users = 6
    channel = "rayleigh"
    points = (6.0, 9.0, 12.0, 15.0)
    mpa = MpaConfig(domain="log")
    target_errors = 200
    NOMINAL_OP_S = 16.0

    def setup(self):
        cbs = load_codebook(self.fixture)
        estimate_ser(cbs, self.points[0], self.channel, WARMUP_FRAMES, self.mpa)
        return cbs

    def op_specs(self, seed, seconds):
        n = max(1, round(seconds / self.NOMINAL_OP_S))
        return [{"run_seed": seed, "index": i, "seed": 100 * seed + i} for i in range(n)]

    def run(self, cbs, spec, tracer=NO_TRACE):
        with tracer.span("montecarlo"):
            t0 = time.perf_counter()
            ests = sweep_ser(
                cbs, self.points, self.channel, self.mpa, seed=spec["seed"],
                target_errors=self.target_errors, threads=self.threads,
            )
            dt = time.perf_counter() - t0
        points = [[e.frames, e.symbol_errors] for e in ests]
        return {"points": points}, [(sum(p[0] for p in points), dt)]

    def check(self, spec, output, refs):
        problems = []
        pts = output["points"]
        if len(pts) != len(self.points):
            return [f"{len(pts)} points != {len(self.points)}"]
        for (frames, errors), ebn0 in zip(pts, self.points):
            if frames % FRAME_BLOCK or not 0 < frames or not 0 <= errors <= self.users * frames:
                problems.append(f"{ebn0} dB: frames {frames}, errors {errors} out of range")
            elif errors < self.target_errors:
                problems.append(f"{ebn0} dB: stopped at {errors} < {self.target_errors} errors")
        base = refs[str(REFERENCE_SEEDS[0])]
        for p, (frames, errors) in enumerate(pts):
            ref_ser = np.mean([_ser(*r["points"][p], self.users) for r in base])
            if frames and not _in_band(_ser(frames, errors, self.users), ref_ser):
                problems.append(f"{self.points[p]} dB: SER far from reference {ref_ser:.3g}")
        return problems + _exact(spec, output, refs)

    def probe_case(self, cbs):
        return cbs, self.channel, self.points[0], self.mpa.domain

    def quick_check(self, cbs):
        ests = sweep_ser(
            cbs, (self.points[0], self.points[-1]), self.channel, self.mpa, seed=1,
            target_errors=self.target_errors, max_frames=FRAME_BLOCK // 4,
        )
        return {"points": [[e.frames, e.symbol_errors] for e in ests]}


@dataclass
class GenerationClock:
    """Times DE generations by marking when population init and each
    ``step_generation`` return; a generation therefore includes the survivor
    re-measurement that precedes its step."""

    marks: list[float] = field(default_factory=list)
    populations: list = field(default_factory=list)

    def _marking(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            pop = fn(*args, **kwargs)
            self.marks.append(time.perf_counter())
            self.populations.append(pop)
            return pop

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["GenerationClock"]:
        with ExitStack() as stack:
            for name in ("init_population", "step_generation"):
                fn = self._marking(getattr(scma_optimizer, name))
                stack.enter_context(patched(scma_optimizer, name, fn))
            yield self

    def generation_seconds(self) -> list[float]:
        return [b - a for a, b in zip(self.marks, self.marks[1:])]

    def best_rows(self) -> list[list[float]]:
        """Best row after init and after each generation."""
        return [p.rows[p.best_index].tolist() for p in self.populations]


class DeWorkload(Workload):
    name = "de-6x4-awgn"
    threads = 1
    template_name = "6x4"
    s_p = 8
    frames = FRAME_BLOCK
    ebn0_db = 8.0
    NOMINAL_INIT_S = 1.2
    NOMINAL_GENERATION_S = 2.5

    def config(self, seed: int, generations: int, s_p: int | None = None,
               frames: int | None = None) -> DeConfig:
        return DeConfig(
            s_p=s_p or self.s_p, d=12, alpha=0.6, c_r=0.95, i_max=generations,
            plateau_eps=0.0, plateau_window=0, seed=seed,
            eval=ObjectiveConfig(
                ebn0_db=self.ebn0_db, channel="awgn", frames=frames or self.frames,
                crn_mode="per-generation", threads=self.threads,
            ),
        )

    def setup(self):
        template = builtin_template(self.template_name)
        estimate_ser(self._probe_codebook(template), self.ebn0_db, "awgn", WARMUP_FRAMES)
        return template

    def _probe_codebook(self, template) -> CodebookSet:
        rng = np.random.default_rng(0)
        a = rng.standard_normal(template.num_params) + 1j * rng.standard_normal(template.num_params)
        return instantiate(template, normalize(template, a)[0])

    def op_specs(self, seed, seconds):
        g = max(1, round((seconds - self.NOMINAL_INIT_S) / self.NOMINAL_GENERATION_S))
        return [{"run_seed": seed, "index": 0, "seed": 100 * seed, "generations": g}]

    def run(self, template, spec, tracer=NO_TRACE):
        cfg = self.config(spec["seed"], spec["generations"])
        with GenerationClock().installed() as clock:
            res = optimize(template, cfg)
        gens = clock.generation_seconds()
        if len(gens) != spec["generations"]:
            raise RuntimeError(f"timed {len(gens)} generations, expected {spec['generations']}")
        # each generation re-measures s_p survivors and evaluates s_p trials
        per_gen = 2 * cfg.s_p * cfg.eval.frames
        output = {"history": res.history.tolist(), "best_row": res.best_row.tolist()}
        return output, [(per_gen, t) for t in gens]

    def check(self, spec, output, refs):
        problems = []
        g = spec["generations"]
        hist, row = output["history"], output["best_row"]
        if len(hist) != g + 1 or not all(0.0 <= h <= 1.0 for h in hist):
            problems.append(f"history {hist} malformed for {g} generations")
        if len(row) != 12 or not np.isfinite(row).all():
            problems.append("best row malformed")
        else:
            template = builtin_template(self.template_name)
            norms = codeword_norms(template, unpack_params(row))
            if np.abs(norms - 1.0).max() > UNIT_NORM_TOL:
                problems.append("best codebook does not have unit-norm codewords")
        ref = refs.get(str(spec["run_seed"]))
        if ref and g < len(ref[0]["best_rows"]):
            want = {"history": ref[0]["history"][: g + 1], "best_row": ref[0]["best_rows"][g]}
            if output != want:
                problems.append(f"{output} != reference {want}")
        return problems

    def probe_case(self, template):
        return self._probe_codebook(template), "awgn", self.ebn0_db, "linear"

    def quick_check(self, template):
        res = optimize(template, self.config(seed=1, generations=1, s_p=4, frames=FRAME_BLOCK // 4))
        return {"history": res.history.tolist(), "best_row": res.best_row.tolist()}


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (SerWorkload(), SweepWorkload(), DeWorkload())
}

# the default seed and one held-out seed have stored reference outputs
REFERENCE_SEEDS = (1, 7)

# codebooks no workload uses, checked once per run with one block each
SPARE_CODEBOOKS = (("table2_awgn_6x4", 6.0), ("table5_awgn_12x6", 10.0))


def spare_codebook_check(fixture: str, ebn0_db: float) -> dict:
    est = estimate_ser(load_codebook(fixture), ebn0_db, "awgn", FRAME_BLOCK, seed=1)
    return {"frames": est.frames, "errors": user_errors(est)}


def detector_probe(cbs: CodebookSet, channel: str, ebn0_db: float, domain: str) -> dict:
    """Time ``mpa_detect_batch`` on one fixed block with 1 and 10 iterations;
    the difference gives the cost per iteration, the rest the table build."""
    n0 = ebn0_to_n0(ebn0_db, cbs.config)
    _, h, y = draw_frame_block(cbs, channel, n0, FRAME_BLOCK, block_rng(0, 0, 0))
    secs = {}
    for iters in (1, 10):
        t0 = time.perf_counter()
        mpa_detect_batch(y, cbs, h, n0, MpaConfig(iterations=iters, domain=domain))
        secs[iters] = time.perf_counter() - t0
    iter_s = (secs[10] - secs[1]) / 9
    return {"detector.setup_ms": 1e3 * (secs[1] - iter_s), "detector.iter_ms": 1e3 * iter_s}
