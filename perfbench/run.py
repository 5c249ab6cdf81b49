"""SCMA toolkit benchmark: runs one workload through the public ``scma`` API,
checks its outputs against stored references, and prints its metrics.

    python3 perfbench/run.py --workload ser-12x6-rayleigh --seed 1 --seconds 15 --trace 0

A run

1. measures set-up (import, input load, first call) in fresh processes,
   ``SETUP_REPEATS`` times, and reports the median;
2. runs the workload's fixed list of operations for its seed, timing each,
   and reads the peak resident memory;
3. runs untimed reference checks: a small run of the workload's own
   configuration and one block on each shipped codebook no workload uses;
4. with ``--trace 1``, replays the same operations with every layer call
   recorded as a span, probes the detector, and reports per-layer metrics
   and the tracing overhead instead of the end-to-end metrics.

Every output is checked; an operation that raises or disagrees with its
reference is a failure.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when nothing failed.  Full results, with the environment
record and, when traced, the spans, go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
import traceback

from env import BENCH_DIR, environment_record, pin_blas_threads, use_package_sources
from spans import NO_TRACE, Tracer, layer_metrics, traced_layers
from stats import summarize

SETUP_REPEATS = 5
REFERENCES = BENCH_DIR / "references.json"
OUT_DIR = BENCH_DIR / "out"

END_TO_END_UNITS = {"frames_per_s": "frames/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "channel.calls": "count",
    "channel.busy_s": "s",
    "detector.calls": "count",
    "detector.frames": "count",
    "detector.busy_s": "s",
    "detector.frames_per_busy_s": "frames/s",
    "detector.setup_ms": "ms",
    "detector.iter_ms": "ms",
    "detector.decide_s": "s",
    "montecarlo.calls": "count",
    "montecarlo.blocks": "count",
    "montecarlo.self_s": "s",
    "montecarlo.parallel_eff": "ratio",
    "structure.normalize_calls": "count",
    "structure.normalize_s": "s",
    "structure.instantiate_calls": "count",
    "structure.instantiate_s": "s",
    "optimizer.self_s": "s",
    "optimizer.accept_ratio": "count/count",
    "trace.overhead": "ratio",
}


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def attempt(self, label: str, fn):
        """Run ``fn``; an exception is a failure.  Returns its result or
        None."""
        try:
            return fn()
        except Exception:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{label}: raised\n{traceback.format_exc()}")
            return None


def measure_setup(workload: str, repeats: int) -> list[float]:
    """Set-up seconds of ``repeats`` fresh processes, each timed from its
    own start to the end of the workload's first call."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def reference_checks(wl, state, refs: dict, tally: Tally) -> None:
    """Untimed checks at fixed seeds, compared bit-exactly on every run."""
    from workloads import SPARE_CODEBOOKS, spare_codebook_check

    cases = [(f"quick {wl.name}", lambda: wl.quick_check(state), refs["quick"][wl.name])]
    for fixture, ebn0 in SPARE_CODEBOOKS:
        cases.append((f"spare {fixture}", lambda f=fixture, e=ebn0: spare_codebook_check(f, e),
                      refs["spare"][fixture]))
    for label, fn, want in cases:
        got = tally.attempt(label, fn)
        if got is not None:
            tally.record(label, [] if got == want else [f"{got} != reference {want}"])


def run_pass(wl, state, specs, refs, tally: Tally, tracer=NO_TRACE):
    """Run every operation once; returns outputs (None where one raised),
    (frames, seconds) samples and the wall time of the pass."""
    outputs, samples = [], []
    t0 = time.perf_counter()
    for spec in specs:
        label = f"op {spec['index']}"
        result = tally.attempt(label, lambda: wl.run(state, spec, tracer))
        if result is None:
            outputs.append(None)
            continue
        output, op_samples = result
        tally.record(label, wl.check(spec, output, refs[wl.name]))
        outputs.append(output)
        samples.extend(op_samples)
    return outputs, samples, time.perf_counter() - t0


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, references: dict | None = None) -> int:
    pin_blas_threads()
    use_package_sources()
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the scma package from the checkout: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    refs = references if references is not None else json.loads(REFERENCES.read_text())
    tally = Tally()

    setup = summarize(measure_setup(wl.name, SETUP_REPEATS))
    state = wl.setup()
    specs = wl.op_specs(args.seed, args.seconds)
    outputs, samples, wall = run_pass(wl, state, specs, refs, tally)
    # read before the reference checks, which decode other, larger systems
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference_checks(wl, state, refs, tally)
    if not samples:
        print("\n".join(tally.problems), file=sys.stderr)
        return 1
    rates = summarize([frames / secs for frames, secs in samples])
    e2e = {"frames_per_s": rates["median"], "setup_s": setup["median"], "peak_rss_mb": peak_rss_mb}
    summaries = {"frames_per_s": rates, "setup_s": setup}
    if wl.name == workloads.DeWorkload.name:
        summaries["de_gen_s"] = summarize([secs for _, secs in samples])

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "operations": len(specs),
              "env": environment_record(wl.threads)}
    if args.trace:
        tracer = Tracer()
        with traced_layers(tracer):
            traced_outputs, _, traced_wall = run_pass(wl, state, specs, refs, tally, tracer)
        tally.record("traced replay", [
            f"op {i} output changed under tracing"
            for i, (a, b) in enumerate(zip(outputs, traced_outputs)) if a != b
        ])
        layers = layer_metrics(tracer.spans, wl.threads)
        layers.update(workloads.detector_probe(*wl.probe_case(state)))
        layers["trace.overhead"] = traced_wall / wall - 1.0
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        record["spans"] = tracer.to_dicts()
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    fail_ratio = tally.failed / tally.attempted
    record.update(end_to_end=e2e, summaries=summaries, fail_ratio=fail_ratio,
                  problems=tally.problems, metrics=metrics)
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for p in tally.problems:
        print(f"FAILED {p}", file=sys.stderr)
    print(f"workload {wl.name}  seed {args.seed}  operations {len(specs)}  "
          f"env {json.dumps(record['env'])}")
    for name, s in summaries.items():
        unit = END_TO_END_UNITS.get(name, "s")
        print(f"  {name:<14} {s['median']:.6g} {unit}  "
              f"(median of {s['n']}, quartiles {s['q1']:.6g}..{s['q3']:.6g})")
    print(f"  {'peak_rss_mb':<14} {e2e['peak_rss_mb']:.6g} MB")
    print(f"  {'fail_ratio':<14} {fail_ratio:.6g}  ({tally.failed} of {tally.attempted} operations)")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print(f"  full record: {out_file.relative_to(BENCH_DIR.parent)}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
