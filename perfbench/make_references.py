"""Regenerates ``perfbench/references.json``, the stored outputs the
benchmark compares against, from the code as it stands.

    python3 perfbench/make_references.py

Run it only when a change to the toolkit's outputs is intended, and say in
that change why the outputs moved.  It stores, for each reference seed, the
outputs of the operations a 40-second run makes (more than a default-length
run needs); for DE, the history and the best row after every generation.
"""
from __future__ import annotations

import json
import sys

from env import pin_blas_threads, use_package_sources

REFERENCE_SECONDS = 40.0


def main() -> int:
    pin_blas_threads()
    use_package_sources()
    from run import REFERENCES
    from scma.optimizer import optimize
    from workloads import (
        REFERENCE_SEEDS, SPARE_CODEBOOKS, WORKLOADS, DeWorkload, GenerationClock,
        spare_codebook_check,
    )

    refs: dict = {"quick": {}, "spare": {}}
    for name, wl in WORKLOADS.items():
        state = wl.setup()
        refs["quick"][name] = wl.quick_check(state)
        refs[name] = {}
        for seed in REFERENCE_SEEDS:
            specs = wl.op_specs(seed, REFERENCE_SECONDS)
            if isinstance(wl, DeWorkload):
                (spec,) = specs
                with GenerationClock().installed() as clock:
                    res = optimize(state, wl.config(spec["seed"], spec["generations"]))
                rows = clock.best_rows()
                if rows[-1] != res.best_row.tolist():
                    raise RuntimeError("generation clock disagrees with optimize")
                refs[name][str(seed)] = [{"history": res.history.tolist(), "best_rows": rows}]
            else:
                refs[name][str(seed)] = [wl.run(state, spec)[0] for spec in specs]
            print(f"{name} seed {seed}: {len(specs)} operations", flush=True)
    for fixture, ebn0 in SPARE_CODEBOOKS:
        refs["spare"][fixture] = spare_codebook_check(fixture, ebn0)
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
