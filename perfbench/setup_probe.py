"""Times one workload's set-up in a fresh process: importing the package,
loading the workload's inputs and making its first call, which builds the
detector's graph cache and contraction paths.

    python3 perfbench/setup_probe.py ser-12x6-rayleigh

Prints one JSON object with ``setup_s``.  ``run.py`` starts this several
times per run and reports the median.
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from env import pin_blas_threads, use_package_sources  # noqa: E402


def main(argv: list[str]) -> int:
    pin_blas_threads()
    use_package_sources()
    import workloads

    workloads.WORKLOADS[argv[1]].setup()
    print(json.dumps({"setup_s": time.perf_counter() - T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
