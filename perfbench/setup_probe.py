"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Set-up is import, dataset generation, split, ``init_params`` and
``apply_peft`` of the workload's first model. ``run.py`` starts this
script several times per run, with ``src`` on ``PYTHONPATH`` and the BLAS
thread count already pinned in the environment, and reports the median:

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import workloads
    workloads.Setup(workload, seed)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
