"""subsetharmony benchmark: seeded select/compare workloads, checked and timed.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload select_mlp --seed 1 --seconds 30 --trace 0

`--trace 0` repeats the workload on fresh seeded inputs for about `--seconds`
seconds with tracing off and reports the end-to-end metrics named in
BENCHMARK.json. `--trace 1` runs the first input once untraced and twice
traced, reports the per-layer metrics, and checks that the runs repeat every
count and output exactly. The last line of standard output is one JSON
object; the lines before it say the same for a reader. perfbench/README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import os

# one process, one thread: keep BLAS from starting worker threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DEFAULT_SEED = 1


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description="subsetharmony benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "subsetharmony" / "__init__.py").is_file():
        print(f"error: no subsetharmony sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure

    return measure.run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
