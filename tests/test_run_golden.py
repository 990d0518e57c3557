"""Golden run histories: what HS, GA and PSO record, pinned per seed.

Each case runs one optimizer on the tiny8 fixture under the deterministic
leave-one-out 1-NN objective and pins the best subset, its fitness, the
per-iteration best fitness and replaced/improved flags, and the
evaluation count, and checks that a repeated run returns an equal result.
To re-record after an intended change, run
`PYTHONPATH=src python tests/test_run_golden.py` from the repository root
and review the diff of tests/fixtures/run_golden.json.
"""

import json
from pathlib import Path

import pytest

from subsetharmony import (
    GaConfig,
    HsConfig,
    LeaveOneOutObjective,
    PsoConfig,
    ga_run,
    hs_run,
    load_csv,
    pso_run,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "run_golden.json"
SEEDS = (1, 2)

# k=4 on tiny8 has many subsets tied at the top score, so the runs also pin
# which of several equally good subsets each optimizer keeps as its best
OPTIMIZERS = {
    "hs_index": (hs_run, lambda seed: HsConfig(8, 4, hms=4, max_iterations=30, seed=seed)),
    "ga": (ga_run, lambda seed: GaConfig(8, 4, population=4, generations=8, seed=seed)),
    "pso": (pso_run, lambda seed: PsoConfig(8, 4, particles=4, iterations=8, seed=seed)),
}
CASES = [f"{name}-seed{seed}" for name in OPTIMIZERS for seed in SEEDS]


def _record(case: str) -> dict:
    name, seed = case.rsplit("-seed", 1)
    run, make_cfg = OPTIMIZERS[name]
    objective = LeaveOneOutObjective(load_csv(FIXTURES / "tiny8.csv", "label"))
    best, history = run(make_cfg(int(seed)), objective)
    return {
        "indices": list(best.subset.indices),
        "fitness": best.fitness,
        "best_fitness": list(history.best_fitness),
        "replaced": list(history.replaced),
        "evaluations": history.evaluations,
    }


@pytest.mark.parametrize("case", CASES)
def test_run_matches_golden(case):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    assert _record(case) == expected


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_repeated_run_returns_equal_result(name, tiny8):
    run, make_cfg = OPTIMIZERS[name]
    first = run(make_cfg(1), LeaveOneOutObjective(tiny8))
    assert run(make_cfg(1), LeaveOneOutObjective(tiny8)) == first


if __name__ == "__main__":
    recorded = {case: _record(case) for case in CASES}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(recorded)} run histories to {GOLDEN}")
