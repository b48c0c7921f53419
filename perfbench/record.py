"""Record the sweep rows and CV constants that ``run.py`` checks against.

    python3 perfbench/record.py

For every trial seed in each size's pool this runs the one-trial sweep and
the CV of the sweep workloads and stores the results in
``reference.json``. The recorded values define correct output; rerun this
only when a change is meant to alter them.
"""

from __future__ import annotations

import json
import sys

from run import FULL, REFERENCE, SMOKE, Lib, Sweep


def cell(value):
    if value is None or isinstance(value, float):
        return value
    return int(value)


def record(lib: Lib, sweep: Sweep) -> dict:
    entries = {}
    for trial_seed in range(sweep.sizes.pool):
        result = lib.experiments.run_experiment(sweep.config(trial_seed))
        entries[str(trial_seed)] = {
            "cv_constant": sweep.tune(sweep.training_set(trial_seed)),
            "columns": list(result.columns),
            "rows": [[cell(row.get(c)) for c in result.columns] for row in result.rows],
        }
        print(sweep.name, trial_seed, entries[str(trial_seed)]["cv_constant"], file=sys.stderr)
    return entries


def main() -> int:
    lib = Lib()
    reference = {}
    for mode, sizes in (("smoke", SMOKE), ("full", FULL)):
        reference[mode] = {
            name: record(lib, Sweep(lib, name, sizes, 0, {}))
            for name in ("sim1-variants", "sim1-knn")
        }
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
