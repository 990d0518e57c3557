"""Set-up time of one fresh process: package import, load_csv, objective.

Usage: python3 perfbench/setup_probe.py SRC_DIR CSV_PATH CLASSIFIER

Prints one JSON line with `setup_s` and its `import_s` and `load_csv_s` parts.
"""

import json
import sys
from time import perf_counter


def main() -> None:
    src, csv_path, classifier = sys.argv[1:4]
    sys.path.insert(0, src)
    start = perf_counter()
    import subsetharmony as sh
    imported = perf_counter()
    d = sh.load_csv(csv_path, "label")
    loaded = perf_counter()
    sh.SubsetObjective(d, sh.ObjectiveConfig(classifier=classifier))
    end = perf_counter()
    print(json.dumps({"setup_s": end - start, "import_s": imported - start,
                      "load_csv_s": loaded - imported}))


if __name__ == "__main__":
    main()
