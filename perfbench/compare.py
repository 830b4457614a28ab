"""Compare two result sets written by ``run.py`` into ``.perfbench_out/``.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Prints, per workload and metric, the median of each set and their
ratio, and warns first when the two sets come from different hosts
(a cross-host timing difference is not a code change).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from hostenv import mixed_host_warning


def load(directory: str):
    values, envs = {}, []
    for path in sorted(Path(directory).glob("result-*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        envs.append(data["env"])
        for name, metric in data["metrics"].items():
            values.setdefault((data["workload"], name), []).append(
                metric["value"])
    return values, envs


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip())
        return 2
    base, base_envs = load(argv[0])
    new, new_envs = load(argv[1])
    warning = mixed_host_warning(base_envs + new_envs)
    if warning:
        print(warning)
    print(f"{'workload':9s}{'metric':30s}{'base':>12s}{'new':>12s}"
          f"{'new/base':>10s}  runs")
    for key in sorted(base.keys() & new.keys()):
        b, n = statistics.median(base[key]), statistics.median(new[key])
        ratio = f"{n / b:10.3f}" if b else f"{'-':>10s}"
        print(f"{key[0]:9s}{key[1]:30s}{b:12.6g}{n:12.6g}{ratio}  "
              f"{len(base[key])}/{len(new[key])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
