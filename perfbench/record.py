#!/usr/bin/env python3
"""Record the canonical output of every pool task of the given workloads
(default: all) into ``perfbench/expected/<workload>.json``.

    python3 perfbench/record.py [workload ...]

Run it only at a commit whose outputs are known good: the benchmark fails
any later task whose output differs from what this wrote. Known answers
(theorem guarantees, paper verdicts, the golden Table 1 trace) are checked
while recording too, so a wrong output is never recorded.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    for name in names:
        runner = workloads.Runner(name)
        try:
            entries = [(task.key, workloads.canonical(runner.run(task)))
                       for task in workloads.pool(name)]
        finally:
            runner.close()
        path = os.path.join(workloads.EXPECTED_DIR, f"{name}.json")
        os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("{\n" + ",\n".join(f'"{key}": {doc}' for key, doc in sorted(entries))
                     + "\n}\n")
        print(f"{name}: {len(entries)} outputs -> {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
