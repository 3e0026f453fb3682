"""Set-up probe: one fresh interpreter, `import aqmkit`, then the workload's first op.

Usage: python3 perfbench/probe.py <workload> <seed> <workdir>

Prints one JSON object: import_s (the `import aqmkit` time), first_op_s (the
first op's time; building the op list between the two is not counted) and
the fingerprint of the op's output, which the caller compares with its own
run of the same op.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    start = time.perf_counter()
    import aqmkit  # noqa: F401
    import_s = time.perf_counter() - start

    import refs
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    op = workloads.build(workload, seed, workdir)[0]
    start = time.perf_counter()
    result = workloads.execute(op)
    first_op_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "first_op_s": first_op_s,
                      "fingerprint": refs.fingerprint(result)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
