"""Self-test of the benchmark's output checks.

Usage: python3 perfbench/selftest.py

For every workload it runs a few ops of each kind through the same
``run_pass`` the benchmark uses, once as they are and once with a
deliberately corrupted output (and once with an op that raises). Correct
outputs must pass; every corrupted or raising op must be counted as failed,
which is what ``failed`` and ``failed_share`` report. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

PER_KIND = 3  # ops of each kind taken from every workload


def corrupt(op, result: dict, checker: refs.Checker, index: int) -> dict:
    """A copy of `result` that a correct check must reject."""
    result = dict(result)
    if op.kind == "simulate":
        payload = json.loads(result["out"])
        width = len(next(iter(payload["counts"])))
        probs = checker.reference(index, op)
        keys = [format(k, f"0{width}b") for k in range(2 ** width)]
        unlikely = min(keys, key=lambda key: probs.get(key, 0.0))
        payload["counts"] = {unlikely: payload["shots"]}
        result["out"] = json.dumps(payload)
    elif op.kind == "mset":
        records = list(result["records"])
        outcome, prob, post = records[0]
        others = [k for k in range(len(op.data["operators"])) if k != outcome]
        records[0] = (others[0], prob, post)
        result["records"] = records
    elif op.kind == "mbqc":
        payload = json.loads(result["out"])
        amps = np.array([complex(re, im) for re, im in payload["output_amplitudes"]])
        amps[0] += 0.3
        amps /= np.linalg.norm(amps)
        payload["output_amplitudes"] = [[a.real, a.imag] for a in amps]
        result["out"] = json.dumps(payload)
    elif op.kind == "transpile":
        if result["code"] != 0:
            result["code"] = 0
        else:
            payload = json.loads(result["out"])
            payload["circuit"] = "\n".join(payload["circuit"].splitlines()[:-1]) + "\n"
            result["out"] = json.dumps(payload)
    elif op.kind == "match":
        payload = json.loads(result["out"])
        payload[0]["overall"] = "unsupported" if payload[0]["overall"] != "unsupported" \
            else "supported"
        result["out"] = json.dumps(payload)
    elif op.kind == "anneal":
        payload = json.loads(result["out"])
        payload["success_probability"] += 0.05
        result["out"] = json.dumps(payload)
    return result


def sample(ops):
    taken, per_kind = [], {}
    for op in ops:
        key = (op.kind, op.data.get("expect_code"), "euler" in op.data)
        if per_kind.get(key, 0) < PER_KIND:
            per_kind[key] = per_kind.get(key, 0) + 1
            taken.append(op)
    return taken


def check_workload(workload: str, workdir: Path) -> list[str]:
    ops = sample(workloads.build(workload, 7, workdir))
    golden = run.golden_anneal(ops) if workload == "anneal" else None
    problems = []

    # Correct outputs pass.
    _, failures, _ = run.run_pass(ops, refs.Checker(golden), workloads.execute)
    problems += [f"{workload}: correct output rejected: {f}" for f in failures]

    # Every corrupted output is counted as failed.
    checker = refs.Checker(golden)
    positions = {id(op): i for i, op in enumerate(ops)}

    def corrupted(op):
        return corrupt(op, workloads.execute(op), checker, positions[id(op)])

    _, failures, _ = run.run_pass(ops, checker, corrupted)
    if len(failures) != len(ops):
        problems.append(f"{workload}: {len(ops)} corrupted outputs, {len(failures)} counted")

    # An op that raises is counted as failed, and the pass goes on.
    def raising(op):
        raise RuntimeError("deliberate failure")

    _, failures, results = run.run_pass(ops, refs.Checker(golden), raising)
    if len(failures) != len(ops) or len(results) != len(ops):
        problems.append(f"{workload}: raising ops not all counted")
    print(f"{workload}: {len(ops)} ops; correct, corrupted and raising outputs "
          f"{'classified' if not problems else 'MISCLASSIFIED'}")
    return problems


def main() -> int:
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench_work"))
    try:
        problems = []
        for workload in workloads.WORKLOADS:
            path = workdir / workload
            path.mkdir()
            problems += check_workload(workload, path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
