"""Layer sweep: time single kernels against the ROADMAP baseline table.

Usage: python3 perfbench/sweep.py

Informational only: not part of the checked runs and not gated. Each row is
the median of several repeats; the ROADMAP figures are single runs on a
2-CPU machine and carry about +-20% noise, so a row is flagged when it
falls outside that band. The table is printed and written to
.perfbench_out/sweep.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from aqmkit import approx, gates  # noqa: E402
from aqmkit.annealing import AnnealSchedule, IsingProblem, anneal  # noqa: E402
from aqmkit.simulate import apply_circuit, embed_gate  # noqa: E402

import oracles  # noqa: E402

# (row, ROADMAP baseline in seconds); None where the ROADMAP has no row.
BASELINE = {
    "import aqmkit": 0.239,
    "apply_circuit n=10, 19 gates": 1.0e-3,
    "apply_circuit n=14, 27 gates": 4.2e-3,
    "apply_circuit n=18, 35 gates": 73e-3,
    "embed_gate one target, n=8": 1.9e-3,
    "embed_gate one target, n=10": 14e-3,
    "anneal per step n=2": 0.45e-3,
    "anneal per step n=3": None,
    "anneal per step n=4": 1.2e-3,
    "anneal per step n=5": None,
    "anneal per step n=6": 21e-3,
    "anneal per step n=7": None,
    "anneal per step n=8": 44e-3,
    "anneal per step n=9": 201e-3,
    "approximation BFS {H,T,TDG,S} depth 10, cold": 129e-3,
}


def median_time(func, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_time() -> float:
    """Median `import aqmkit` time over five fresh interpreters."""
    code = (f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "t = time.perf_counter(); import aqmkit; print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, cwd=ROOT).stdout)
        for _ in range(5))


def anneal_step(n: int) -> float:
    rng = np.random.Generator(np.random.PCG64(n))
    couplings = [(0, 1, 0.5)] if n == 2 else [(i, (i + 1) % n, float(rng.uniform(-1, 1)))
                                              for i in range(n)]
    problem = IsingProblem(n, tuple(rng.uniform(-1, 1, size=n)), tuple(couplings))
    steps = 50 if n <= 6 else 10 if n <= 8 else 4
    return median_time(lambda: anneal(problem, AnnealSchedule(1.0, steps)), 3) / steps


def cold_enumeration() -> float:
    request = approx.ApproximationRequest(gates.rx(0.3), ("H", "T", "TDG", "S"), 1e-9, 10)

    def run():
        approx._CACHE.clear()
        approx.approximate_single_qubit(request)

    return median_time(run, 5)


def main() -> int:
    rng = np.random.Generator(np.random.PCG64(0))
    rows = {"import aqmkit": import_time()}
    for n in (10, 14, 18):
        circuit = oracles.random_circuit(rng, n, 2 * n - 1)
        rows[f"apply_circuit n={n}, {2 * n - 1} gates"] = median_time(
            lambda: apply_circuit(circuit), 9)
    for n in (8, 10):
        rows[f"embed_gate one target, n={n}"] = median_time(
            lambda: embed_gate(gates.H, [0], n), 9)
    for n in range(2, 10):
        rows[f"anneal per step n={n}"] = anneal_step(n)
    rows["approximation BFS {H,T,TDG,S} depth 10, cold"] = cold_enumeration()

    table = []
    print(f"{'row':<48}{'measured':>12}{'ROADMAP':>12}{'ratio':>8}")
    for name, seconds in rows.items():
        base = BASELINE[name]
        ratio = seconds / base if base else None
        flag = "" if ratio is None or 0.8 <= ratio <= 1.2 else "  outside +-20%"
        print(f"{name:<48}{seconds * 1e3:>10.3f}ms"
              + (f"{base * 1e3:>10.3f}ms{ratio:>8.2f}" if base else f"{'-':>12}{'-':>8}") + flag)
        table.append({"row": name, "measured_s": seconds, "roadmap_s": base, "ratio": ratio})
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "sweep.json").write_text(json.dumps(table, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
