"""aqmkit benchmark: one workload, one seed, a fixed measuring time.

Usage:
    python3 perfbench/run.py --workload {shots,dynamic,compile,anneal} \
        --seed N --seconds S --trace {0,1}

Load comes from one closed-loop client in this process: each op starts when
the previous one has finished. The workload's op list (one pass) is built
from the seed; whole passes run until S seconds have gone by, and every
op's output is checked against an independent reference outside its timed
interval. `setup_s` comes from fresh interpreters (``probe.py``).

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics: calls and self time per
pass for every layer in ``tracing.LAYERS`` and the tracing overhead.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}. The full record, with the machine facts and any failures, is
written to .perfbench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
MIN_OPS = 100   # so at least ten latencies lie beyond op_p90_ms
WARMUP_S = 4.0  # untimed warm-up: one whole pass, or this long
PROBE_TIMEOUT_S = 60
MAX_FAILURES_KEPT = 20

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
                    "peak_rss_mib": "MiB"}


def machine_facts(workload: str, seed: int) -> dict:
    import numpy as np

    facts = {"workload": workload, "seed": seed, "nproc": len(os.sched_getaffinity(0)),
             "cpu_model": "unknown", "python": platform.python_version(),
             "numpy": np.__version__, "blas": "unknown", "blas_threads": None,
             "commit": git_commit()}
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            facts["cpu_model"] = next(line.split(":", 1)[1].strip() for line in cpuinfo
                                      if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        pass
    facts["blas_threads"] = blas_threads()
    return facts


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it exposes one."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_pass(ops, checker, execute, tracer=None, offset=0):
    """One closed-loop pass. Returns (latencies, failures, results).

    `offset` is the list position of ops[0], for running part of a pass.
    """
    latencies, failures, results = [], [], []
    for index, op in enumerate(ops, start=offset):
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = execute(op)
            else:
                tracer.active = True
                try:
                    with tracer.span("bench.op"):
                        result = execute(op)
                finally:
                    tracer.active = False
        except Exception as exc:  # an op that raises is a failed op, and the run goes on
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        if error is None:
            error = checker.check(index, op, result)
        if error is not None:
            failures.append(f"op {index} ({op.kind}): {error}")
        results.append(result)
    return latencies, failures, results


def setup_probes(workload: str, seed: int, workdir: Path, expected: str) -> tuple[list, list]:
    """SETUP_PROBES fresh interpreters; returns (probe records, failures).

    A probe that cannot run ends the benchmark: without it there is no setup_s.
    """
    records, failures = [], []
    for i in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed),
             str(workdir / f"probe{i}")],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr[-2000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if record["fingerprint"] != expected:
            failures.append(f"setup probe {i}: first op output differs from the checked run")
        records.append(record)
    return records, failures


def golden_anneal(ops) -> dict[int, dict]:
    import workloads

    problems = [op.data["problem"] for op in ops]
    request = json.dumps({"t_final": workloads.ANNEAL_T_FINAL, "problems": problems})
    proc = subprocess.run([sys.executable, str(HERE / "golden_anneal.py")], input=request,
                          capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
    return dict(enumerate(json.loads(proc.stdout)))


def compile_quality(ops, results) -> dict:
    """out_gates and fidelity_gmean over the transpiles that succeeded."""
    gates, logs = 0, []
    for op, result in zip(ops, results):
        if op.kind == "transpile" and result is not None and result["code"] == 0:
            payload = json.loads(result["out"])
            gates += len(payload["circuit"].splitlines()) - 1
            logs.append(math.log(payload["cost"]["fidelity_estimate"]))
    return {"out_gates": gates, "fidelity_gmean": math.exp(sum(logs) / len(logs)) if logs else 0}


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def measure(ops, checker, seconds: float, execute):
    """Untraced passes until `seconds` have gone by and MIN_OPS ops have run."""
    passes, failures, first_results = [], [], None
    begin = time.perf_counter()
    while True:
        latencies, fails, results = run_pass(ops, checker, execute)
        passes.append(latencies)
        failures += fails
        first_results = first_results or results
        if time.perf_counter() - begin >= seconds and len(passes) * len(ops) >= MIN_OPS:
            return passes, failures, first_results


def measure_traced(ops, checker, seconds: float, execute):
    """Alternate untraced and traced passes; per-layer values are per pass."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    untraced, traced, folds, extras, failures, first_results = [], [], [], [], [], None
    begin = time.perf_counter()
    try:
        while True:
            latencies, fails, results = run_pass(ops, checker, execute)
            untraced.append(sum(latencies))
            failures += fails
            first_results = first_results or results
            tracer.reset()
            latencies, fails, _ = run_pass(ops, checker, execute, tracer)
            traced.append(sum(latencies))
            failures += fails
            folds.append(tracer.fold())
            extras.append({
                "simulate.apply_gate.bytes_computed": tracer.bytes_computed,
                "approx.achieved_share": (tracer.approx_achieved / tracer.approx_calls
                                          if tracer.approx_calls else 0.0),
                "approx.worst_distance": tracer.approx_worst,
                "route.swaps_inserted": tracer.swaps_inserted})
            if time.perf_counter() - begin >= seconds:
                break
    finally:
        tracer.uninstall()
        tracer.reset()
    layers = {}
    for name in tracer.names:
        layers[f"{name}.calls"] = (folds[-1][name][0], "count")
        layers[f"{name}.self_s"] = (statistics.median(f[name][1] for f in folds), "s")
    for key, unit in (("simulate.apply_gate.bytes_computed", "B"),
                      ("approx.achieved_share", "ratio"), ("approx.worst_distance", "1"),
                      ("route.swaps_inserted", "count")):
        layers[key] = (extras[-1][key], unit)
    layers["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    counts = [{name: calls for name, (calls, _) in fold.items()} for fold in folds]
    info = {"untraced_pass_s": untraced, "traced_pass_s": traced,
            "counts_repeat_across_passes": all(c == counts[0] for c in counts)
            and all(e == extras[0] for e in extras)}
    return layers, failures, info, first_results


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("shots", "dynamic", "compile",
                                                               "anneal"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "aqmkit" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no aqmkit sources (src/aqmkit) and oracles "
              "(tests/oracles.py); run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import refs
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _run(args, workdir, refs, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def _run(args, workdir: Path, refs, workloads) -> int:
    facts = machine_facts(args.workload, args.seed)
    ops = workloads.build(args.workload, args.seed, workdir)
    checker = refs.Checker(golden_anneal(ops) if args.workload == "anneal" else None)

    checker.prepare(ops)
    # Warm-up, untimed: the first op fills lazy caches (fresh processes pay that
    # on every `aqm` call; setup_s reports it), and first-touch costs of the
    # remaining ops stay out of the measured passes.
    warm, failures = [], []
    begin = time.perf_counter()
    while len(warm) < len(ops) and (not warm or time.perf_counter() - begin < WARMUP_S):
        _, fails, results = run_pass(ops[len(warm):len(warm) + 1], checker, workloads.execute,
                                     offset=len(warm))
        warm += results
        failures += fails
    probes, probe_failures = setup_probes(args.workload, args.seed, workdir,
                                          refs.fingerprint(warm[0]) if warm[0] else "")
    failures += probe_failures

    record = {"facts": facts, "ops_per_pass": len(ops),
              "simulate_ops": sum(op.kind == "simulate" for op in ops)}
    simulate_ops = [op for op in ops if op.kind == "simulate"]
    if simulate_ops:
        suffix = sum(workloads.terminal_suffix(op.data["circuit"]) for op in simulate_ops)
        record["terminal_suffix_share"] = suffix / len(simulate_ops)
    setup = {"setup_s": [p["import_s"] + p["first_op_s"] for p in probes],
             "import_s": [p["import_s"] for p in probes],
             "first_op_s": [p["first_op_s"] for p in probes]}
    record["setup_probes"] = setup

    if args.trace == 0:
        passes, fails, first_results = measure(ops, checker, args.seconds, workloads.execute)
        failures += fails
        latencies = [x for p in passes for x in p]
        attempted = len(latencies)
        metrics = {
            "ops_per_s": statistics.median(len(p) / sum(p) for p in passes),
            "op_p50_ms": 1000 * percentile(latencies, 0.5),
            "op_p90_ms": 1000 * percentile(latencies, 0.9),
            "setup_s": statistics.median(setup["setup_s"]),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["pass_s"] = [sum(p) for p in passes]
        record["latencies_s"] = passes
        record["ops_beyond_p90"] = sum(x > metrics["op_p90_ms"] / 1000 for x in latencies)
        if args.workload == "compile":
            record.update(compile_quality(ops, first_results))
        units = END_TO_END_UNITS
        values = metrics
    else:
        layers, fails, info, first_results = measure_traced(
            ops, checker, args.seconds, workloads.execute)
        failures += fails
        attempted = 2 * len(info["traced_pass_s"]) * len(ops)
        quality = compile_quality(ops, first_results) if args.workload == "compile" \
            else {"out_gates": 0, "fidelity_gmean": 0.0}
        layers["out_gates"] = (quality["out_gates"], "count")
        layers["fidelity_gmean"] = (quality["fidelity_gmean"], "1")
        layers["setup.import_s"] = (statistics.median(setup["import_s"]), "s")
        layers["setup.first_op_s"] = (statistics.median(setup["first_op_s"]), "s")
        record.update(info)
        units = {name: unit for name, (_, unit) in layers.items()}
        values = {name: value for name, (value, _) in layers.items()}

    attempted += len(warm)
    failed = len([f for f in failures if f.startswith("op ")])
    record.update({"trace": args.trace, "attempted": attempted, "failed": failed,
                   "failed_share": failed / attempted, "failures": failures[:MAX_FAILURES_KEPT],
                   "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}})
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str))

    print("facts " + json.dumps(facts))
    for failure in failures[:MAX_FAILURES_KEPT]:
        print(f"FAILED {failure}")
    summary = {k: v for k, v in record.items()
               if k not in ("facts", "metrics", "failures", "setup_probes", "latencies_s")}
    print("run " + json.dumps(summary, default=str))
    for name, value in values.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
