"""Command-line front end.

Subcommands: simulate, transpile, match, anneal, walk, mbqc, profiles.
Exit codes: 0 success, 1 usage or parse error, 2 capability-rule failure.
Sampling commands use a seeded PCG64 generator (numpy), so identical seeds
give byte-identical output; the AQM_SEED environment variable overrides the
default seed of 0, and an explicit --seed flag wins over both.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import gates
from .annealing import AnnealSchedule, IsingProblem, anneal
from .approx import check_approximation_bounds
from .circuit import CircuitError, format_circuit, parse_circuit
from .cost import cost_to_dict
from .demand import BUILTIN_DEMAND_NAMES, builtin_demand
from .devices import BUILTIN_PROFILE_NAMES, builtin_profile
from .matcher import UNSUPPORTED, match_profiles, render_report, report_to_dict
from .mbqc import euler_rotation_pattern, mbqc_execute, parse_pattern
from .pipeline import CompensationError, compile_for_device
from .profiles import DeviceProfile, ProfileError, parse_device_profile, serialize_device_profile
from .simulate import MAX_SIM_QUBITS, generator, sample_counts
from .walk import MAX_WALK_STEPS, WalkSpec, walk_final

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RULE_FAILURE = 2

MAX_SHOTS = 2 ** 63 - 1  # numpy's multinomial draws an int64 count


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_with(message))

    def exit_with(self, message) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return EXIT_USAGE


def _default_seed() -> int:
    raw = os.environ.get("AQM_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        print(f"warning: ignoring non-integer AQM_SEED={raw!r}", file=sys.stderr)
        return 0


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_circuit(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CircuitError(f"cannot read {path}: {exc}") from None
    return parse_circuit(text)


def _load_profile(spec: str) -> DeviceProfile:
    if spec in BUILTIN_PROFILE_NAMES:
        return builtin_profile(spec)
    path = Path(spec)
    if path.exists():
        try:
            text = path.read_text()
        except OSError as exc:
            raise ProfileError(f"cannot read {spec}: {exc}") from None
        return parse_device_profile(text)
    raise ProfileError(
        f"{spec!r} is neither a builtin profile ({', '.join(BUILTIN_PROFILE_NAMES)}) "
        "nor a readable file")


def cmd_simulate(args) -> int:
    if not 1 <= args.shots <= MAX_SHOTS:
        return _fail(f"--shots must lie in [1, {MAX_SHOTS}]", EXIT_USAGE)
    circuit = _load_circuit(args.circuit)
    if circuit.num_qubits > MAX_SIM_QUBITS:
        return _fail(f"circuit has {circuit.num_qubits} qubits; simulate supports at most "
                     f"{MAX_SIM_QUBITS}", EXIT_USAGE)
    if not any(inst.gate == "MEASURE" for inst in circuit.instructions):
        return _fail("circuit has no MEASURE instructions; nothing to sample", EXIT_USAGE)
    rng = generator(args.seed, None)
    ordered = dict(sorted(sample_counts(circuit, args.shots, rng).items()))
    if args.json:
        print(json.dumps({"shots": args.shots, "seed": args.seed, "counts": ordered}))
    else:
        for bits, count in ordered.items():
            print(f"{bits} {count}")
    return EXIT_OK


def cmd_transpile(args) -> int:
    check_approximation_bounds(args.epsilon, args.max_depth)
    if not (math.isfinite(args.budget_threshold) and args.budget_threshold > 0):
        return _fail("--budget-threshold must be a finite number > 0", EXIT_USAGE)
    circuit = _load_circuit(args.circuit)
    profile = _load_profile(args.profile)
    try:
        result = compile_for_device(
            circuit, profile, epsilon=args.epsilon, max_depth=args.max_depth,
            budget_threshold=args.budget_threshold,
            do_rewrite=not args.skip_rewrite, do_approximate=not args.skip_approximate,
            do_route=not args.skip_route, do_expand=not args.skip_expand)
    except CompensationError as exc:
        return _fail(f"rule failure ({exc.rule}): {exc}", EXIT_RULE_FAILURE)
    if not result.budget.ok:
        return _fail(f"rule failure (coherence): {result.budget.failure_reason()}",
                     EXIT_RULE_FAILURE)
    text = format_circuit(result.circuit)
    cost_lines = [
        f"duration_ns: {result.cost.total_duration_ns:g}",
        f"fidelity_estimate: {result.cost.fidelity_estimate:.6g}",
        f"gate_counts: {json.dumps(dict(sorted(result.cost.gate_counts.items())))}",
        f"budget_ratio: {result.budget.ratio:.6g}",
    ]
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            return _fail(f"cannot write {args.output}: {exc}", EXIT_USAGE)
    if args.json:
        payload = {
            "circuit": text,
            "cost": cost_to_dict(result.cost),
            "budget": {"ok": result.budget.ok, "ratio": result.budget.ratio},
            "passes": [{"name": entry.name, "before": entry.instructions_before,
                        "after": entry.instructions_after}
                       for entry in result.pass_log],
        }
        print(json.dumps(payload, indent=2))
    elif args.output:
        for line in cost_lines:
            print(line)
    else:
        sys.stdout.write(text)
        for line in cost_lines:
            print(f"# {line}")
    return EXIT_OK


def cmd_match(args) -> int:
    if args.jobs < 1:
        return _fail("--jobs must be >= 1", EXIT_USAGE)
    if args.matrix:
        devices = [builtin_profile(name) for name in BUILTIN_PROFILE_NAMES]
        reports = [match_profiles(device, builtin_demand(demand), args.allow_qec_coherence)
                   for demand in BUILTIN_DEMAND_NAMES for device in devices]
        if args.json:
            print(json.dumps([report_to_dict(report) for report in reports], indent=2))
        else:
            width = max(len(name) for name in BUILTIN_DEMAND_NAMES) + 2
            marks = {"supported": "S", "supported_with_compensation": "C", "unsupported": "U"}
            header = " " * width + " ".join(f"{name[:12]:<12}" for name in BUILTIN_PROFILE_NAMES)
            print(header)
            index = 0
            for demand in BUILTIN_DEMAND_NAMES:
                row = [f"{demand:<{width}}"]
                for _ in BUILTIN_PROFILE_NAMES:
                    row.append(f"{marks[reports[index].overall]:<12} ")
                    index += 1
                print("".join(row).rstrip())
            print()
            print("S = supported, C = supported with compensation, U = unsupported")
        return EXIT_OK
    if not args.profile or not args.demand:
        return _fail("--profile and --demand are required (or use --matrix)", EXIT_USAGE)
    report = match_profiles(_load_profile(args.profile), builtin_demand(args.demand),
                            args.allow_qec_coherence)
    sys.stdout.write(render_report(report, "json" if args.json else "text"))
    return EXIT_RULE_FAILURE if report.overall == UNSUPPORTED else EXIT_OK


def cmd_anneal(args) -> int:
    try:
        problem = IsingProblem.from_json(Path(args.problem).read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot load problem: {exc}", EXIT_USAGE)
    schedule = AnnealSchedule(args.t_final, args.steps)
    result = anneal(problem, schedule)
    if args.json:
        payload = {
            "t_final": args.t_final,
            "steps": args.steps,
            "success_probability": result.success_probability,
            "final_energy": float(result.energies[-1]),
        }
        if args.trace:
            payload["times"] = result.times.tolist()
            payload["energies"] = result.energies.tolist()
        print(json.dumps(payload))
    else:
        print(f"success_probability: {result.success_probability:.6f}")
        print(f"final_energy: {result.energies[-1]:.6f}")
        if args.trace:
            for t, e in zip(result.times, result.energies):
                print(f"{t:.6f} {e:.6f}")
    return EXIT_OK


_COINS = {"hadamard": gates.H, "identity": gates.I2, "balanced": gates.H}


def cmd_walk(args) -> int:
    if args.steps > MAX_WALK_STEPS:
        return _fail(f"--steps {args.steps} exceeds the maximum of {MAX_WALK_STEPS}",
                     EXIT_USAGE)
    coin = _COINS[args.coin]
    start = np.array([1.0, 0.0] if args.coin_state == 0 else [0.0, 1.0], dtype=complex)
    spec = WalkSpec(args.steps, coin, start)
    distribution = walk_final(spec)
    ordered = dict(sorted(distribution.items()))
    if args.json:
        print(json.dumps({"steps": args.steps,
                          "distribution": {str(x): p for x, p in ordered.items()}}))
    else:
        for x, p in ordered.items():
            print(f"{x} {p:.6f}")
    return EXIT_OK


def cmd_mbqc(args) -> int:
    if args.pattern:
        try:
            pattern = parse_pattern(Path(args.pattern).read_text())
        except (OSError, ValueError) as exc:
            return _fail(f"cannot load pattern: {exc}", EXIT_USAGE)
    else:
        pattern = euler_rotation_pattern(*args.euler)
    result = mbqc_execute(pattern, seed=args.seed)
    outcomes = {str(q): s for q, s in sorted(result.outcomes.items())}
    byproduct = {str(q): {"x": p[0], "z": p[1]} for q, p in sorted(result.byproduct.items())}
    amplitudes = [[float(a.real), float(a.imag)] for a in result.output_state.amplitudes]
    if args.json:
        print(json.dumps({"outcomes": outcomes, "byproduct": byproduct,
                          "output_amplitudes": amplitudes}))
    else:
        print(f"outcomes: {outcomes}")
        print(f"byproduct: {byproduct}")
        print("output amplitudes:")
        for index, (re, im) in enumerate(amplitudes):
            print(f"  |{index:0{result.output_state.num_qubits}b}> {re:+.6f}{im:+.6f}j")
    return EXIT_OK


def cmd_profiles(args) -> int:
    if args.action == "list":
        for name in BUILTIN_PROFILE_NAMES:
            print(name)
        return EXIT_OK
    profile = _load_profile(args.name)
    if args.json:
        sys.stdout.write(serialize_device_profile(profile))
        return EXIT_OK
    print(f"name: {profile.name}")
    print(f"num_qubits: {profile.num_qubits}")
    print(f"t1_us: {profile.t1_us:g}")
    print(f"t2_us: {profile.t2_us:g}")
    if profile.t2_dd_us is not None:
        print(f"t2_dd_us: {profile.t2_dd_us:g}")
    print(f"qec_capable: {profile.qec_capable}")
    print("rule_support: " + ", ".join(
        f"{rule}={level.value}" for rule, level in profile.rule_support.items()))
    print("native_gates:")
    for spec in profile.native_gates:
        print(f"  {spec.gate}: {spec.duration_ns:g} ns, fidelity {spec.fidelity:g}")
    meas = profile.measurement
    print(f"measurement: fidelity {meas.fidelity:g}, {meas.duration_ns:g} ns, "
          f"computational_only={meas.computational_only}, mid_circuit={meas.mid_circuit}")
    if profile.notes:
        print("notes:")
        for key in sorted(profile.notes):
            print(f"  {key}: {profile.notes[key]}")
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The `aqm` parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="aqm", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="run a circuit and histogram measured bitstrings")
    p.add_argument("circuit", help="circuit file in the text format")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--seed", type=int, help="default: AQM_SEED, else 0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("transpile", help="compile a circuit for a device profile")
    p.add_argument("circuit")
    p.add_argument("--profile", required=True, help="builtin name or profile JSON path")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--max-depth", type=int, default=10)
    p.add_argument("--budget-threshold", type=float, default=0.01)
    p.add_argument("--output", "-o", help="write the compiled circuit here")
    for pass_name in ("rewrite", "approximate", "route", "expand"):
        p.add_argument(f"--skip-{pass_name}", action="store_true",
                       help=f"disable the {pass_name} pass")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_transpile)

    p = sub.add_parser("match", help="reconcile a device profile against a demand profile")
    p.add_argument("--profile", help="builtin name or profile JSON path")
    p.add_argument("--demand", choices=BUILTIN_DEMAND_NAMES)
    p.add_argument("--matrix", action="store_true",
                   help="full builtin demands x devices verdict matrix")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; the matrix is computed serially")
    p.add_argument("--allow-qec-coherence", action="store_true",
                   help="treat the QEC capability flag as coherence compensation")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("anneal", help="adiabatic evolution of an Ising problem file")
    p.add_argument("--problem", required=True, help='JSON {"n": ..., "h": [...], "J": [...]}')
    p.add_argument("--t-final", type=float, default=50.0)
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--trace", action="store_true", help="include the energy trace")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_anneal)

    p = sub.add_parser("walk", help="coined quantum walk distribution on a line")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--coin", choices=sorted(_COINS), default="hadamard")
    p.add_argument("--coin-state", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("mbqc", help="execute a measurement pattern")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pattern", help="pattern JSON file")
    group.add_argument("--euler", type=float, nargs=3, metavar=("T1", "T2", "T3"),
                       help="builtin five-qubit rotation pattern")
    p.add_argument("--seed", type=int, help="default: AQM_SEED, else 0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mbqc)

    p = sub.add_parser("profiles", help="list or show builtin device profiles")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?", help="profile name (for show)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_profiles)
    return parser


def main(argv=None) -> int:
    # AQM_SEED is read on every call, since it may change between in-process
    # calls, and before parsing, so its warning comes before any usage error.
    seed_default = _default_seed()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if hasattr(args, "seed") and args.seed is None:
        args.seed = seed_default
    if args.command == "profiles" and args.action == "show" and not args.name:
        return _fail("profiles show requires a profile name", EXIT_USAGE)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        # Out-of-range numeric options and similar bad inputs are usage errors.
        return _fail(str(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
