"""Seeded op lists for the benchmark workloads, and the code that runs one op.

An op is one closed-loop request. Most ops call ``aqmkit.cli.main(argv)``
in-process with stdout and stderr captured, because the CLI is the
contract. General measurements have no CLI, so those ops call the public
library functions. The compile workload's verification step (demo 02:
``circuit_unitary`` of the compiled and the source circuit, then
``phase_invariant_distance``) is part of its op.

Every library function is reached through its module attribute at call time
(``simulate.circuit_unitary``, not a name imported once), so the traced run
sees the wrapped functions.

The size of every op (qubits, gates, spins, outcomes) is a fixed function of
its position in the list; the seed only draws the gates, angles and
coefficients. That keeps the cost mix of a pass the same from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import aqmkit.circuit
import aqmkit.state
from aqmkit import cli, dilation, linalg, measure, simulate
from aqmkit.circuit import Circuit, format_circuit
from aqmkit.devices import builtin_profile
from aqmkit.profiles import profile_to_dict

import oracles

WORKLOADS = ("shots", "dynamic", "compile", "anneal")

SHOTS = 256            # shots per `shots` op
SHOTS_OPS = 104        # circuits per `shots` pass: 13 of each width 1-8
DYNAMIC_SHOTS = 64     # shots per mid-circuit `simulate` op on `dynamic`
MSET_SAMPLES = 16      # samples per general-measurement path (direct and dilated)
EPSILON = 0.15         # transpile --epsilon: every rotation is reachable at depth 10
MAX_DEPTH = 10
BUDGET = 1e6           # transpile --budget-threshold: loose, so every pass completes
VERIFY_MAX_QUBITS = 5  # compiled outputs up to this width get the unitary verification
CLIFFORD_T = "clifford-t-transmon"
RULE_FAILING = ("nv-center", "photonic-mbqc", "quantum-memory-ensemble")

_ONE_QUBIT = ("H", "X", "Y", "Z", "S", "SDG", "T", "TDG")
_CLIFFORD_T_1Q = ("H", "S", "SDG", "T", "TDG", "X", "Z")
ROTATIONS = ("RX", "RY", "RZ")
_TWO_QUBIT = ("CNOT", "CZ", "SWAP")


@dataclass
class Op:
    """One request: `kind` selects how it runs and how its output is checked."""

    kind: str
    argv: list[str] | None = None
    data: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def execute(op: Op) -> dict:
    """Run one op and return everything its check needs."""
    if op.kind == "mset":
        return _execute_mset(op)
    code, out, err = run_cli(op.argv)
    result = {"code": code, "out": out, "err": err}
    if op.kind == "transpile" and code == 0 and op.data["verify"]:
        compiled = aqmkit.circuit.parse_circuit(json.loads(out)["circuit"])
        source = Circuit(compiled.num_qubits, list(op.data["circuit"].instructions))
        result["distance"] = linalg.phase_invariant_distance(
            simulate.circuit_unitary(compiled), simulate.circuit_unitary(source))
    return result


def _execute_mset(op: Op) -> dict:
    mset = measure.MeasurementOperatorSet(op.data["num_qubits"], tuple(op.data["operators"]))
    state = aqmkit.state.StateVector(op.data["state"])
    rng = np.random.Generator(np.random.PCG64(op.data["seed"]))
    direct = [measure.apply_measurement(mset, state, rng=rng) for _ in range(MSET_SAMPLES)]
    dilated_measurement = dilation.synthesize_measurement(mset)
    dilated = [dilated_measurement.run(state, rng=rng) for _ in range(MSET_SAMPLES)]
    return {"records": [(r.outcome_index, r.probability, np.array(r.post_state.amplitudes))
                        for r in direct + dilated]}


# --- generation helpers -----------------------------------------------------

def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(2 ** 31)))


def _add_random_gates(rng: np.random.Generator, circuit: Circuit, count: int,
                      one_qubit=_ONE_QUBIT, rotations: bool = True, ccx: bool = True):
    n = circuit.num_qubits
    for _ in range(count):
        roll = rng.random()
        if ccx and n >= 3 and roll < 0.05:
            a, b, c = rng.choice(n, size=3, replace=False)
            circuit.add("CCX", int(a), int(b), int(c))
        elif n >= 2 and roll < 0.4:
            a, b = rng.choice(n, size=2, replace=False)
            circuit.add(_TWO_QUBIT[rng.integers(len(_TWO_QUBIT))], int(a), int(b))
        elif rotations and roll < 0.6:
            circuit.add(ROTATIONS[rng.integers(3)], int(rng.integers(n)),
                        angle=float(rng.uniform(-np.pi, np.pi)))
        else:
            circuit.add(one_qubit[rng.integers(len(one_qubit))], int(rng.integers(n)))


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text)
    return str(path)


def terminal_suffix(circuit: Circuit) -> bool:
    """True when no gate or RESET follows the first MEASURE."""
    gates = [inst.gate for inst in circuit.instructions]
    first = gates.index("MEASURE")
    return all(g == "MEASURE" for g in gates[first:])


# --- shots ------------------------------------------------------------------

def _shots_ops(rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = []
    for i in range(SHOTS_OPS):
        n = 1 + i % 8
        num_gates = 5 + (13 * i) % 21
        measured = rng.permutation(n)[:1 + (i // 8) % n]
        circuit = Circuit(n)
        _add_random_gates(rng, circuit, num_gates)
        for q in measured:
            circuit.add("MEASURE", int(q))
        path = _write(workdir, f"shots{i}.circ", format_circuit(circuit))
        ops.append(Op("simulate", ["simulate", path, "--shots", str(SHOTS),
                                   "--seed", _seed(rng), "--json"],
                      {"circuit": circuit, "shots": SHOTS}))
    return ops


# --- dynamic ----------------------------------------------------------------

def _syndrome_circuit(rng: np.random.Generator) -> Circuit:
    """Two bit-flip syndrome rounds: data 0-2, ancillas 3-4, then a data readout."""
    c = Circuit(5)
    c.add("RY", 0, angle=float(rng.uniform(0, np.pi)))
    c.add("CNOT", 0, 1).add("CNOT", 0, 2)
    for _ in range(2):
        c.add("RX", int(rng.integers(3)), angle=float(rng.uniform(-0.8, 0.8)))
        c.add("CNOT", 0, 3).add("CNOT", 1, 3).add("CNOT", 1, 4).add("CNOT", 2, 4)
        c.add("MEASURE", 3).add("MEASURE", 4).add("RESET", 3).add("RESET", 4)
    c.add("H", int(rng.integers(3)))
    for q in (0, 1, 2):
        c.add("MEASURE", q)
    return c


def _mid_circuit(rng: np.random.Generator, n: int) -> Circuit:
    """Random gates with a mid-circuit MEASURE and RESET in every segment."""
    c = Circuit(n)
    for _ in range(3):
        _add_random_gates(rng, c, 4)
        c.add("MEASURE", int(rng.integers(n)))
        c.add("RESET", int(rng.integers(n)))
    _add_random_gates(rng, c, 3)
    c.add("MEASURE", int(rng.integers(n)))
    return c


def _pattern_json(nodes: int, edges, order, angles, outputs, inputs=(), adaptivity=None,
                  byproducts=()) -> str:
    data = {"nodes": nodes, "edges": [list(e) for e in edges], "order": list(order),
            "angles": [float(a) for a in angles], "outputs": list(outputs),
            "inputs": list(inputs),
            "byproducts": [{"type": kind, "qubit": q, "deps": list(deps)}
                           for kind, q, deps in byproducts]}
    if adaptivity is not None:
        data["adaptivity"] = adaptivity
    return json.dumps(data)


def _cnot_pattern_json() -> str:
    """The four-qubit cluster CNOT of ``aqmkit.mbqc.cnot_pattern``, as a file."""
    return _pattern_json(4, [(0, 1), (1, 2), (1, 3)], [0, 1], [0.0, 0.0], [2, 3], [0, 3],
                         byproducts=[("X", 2, [1]), ("Z", 2, [0]), ("Z", 3, [0])])


def _grid_pattern_json(rng: np.random.Generator) -> str:
    """4x4 grid: inputs on column 0, outputs on column 3, columns 0-2 measured."""
    rows = cols = 4
    node = lambda r, c: r * cols + c  # noqa: E731
    edges = [(node(r, c), node(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(node(r, c), node(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    order, adaptivity = [], []
    for c in range(cols - 1):
        for r in range(rows):
            order.append(node(r, c))
            adaptivity.append(None if c == 0 else f"(-1)^s[{node(r, c - 1)}] * theta")
    angles = rng.uniform(-np.pi, np.pi, size=len(order))
    byproducts = [(kind, node(r, 3), [node(r, col)])
                  for r in range(rows) for kind, col in (("X", 2), ("Z", 1))]
    return _pattern_json(rows * cols, edges, order, angles,
                         [node(r, 3) for r in range(rows)], [node(r, 0) for r in range(rows)],
                         adaptivity, byproducts)


def _dynamic_ops(rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = []
    for i in range(8):
        circuit = _syndrome_circuit(rng)
        path = _write(workdir, f"syndrome{i}.circ", format_circuit(circuit))
        ops.append(Op("simulate", ["simulate", path, "--shots", str(DYNAMIC_SHOTS),
                                   "--seed", _seed(rng), "--json"],
                      {"circuit": circuit, "shots": DYNAMIC_SHOTS}))
    for i in range(8):
        circuit = _mid_circuit(rng, 2 + i % 3)
        path = _write(workdir, f"mid{i}.circ", format_circuit(circuit))
        ops.append(Op("simulate", ["simulate", path, "--shots", str(DYNAMIC_SHOTS),
                                   "--seed", _seed(rng), "--json"],
                      {"circuit": circuit, "shots": DYNAMIC_SHOTS}))
    for i in range(16):
        n, outcomes = 1 + i % 3, 2 + i % 7
        operators = oracles.random_measurement_set(rng, n, outcomes)
        ops.append(Op("mset", data={"num_qubits": n, "operators": operators,
                                    "state": oracles.random_state(rng, n),
                                    "seed": int(rng.integers(2 ** 31))}))
    for _ in range(8):
        angles = [float(a) for a in rng.uniform(-np.pi, np.pi, size=3)]
        ops.append(Op("mbqc", ["mbqc", "--euler", *map(repr, angles), "--seed", _seed(rng),
                               "--json"], {"euler": angles}))
    cnot_path = _write(workdir, "cnot.json", _cnot_pattern_json())
    for _ in range(4):
        ops.append(Op("mbqc", ["mbqc", "--pattern", cnot_path, "--seed", _seed(rng), "--json"],
                      {"pattern": cnot_path}))
    for i in range(4):
        path = _write(workdir, f"grid{i}.json", _grid_pattern_json(rng))
        ops.append(Op("mbqc", ["mbqc", "--pattern", path, "--seed", _seed(rng), "--json"],
                      {"pattern": path}))
    return ops


# --- compile ----------------------------------------------------------------

def clifford_t_profile_json() -> str:
    """The transmon profile with its native rotations removed."""
    data = profile_to_dict(builtin_profile("superconducting-transmon"))
    data["name"] = CLIFFORD_T
    data["native_gates"] = [g for g in data["native_gates"] if g["gate"] not in ROTATIONS]
    return json.dumps(data)


# (device, ops per pass, source qubit counts cycled, gate counts cycled)
_COMPILE_PLAN = (
    (CLIFFORD_T, 24, (2, 3, 4, 5), (8, 12, 16)),
    ("superconducting-transmon", 20, (2, 3, 4, 5), (10, 20, 30, 40, 50)),
    ("fluxonium", 20, (2, 3, 4), (10, 20, 30, 40, 50)),
    ("trapped-ion", 20, (2, 3, 4, 5), (10, 20, 30, 40, 50)),
    ("neutral-atom", 16, (4, 6, 8, 9), (10, 20, 30, 40)),
    ("nv-center", 4, (2,), (6, 10)),
    ("photonic-mbqc", 4, (3, 6), (6, 10)),
    ("quantum-memory-ensemble", 4, (2, 4), (6, 10)),
)
MATCH_OPS = 2  # `match --matrix` ops per pass for each of --jobs 1 and --jobs 2


def _compile_source(rng: np.random.Generator, device: str, n: int, num_gates: int) -> Circuit:
    circuit = Circuit(n)
    if device == CLIFFORD_T:
        # Exactly two rotations, so the approximation error bound stays informative.
        _add_random_gates(rng, circuit, num_gates // 2, one_qubit=_CLIFFORD_T_1Q,
                          rotations=False)
        for _ in range(2):
            circuit.add(ROTATIONS[rng.integers(3)], int(rng.integers(n)),
                        angle=float(rng.uniform(-np.pi, np.pi)))
        _add_random_gates(rng, circuit, num_gates - num_gates // 2,
                          one_qubit=_CLIFFORD_T_1Q, rotations=False)
    else:
        _add_random_gates(rng, circuit, num_gates)
    if device in RULE_FAILING and n >= 2:
        circuit.add("CNOT", 0, 1)  # these devices have no entangler: exit 2, rule operations
    return circuit


def _compile_ops(rng: np.random.Generator, workdir: Path) -> list[Op]:
    profile_path = _write(workdir, "clifford_t.json", clifford_t_profile_json())
    ops = []
    for device, count, qubit_cycle, gate_cycle in _COMPILE_PLAN:
        width = 5 if device == CLIFFORD_T else builtin_profile(device).num_qubits
        for i in range(count):
            n, num_gates = qubit_cycle[i % len(qubit_cycle)], gate_cycle[i % len(gate_cycle)]
            circuit = _compile_source(rng, device, n, num_gates)
            path = _write(workdir, f"compile_{device}_{i}.circ", format_circuit(circuit))
            profile = profile_path if device == CLIFFORD_T else device
            argv = ["transpile", path, "--profile", profile, "--epsilon", repr(EPSILON),
                    "--max-depth", str(MAX_DEPTH), "--budget-threshold", repr(BUDGET), "--json"]
            ops.append(Op("transpile", argv, {
                "device": device, "circuit": circuit,
                "expect_code": 2 if device in RULE_FAILING else 0,
                "verify": device not in RULE_FAILING and width <= VERIFY_MAX_QUBITS}))
    for jobs in ("1", "2") * MATCH_OPS:
        ops.append(Op("match", ["match", "--matrix", "--json", "--jobs", jobs]))
    return ops


# --- anneal -----------------------------------------------------------------

# Spins per op in one pass (40 ops). The blocks are sized so the median op
# falls inside the n=4 block and the 90th percentile inside the n=6 block.
ANNEAL_SPINS = (2,) * 8 + (3,) * 8 + (4,) * 8 + (5,) * 10 + (6,) * 4 + (7, 8)
ANNEAL_T_FINAL = 1.0
ANNEAL_STEPS = 50


def _anneal_ops(rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = []
    for i, n in enumerate(ANNEAL_SPINS):
        fields = [float(h) for h in rng.uniform(-1, 1, size=n)]
        ring = [(0, 1)] if n == 2 else [(j, (j + 1) % n) for j in range(n)]
        couplings = [[a, b, float(rng.uniform(-1, 1))] for a, b in ring]
        problem = {"n": n, "h": fields, "J": couplings}
        path = _write(workdir, f"ising{i}.json", json.dumps(problem))
        ops.append(Op("anneal", ["anneal", "--problem", path, "--t-final", repr(ANNEAL_T_FINAL),
                                 "--steps", str(ANNEAL_STEPS), "--json"], {"problem": problem}))
    return ops


_BUILDERS = {"shots": _shots_ops, "dynamic": _dynamic_ops, "compile": _compile_ops,
             "anneal": _anneal_ops}


# Generation index of each workload's set-up op, which runs first and is the op
# setup_s times. Fixing it keeps setup_s comparable from seed to seed: an 8-qubit
# 21-gate circuit, a syndrome-extraction circuit, a Clifford+T transpile (so the
# cold approximation enumeration lands in setup_s) and a 4-spin anneal.
SETUP_OP = {"shots": 103, "dynamic": 0, "compile": 0, "anneal": ANNEAL_SPINS.index(4)}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The workload's op list for one pass; the first op is the set-up op."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ops = _BUILDERS[workload](rng, workdir)
    setup = ops.pop(SETUP_OP[workload])
    return [setup] + [ops[i] for i in rng.permutation(len(ops))]
