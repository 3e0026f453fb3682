"""Measurement-based computation on cluster states.

A pattern names a graph, an ordered list of single-qubit measurements in
X-Y-plane bases {(|0> +/- e^{i theta'}|1>)/sqrt(2)}, the output qubits, and
byproduct rules. Earlier outcomes may flip the sign of later angles
(theta' = (-1)^(sum of referenced outcomes) * theta); after all measurements
the accumulated X/Z byproducts are applied to the outputs so deterministic
patterns give outcome-independent results.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from . import gates
from .graphs import ConnectivityGraph
from .simulate import MAX_SIM_QUBITS, apply_gate
from .state import StateVector

# Most nodes `parse_pattern` accepts. The register holds 2**nodes amplitudes,
# so this is the width `aqm simulate` accepts (256 MiB of complex128).
MAX_PATTERN_NODES = MAX_SIM_QUBITS


@dataclass(frozen=True)
class PatternStep:
    qubit: int
    angle: float
    sign_deps: tuple[int, ...] = ()


@dataclass(frozen=True)
class ByproductRule:
    kind: str                 # "X" or "Z"
    qubit: int                # an output qubit
    deps: tuple[int, ...]     # measured qubits whose outcome parity gates it

    def __post_init__(self):
        if self.kind not in ("X", "Z"):
            raise ValueError(f"byproduct kind must be X or Z, got {self.kind!r}")


@dataclass(frozen=True)
class MeasurementPattern:
    graph: ConnectivityGraph
    steps: tuple[PatternStep, ...]
    outputs: tuple[int, ...]
    inputs: tuple[int, ...] = ()
    byproducts: tuple[ByproductRule, ...] = ()

    def __post_init__(self):
        n = self.graph.num_qubits
        measured = [step.qubit for step in self.steps]
        for q in list(measured) + list(self.outputs) + list(self.inputs):
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} out of range")
        if len(set(measured)) != len(measured):
            raise ValueError("a qubit is measured twice")
        if set(measured) & set(self.outputs):
            raise ValueError("output qubits must not be measured")
        if set(measured) | set(self.outputs) != set(range(n)):
            raise ValueError("measurement order must cover all non-output qubits exactly once")
        if len(set(self.inputs)) != len(self.inputs) or len(set(self.outputs)) != len(self.outputs):
            raise ValueError("duplicate input or output qubits")
        seen: set[int] = set()
        for step in self.steps:
            for dep in step.sign_deps:
                if dep not in seen:
                    raise ValueError(
                        f"measurement of qubit {step.qubit} adapts on qubit {dep}, "
                        "which is not measured earlier")
            seen.add(step.qubit)
        for rule in self.byproducts:
            if rule.qubit not in self.outputs:
                raise ValueError(f"byproduct target {rule.qubit} is not an output qubit")
            if not set(rule.deps) <= seen:
                raise ValueError("byproduct rule references an unmeasured qubit")


@dataclass(frozen=True)
class MbqcResult:
    output_state: StateVector            # qubit j = pattern.outputs[j]
    outcomes: dict[int, int]
    byproduct: dict[int, tuple[int, int]]  # output qubit -> (x power, z power)


def build_cluster_state(graph: ConnectivityGraph) -> StateVector:
    """All qubits in |+>, then CZ on every edge (edge order is irrelevant)."""
    n = graph.num_qubits
    amps = np.full(2 ** n, 2.0 ** (-n / 2), dtype=complex)
    for a, b in sorted(graph.edges):
        amps = apply_gate(amps, gates.CZ, [a, b], n)
    return StateVector(amps)


def _initial_register(pattern: MeasurementPattern,
                      input_state: StateVector | None) -> np.ndarray:
    n = pattern.graph.num_qubits
    if input_state is None:
        return np.full(2 ** n, 2.0 ** (-n / 2), dtype=complex)
    if input_state.num_qubits != len(pattern.inputs):
        raise ValueError(
            f"input state has {input_state.num_qubits} qubit(s); pattern declares "
            f"{len(pattern.inputs)} input(s)")
    # Input qubit j rides on pattern qubit inputs[j]; all others start in |+>.
    scale = 2.0 ** (-(n - len(pattern.inputs)) / 2)
    amps = np.empty(2 ** n, dtype=complex)
    positions = pattern.inputs
    for index in range(2 ** n):
        local = 0
        for j, pos in enumerate(positions):
            local |= ((index >> pos) & 1) << j
        amps[index] = input_state.amplitudes[local] * scale
    return amps


def _project_out(amps: np.ndarray, axis_qubits: list[int], qubit: int,
                 basis_vector: np.ndarray) -> tuple[float, np.ndarray]:
    """Overlap-project one qubit onto basis_vector and drop it from the register."""
    m = len(axis_qubits)
    tensor = amps.reshape((2,) * m)
    axis = m - 1 - axis_qubits.index(qubit)
    projected = np.tensordot(np.conj(basis_vector), tensor, axes=(0, axis)).reshape(-1)
    prob = float(np.real(np.vdot(projected, projected)))
    return prob, projected


def mbqc_execute(pattern: MeasurementPattern, input_state: StateVector | None = None,
                 seed: int = 0, rng: np.random.Generator | None = None,
                 forced_outcomes=None) -> MbqcResult:
    """Entangle, measure in order with adaptive signs, correct byproducts.

    `forced_outcomes` fixes the outcome sequence (for branch enumeration in
    tests); otherwise outcomes are sampled with the seeded generator.
    """
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(seed))
    n = pattern.graph.num_qubits
    amps = _initial_register(pattern, input_state)
    for a, b in sorted(pattern.graph.edges):
        amps = apply_gate(amps, gates.CZ, [a, b], n)

    live = list(range(n))  # little-endian register order of surviving qubits
    outcomes: dict[int, int] = {}
    for index, step in enumerate(pattern.steps):
        sign = (-1) ** sum(outcomes[d] for d in step.sign_deps)
        theta = sign * step.angle
        phase = np.exp(1j * theta)
        plus = np.array([1.0, phase], dtype=complex) / np.sqrt(2.0)
        minus = np.array([1.0, -phase], dtype=complex) / np.sqrt(2.0)
        p_plus, projected_plus = _project_out(amps, live, step.qubit, plus)
        if forced_outcomes is not None:
            outcome = int(forced_outcomes[index])
        else:
            outcome = 1 if rng.random() >= p_plus else 0
        if outcome == 0:
            prob, projected = p_plus, projected_plus
        else:
            prob, projected = _project_out(amps, live, step.qubit, minus)
        if prob < 1e-12:
            raise ValueError(
                f"outcome {outcome} on qubit {step.qubit} has probability ~0")
        amps = projected / np.sqrt(prob)
        live.remove(step.qubit)
        outcomes[step.qubit] = outcome

    # Reorder the surviving register so qubit j of the result is outputs[j].
    k = len(pattern.outputs)
    position = {q: i for i, q in enumerate(live)}
    reordered = np.empty(2 ** k, dtype=complex)
    for index in range(2 ** k):
        target = 0
        for j, q in enumerate(pattern.outputs):
            target |= ((index >> position[q]) & 1) << j
        reordered[target] = amps[index]

    powers = {q: [0, 0] for q in pattern.outputs}
    for rule in pattern.byproducts:
        parity = sum(outcomes[d] for d in rule.deps) % 2
        powers[rule.qubit][0 if rule.kind == "X" else 1] ^= parity
    for j, q in enumerate(pattern.outputs):
        x_power, z_power = powers[q]
        if x_power:
            reordered = apply_gate(reordered, gates.X, [j], k)
        if z_power:
            reordered = apply_gate(reordered, gates.Z, [j], k)

    return MbqcResult(StateVector(reordered), outcomes,
                      {q: (p[0], p[1]) for q, p in powers.items()})


def euler_rotation_pattern(theta1: float, theta2: float, theta3: float) -> MeasurementPattern:
    """Five-qubit linear cluster realizing RX(theta3) RZ(theta2) RX(theta1).

    Input rides on qubit 0; qubits 0..3 are measured at base angles
    (0, -theta1, -theta2, -theta3) with the standard sign adaptivity, and
    qubit 4 carries the corrected output.
    """
    graph = ConnectivityGraph.line(5)
    steps = (PatternStep(0, 0.0),
             PatternStep(1, -theta1, (0,)),
             PatternStep(2, -theta2, (1,)),
             PatternStep(3, -theta3, (0, 2)))
    byproducts = (ByproductRule("X", 4, (1, 3)), ByproductRule("Z", 4, (0, 2)))
    return MeasurementPattern(graph, steps, outputs=(4,), inputs=(0,), byproducts=byproducts)


def cnot_pattern() -> MeasurementPattern:
    """Four-qubit cluster CNOT: input (target, control), output (target, control).

    Qubit 0 is the incoming target, 1 the junction, 2 the outgoing target and
    3 the control; both measurements are in the X basis.
    """
    graph = ConnectivityGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    steps = (PatternStep(0, 0.0), PatternStep(1, 0.0))
    byproducts = (ByproductRule("X", 2, (1,)), ByproductRule("Z", 2, (0,)),
                  ByproductRule("Z", 3, (0,)))
    return MeasurementPattern(graph, steps, outputs=(2, 3), inputs=(0, 3),
                              byproducts=byproducts)


# --- pattern files ----------------------------------------------------------

_ADAPT_RE = re.compile(
    r"^\s*(?:\(-1\)\^(?P<single>s\[\d+\]|\(\s*s\[\d+\](?:\s*\+\s*s\[\d+\])*\s*\))\s*\*\s*)?"
    r"theta\s*$")
_DEP_RE = re.compile(r"s\[(\d+)\]")


def _parse_adaptivity(expr: str | None) -> tuple[int, ...]:
    """Sign dependencies from an expression like '(-1)^(s[0]+s[2]) * theta'."""
    if expr is None:
        return ()
    match = _ADAPT_RE.match(expr)
    if not match:
        raise ValueError(f"bad adaptivity expression {expr!r}")
    return tuple(int(dep) for dep in _DEP_RE.findall(expr))


def parse_pattern(text: str) -> MeasurementPattern:
    """Load a pattern from its JSON file format (at most MAX_PATTERN_NODES nodes)."""
    data = json.loads(text)
    required = {"nodes", "edges", "order", "angles", "outputs"}
    allowed = required | {"inputs", "adaptivity", "byproducts"}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown field(s) {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise ValueError(f"missing field(s) {sorted(missing)}")
    nodes = int(data["nodes"])
    if nodes > MAX_PATTERN_NODES:
        raise ValueError(f"pattern has {nodes} nodes; at most {MAX_PATTERN_NODES} are supported")
    graph = ConnectivityGraph.from_edges(nodes, data["edges"])
    order = [int(q) for q in data["order"]]
    angles = [float(a) for a in data["angles"]]
    if len(order) != len(angles):
        raise ValueError("order and angles must have the same length")
    adaptivity = data.get("adaptivity", [None] * len(order))
    if len(adaptivity) != len(order):
        raise ValueError("adaptivity must list one expression (or null) per measured qubit")
    steps = tuple(
        PatternStep(qubit, angle, _parse_adaptivity(expr))
        for qubit, angle, expr in zip(order, angles, adaptivity))
    byproducts = tuple(
        ByproductRule(rule["type"], int(rule["qubit"]), tuple(int(d) for d in rule["deps"]))
        for rule in data.get("byproducts", []))
    return MeasurementPattern(
        graph, steps,
        outputs=tuple(int(q) for q in data["outputs"]),
        inputs=tuple(int(q) for q in data.get("inputs", [])),
        byproducts=byproducts)
