"""Measurement-based computation on cluster states.

A pattern names a graph, an ordered list of single-qubit measurements in
X-Y-plane bases {(|0> +/- e^{i theta'}|1>)/sqrt(2)}, the output qubits, and
byproduct rules. Earlier outcomes may flip the sign of later angles
(theta' = (-1)^(sum of referenced outcomes) * theta); after all measurements
the accumulated X/Z byproducts are applied to the outputs so deterministic
patterns give outcome-independent results.

The executor holds only live nodes (Raussendorf & Briegel, PRL 86, 5188;
Danos, Kashefi & Panangaden, J. ACM 54, 2007). The register starts as the
inputs. A node enters in |+> just before it or a neighbour is measured, and
its CZs to the nodes already present are applied then, as in-place sign
flips of the amplitudes with both edge bits 1. A measured node leaves the
register. Outputs not yet present enter at the end. CZs commute with each
other and with every measurement off their nodes, so this gives the state
of entangling the whole graph first. A step is one contraction: `apply_gate`
applies the bras [<+theta|; <-theta|] to the measured qubit, whose two halves
are then both branches. The register's widest point, the live
width, follows from the graph, the order and the inputs alone
(`live_width`); it is capped at `MAX_SIM_QUBITS`, the `simulate` width.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import gates
from ._fields import (read_integer, read_json, read_list, read_number, read_object,
                      read_qubits, read_string)
from .graphs import ConnectivityGraph
from .measure import _probability
from .simulate import MAX_SIM_QUBITS, apply_gate, generator, pick
from .state import StateVector

# Most nodes `parse_pattern` accepts. The register holds only live nodes, so
# the node count bounds parse and bookkeeping cost (linear in nodes and
# edges), not the register; `live_width` bounds that.
MAX_PATTERN_NODES = 10_000


@dataclass(frozen=True)
class PatternStep:
    qubit: int
    angle: float
    sign_deps: tuple[int, ...] = ()

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError(f"measurement angle must be finite, got {self.angle}")


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
        if not self.outputs:
            raise ValueError("a pattern needs at least one output qubit")
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
        outputs = set(self.outputs)
        for rule in self.byproducts:
            if rule.qubit not in outputs:
                raise ValueError(f"byproduct target {rule.qubit} is not an output qubit")
            if not set(rule.deps) <= seen:
                raise ValueError("byproduct rule references an unmeasured qubit")


@dataclass(frozen=True)
class MbqcResult:
    output_state: StateVector            # qubit j = pattern.outputs[j]
    outcomes: dict[int, int]
    byproduct: dict[int, tuple[int, int]]  # output qubit -> (x power, z power)


def _entangle(amps: np.ndarray, edges, n: int) -> None:
    """CZ on every edge (a < b) of a register this module made: commuting sign flips.

    ``0.0 - x`` keeps the imaginary +0.0 the CZ matrix product writes; ``-x`` would not.
    """
    for a, b in edges:
        view = amps.reshape(2 ** (n - 1 - b), 2, 2 ** (b - a - 1), 2, 2 ** a)[:, 1, :, 1, :]
        np.subtract(0.0, view, out=view)


def build_cluster_state(graph: ConnectivityGraph) -> StateVector:
    """All qubits in |+>, then CZ on every edge as in-place sign flips."""
    n = graph.num_qubits
    amps = np.full(2 ** n, 2.0 ** (-n / 2), dtype=complex)
    _entangle(amps, graph.edges, n)
    return StateVector(amps)


def _relabel(amps: np.ndarray, order) -> np.ndarray:
    """The register whose qubit j is qubit order[j] of `amps`: one transpose."""
    m = len(order)
    axes = [m - 1 - order[j] for j in reversed(range(m))]
    return amps.reshape((2,) * m).transpose(axes).reshape(-1)


def _entry_batches(pattern: MeasurementPattern) -> list[list[int]]:
    """The nodes that enter the register before each measurement, then at the end.

    The inputs are present from the start. A node enters when it or a
    neighbour is about to be measured; the outputs still absent enter after
    the last measurement.
    """
    absent = set(range(pattern.graph.num_qubits)) - set(pattern.inputs)
    batches = []
    for step in pattern.steps:
        batch = [q for q in (step.qubit, *pattern.graph.neighbors(step.qubit)) if q in absent]
        absent.difference_update(batch)
        batches.append(batch)
    batches.append([q for q in pattern.outputs if q in absent])
    return batches


def live_width(pattern: MeasurementPattern) -> int:
    """Most nodes present and unmeasured at once: the widest register `mbqc_execute` holds."""
    present = width = len(pattern.inputs)
    for batch in _entry_batches(pattern):
        width = max(width, present + len(batch))
        present += len(batch) - 1
    return width


def _check_live_width(pattern: MeasurementPattern) -> None:
    width = live_width(pattern)
    if width > MAX_SIM_QUBITS:
        raise ValueError(f"pattern has a live width of {width} qubits; at most "
                         f"{MAX_SIM_QUBITS} are supported")


def _enter(amps: np.ndarray, live: list[int], nodes: list[int],
           graph: ConnectivityGraph) -> None:
    """Make `nodes`, the top qubits of `amps`, live and CZ each to the nodes present."""
    position = {q: j for j, q in enumerate(live)}
    edges = []
    for q in nodes:
        position[q] = len(position)
        edges += [(position[p], position[q]) for p in graph.neighbors(q) if p in position]
    live.extend(nodes)
    _entangle(amps, edges, len(live))


def mbqc_execute(pattern: MeasurementPattern, input_state: StateVector | None = None,
                 seed: int = 0, rng: np.random.Generator | None = None,
                 forced_outcomes=None) -> MbqcResult:
    """Entangle nodes as they go live, measure in order with adaptive signs, correct byproducts.

    `forced_outcomes` fixes the outcome sequence (for branch enumeration in
    tests); otherwise outcomes are sampled with the seeded generator. A
    pattern whose live width exceeds MAX_SIM_QUBITS is refused before
    anything is allocated.
    """
    _check_live_width(pattern)
    k = len(pattern.inputs)
    if input_state is not None and input_state.num_qubits != k:
        raise ValueError(
            f"input state has {input_state.num_qubits} qubit(s); pattern declares "
            f"{k} input(s)")
    rng = generator(seed, rng)
    amps = (np.full(2 ** k, 2.0 ** (-k / 2), dtype=complex) if input_state is None
            else input_state.amplitudes.copy())
    live: list[int] = []  # little-endian register order of present qubits
    _enter(amps, live, list(pattern.inputs), pattern.graph)

    outcomes: dict[int, int] = {}
    steps = (*pattern.steps, None)  # the last batch enters after the last measurement
    for index, (step, batch) in enumerate(zip(steps, _entry_batches(pattern))):
        if batch:
            # One factor for the whole batch's |+>: a sqrt(1/2) per node rounds differently.
            amps = np.tile(amps * 2.0 ** (-len(batch) / 2), 2 ** len(batch))
            _enter(amps, live, batch, pattern.graph)
        if step is None:
            break
        sign = (-1) ** sum(outcomes[d] for d in step.sign_deps)
        theta = sign * step.angle
        phase = np.conj(np.exp(1j * theta))
        # Rows <+theta| and <-theta|: the measured qubit's halves become the two branches.
        bras = np.array([[1.0, phase], [1.0, -phase]], dtype=complex) / np.sqrt(2.0)
        position = live.index(step.qubit)
        halves = apply_gate(amps, bras, [position], len(live)).reshape(-1, 2, 2 ** position)
        p_plus = _probability(halves[:, 0, :])
        if forced_outcomes is not None:
            outcome = int(forced_outcomes[index])
        else:
            outcome = pick((p_plus, 1.0 - p_plus), rng)
        branch = halves[:, outcome, :]
        prob = p_plus if outcome == 0 else _probability(branch)
        if prob < 1e-12:
            raise ValueError(
                f"outcome {outcome} on qubit {step.qubit} has probability ~0")
        amps = (branch / np.sqrt(prob)).reshape(-1)
        live.remove(step.qubit)
        outcomes[step.qubit] = outcome

    # Reorder the surviving register so qubit j of the result is outputs[j].
    k = len(pattern.outputs)
    reordered = _relabel(amps, [live.index(q) for q in pattern.outputs])

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


def _parse_adaptivity(expr) -> tuple[int, ...]:
    """Sign dependencies from an expression like '(-1)^(s[0]+s[2]) * theta', or null."""
    if expr is None:
        return ()
    match = _ADAPT_RE.match(read_string(expr, "'adaptivity' entry"))
    if not match:
        raise ValueError(f"bad adaptivity expression {expr!r}")
    return tuple(int(dep) for dep in _DEP_RE.findall(expr))


def parse_pattern(text: str) -> MeasurementPattern:
    """Load a pattern from its JSON file format.

    It may have at most MAX_PATTERN_NODES nodes and a live width of at most
    MAX_SIM_QUBITS. Every malformed input raises ValueError.
    """
    data = read_object(read_json(text, "pattern"), "pattern",
                       ("nodes", "edges", "order", "angles", "outputs"),
                       ("inputs", "adaptivity", "byproducts"))
    nodes = read_integer(data["nodes"], "'nodes'")
    if nodes > MAX_PATTERN_NODES:
        raise ValueError(f"pattern has {nodes} nodes; at most {MAX_PATTERN_NODES} are supported")
    edges = [read_qubits(read_list(edge, "'edges' entry", 2), "'edges'")
             for edge in read_list(data["edges"], "'edges'")]
    graph = ConnectivityGraph.from_edges(nodes, edges)
    order = read_qubits(data["order"], "'order'")
    angles = [read_number(a, "'angles' entry") for a in read_list(data["angles"], "'angles'")]
    if len(order) != len(angles):
        raise ValueError("order and angles must have the same length")
    adaptivity = read_list(data.get("adaptivity", [None] * len(order)), "'adaptivity'")
    if len(adaptivity) != len(order):
        raise ValueError("adaptivity must list one expression (or null) per measured qubit")
    steps = tuple(
        PatternStep(qubit, angle, _parse_adaptivity(expr))
        for qubit, angle, expr in zip(order, angles, adaptivity))
    rules = [read_object(rule, "byproduct", ("type", "qubit", "deps"))
             for rule in read_list(data.get("byproducts", []), "'byproducts'")]
    byproducts = tuple(
        ByproductRule(rule["type"], read_integer(rule["qubit"], "byproduct 'qubit'"),
                      read_qubits(rule["deps"], "byproduct 'deps'"))
        for rule in rules)
    pattern = MeasurementPattern(
        graph, steps,
        outputs=read_qubits(data["outputs"], "'outputs'"),
        inputs=read_qubits(data.get("inputs", []), "'inputs'"),
        byproducts=byproducts)
    _check_live_width(pattern)
    return pattern
