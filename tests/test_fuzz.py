"""Property tests: malformed input fails typed; fused simulation matches the oracle.

Each parser property takes a valid device profile, Ising problem or
measurement pattern, replaces one field (at any depth) with a generated JSON
value and parses the result. Parsing must return or raise ValueError;
nothing is executed, so no register is allocated.

The circuit-text properties feed ``parse_circuit`` arbitrary text and text
built from circuit tokens (it must return a ``Circuit`` or raise
``CircuitParseError``), and check that ``format_circuit`` output parses back
to the same instructions.

The differential property runs generated circuits of 1-6 qubits over the
whole gate alphabet through ``apply_circuit`` and ``circuit_unitary`` and
compares both with the Kronecker-chain ``oracle_circuit_unitary``.

The MBQC property runs generated patterns of 2-12 nodes with forced outcomes
through ``mbqc_execute``, which holds only live nodes, and through
``oracle_mbqc_execute``, which holds every node from the start.
"""

import copy
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_circuit_unitary, oracle_mbqc_execute, random_state

from aqmkit import (ByproductRule, Circuit, CircuitParseError, ConnectivityGraph, Instruction,
                    IsingProblem, MeasurementPattern, PatternStep, ProfileError, StateVector,
                    apply_circuit, circuit_unitary, format_circuit, gates, mbqc_execute,
                    parse_circuit, parse_device_profile, parse_pattern)
from aqmkit.devices import builtin_profile
from aqmkit.profiles import profile_to_dict

SCALARS = (st.none() | st.booleans() | st.integers()
           | st.sampled_from([10 ** 400, -10 ** 400, 2 ** 63]) | st.floats()
           | st.text(max_size=8))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=4)

PROFILE = profile_to_dict(builtin_profile("superconducting-transmon"))
PROBLEM = {"n": 2, "h": [0.5, -1.0], "J": [[0, 1, 1.0]]}
PATTERN = {"nodes": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]], "inputs": [0],
           "order": [0, 1, 2, 3], "angles": [0.0, -0.4, -0.9, -1.4],
           "adaptivity": [None, "(-1)^s[0] * theta", "(-1)^s[1] * theta",
                          "(-1)^(s[0]+s[2]) * theta"],
           "outputs": [4],
           "byproducts": [{"type": "X", "qubit": 4, "deps": [1, 3]},
                          {"type": "Z", "qubit": 4, "deps": [0, 2]}]}


def _paths(value, prefix=()):
    """The path of every value inside `value`, the root included."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutants(valid):
    """JSON text of `valid` with the value at one path replaced."""
    @st.composite
    def mutant(draw):
        path = draw(st.sampled_from(list(_paths(valid))))
        value = draw(JSON_VALUES)
        if not path:
            return json.dumps(value)
        data = copy.deepcopy(valid)
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return json.dumps(data)
    return mutant()


@settings(max_examples=200, deadline=None)
@given(_mutants(PROFILE))
def test_profile_parser_raises_only_profile_error(text):
    try:
        parse_device_profile(text)
    except ProfileError:
        pass


@settings(max_examples=200, deadline=None)
@given(_mutants(PROBLEM))
def test_ising_parser_raises_only_value_error(text):
    try:
        IsingProblem.from_json(text)
    except ValueError:
        pass


@settings(max_examples=200, deadline=None)
@given(_mutants(PATTERN))
def test_pattern_parser_raises_only_value_error(text):
    try:
        parse_pattern(text)
    except ValueError:
        pass


@st.composite
def _circuits(draw):
    """A unitary circuit of 1-6 qubits over every gate, with finite angles."""
    n = draw(st.integers(1, 6))
    names = sorted(name for name in gates.UNITARY_GATES if gates.GATE_ARITY[name] <= n)
    instructions = []
    for name in draw(st.lists(st.sampled_from(names), max_size=24)):
        qubits = draw(st.permutations(range(n)))[:gates.GATE_ARITY[name]]
        angle = (draw(st.floats(allow_nan=False, allow_infinity=False))
                 if name in gates.ROTATION_GATES else None)
        instructions.append(Instruction(name, tuple(qubits), angle))
    return Circuit(n, instructions)


@settings(max_examples=150, deadline=None)
@given(_circuits(), st.integers(0, 2 ** 32 - 1))
def test_fused_simulation_matches_kron_oracle(circuit, seed):
    initial = random_state(np.random.default_rng(seed), circuit.num_qubits)
    oracle = oracle_circuit_unitary(circuit)
    final, records = apply_circuit(circuit, StateVector(initial))
    assert records == []
    assert np.max(np.abs(final.amplitudes - oracle @ initial)) < 1e-12
    assert np.max(np.abs(circuit_unitary(circuit) - oracle)) < 1e-12


# Quarter turns make some forced outcomes impossible, so both executors must
# refuse them alike; the other angles are generic.
ANGLES = (st.integers(-4, 4).map(lambda k: k * math.pi / 2)
          | st.sampled_from([0.3, -1.1, 2.2, math.pi / 4]))


@st.composite
def _patterns(draw):
    """A pattern of 2-12 nodes with inputs, unsorted outputs, sign dependencies and byproducts."""
    n = draw(st.integers(2, 12))
    nodes = draw(st.permutations(range(n)))
    num_outputs = draw(st.integers(1, n))
    measured, outputs = nodes[:n - num_outputs], tuple(nodes[n - num_outputs:])
    inputs = tuple(draw(st.permutations(range(n)))[:draw(st.integers(0, n))])
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    steps = tuple(
        PatternStep(q, draw(ANGLES),
                    tuple(draw(st.lists(st.sampled_from(measured[:i]), unique=True, max_size=3))
                          if i else ()))
        for i, q in enumerate(measured))
    deps = st.lists(st.sampled_from(measured), unique=True, max_size=3).map(tuple) \
        if measured else st.just(())
    byproducts = tuple(draw(st.lists(
        st.builds(ByproductRule, st.sampled_from("XZ"), st.sampled_from(outputs), deps),
        max_size=4)))
    return MeasurementPattern(ConnectivityGraph.from_edges(n, edges), steps, outputs=outputs,
                              inputs=inputs, byproducts=byproducts)


def _execute(execute, pattern, psi, outcomes):
    try:
        return execute(pattern, psi, forced_outcomes=outcomes)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(_patterns(), st.data())
def test_live_register_mbqc_matches_whole_register_oracle(pattern, data):
    outcomes = data.draw(st.lists(st.integers(0, 1), min_size=len(pattern.steps),
                                  max_size=len(pattern.steps)))
    psi = None
    if pattern.inputs and data.draw(st.booleans()):
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        psi = StateVector(random_state(np.random.default_rng(seed), len(pattern.inputs)))
    live = _execute(mbqc_execute, pattern, psi, outcomes)
    oracle = _execute(oracle_mbqc_execute, pattern, psi, outcomes)
    if isinstance(oracle, str):
        assert live == oracle
        return
    assert not isinstance(live, str), live
    assert live.outcomes == oracle.outcomes and live.byproduct == oracle.byproduct
    assert np.max(np.abs(live.output_state.amplitudes
                         - oracle.output_state.amplitudes)) <= 1e-12


# Words that reach every branch of the parser: headers, gate names of each
# arity in mixed case, operands in and out of range, angles that are not
# finite or not numbers, comments and non-ASCII digits.
CIRCUIT_TOKENS = st.sampled_from([
    "qubits", "QUBITS", "h", "X", "rz", "RY", "cnot", "SWAP", "CCX", "MEASURE", "reset",
    "FROB", "0", "1", "2", "-1", "7", "0.5", "-0.0", "nan", "inf", "1e400", "1_0", "0x1",
    "\u0663", "#", "# note", ""])
NOISE_LINES = st.lists(CIRCUIT_TOKENS, max_size=5).map(" ".join) | st.text(max_size=12)
GOOD_LINES = st.sampled_from(["H 0", "cnot 0 1", "RZ 2 -0.5", "MEASURE 1", "reset 0",
                              "CCX 0 1 2", "# comment", ""])


@st.composite
def _circuit_texts(draw):
    """A header, then well-formed lines with at most two noise lines among them."""
    lines = draw(st.lists(GOOD_LINES, max_size=6))
    for noise in draw(st.lists(NOISE_LINES, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), noise)
    header = draw(st.sampled_from(["qubits 3", "QUBITS 4", "  qubits 3 # c"]) | NOISE_LINES)
    return "\n".join([header, *lines])


@settings(max_examples=400, deadline=None)
@given(st.text() | _circuit_texts())
def test_parse_circuit_raises_only_circuit_parse_error(text):
    try:
        circuit = parse_circuit(text)
    except CircuitParseError:
        return
    assert isinstance(circuit, Circuit)


@st.composite
def _circuits_with_markers(draw):
    """A ``_circuits`` circuit with MEASURE and RESET instructions mixed in."""
    circuit = draw(_circuits())
    for _ in range(draw(st.integers(0, 4))):
        marker = Instruction(draw(st.sampled_from(sorted(gates.MARKERS))),
                             (draw(st.integers(0, circuit.num_qubits - 1)),))
        circuit.instructions.insert(draw(st.integers(0, len(circuit.instructions))), marker)
    return circuit


@settings(max_examples=300, deadline=None)
@given(_circuits_with_markers())
def test_format_then_parse_reproduces_instructions(circuit):
    text = format_circuit(circuit)
    parsed = parse_circuit(text)
    assert parsed.num_qubits == circuit.num_qubits
    assert parsed.instructions == circuit.instructions
    # Equal floats may differ in sign (0.0 == -0.0): the text must match too.
    assert format_circuit(parsed) == text
