"""Independent reference implementations used to check the package.

These deliberately take different computational routes from the library:
dense Kronecker products with explicit permutation matrices instead of
index-scatter embedding or tensor contraction, exhaustive path enumeration
instead of BFS, closed-form binomials instead of probability propagation,
every measurement branch enumerated instead of shots sampled.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

from aqmkit import gates
from aqmkit.circuit import Circuit
from aqmkit.graphs import ConnectivityGraph


def kron_embed(gate: np.ndarray, targets, num_qubits: int) -> np.ndarray:
    """Dense Kronecker construction: gate on low qubits, then permute."""
    targets = list(targets)
    k = len(targets)
    rest = [q for q in range(num_qubits) if q not in set(targets)]
    low = np.kron(np.eye(2 ** (num_qubits - k), dtype=complex), np.asarray(gate, complex))
    dim = 2 ** num_qubits
    perm = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        phys = 0
        for j in range(k):
            phys |= ((i >> j) & 1) << targets[j]
        for m, q in enumerate(rest):
            phys |= ((i >> (k + m)) & 1) << q
        perm[phys, i] = 1.0
    return perm @ low @ perm.conj().T


def oracle_circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Matrix-chain product over kron_embed."""
    full = np.eye(2 ** circuit.num_qubits, dtype=complex)
    for inst in circuit.instructions:
        matrix = gates.gate_matrix(inst.gate, inst.angle)
        full = kron_embed(matrix, inst.qubits, circuit.num_qubits) @ full
    return full


def oracle_record_distribution(circuit: Circuit) -> dict[str, float]:
    """Exact distribution of the MEASURE record string, by branch enumeration.

    Gates are applied with ``kron_embed``; a MEASURE or RESET splits every
    branch into its two computational outcomes, and RESET flips the
    outcome-1 branch back to |0>.
    """
    n = circuit.num_qubits
    index = np.arange(2 ** n)
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    branches = [("", state)]  # (record so far, unnormalised amplitudes)
    for inst in circuit.instructions:
        q = inst.qubits[0]
        if inst.gate in ("MEASURE", "RESET"):
            split = []
            for record, amps in branches:
                for bit in (0, 1):
                    part = np.where(((index >> q) & 1) == bit, amps, 0.0)
                    if np.vdot(part, part).real < 1e-20:
                        continue
                    if inst.gate == "MEASURE":
                        split.append((record + str(bit), part))
                    else:
                        flipped = kron_embed(gates.X, [q], n) @ part if bit else part
                        split.append((record, flipped))
            branches = split
        else:
            op = kron_embed(gates.gate_matrix(inst.gate, inst.angle), inst.qubits, n)
            branches = [(record, op @ amps) for record, amps in branches]
    probs: dict[str, float] = {}
    for record, amps in branches:
        probs[record] = probs.get(record, 0.0) + float(np.vdot(amps, amps).real)
    return probs


def haar_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, num_qubits: int) -> np.ndarray:
    amps = rng.normal(size=2 ** num_qubits) + 1j * rng.normal(size=2 ** num_qubits)
    return amps / np.linalg.norm(amps)


_ONE_QUBIT = ("H", "T", "TDG", "S", "SDG", "X", "Y", "Z")
_TWO_QUBIT = ("CNOT", "CZ", "SWAP")
_ROTATIONS = ("RX", "RY", "RZ")


def random_circuit(rng: np.random.Generator, num_qubits: int, num_gates: int,
                   two_qubit_only: bool = False, rotations: bool = True) -> Circuit:
    """Random unitary-only circuit over the full alphabet."""
    circuit = Circuit(num_qubits)
    for _ in range(num_gates):
        roll = rng.random()
        if num_qubits >= 2 and (two_qubit_only or roll < 0.45):
            gate = _TWO_QUBIT[rng.integers(len(_TWO_QUBIT))]
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.add(gate, int(a), int(b))
        elif rotations and roll < 0.65:
            gate = _ROTATIONS[rng.integers(len(_ROTATIONS))]
            circuit.add(gate, int(rng.integers(num_qubits)),
                        angle=float(rng.uniform(-np.pi, np.pi)))
        else:
            gate = _ONE_QUBIT[rng.integers(len(_ONE_QUBIT))]
            circuit.add(gate, int(rng.integers(num_qubits)))
    return circuit


def random_measurement_set(rng: np.random.Generator, num_qubits: int,
                           num_outcomes: int) -> list[np.ndarray]:
    """Random complete operator set via A_k S^{-1/2} normalization."""
    dim = 2 ** num_qubits
    raw = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
           for _ in range(num_outcomes)]
    total = sum(a.conj().T @ a for a in raw)
    values, vectors = np.linalg.eigh(total)
    inv_sqrt = vectors @ np.diag(values ** -0.5) @ vectors.conj().T
    return [a @ inv_sqrt for a in raw]


def connected_graphs(num_nodes: int) -> list[ConnectivityGraph]:
    """All connected labeled graphs on num_nodes nodes."""
    if num_nodes == 1:
        return [ConnectivityGraph.from_edges(1, [])]
    possible = list(combinations(range(num_nodes), 2))
    graphs = []
    for bits in product((0, 1), repeat=len(possible)):
        edges = [edge for edge, bit in zip(possible, bits) if bit]
        graph = ConnectivityGraph.from_edges(num_nodes, edges)
        if graph.is_connected():
            graphs.append(graph)
    return graphs


def all_simple_paths(graph: ConnectivityGraph, a: int, b: int) -> list[list[int]]:
    """Exhaustive DFS enumeration of simple paths (small graphs only)."""
    paths = []

    def extend(path):
        node = path[-1]
        if node == b:
            paths.append(list(path))
            return
        for nb in graph.neighbors(node):
            if nb not in path:
                path.append(nb)
                extend(path)
                path.pop()

    extend([a])
    return paths


def oracle_place_inputs(input_amps: np.ndarray, inputs, num_qubits: int) -> np.ndarray:
    """Register with input qubit j on qubit inputs[j] and |+> elsewhere, index by index."""
    scale = 2.0 ** (-(num_qubits - len(inputs)) / 2)
    amps = np.empty(2 ** num_qubits, dtype=complex)
    for index in range(2 ** num_qubits):
        local = 0
        for j, pos in enumerate(inputs):
            local |= ((index >> pos) & 1) << j
        amps[index] = input_amps[local] * scale
    return amps


def oracle_reorder(amps: np.ndarray, live, outputs) -> np.ndarray:
    """Relabel a register holding qubits `live` (in order) so qubit j is outputs[j]."""
    position = {q: i for i, q in enumerate(live)}
    reordered = np.empty(amps.size, dtype=complex)
    for index in range(amps.size):
        target = 0
        for j, q in enumerate(outputs):
            target |= ((index >> position[q]) & 1) << j
        reordered[target] = amps[index]
    return reordered


def binomial_walk_distribution(steps: int) -> dict[int, float]:
    """Closed-form symmetric +/-1 random walk distribution after `steps`."""
    return {2 * k - steps: math.comb(steps, k) / 2 ** steps for k in range(steps + 1)}
